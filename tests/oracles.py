"""Independent brute-force oracles used to validate the optimized library code.

Everything here recomputes results from first principles with plain sets and
exhaustive search, deliberately avoiding the bitmask, max-flow, and pruning
machinery under test.  Keep inputs tiny (n <= 6 for paths, n <= 4 for the
condition replays); the point is trust, not speed.  The one bitmask routine,
``lcr_split_violated_loop``, is the plain-loop form of the vectorised LCR
detector and serves as its reference.
"""

from __future__ import annotations

import itertools

from hyperbft.hypergraph import DirectedHypergraph
from hyperbft.splitting import enumerate_lambda


# ---------------------------------------------------------------------------
# node-disjoint path packing


def _arc_sets(g: DirectedHypergraph) -> dict[int, set[int]]:
    out: dict[int, set[int]] = {v: set() for v in g.nodes}
    for e in g.edges:
        out[e.head].update(e.tails)
    return out


def _all_simple_paths_to(
    out: dict[int, set[int]], sources: set[int], target: int, allowed: set[int]
) -> list[frozenset[int]]:
    """Every simple path from a source to the target, as its set of non-target
    nodes (that is the footprint that matters for disjointness)."""
    paths: list[frozenset[int]] = []

    def extend(node: int, visited: tuple[int, ...]) -> None:
        for w in sorted(out.get(node, ())):
            if w == target:
                paths.append(frozenset(visited))
            elif w in allowed and w not in visited:
                extend(w, visited + (w,))

    for s in sorted(sources):
        if s in allowed and s != target:
            extend(s, (s,))
    return paths


def brute_force_disjoint_paths(
    g: DirectedHypergraph,
    sources,
    target: int,
    excluded=(),
) -> int:
    """Maximum packing of node-disjoint source->target paths by raw search.

    Paths may share only the target; when the target itself is a source the
    single-node path counts as one.
    """
    srcs = set(sources)
    excl = set(excluded)
    allowed = set(g.nodes) - excl
    trivial = 1 if (target in srcs and target in allowed) else 0
    if target not in allowed:
        return 0
    footprints = _all_simple_paths_to(_arc_sets(g), srcs - {target}, target, allowed)
    masks = sorted(
        {sum(1 << v for v in fp) for fp in footprints},
        key=lambda m: (bin(m).count("1"), m),
    )

    best = 0

    def pack(start: int, used: int, depth: int) -> None:
        nonlocal best
        best = max(best, depth)
        if depth + (len(masks) - start) <= best:
            return
        for i in range(start, len(masks)):
            if used & masks[i] == 0:
                pack(i + 1, used | masks[i], depth + 1)

    pack(0, 0, 0)
    return trivial + best


def brute_force_propagates(
    g: DirectedHypergraph, sources, targets, f: int, excluded=()
) -> bool:
    src = set(sources)
    return all(
        brute_force_disjoint_paths(g, src, v, excluded) >= f + 1
        for v in set(targets)
    )


# ---------------------------------------------------------------------------
# condition replays from the raw definitions


def _neighborhood(g: DirectedHypergraph, a: set[int], b: set[int]) -> set[int]:
    return {
        e.head for e in g.edges if e.head in a and e.tails & b
    }


def _adjacent(g: DirectedHypergraph, a: set[int], b: set[int], f: int) -> bool:
    return not b or len(_neighborhood(g, a, b)) >= f + 1


def _subsets_upto(nodes, k: int):
    ordered = sorted(nodes)
    for size in range(min(k, len(ordered)) + 1):
        yield from map(frozenset, itertools.combinations(ordered, size))


def simple_lcr_check(g: DirectedHypergraph, f: int) -> bool:
    """Replay of the three-way-partition condition straight from its statement."""
    for fault_set in _subsets_upto(g.nodes, f):
        for sh in enumerate_lambda(g, fault_set):
            gp = sh.graph
            fprime = set(sh.f_prime)
            order = sorted(gp.nodes)
            for sides in itertools.product((0, 1, 2), repeat=len(order)):
                left = {v for v, s in zip(order, sides) if s == 0}
                center = {v for v, s in zip(order, sides) if s == 1}
                right = {v for v, s in zip(order, sides) if s == 2}
                if not _adjacent(gp, left | center, right - fprime, f) and not _adjacent(
                    gp, right | center, left - fprime, f
                ):
                    return False
    return True


def simple_ab_check(g: DirectedHypergraph, f: int) -> bool:
    """Replay of the two-way-partition condition straight from its statement."""
    for fault_set in _subsets_upto(g.nodes, f):
        for sh in enumerate_lambda(g, fault_set):
            gp = sh.graph
            fprime = set(sh.f_prime)
            order = sorted(gp.nodes)
            for sides in itertools.product((0, 1), repeat=len(order)):
                side_a = {v for v, s in zip(order, sides) if s == 0}
                side_b = {v for v, s in zip(order, sides) if s == 1}
                forward = brute_force_propagates(
                    gp, side_a, side_b - fprime, f, excluded=side_b & fprime
                )
                backward = brute_force_propagates(
                    gp, side_b, side_a - fprime, f, excluded=side_a & fprime
                )
                if not forward and not backward:
                    return False
    return True


def lcr_split_violated_loop(out_bits: list[int], m: int, fprime: int, f: int) -> bool:
    """Existence of a violating (L, C, R) partition of one split graph, by
    plain loops over the 2^m node sets.

    Both failing clauses reduce to the one-argument predicate
    bad(P) := not adjacent(V' - P, P - F'), so a violation is exactly a
    disjoint pair of non-empty bad sets (L, R; C is whatever remains)."""
    full = (1 << m) - 1
    bad = bytearray(1 << m)
    any_bad = False
    for p in range(1, full + 1):
        t = p & ~fprime
        if not t:
            continue
        count = 0
        rest = full & ~p
        ok = False
        while rest:
            low = rest & -rest
            rest ^= low
            if out_bits[low.bit_length() - 1] & t:
                count += 1
                if count > f:
                    ok = True
                    break
        if not ok:
            bad[p] = 1
            any_bad = True
    if not any_bad:
        return False
    # dp[mask] := some bad set is a subset of mask
    dp = bytearray(bad)
    for i in range(m):
        b = 1 << i
        for mask in range(1 << m):
            if mask & b and dp[mask ^ b]:
                dp[mask] = 1
    for x in range(1, full + 1):
        if bad[x] and dp[full & ~x]:
            return True
    return False
