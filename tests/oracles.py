"""Independent brute-force oracles used to validate the optimized library code.

Everything here recomputes results from first principles with plain sets and
exhaustive search, deliberately avoiding the bitmask, max-flow, and pruning
machinery under test.  Keep inputs tiny (n <= 6 for paths, n <= 4 for the
condition replays); the point is trust, not speed.  The one bitmask routine,
``lcr_split_violated_loop``, is the plain-loop form of the vectorised LCR
detector and serves as its reference.  ``carrier_logs`` is the plain form of
the necessity harness's reception logs: it replays the carrier run and
renders each copy's log as ``canonical_json`` of its sorted entries.
``max_disjoint_paths_network`` is the dict-of-dicts max-flow that the
bitmask max-flow replaced, and ``flood_records_layered`` evaluates a flood
one trail length at a time, applying the adversary's forward map at every
faulty hop, where the library evaluates it in closed form.
``first_violation_rebuilding`` is the canonical witness rescan that builds
every split graph of ``enumerate_lambda`` in turn and decides each alone,
where the library runs the detector in batches over the layout rows of one
split graph per copy swap and builds only the winning split graph.
"""

from __future__ import annotations

import itertools
from collections import deque

import numpy as np

from hyperbft import conditions
from hyperbft.formats import canonical_json
from hyperbft.hypergraph import DirectedHypergraph
from hyperbft.protocol import ABSENT, TrailUniverse, flood_records, get_engine
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


def max_disjoint_paths_network(
    adj_bits,
    nbits: int,
    sources_mask: int,
    target_bit: int,
    removed_mask: int = 0,
    uncapped_mask: int = 0,
    cap: int | None = None,
) -> int:
    """``paths.max_disjoint_paths_bits`` on an explicit residual network:
    node i becomes in-vertex 2i and out-vertex 2i+1, a super source feeds the
    sources, and BFS augmenting paths run over dict-of-dicts capacities."""
    if sources_mask >> target_bit & 1:
        raise ValueError("target must not be a source; handle the trivial path upstream")
    sources_mask &= ~removed_mask
    if removed_mask >> target_bit & 1 or not sources_mask:
        return 0
    inf = 1 << 30
    s = 2 * nbits
    t = 2 * target_bit
    capacity: list[dict[int, int]] = [dict() for _ in range(2 * nbits + 1)]

    def add_arc(a: int, b: int, c: int) -> None:
        capacity[a][b] = capacity[a].get(b, 0) + c
        capacity[b].setdefault(a, 0)

    for i in range(nbits):
        if removed_mask >> i & 1:
            continue
        internal = inf if (uncapped_mask >> i & 1) or i == target_bit else 1
        add_arc(2 * i, 2 * i + 1, internal)
        for j in range(nbits):
            if (adj_bits[i] & ~removed_mask) >> j & 1:
                add_arc(2 * i + 1, 2 * j, 1)
    for i in range(nbits):
        if sources_mask >> i & 1:
            add_arc(s, 2 * i, inf if uncapped_mask >> i & 1 else 1)

    flow = 0
    limit = cap if cap is not None else inf
    while flow < limit:
        parent = {s: s}
        queue = deque([s])
        while queue and t not in parent:
            a = queue.popleft()
            for b, c in capacity[a].items():
                if c > 0 and b not in parent:
                    parent[b] = a
                    queue.append(b)
        if t not in parent:
            break
        b = t
        while b != s:
            a = parent[b]
            capacity[a][b] -= 1
            capacity[b][a] += 1
            b = a
        flow += 1
    return flow


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


def first_violation_rebuilding(g: DirectedHypergraph, fset, f: int, condition: str):
    """(split index, partition index, violation) of a violated fault set:
    the first violating split graph in ``enumerate_lambda`` order, each one
    built and decided on its own, and its first violating partition."""
    detect = conditions._detector(condition)
    base = conditions._partition_base(condition)
    if condition == conditions.LCR:
        canonical = conditions._canonical_lcr_partition
    else:
        canonical = conditions._canonical_ab_partition
    skipped = 0
    for idx, sh in enumerate(enumerate_lambda(g, fset)):
        out, m, fprime = conditions._split_graph_bits(sh)
        if detect([out], m, fprime, f) < 0:
            skipped += base ** m
            continue
        pidx, part = canonical(sh, f)
        return idx, skipped + pidx, conditions.Violation(frozenset(fset), sh, part)
    raise AssertionError("no violating split graph")


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


# ---------------------------------------------------------------------------
# floods


def flood_records_layered(tu: TrailUniverse, seeds, gamma, faulty=(), adversary=None):
    """``protocol.flood_records`` one trail length at a time: a faulty
    origin's records take its emission on their first channel, and every
    longer record takes its parent's value through the forward map of a
    faulty transmitter.  ``transmitter`` and the layer bounds are derived
    here from ``trail_of``."""
    g = tu.g
    heads = {e.id: e.head for e in g.edges}
    transmitter = np.array([heads[trail[-1]] for trail in tu.trail_of], dtype=np.int32)
    length = np.array([len(trail) for trail in tu.trail_of], dtype=np.int32)
    rules = {} if adversary is None or adversary.follows_protocol else dict.fromkeys(faulty)
    vals = np.full(tu.size, ABSENT, dtype=np.int16)
    first = np.flatnonzero(length == 1)
    for i in first.tolist():
        o = int(tu.origin[i])
        if o in seeds:
            vals[i] = gamma[o]
    for w in rules:
        if w not in seeds:
            continue
        eids = [e.id for e in g.head_edges(w)]
        emitted = adversary.emit(w, gamma[w], np.arange(len(eids)), np.array(eids))
        by_edge = dict(zip(eids, emitted.tolist()))
        for i in first.tolist():
            if tu.origin[i] == w:
                vals[i] = by_edge[int(tu.edge[i])]
    forward = {ABSENT: ABSENT}
    if rules:
        forward.update({x: ABSENT if y is None else y for x, y in enumerate(adversary.forward)})
    for depth in range(2, int(length.max(initial=0)) + 1):
        layer = np.flatnonzero(length == depth)
        out = vals[tu.parent[layer]]
        for w in rules:
            sel = transmitter[layer] == w
            out[sel] = [forward[x] for x in out[sel].tolist()]
        vals[layer] = out
    return vals


# ---------------------------------------------------------------------------
# necessity harness: reception logs


def carrier_logs(carrier) -> tuple[list[int], dict[int, bytes]]:
    """Final states and reception logs of every copy of a carrier system.

    Replays the carrier run phase by phase; each received record becomes an
    entry [phase fault set, "trace"|"relay", origin, base channel trail,
    value], with the trail rebuilt by walking the record's parents, and a
    copy's log is the canonical JSON of its sorted entries."""
    g = carrier.base
    engine = get_engine(g, carrier.f)
    tu_g = engine.tu
    groups = {c.id: g.bit_of[c.base_node] for c in carrier.copies}
    tu_c = TrailUniverse(carrier.graph, groups=groups)

    def base_record(t: int) -> tuple[int, list[int]]:
        trail = []
        cur = t
        while cur >= 0:
            trail.append(carrier.base_edge[int(tu_c.edge[cur])])
            cur = int(tu_c.parent[cur])
        trail.reverse()
        return carrier.copies[int(tu_c.origin[t])].base_node, trail

    def collapse(cid: int, vals: np.ndarray) -> np.ndarray:
        vec = np.full(tu_g.size, ABSENT, dtype=np.int16)
        for t in tu_c.receives[cid].tolist():
            origin, trail = base_record(t)
            vec[tu_g.tid(origin, tuple(trail))] = vals[t]
        return vec

    gamma = [c.input for c in carrier.copies]
    logs: dict[int, list] = {c.id: [] for c in carrier.copies}

    def record_log(cid: int, phase_tag, flood_tag: str, vals: np.ndarray) -> None:
        for t in tu_c.receives[cid].tolist():
            v = int(vals[t])
            if v != ABSENT:
                origin, trail = base_record(t)
                logs[cid].append([list(phase_tag), flood_tag, origin, trail, v])

    for ph in engine.phases:
        if ph.source is None:
            continue
        phase_tag = tuple(sorted(ph.fault_set))
        seeds_b = frozenset(c.id for c in carrier.copies if c.base_node in ph.seeds_b)
        vals_b = flood_records(tu_c, seeds_b, gamma, {})
        new_gamma = list(gamma)
        for c in carrier.copies:
            record_log(c.id, phase_tag, "trace", vals_b)
            if c.base_node in ph.source:
                vec = collapse(c.id, vals_b)
                new_gamma[c.id] = engine.node_step_cd(ph, c.base_node, gamma[c.id], vec)
        seeds_e = frozenset(c.id for c in carrier.copies if c.base_node in ph.source)
        vals_e = flood_records(tu_c, seeds_e, new_gamma, {})
        for c in carrier.copies:
            record_log(c.id, phase_tag, "relay", vals_e)
            if c.base_node not in ph.source and c.base_node not in ph.fault_set:
                vec = collapse(c.id, vals_e)
                new_gamma[c.id] = engine.node_step_f(ph, c.base_node, gamma[c.id], vec)
        gamma = new_gamma

    return gamma, {
        cid: canonical_json(sorted(entries)).encode() for cid, entries in logs.items()
    }
