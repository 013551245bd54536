"""Independent brute-force oracles used to validate the optimized library code.

Everything here recomputes results from first principles with plain sets and
exhaustive search, deliberately avoiding the bitmask, max-flow, and pruning
machinery under test.  Keep inputs tiny (n <= 6 for paths, n <= 4 for the
condition replays); the point is trust, not speed.  Three routines work on
bitmasks: ``closures_search`` grows the detector's closures by a plain
search, ``lcr_split_violated_loop`` is the plain-loop form of the LCR
detector and serves as its reference, and ``first_lcr_labelling_scan`` is
the canonical (L, C, R) scan that walks every labelling in product order,
where the library builds the first violating labelling digit by digit from
closures.  ``carrier_logs`` is the plain form of
the necessity harness's reception logs: it replays the carrier run over the
carrier trails that ``carrier_trails`` finds by depth-first search, where the
library reads them off the base graph's trails, and renders each copy's log
as ``canonical_json`` of its sorted entries.
``max_disjoint_paths_network`` is the dict-of-dicts max-flow that the
bitmask max-flow replaced, and ``flood_records_layered`` evaluates a flood
one trail length at a time, applying the adversary's forward map at every
faulty hop, where the library evaluates it in closed form.
``first_violation_rebuilding`` is the canonical witness rescan that builds
every split graph of ``enumerate_lambda`` in turn and decides each alone,
where the library builds only the winning split graph.
``split_layout_relifting`` lifts every channel's tail mask for each split
set, where the library reads the fault set's touching channels once.
``scan_fault_set_ordered`` runs the detector in batches over the rows of
one split graph per copy swap, in counter order, where the library decides
a split set on its distinct, Pareto-minimal rows and finds the least
violating counter bit by bit; ``check_per_fault_set`` runs it once per
fault set and sums the counters.
``source_components_mutual_reach`` finds source components by a
breadth-first search from every node, where the library grows bitmask
closures.
``receives_reference`` appends every trail to its receivers' lists one by
one, and ``phase_candidates_reference`` filters each node's list alone,
where the library builds the lists with one nonzero and a phase's candidate
tables with one pass over all of them.
``node_steps_reference`` is a node's step (c)+(d) or step (f) computed from
the phase's fault set and source component alone, where the engine reads
per-(phase, node) candidate tables built once per phase; its
``edge_used_reference`` reads each node's channel off every trail's channel
list, where the library fills a table one trail length at a time.
``run_reference`` is a whole run built from ``flood_records`` and
``node_steps_reference`` alone, where the engine memoizes phases, reads
floods off tables and skips the relay flood when step (f) has no node.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

import numpy as np

from hyperbft import conditions
from hyperbft.formats import canonical_json
from hyperbft.hypergraph import DirectedHypergraph, Hyperedge
from hyperbft.paths import canonical_path, exists_disjoint_packing, propagates_bits
from hyperbft.protocol import (
    ABSENT,
    Candidates,
    PhaseOutcome,
    RunResult,
    TrailUniverse,
    _receive_table,
    flood_records,
    get_engine,
    make_adversary,
)
from hyperbft.splitting import (
    SplitLayout,
    SplitSpec,
    enumerate_lambda,
    split,
    split_layout,
    split_sets,
)


# ---------------------------------------------------------------------------
# node-disjoint path packing


def _arc_sets(g: DirectedHypergraph) -> dict[int, set[int]]:
    out: dict[int, set[int]] = {v: set() for v in g.nodes}
    for e in g.edges:
        out[e.head].update(e.tails)
    return out


def source_components_mutual_reach(g: DirectedHypergraph) -> tuple[frozenset[int], ...]:
    """The source components of g's underlying digraph from the definition:
    the classes of mutual reachability, each found by a breadth-first search
    from every node, that no arc enters from outside, ordered by their
    smallest node."""
    out = _arc_sets(g)

    def reach(v: int) -> set[int]:
        seen, queue = {v}, deque([v])
        while queue:
            for w in out[queue.popleft()]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return seen

    reaches = {v: reach(v) for v in g.nodes}
    classes = {
        frozenset(u for u in g.nodes if u in reaches[v] and v in reaches[u]) for v in g.nodes
    }
    entered = {c for c in classes for u in g.nodes - c if out[u] & c}
    return tuple(sorted(classes - entered, key=min))


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


def induced_with_edges(g: DirectedHypergraph, u, extra_edge_ids) -> DirectedHypergraph:
    """``g`` restricted to ``u`` plus the listed hyperedges kept whole.

    The node set grows by the endpoints of the extra edges.  If an extra
    edge would also appear (restricted) in the induced part, the whole
    edge wins."""
    uset = frozenset(u)
    extra_ids = set(extra_edge_ids)
    nodes = set(uset)
    for eid in extra_ids:
        e = g.edge_by_id[eid]
        nodes.add(e.head)
        nodes.update(e.tails)
    edges = []
    for e in g.edges:
        if e.id in extra_ids:
            edges.append(e)
        elif e.head in uset and e.tails & uset:
            edges.append(Hyperedge(e.id, e.head, e.tails & uset))
    return DirectedHypergraph(g.n, tuple(edges), frozenset(nodes))


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
    detect, canonical, base = conditions._condition(condition)
    skipped = 0
    for idx, sh in enumerate(enumerate_lambda(g, fset)):
        out, m, fprime = conditions._split_graph_bits(sh)
        if detect([out], m, fprime, f) < 0:
            skipped += base ** m
            continue
        pidx, part = canonical(sh, f)
        return idx, skipped + pidx, conditions.Violation(frozenset(fset), sh, part)
    raise AssertionError("no violating split graph")


def light_splits_ordered(layout, f: int):
    """Yield (counters, rows) batches that together hold one representative
    of every copy-swap class of the split graphs of ``layout``, by counter.

    ``rows`` is a (B, m) int64 array of out-masks, one row per split graph;
    ``counters`` holds each row's assignment counter (its index in the
    split set's ``enumerate_lambda`` range), ascending.  Every split node's
    highest-id slot stays on copy 0, which keeps the least counter of every
    copy-swap class.  A batch fills at most ``conditions._BATCH_CELLS``
    closure cells at f, C(m, f) * m per row (always at least one row).
    """
    # copy-0 bit -> that node's highest-id slot (slots ascend by id: the last one wins)
    highest = {b0: j for j, (_, b0, _, _) in enumerate(layout.slots)}
    static = list(layout.static)
    free = []
    for j, (_, b0, _, tm) in enumerate(layout.slots):
        if highest[b0] == j:
            static[b0] |= tm
        else:
            free.append(j)
    total = 1 << len(free)
    m = layout.m
    step = max(1, conditions._BATCH_CELLS // (math.comb(m, min(f, m)) * m or 1))
    base = np.array(static, dtype=np.int64)
    for lo in range(0, total, step):
        light = np.arange(lo, min(lo + step, total), dtype=np.int64)
        rows = np.tile(base, (len(light), 1))
        counters = np.zeros_like(light)
        for k, j in enumerate(free):
            _, b0, b1, tm = layout.slots[j]
            bit = light >> k & 1
            counters |= bit << j
            on_copy1 = bit.astype(bool)
            rows[:, b0] |= np.where(on_copy1, 0, tm)
            rows[:, b1] |= np.where(on_copy1, tm, 0)
        yield counters, rows


def scan_fault_set_ordered(g: DirectedHypergraph, fset, f: int, condition: str):
    """``conditions._scan_fault_set`` as one pass over the halved family in
    ``enumerate_lambda`` order: the detector runs on every light split's
    row, batch by batch, and the first violating row is the witness."""
    fset = frozenset(fset)
    detect, canonical, base = conditions._condition(condition)
    splits = partitions = 0
    for x in split_sets(fset):
        layout = split_layout(g, fset, x)
        m = layout.m
        for counters, rows in light_splits_ordered(layout, f):
            hit = detect(rows.tolist(), m, layout.fprime, f)
            if hit < 0:
                continue
            counter = int(counters[hit])
            assignment = {s[0]: counter >> j & 1 for j, s in enumerate(layout.slots)}
            sh = split(g, fset, SplitSpec.make(x, assignment))
            pidx, part = canonical(sh, f)
            return (
                False,
                splits + counter + 1,
                partitions + counter * base ** m + pidx + 1,
                conditions.Violation(fset, sh, part),
            )
        family = 1 << len(layout.slots)
        splits += family
        partitions += family * base ** m
    return True, splits, partitions, None


def check_per_fault_set(g: DirectedHypergraph, f: int, condition: str):
    """The ``ConditionReport`` of one ``scan_fault_set_ordered`` per fault set
    of ``subsets_by_cardinality``, counters summed, up to the first
    violated fault set."""
    fault_sets = splits = partitions = 0
    for fset in conditions.subsets_by_cardinality(g.nodes, f):
        fault_sets += 1
        holds, s, p, violation = scan_fault_set_ordered(g, fset, f, condition)
        splits += s
        partitions += p
        if not holds:
            return conditions.ConditionReport(
                condition, f, False, fault_sets, splits, partitions, violation
            )
    return conditions.ConditionReport(condition, f, True, fault_sets, splits, partitions, None)


def split_layout_relifting(g: DirectedHypergraph, fault_set, x) -> SplitLayout:
    """The layout of the splits of ``x`` built from every channel's tail
    mask, lifted over the copies of ``x`` one by one."""
    xs = sorted(x)
    n0 = len(g.node_order)
    m = n0 + len(xs)
    bit = g.bit_of
    copies = {bit[v]: n0 + k for k, v in enumerate(xs)}
    static = [0] * m
    slots = []
    for e, t in zip(g.edges, g.tail_masks):
        for b0, b1 in copies.items():
            t |= (t >> b0 & 1) << b1
        head = bit[e.head]
        if head in copies:
            slots.append((e.id, head, copies[head], t))
        else:
            static[head] |= t
    slots.sort()
    fprime = g.mask_of(fault_set)
    for b1 in copies.values():
        fprime |= 1 << b1
    return SplitLayout(m, fprime, tuple(static), tuple(slots))


def closures_search(
    out_bits: list[int], m: int, fprime: int, heads: list[int]
) -> list[list[int]]:
    """cl[h][v]: v, then every in-neighbour outside ``heads[h]`` of each
    member outside F', and so on, by a plain search from v, where the
    library squares a reach matrix or runs a bitmask Warshall."""
    result = []
    for hmask in heads:
        row = []
        for v in range(m):
            cl, todo = 1 << v, [v]
            while todo:
                w = todo.pop()
                if fprime >> w & 1:
                    continue
                for u in range(m):
                    if out_bits[u] >> w & 1 and not (hmask | cl) >> u & 1:
                        cl |= 1 << u
                        todo.append(u)
            row.append(cl)
        result.append(row)
    return result


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



def first_lcr_labelling_scan(out, fprime: int, bits, f: int) -> tuple[int, int, int, int]:
    """The first violating (L, C, R) labelling of the node bits ``bits``.

    Labellings run in ``itertools.product((0, 1, 2))`` order, digit i
    labelling ``bits[i]``; only the labelled nodes act as heads.  A labelling
    violates when L and R are non-empty, at most f heads of L u C point into
    R - F' and at most f heads of R u C point into L - F'.  Returns (index,
    L mask, C mask, R mask).
    """
    universe = 0
    for b in bits:
        universe |= 1 << b

    def adjacent(heads_mask: int, into_mask: int) -> bool:
        if not into_mask:
            return True
        count = 0
        rest = heads_mask
        while rest:
            low = rest & -rest
            rest ^= low
            if out[low.bit_length() - 1] & into_mask:
                count += 1
                if count > f:
                    return True
        return False

    for idx, digits in enumerate(itertools.product((0, 1, 2), repeat=len(bits))):
        masks = [0, 0, 0]
        for b, dg in zip(bits, digits):
            masks[dg] |= 1 << b
        lm, cm, rm = masks
        if not lm or not rm:
            continue
        if adjacent(universe & ~rm, rm & ~fprime):
            continue
        if adjacent(universe & ~lm, lm & ~fprime):
            continue
        return idx, lm, cm, rm
    raise AssertionError("violation vanished during canonical rescan")


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
                vals[i] = by_edge[tu.trail_of[i][0]]
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
# per-node protocol steps


def edge_used_reference(tu: TrailUniverse, u: int) -> np.ndarray:
    """The index of the channel u transmitted on within each trail (-1 if
    it did not), read off each trail's channel id list."""
    heads = {e.id: e.head for e in tu.g.edges}
    return np.array(
        [
            next((tu.channel_index[e] for e in trail if heads[e] == u), -1)
            for trail in tu.trail_of
        ],
        dtype=np.int32,
    )


def receives_reference(tu: TrailUniverse) -> dict[int, np.ndarray]:
    """The trails each node receives, by (length, tmask) and then by id:
    every trail in that order is appended to the list of each tail of its
    last channel, where the library reads all lists off one nonzero."""
    length = np.array([len(trail) for trail in tu.trail_of], dtype=np.int64)
    receives: dict[int, list[int]] = {v: [] for v in tu.g.node_order}
    for tid in np.lexsort((tu.tmask, length)).tolist():
        for w in sorted(tu.g.edge_by_id[tu.trail_of[tid][-1]].tails):
            receives[w].append(tid)
    return {v: np.array(ts, dtype=np.int32) for v, ts in receives.items()}


def phase_candidates_reference(engine, ph) -> tuple[dict, dict]:
    """A phase's step (d) and step (f) candidate tables, built node by node:
    each node filters its own receive list by the transmitters it must avoid
    and the origins it admits, and starts a run wherever the mask changes,
    where the library filters every receive list in one pass and slices the
    tables out.  Returns (tables of S's nodes, tables of the nodes outside S
    and F)."""
    g, tu = engine.g, engine.tu
    bit = g.bit_of
    fset, source = ph.fault_set, ph.source
    nfs = g.in_neighborhood(fset, source)
    receives = receives_reference(tu)
    # by channel index, in the narrowest type that holds -(slots + 1); the
    # extra last entry maps -1 to -1
    slots = len(ph.layout.slots)
    slot_of = np.full(len(tu.channel_ids) + 1, -1, dtype=np.int8 if slots < 128 else np.int16)
    for j, (eid, _, _, _) in enumerate(ph.layout.slots):
        slot_of[tu.channel_index[eid]] = j
    sent = slot_of[_receive_table(tu).edge_used[sorted(nfs)]]
    # origin bits in the narrowest unsigned type that holds bit n - 1
    obit_type = next(
        t for t in (np.uint8, np.uint16, np.uint32, np.uint64) if g.n <= 8 * t(0).nbytes
    )
    origin_bits = np.left_shift(np.int64(1), tu.origin).astype(obit_type)

    def candidates(v: int, avoid: int, origins: int) -> Candidates:
        tids = receives[v]
        masks = tu.tmask[tids]
        obits = origin_bits[tids]
        keep = ((masks & avoid) == 0) & ((obits & origins) != 0)
        tids, masks = tids[keep], masks[keep]
        first = np.ones(len(masks), dtype=bool)
        np.not_equal(masks[1:], masks[:-1], out=first[1:])
        starts = first.nonzero()[0]
        return Candidates(tids, obits[keep], sent[:, tids], masks[starts], starts)

    seeds_mask = g.mask_of(source | nfs)
    fmask = g.mask_of(fset)
    cand_d = {v: candidates(v, 1 << bit[v], seeds_mask) for v in sorted(source)}
    cand_f = {
        v: candidates(v, fmask | 1 << bit[v], g.mask_of(source))
        for v in g.node_order if v not in source and v not in fset
    }
    return cand_d, cand_f


def node_steps_reference(engine, ph, v: int, own_gamma: int, vals: np.ndarray) -> int:
    """Node v's new state in phase ``ph``: steps (c)+(d) for v in the source
    component S, step (f) for any other node outside F.

    Everything but the engine's graph, trail universe and f is derived here
    from the fault set and S: N(F, S), the canonical trails, the candidate
    trails, the channel each faulty node used on every trail, and the split
    layout.  Step (d) tests a helper origin's first channel apart from the
    other helper channels, and moves every faulty transmitter on a copy-1
    channel to its copy-1 bit before it tests disjointness."""
    g, tu, f = engine.g, engine.tu, engine.f
    bit = g.bit_of
    fset, source = ph.fault_set, ph.source
    reduced = g.remove_nodes(fset)
    tid_of = {(int(o), trail): t for t, (o, trail) in enumerate(zip(tu.origin, tu.trail_of))}
    rt = _receive_table(tu)
    at = rt.received_at

    def candidates(avoid: int, origins) -> np.ndarray:
        tids = rt.received[at[bit[v]]:at[bit[v] + 1]]
        origin_bits = np.left_shift(np.int64(1), tu.origin[tids].astype(np.int64))
        return tids[((tu.tmask[tids] & avoid) == 0) & ((origin_bits & g.mask_of(origins)) != 0)]

    def adopt(cand: np.ndarray, ok: np.ndarray, masks_all: np.ndarray) -> int:
        eff = vals[cand].copy()
        eff[eff == ABSENT] = 1
        for b in (0, 1):
            sel = (eff == b) & ok
            if int(sel.sum()) < f + 1:
                continue
            masks = sorted(set(masks_all[sel].tolist()))
            if exists_disjoint_packing(masks, f + 1):
                return b
        return own_gamma

    if v not in source:
        # step (f): trails from S that avoid F and v itself
        cand = candidates(g.mask_of(fset) | 1 << bit[v], source)
        return adopt(cand, np.ones(len(cand), dtype=bool), tu.tmask[cand])

    nfs_sorted = sorted(g.in_neighborhood(fset, source))
    layout = split_layout(g, fset, fset)
    copy1 = layout.copy1

    # step (c): per-channel copy assignment from traced values
    # side_of_edge[i]: channel i's copy (by channel index, -1 off the layout)
    side_of_edge = np.full(len(tu.channel_ids) + 1, -1, dtype=np.int8)
    sides = 0
    for i, (eid, _, _, _) in enumerate(layout.slots):
        u = g.edge_by_id[eid].head
        path = canonical_path(induced_with_edges(g, source, (eid,)), u, v)
        tid = None if path is None else tid_of.get((u, path))
        side = 0 if (tid is not None and vals[tid] == 0) else 1
        side_of_edge[tu.channel_index[eid]] = side
        sides |= side << i

    zmask = 0
    for u in nfs_sorted:
        zmask |= 1 << bit[u]  # copy 0 of a helper node starts in Z
    nmask = sum(1 << copy1[bit[u]] for u in nfs_sorted)
    for u in sorted(source):
        if u == v:
            received0 = own_gamma == 0
        else:
            path = canonical_path(reduced, u, v)
            tid = None if path is None else tid_of.get((u, path))
            received0 = tid is not None and vals[tid] == 0
        if received0:
            zmask |= 1 << bit[u]
        else:
            nmask |= 1 << bit[u]

    # step (d): does Z propagate to N - F' once N's fault copies go?
    prop = propagates_bits(
        layout.out_masks(sides), layout.m, zmask, nmask & ~layout.fprime,
        nmask & layout.fprime, f + 1,
    )
    if prop:
        amask, bmask = zmask, nmask
        need_side = 0
    else:
        amask, bmask = nmask, zmask
        need_side = 1

    if not bmask >> bit[v] & 1:
        return own_gamma
    # v is on the adopting side: look for f+1 disjoint paths from A; the
    # receiving node itself must not appear mid-trail
    a_node = np.zeros(g.n, dtype=bool)
    for u in sorted(source):
        if amask >> bit[u] & 1:
            a_node[u] = True
    cand = candidates(1 << bit[v], source | set(nfs_sorted))
    origins = tu.origin[cand]
    orig_in_s = a_node[origins]
    first_sides = side_of_edge[tu.first_edge[cand]]
    orig_is_helper = np.zeros(len(cand), dtype=bool)
    for u in nfs_sorted:
        orig_is_helper |= origins == u
    ok_origin = np.where(orig_is_helper, first_sides == need_side, orig_in_s)
    # transmitters as split-graph bits: a faulty transmitter on copy 1
    # moves from its base bit to its copy-1 bit
    masks_all = tu.tmask[cand]
    ok_sides = np.ones(len(cand), dtype=bool)
    for u in sorted(fset):
        col = edge_used_reference(tu, u)[cand]
        visited = col >= 0
        if not visited.any():
            continue
        used_sides = np.where(visited, side_of_edge[np.where(visited, col, 0)], 0)
        if u in nfs_sorted:
            ok_sides &= ~visited | (used_sides == need_side)
        moved = np.int64((1 << bit[u]) | (1 << copy1[bit[u]]))
        masks_all = np.where(used_sides == 1, masks_all ^ moved, masks_all)
    return adopt(cand, ok_origin & ok_sides, masks_all)


def run_reference(engine, faulty, inputs: dict[int, int], adversary) -> RunResult:
    """``engine.run(faulty, inputs, adversary)`` with no phase memo, no
    flood table and no skipped flood: every phase that has a source
    component S floods both its seed sets, S u N(F, S) and then S, with
    ``flood_records``, and steps every node outside F with
    ``node_steps_reference``.  Only the phases' fault sets and source
    components are read off the engine."""
    g, f = engine.g, engine.f
    adv = make_adversary(adversary) if isinstance(adversary, str) else adversary
    fstar = frozenset(faulty)
    honest = [v for v in range(g.n) if v not in fstar]
    gamma = [inputs[v] for v in range(g.n)]
    start_states = {gamma[v] for v in honest}
    phases = []
    for ph in engine.phases:
        before = {gamma[v] for v in honest}
        new = list(gamma)
        agreement = None
        if ph.source is not None:
            seeds_b = set(ph.source) | _neighborhood(g, ph.fault_set, ph.source)
            vals_b = flood_records(engine.tu, seeds_b, gamma, fstar, adv)
            for v in sorted(ph.source):
                new[v] = node_steps_reference(engine, ph, v, gamma[v], vals_b)
            vals_e = flood_records(engine.tu, ph.source, new, fstar, adv)
            for v in sorted(g.nodes - ph.source - ph.fault_set):
                new[v] = node_steps_reference(engine, ph, v, gamma[v], vals_e)
            if ph.fault_set == fstar:
                agreement = len({new[v] for v in honest}) <= 1
        phases.append(PhaseOutcome(
            tuple(sorted(ph.fault_set)),
            ph.source is None,
            all(new[v] in before for v in honest),
            agreement,
            tuple(new),
        ))
        gamma = new
    outputs = {v: gamma[v] for v in honest}
    out_vals = set(outputs.values())
    return RunResult(
        f=f,
        faulty=tuple(sorted(fstar)),
        adversary=adv.name,
        inputs=tuple(sorted(inputs.items())),
        outputs=tuple(sorted(outputs.items())),
        terminated=len(phases) == len(list(_subsets_upto(g.nodes, f))) and out_vals <= {0, 1},
        agreement=len(out_vals) <= 1,
        validity=out_vals <= start_states,
        phase_validity_ok=all(p.state_sources_ok for p in phases),
        exact_phase_agreement_ok=all(p.agreement_reached is not False for p in phases),
        phases=tuple(phases),
    )


# ---------------------------------------------------------------------------
# necessity harness: reception logs


def carrier_trails(carrier) -> list[tuple[int, tuple[int, ...]]]:
    """Every trail of the carrier system as (origin copy, carrier channel
    ids), found by depth-first search over ``carrier.graph``: a trail goes on
    through any tail of its last channel whose base node has not transmitted
    on it yet, so no base node transmits twice."""
    by_head: dict[int, list] = {}
    for e in carrier.graph.edges:
        by_head.setdefault(e.head, []).append(e)
    base_of = [c.base_node for c in carrier.copies]
    found = []

    def extend(origin: int, trail: tuple[int, ...], sender: int, sent: frozenset[int]) -> None:
        for e in by_head.get(sender, []):
            found.append((origin, trail + (e.id,)))
            for w in sorted(e.tails):
                if base_of[w] not in sent:
                    extend(origin, trail + (e.id,), w, sent | {base_of[w]})

    for c in carrier.copies:
        extend(c.id, (), c.id, frozenset({c.base_node}))
    return found


def carrier_logs(carrier) -> tuple[list[int], dict[int, bytes]]:
    """Final states and reception logs of every copy of a carrier system.

    Replays the carrier run phase by phase over ``carrier_trails``.  The
    carrier is honest, so a record carries its origin copy's state when that
    copy is seeded and is missing otherwise; every tail of its last channel
    receives it.  Each received record becomes an entry [phase fault set,
    "trace"|"relay", origin, base channel trail, value], and a copy's log is
    the canonical JSON of its sorted entries.  The engine's trail universe is
    read only to address the vector a node step reads, by (origin, trail)."""
    engine = get_engine(carrier.base, carrier.f)
    slot = {
        (int(o), trail): t for t, (o, trail) in enumerate(zip(engine.tu.origin, engine.tu.trail_of))
    }
    tails = {e.id: e.tails for e in carrier.graph.edges}
    received: dict[int, list] = {c.id: [] for c in carrier.copies}
    for origin, trail in carrier_trails(carrier):
        base = (carrier.copies[origin].base_node, tuple(carrier.base_edge[e] for e in trail))
        for w in tails[trail[-1]]:
            received[w].append((origin, base))

    gamma = [c.input for c in carrier.copies]
    logs: dict[int, list] = {c.id: [] for c in carrier.copies}

    def flood(cid: int, phase_tag, flood_tag: str, seeds, states) -> np.ndarray:
        """Log copy cid's receptions of one flood; return them as the
        engine's trail vector."""
        vec = np.full(engine.tu.size, ABSENT, dtype=np.int16)
        for origin, (o, trail) in received[cid]:
            if o in seeds:
                logs[cid].append([list(phase_tag), flood_tag, o, list(trail), states[origin]])
                vec[slot[o, trail]] = states[origin]
        return vec

    for ph in engine.phases:
        if ph.source is None:
            continue
        phase_tag = tuple(sorted(ph.fault_set))
        new_gamma = list(gamma)
        for c in carrier.copies:
            vec = flood(c.id, phase_tag, "trace", ph.seeds_b, gamma)
            if c.base_node in ph.source:
                new_gamma[c.id] = engine.node_step_cd(ph, c.base_node, gamma[c.id], vec)
        relayed = list(new_gamma)
        for c in carrier.copies:
            vec = flood(c.id, phase_tag, "relay", ph.source, relayed)
            if c.base_node not in ph.source and c.base_node not in ph.fault_set:
                new_gamma[c.id] = engine.node_step_f(ph, c.base_node, gamma[c.id], vec)
        gamma = new_gamma

    return gamma, {
        cid: canonical_json(sorted(entries)).encode() for cid, entries in logs.items()
    }
