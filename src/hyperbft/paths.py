"""Vertex-disjoint path counting, canonical shortest paths, and path packing.

Path counting works on the underlying digraph of a hypergraph with unit node
capacities (max-flow on a vertex-split network), following the classical
max-flow/min-cut correspondence for internally disjoint paths.
"""

from __future__ import annotations

from collections import deque

from .hypergraph import DirectedHypergraph

_INF = 1 << 30


def max_disjoint_paths_bits(
    adj_bits: tuple[int, ...],
    nbits: int,
    sources_mask: int,
    target_bit: int,
    removed_mask: int = 0,
    uncapped_mask: int = 0,
    cap: int | None = None,
) -> int:
    """Maximum number of node-disjoint paths from the source set to the target.

    Nodes are bit positions with out-neighbor masks ``adj_bits``.  All nodes
    have capacity one (so distinct paths use distinct sources and internals)
    except those in ``uncapped_mask`` and the target, which are unconstrained.
    Nodes in ``removed_mask`` are deleted.  Counting stops at ``cap`` if given.
    """
    if sources_mask >> target_bit & 1:
        raise ValueError("target must not be a source; handle the trivial path upstream")
    sources_mask &= ~removed_mask
    if removed_mask >> target_bit & 1:
        return 0
    if not sources_mask:
        return 0

    # vertex-split flow network: node i -> (2i) in-vertex, (2i+1) out-vertex,
    # plus a super source s = 2*nbits.
    size = 2 * nbits + 1
    s = 2 * nbits
    t = 2 * target_bit  # target's in-vertex is the sink
    capacity: list[dict[int, int]] = [dict() for _ in range(size)]

    def add_arc(a: int, b: int, c: int) -> None:
        capacity[a][b] = capacity[a].get(b, 0) + c
        capacity[b].setdefault(a, 0)

    for i in range(nbits):
        if removed_mask >> i & 1:
            continue
        internal = _INF if (uncapped_mask >> i & 1) or i == target_bit else 1
        add_arc(2 * i, 2 * i + 1, internal)
        nbrs = adj_bits[i] & ~removed_mask
        while nbrs:
            low = nbrs & -nbrs
            j = low.bit_length() - 1
            nbrs ^= low
            add_arc(2 * i + 1, 2 * j, 1)
    src = sources_mask
    while src:
        low = src & -src
        i = low.bit_length() - 1
        src ^= low
        add_arc(s, 2 * i, 1 if not (uncapped_mask >> i & 1) else _INF)

    flow = 0
    limit = cap if cap is not None else _INF
    while flow < limit:
        parent: dict[int, int] = {s: s}
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


def reach_closure_bits(adj_bits: tuple[int, ...], start_mask: int, removed_mask: int = 0) -> int:
    """All bit positions reachable from ``start_mask`` avoiding ``removed_mask``."""
    reach = start_mask & ~removed_mask
    frontier = reach
    while frontier:
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            m ^= low
            nxt |= adj_bits[low.bit_length() - 1]
        frontier = nxt & ~removed_mask & ~reach
        reach |= frontier
    return reach


def count_disjoint_paths(
    g: DirectedHypergraph,
    sources,
    target: int,
    excluded=(),
    cap: int | None = None,
) -> int:
    """Node-disjoint paths from the source set to ``target`` in ``g`` minus
    ``excluded`` (shared endpoint allowed only at the target; distinct paths
    therefore use distinct sources).  If the target itself belongs to the
    source set, the trivial single-node path counts as one."""
    bit = g.bit_of
    srcs = set(sources)
    excl = set(excluded)
    trivial = 1 if (target in srcs and target not in excl) else 0
    if cap is not None and trivial >= cap:
        return trivial
    return trivial + max_disjoint_paths_bits(
        g.out_union_masks,
        len(g.node_order),
        g.mask_of(srcs - {target}),
        bit[target],
        g.mask_of(excl),
        0,
        None if cap is None else cap - trivial,
    )


def internally_disjoint_undirected(
    adj: dict[int, frozenset[int]], order: tuple[int, ...], u: int, v: int,
    cap: int | None = None,
) -> int:
    """Internally node-disjoint u-v paths in an undirected adjacency map."""
    bit = {x: i for i, x in enumerate(order)}
    adj_bits = tuple(
        sum(1 << bit[w] for w in adj[x]) for x in order
    )
    return max_disjoint_paths_bits(
        adj_bits, len(order), 1 << bit[u], bit[v], 0, 1 << bit[u], cap
    )


def canonical_path(g: DirectedHypergraph, u: int, v: int) -> tuple[int, ...] | None:
    """The shortest hyperedge trace from ``u`` to ``v`` in ``g``, ties broken
    by the lexicographically least (hyperedge id, next node) sequence.

    Returns the empty tuple when u == v, None when v is unreachable.  A pure
    function of the graph, so every caller derives the same path.
    """
    if u == v:
        return ()
    if u not in g.nodes or v not in g.nodes:
        return None
    bit = g.bit_of
    order = g.node_order
    inm = g.in_masks
    dist = {v: 0}
    frontier = [v]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for w in frontier:
            m = inm[bit[w]]
            while m:
                low = m & -m
                m ^= low
                x = order[low.bit_length() - 1]
                if x not in dist:
                    dist[x] = d
                    nxt.append(x)
        frontier = nxt
    if u not in dist:
        return None
    path: list[int] = []
    cur = u
    while cur != v:
        want = dist[cur] - 1
        best: tuple[int, int] | None = None
        for e in g.head_edges(cur):
            for w in e.tails:
                if dist.get(w) == want and (best is None or (e.id, w) < best):
                    best = (e.id, w)
        assert best is not None
        path.append(best[0])
        cur = best[1]
    return tuple(path)


def exists_disjoint_packing(masks: list[int], k: int) -> bool:
    """True when ``k`` pairwise non-intersecting masks can be chosen."""
    if k <= 0:
        return True
    cands = sorted(set(masks), key=lambda m: (bin(m).count("1"), m))
    if len(cands) < k:
        return False

    def dfs(start: int, used: int, depth: int) -> bool:
        if depth == k:
            return True
        for i in range(start, len(cands)):
            if len(cands) - i < k - depth:
                return False
            m = cands[i]
            if used & m:
                continue
            if dfs(i + 1, used | m, depth + 1):
                return True
        return False

    return dfs(0, 0, 0)
