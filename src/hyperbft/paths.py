"""Vertex-disjoint path counting, canonical shortest paths, and path packing.

Path counting works on the underlying digraph of a hypergraph with unit node
capacities (max-flow on a vertex-split network), following the classical
max-flow/min-cut correspondence for internally disjoint paths.
"""

from __future__ import annotations

from .hypergraph import DirectedHypergraph, reach_closure_bits


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

    Each live source with an arc straight into the target is a path of its
    own, so these direct arcs are the starting flow: if there are ``cap`` of
    them the count is known at once, and otherwise augmenting goes on from
    them, which still reaches the maximum.  A direct arc carries one unit and
    saturates a capped source; an uncapped source stays open.

    Max-flow by breadth-first augmenting paths on the vertex-split graph:
    node i is an in-vertex and an out-vertex joined by an internal arc, every
    arc i -> j runs from i's out-vertex to j's in-vertex with capacity one,
    a super source feeds the sources' in-vertices, and the target's
    in-vertex is the sink.  The residual state is held in int bitmasks:
    ``fout[i]`` / ``fin[i]`` are the nodes that i's arcs carry flow to / from,
    ``through`` the capped nodes whose internal arc is full, and ``fed`` the
    capped sources whose source arc is; uncapped nodes never saturate.  An
    internal arc is walked backwards only when flow enters its node along an
    arc, as going back along such an arc is the only way on from there.
    """
    if sources_mask >> target_bit & 1:
        raise ValueError("target must not be a source; handle the trivial path upstream")
    sources_mask &= ~removed_mask
    if removed_mask >> target_bit & 1:
        return 0
    if not sources_mask:
        return 0
    direct = 0
    m = sources_mask
    while m:
        low = m & -m
        m ^= low
        if adj_bits[low.bit_length() - 1] >> target_bit & 1:
            direct |= low
    flow = direct.bit_count()
    if cap is not None and flow >= cap:
        return max(cap, 0)

    live = ((1 << nbits) - 1) & ~removed_mask
    arcs = [adj_bits[i] & live & ~(1 << i) for i in range(nbits)]
    capped = live & ~uncapped_mask & ~(1 << target_bit)
    fout = [0] * nbits
    fin = [0] * nbits
    fin[target_bit] = direct
    m = direct
    while m:
        low = m & -m
        m ^= low
        fout[low.bit_length() - 1] = 1 << target_bit
    through = direct & capped
    fed = direct
    # BFS vertices: in-vertex i is i, out-vertex i is nbits + i; -1 is the source
    parent = [0] * (2 * nbits)
    while cap is None or flow < cap:
        start = sources_mask & ~(fed & capped)
        seen_in = start
        seen_out = 0
        queue = []
        m = start
        while m:
            low = m & -m
            m ^= low
            i = low.bit_length() - 1
            parent[i] = -1
            queue.append(i)
        found = False
        for x in queue:
            if x < nbits:
                # in-vertex: forward through the node, or back along an inflow
                nxt = fin[x]
                if not through >> x & 1:
                    nxt |= 1 << x
                nxt &= ~seen_out
                seen_out |= nxt
                while nxt:
                    low = nxt & -nxt
                    nxt ^= low
                    j = low.bit_length() - 1
                    parent[nbits + j] = x
                    queue.append(nbits + j)
            else:
                i = x - nbits
                nxt = arcs[i] & ~fout[i]
                if fin[i]:
                    nxt |= 1 << i
                nxt &= ~seen_in
                if nxt >> target_bit & 1:
                    parent[target_bit] = x
                    found = True
                    break
                seen_in |= nxt
                while nxt:
                    low = nxt & -nxt
                    nxt ^= low
                    j = low.bit_length() - 1
                    parent[j] = x
                    queue.append(j)
        if not found:
            break
        x = target_bit
        while True:
            p = parent[x]
            if p < 0:
                fed |= 1 << x
                break
            if x < nbits:
                i = p - nbits
                if i == x:
                    through &= ~(1 << x)      # back through the node
                else:
                    fout[i] |= 1 << x         # arc i -> x gains flow
                    fin[x] |= 1 << i
            elif p == x - nbits:
                through |= (1 << p) & capped  # forward through the node
            else:
                i = x - nbits
                fout[i] &= ~(1 << p)          # arc i -> p gives its flow back
                fin[p] &= ~(1 << i)
            x = p
        flow += 1
    return flow


def propagates_bits(
    adj_bits, nbits: int, sources_mask: int, targets_mask: int, removed_mask: int, need: int
) -> bool:
    """Whether every target bit has ``need`` >= 1 node-disjoint paths from
    the source set once ``removed_mask`` is deleted (true with no targets).
    Targets must lie outside the sources.  A target the sources cannot reach
    at all fails without a max-flow."""
    if targets_mask & ~reach_closure_bits(adj_bits, sources_mask, removed_mask):
        return False
    t = targets_mask
    while t:
        low = t & -t
        t ^= low
        v = low.bit_length() - 1
        if max_disjoint_paths_bits(adj_bits, nbits, sources_mask, v, removed_mask, 0, need) < need:
            return False
    return True


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


def canonical_path(g: DirectedHypergraph, u: int, v: int) -> tuple[int, ...] | None:
    """The shortest hyperedge trace from ``u`` to ``v`` in ``g``, ties broken
    by the lexicographically least (hyperedge id, next node) sequence.

    Returns the empty tuple when u == v, None when v is unreachable.  A pure
    function of the graph, so every caller derives the same path.  A
    breadth-first search back from ``v`` gives each node's distance to it,
    and the path walks down those distances.
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
    return packs_sorted(sorted(set(masks), key=lambda m: (m.bit_count(), m)), k)


def packs_sorted(cands: list[int], k: int) -> bool:
    """``exists_disjoint_packing`` on masks already distinct and ordered by
    (popcount, mask): a depth-first search that tries sparse masks first."""
    if k <= 0:
        return True
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
