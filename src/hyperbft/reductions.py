"""Reduced and closed-form feasibility conditions for restricted topology classes.

For three classical communication models the general condition collapses to
something much cheaper to evaluate:

* point-to-point (every hyperedge has exactly one tail): a three-part
  partition condition on the digraph itself, no node splitting;
* local broadcast (every node heads exactly one hyperedge): the same shape
  but partitioning all nodes and discounting faulty targets;
* undirected hypergraphs: three closed-form conditions (size, connectivity,
  and a triple-cover property of the hyperedges).

The module also provides the classical closed-form counts for bidirectional
networks, the (ell, t)-hyper-k-connectivity predicate, the family of
hypergraphs separating that predicate from the triple-cover condition, and a
cross-validation helper that compares the general checker with every reduced
form that applies to a graph.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .conditions import (
    PartitionLCR,
    _first_lcr_labelling,
    _lcr_partition,
    _lcr_split_violated,
    check_lcr_hyper,
    require_fault_bound,
    subsets_by_cardinality,
)
from .hypergraph import DirectedHypergraph
from .paths import max_disjoint_paths_bits

P2P = "lcr-p2p"
LOCAL = "lcr-local"


@dataclass(frozen=True)
class ReducedViolation:
    fault_set: frozenset[int]
    partition: PartitionLCR


@dataclass(frozen=True)
class ReducedReport:
    condition: str
    f: int
    holds: bool
    fault_sets_checked: int
    partitions_checked: int
    violation: ReducedViolation | None


# ---------------------------------------------------------------------------
# reduced partition conditions (no node splitting)


def _p2p_masks(g: DirectedHypergraph, fmask: int) -> list[int]:
    """Out-masks restricted to non-faulty heads and non-faulty targets."""
    out = []
    for i, u in enumerate(g.node_order):
        if fmask >> i & 1:
            out.append(0)
        else:
            out.append(g.out_union_masks[i] & ~fmask)
    return out


def check_lcr_p2p(g: DirectedHypergraph, f: int) -> ReducedReport:
    """Three-part condition over partitions (L, C, R) of V - F: either R u C
    has f+1 heads into L or L u C has f+1 heads into R, in the full graph."""
    return _check_reduced(g, f, P2P)


def check_lcr_local(g: DirectedHypergraph, f: int) -> ReducedReport:
    """Three-part condition over partitions (L, C, R) of all of V: either
    R u C has f+1 heads into L - F or L u C has f+1 heads into R - F."""
    return _check_reduced(g, f, LOCAL)


def _check_reduced(g: DirectedHypergraph, f: int, condition: str) -> ReducedReport:
    """Either reduced condition, over every fault set of size <= f.

    p2p labels the nodes of V - F with out-masks that drop faulty heads and
    targets; local labels all of V with the plain out-masks.  Heads and
    targets of a p2p labelling lie in V - F, where both masks agree."""
    require_fault_bound(f)
    m = len(g.node_order)
    fault_sets = 0
    partitions = 0
    for fset in subsets_by_cardinality(g.nodes, f):
        fault_sets += 1
        fmask = g.mask_of(fset)
        if condition == P2P:
            out = _p2p_masks(g, fmask)
            bits = [i for i in range(m) if not fmask >> i & 1]
        else:
            out = list(g.out_union_masks)
            bits = list(range(m))
        if _lcr_split_violated([out], m, fmask, f) < 0:
            partitions += 3 ** len(bits)
            continue
        pidx, *masks = _first_lcr_labelling(out, fmask, bits, f)
        return ReducedReport(
            condition, f, False, fault_sets, partitions + pidx + 1,
            ReducedViolation(fset, _lcr_partition(g, *masks)),
        )
    return ReducedReport(condition, f, True, fault_sets, partitions, None)


# ---------------------------------------------------------------------------
# classical closed forms


def vertex_connectivity(g: DirectedHypergraph) -> int:
    """Node connectivity of the undirected version of ``g``'s underlying
    digraph, read off its neighbor masks: the fewest internally disjoint
    paths between two non-adjacent nodes, n - 1 when every pair is adjacent,
    and 0 when n <= 1."""
    nb = g.neighbor_masks
    n = len(nb)
    if n <= 1:
        return 0
    best = n - 1
    for u, v in itertools.combinations(range(n), 2):
        if nb[u] >> v & 1:
            continue
        best = min(best, max_disjoint_paths_bits(nb, n, 1 << u, v, 0, 1 << u))
        if best == 0:
            break
    return best


def theorem_p2p_classic(g: DirectedHypergraph, f: int) -> bool:
    """Closed form for bidirectional point-to-point graphs: n >= 3f+1 and the
    undirected graph, given by ``g``'s neighbor masks, is (2f+1)-connected."""
    cls = g.classify
    if not (cls.single_tail and cls.bidirectional):
        raise ValueError("closed form applies to bidirectional single-tail graphs only")
    n = len(g.nodes)
    return n >= 3 * f + 1 and vertex_connectivity(g) >= 2 * f + 1


def theorem_local_classic(g: DirectedHypergraph, f: int) -> bool:
    """Closed form for bidirectional local-broadcast graphs: minimum degree
    >= 2f and node connectivity >= floor(3f/2) + 1, both read off ``g``'s
    neighbor masks."""
    cls = g.classify
    if not (cls.single_channel_per_node and cls.bidirectional):
        raise ValueError("closed form applies to bidirectional local-broadcast graphs only")
    degree = min((m.bit_count() for m in g.neighbor_masks), default=0)
    return degree >= 2 * f and vertex_connectivity(g) >= (3 * f) // 2 + 1


# ---------------------------------------------------------------------------
# undirected hypergraphs


@dataclass(frozen=True)
class UndirectedConditions:
    holds: bool
    enough_nodes: bool       # n >= 2f + 1
    connected_enough: bool   # complete or (2f+1)-connected
    triple_cover: bool       # every exact-f triple cover has a witnessing hyperedge


def triple_cover_condition(g: DirectedHypergraph, f: int) -> bool:
    """For every V1, V2, V3 of size exactly f with V1 u V2 u V3 = V, some
    undirected hyperedge contains a private representative of each part.

    Vacuously true when no such cover exists (n > 3f); false as soon as one
    cover has an empty private part or no witnessing hyperedge.
    """
    order = g.node_order
    n = len(order)
    if 3 * f < n:
        return True
    full = (1 << n) - 1
    hyper = [g.mask_of(s) for s in g.undirected_hyperedge_sets]
    # larger hyperedges are more likely witnesses; scan them first
    hyper.sort(key=lambda h: (-h.bit_count(), h))
    subsets = []
    for combo in itertools.combinations(range(n), f):
        m = 0
        for i in combo:
            m |= 1 << i
        subsets.append(m)

    def witnessed(p1: int, p2: int, p3: int) -> bool:
        if not (p1 and p2 and p3):
            return False
        for h in hyper:
            if h & p1 and h & p2 and h & p3:
                return True
        return False

    for i, m1 in enumerate(subsets):
        for j in range(i, len(subsets)):
            m2 = subsets[j]
            u12 = m1 | m2
            missing = full & ~u12
            miss_count = missing.bit_count()
            if miss_count > f:
                continue
            covered = [b for b in range(n) if u12 >> b & 1]
            for filler in itertools.combinations(covered, f - miss_count):
                m3 = missing
                for b in filler:
                    m3 |= 1 << b
                if not witnessed(m1 & ~m2 & ~m3, m2 & ~m1 & ~m3, m3 & ~m1 & ~m2):
                    return False
    return True


def undirected_conditions(g: DirectedHypergraph, f: int) -> UndirectedConditions:
    """The three closed-form conditions for undirected hypergraphs."""
    if not g.classify.undirected:
        raise ValueError("closed form applies to undirected hypergraphs only")
    n = len(g.nodes)
    c1 = n >= 2 * f + 1
    complete = all(m.bit_count() == n - 1 for m in g.neighbor_masks)
    c2 = complete or vertex_connectivity(g) >= 2 * f + 1
    c3 = triple_cover_condition(g, f)
    return UndirectedConditions(c1 and c2 and c3, c1, c2, c3)


def hyper_k_connected(g: DirectedHypergraph, ell: int, t: int, k: int) -> bool:
    """(ell, t)-hyper-k-connectivity: for every set C of exactly k-1 nodes and
    every partition of V - C into ell non-empty parts of size at most t, some
    undirected hyperedge intersects every part."""
    if min(ell, t, k) <= 0:
        raise ValueError("ell, t, k must all be positive")
    order = g.node_order
    bit = g.bit_of
    # only hyperedges spanning >= ell nodes can hit ell disjoint parts
    hyper = [g.mask_of(s) for s in g.undirected_hyperedge_sets if len(s) >= ell]
    hyper.sort(key=lambda h: (-h.bit_count(), h))

    def parts_witnessed(parts: list[int]) -> bool:
        for h in hyper:
            if all(h & p for p in parts):
                return True
        return False

    for c_combo in itertools.combinations(order, k - 1):
        rest = [v for v in order if v not in c_combo]

        # set partitions of rest into exactly ell parts, each of size <= t
        def expand(i: int, parts: list[int]) -> bool:
            if i == len(rest):
                return len(parts) < ell or parts_witnessed(parts)
            b = 1 << bit[rest[i]]
            for j in range(len(parts)):
                if parts[j].bit_count() < t:
                    parts[j] |= b
                    if not expand(i + 1, parts):
                        return False
                    parts[j] &= ~b
            if len(parts) < ell:
                parts.append(b)
                if not expand(i + 1, parts):
                    return False
                parts.pop()
            return True

        if not expand(0, []):
            return False
    return True


def counterexample_hypergraph(f: int) -> DirectedHypergraph:
    """Undirected hypergraph on 3f-1 nodes separating the triple-cover
    condition from (3, f)-hyper-(3f-n+1)-connectivity, for f > 2.

    All 2-hyperedges are present; every 3 nodes of the first 2f+1 form a
    3-hyperedge; the remaining f-2 nodes are in no 3-hyperedge.
    """
    if f <= 2:
        raise ValueError("the separating family needs f > 2")
    n = 3 * f - 1
    x = list(range(2 * f + 1))
    undirected: list[tuple[int, ...]] = []
    undirected.extend(itertools.combinations(range(n), 2))
    undirected.extend(itertools.combinations(x, 3))
    pairs = []
    for s in undirected:
        for head in s:
            pairs.append((head, tuple(v for v in s if v != head)))
    return DirectedHypergraph.from_edge_tuples(n, pairs)


# ---------------------------------------------------------------------------
# cross-validation of the general checker against the reduced forms


@dataclass(frozen=True)
class CrossValResult:
    klass: str
    f: int
    general: bool
    reduced: bool
    classic: bool | None
    agree: bool


def cross_validate_reduction(g: DirectedHypergraph, f: int, klass: str) -> CrossValResult:
    """Run the general checker and every reduced form applicable to ``g``.

    ``klass`` is one of ``p2p``, ``local``, ``undirected``.  The closed-form
    counts only apply to bidirectional graphs (p2p, local) and are reported
    as None otherwise.
    """
    require_fault_bound(f)
    cls = g.classify
    general = check_lcr_hyper(g, f).holds
    classic: bool | None = None
    if klass == "p2p":
        if not cls.single_tail:
            raise ValueError("p2p cross-validation needs a single-tail graph")
        reduced = check_lcr_p2p(g, f).holds
        if cls.bidirectional:
            classic = theorem_p2p_classic(g, f)
    elif klass == "local":
        if not cls.single_channel_per_node:
            raise ValueError("local cross-validation needs one channel per node")
        reduced = check_lcr_local(g, f).holds
        if cls.bidirectional:
            classic = theorem_local_classic(g, f)
    elif klass == "undirected":
        if not cls.undirected:
            raise ValueError("undirected cross-validation needs an undirected hypergraph")
        reduced = undirected_conditions(g, f).holds
        classic = reduced
    else:
        raise ValueError(f"unknown topology class {klass!r}")
    agree = general == reduced and (classic is None or classic == general)
    return CrossValResult(klass, f, general, reduced, classic, agree)
