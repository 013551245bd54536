"""Node splitting: modeling two-faced behavior by duplicating suspect nodes.

Splitting a node v yields copies v0 and v1.  Every hyperedge that had v among
its tails now reaches both copies; every hyperedge headed by v is assigned to
exactly one copy.  The family of all splits of all subsets of a candidate
fault set F captures every way faulty nodes could present two personas.
``split_layout`` (``split_layouts`` for every split set of a fault set) is the
bitmask form that the checker and the simulator read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping

from .hypergraph import DirectedHypergraph, Hyperedge


@dataclass(frozen=True)
class SplitSpec:
    """Which nodes are split and which copy heads each of their hyperedges.

    ``assignment`` maps each hyperedge id headed by a split node to copy 0 or
    copy 1; it is stored as a sorted tuple of pairs so specs hash and compare.
    """

    split_set: frozenset[int]
    assignment: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "split_set", frozenset(self.split_set))
        object.__setattr__(
            self, "assignment", tuple(sorted((int(e), int(c)) for e, c in self.assignment))
        )
        if any(c not in (0, 1) for _, c in self.assignment):
            raise ValueError("copy assignment values must be 0 or 1")

    @classmethod
    def make(cls, split_set: Iterable[int], assignment: Mapping[int, int]) -> "SplitSpec":
        return cls(frozenset(split_set), tuple(assignment.items()))

    @cached_property
    def assignment_map(self) -> dict[int, int]:
        return dict(self.assignment)


@dataclass(frozen=True)
class SplitHypergraph:
    """The result of splitting: the split graph plus back-references.

    ``origin`` maps every node of the split graph to the node it came from
    (identity for unsplit nodes).  ``f_prime`` is the fault set carried over:
    unsplit members of the fault set plus every copy.
    """

    base: DirectedHypergraph
    fault_set: frozenset[int]
    spec: SplitSpec
    graph: DirectedHypergraph
    origin: tuple[tuple[int, int], ...]
    f_prime: frozenset[int]

    @cached_property
    def origin_map(self) -> dict[int, int]:
        return dict(self.origin)

    @cached_property
    def copy_pairs(self) -> dict[int, tuple[int, int]]:
        """split node -> (copy0 id, copy1 id)"""
        pairs: dict[int, tuple[int, int]] = {}
        ranked = sorted(self.spec.split_set)
        for r, v in enumerate(ranked):
            pairs[v] = (self.base.n + 2 * r, self.base.n + 2 * r + 1)
        return pairs

    def node_label(self, node: int) -> str:
        """Human-readable name: originals plain, copies as ``v^0`` / ``v^1``."""
        if node in self.base.nodes:
            return str(node)
        v = self.origin_map[node]
        c0, _ = self.copy_pairs[v]
        return f"{v}^{node - c0}"


def split(g: DirectedHypergraph, fault_set: Iterable[int], spec: SplitSpec) -> SplitHypergraph:
    """Split the nodes in ``spec.split_set`` (a subset of the fault set).

    Copy ids are appended after the original id range: the copies of the
    rank-r split node (by ascending node id) are n + 2r and n + 2r + 1.
    """
    fset = frozenset(fault_set)
    x = spec.split_set
    if not x <= fset:
        raise ValueError("split set must be a subset of the fault set")
    if not fset <= g.nodes:
        raise ValueError("fault set must consist of graph nodes")
    head_ids = {e.id for v in x for e in g.head_edges(v)}
    if set(spec.assignment_map) != head_ids:
        raise ValueError("assignment must cover exactly the hyperedges headed by split nodes")

    ranked = sorted(x)
    copy0 = {v: g.n + 2 * r for r, v in enumerate(ranked)}
    copy1 = {v: g.n + 2 * r + 1 for r, v in enumerate(ranked)}
    new_nodes = (g.nodes - x) | set(copy0.values()) | set(copy1.values())

    def lift_tails(tails: frozenset[int]) -> frozenset[int]:
        out = set()
        for t in tails:
            if t in x:
                out.add(copy0[t])
                out.add(copy1[t])
            else:
                out.add(t)
        return frozenset(out)

    new_edges = []
    amap = spec.assignment_map
    for e in g.edges:
        head = e.head
        if head in x:
            head = copy0[e.head] if amap[e.id] == 0 else copy1[e.head]
        new_edges.append(Hyperedge(e.id, head, lift_tails(e.tails)))

    graph = DirectedHypergraph(g.n + 2 * len(x), tuple(new_edges), frozenset(new_nodes))
    origin = tuple(
        sorted(
            [(v, v) for v in g.nodes - x]
            + [(copy0[v], v) for v in x]
            + [(copy1[v], v) for v in x]
        )
    )
    f_prime = frozenset((fset - x) | set(copy0.values()) | set(copy1.values()))
    return SplitHypergraph(g, fset, spec, graph, origin, f_prime)


def split_sets(fault_set: Iterable[int]) -> Iterator[list[int]]:
    """Every subset of the fault set, sorted, in subset-rank order over the
    sorted fault set (the empty set first)."""
    fsorted = sorted(frozenset(fault_set))
    for rank in range(1 << len(fsorted)):
        yield [v for i, v in enumerate(fsorted) if rank >> i & 1]


def enumerate_lambda(g: DirectedHypergraph, fault_set: Iterable[int]) -> Iterator[SplitHypergraph]:
    """All splits of all subsets of the fault set, in canonical order.

    Subsets come in ``split_sets`` order (the empty split first); for each
    subset, copy assignments run through a binary counter over that subset's
    hyperedge ids in ascending order (counter bit j picks the copy for the
    j-th edge).  Copy-swapped duplicates are kept, so the family size matches
    ``lambda_cardinality``.
    """
    fset = frozenset(fault_set)
    for x in split_sets(fset):
        slots = sorted(e.id for v in x for e in g.head_edges(v))
        for counter in range(1 << len(slots)):
            assignment = {eid: (counter >> j) & 1 for j, eid in enumerate(slots)}
            yield split(g, fset, SplitSpec.make(x, assignment))


def lambda_cardinality(g: DirectedHypergraph, fault_set: Iterable[int]) -> int:
    """Family size: sum over subsets X of prod over v in X of 2^(edges headed by v)."""
    return sum(1 << sum(len(g.head_edges(v)) for v in x) for x in split_sets(fault_set))


# Out-masks are int64.
_MASK_BITS = 62


@dataclass(frozen=True)
class SplitLayout:
    """The bitmask form of the split graphs of one split set X of a fault set.

    Base node bits double as copy-0 bits; the k-th node of sorted X gets bit
    n + k (n base nodes) for its copy 1.  ``static`` holds the out-masks of
    heads outside X; ``slots`` lists every channel headed in X, by ascending
    id, as (channel id, copy-0 bit, copy-1 bit, tail mask); tails in X are
    lifted onto both copies.  Bit j of an assignment counter puts slot j on
    copy 1, as in ``enumerate_lambda`` (whose graphs number nodes otherwise),
    so a node's highest-id slot is its most significant counter bit and the
    checker keeps that bit 0 (one split graph per copy swap).  ``fprime``
    holds F's unsplit nodes and both copies of every node of X.
    """

    m: int
    fprime: int
    static: tuple[int, ...]
    slots: tuple[tuple[int, int, int, int], ...]

    @cached_property
    def copy1(self) -> dict[int, int]:
        """Copy-0 bit -> copy-1 bit of every node of X that heads a channel."""
        return {b0: b1 for _, b0, b1, _ in self.slots}

    def out_masks(self, counter: int) -> list[int]:
        """The out-masks of the split graph with assignment ``counter``."""
        out = list(self.static)
        for j, (_, b0, b1, t) in enumerate(self.slots):
            out[b1 if counter >> j & 1 else b0] |= t
        return out


def _layouts(
    g: DirectedHypergraph, fault_set: Iterable[int], xs: Iterable[Iterable[int]]
) -> Iterator[SplitLayout]:
    """The layout of each split set of ``xs``, subsets of ``fault_set``.  The
    channels that touch the fault set (headed in it or with a tail in it)
    are collected once; every other channel keeps its base out-mask
    (``out_union_masks``), so a split set lifts and places only the touching
    ones."""
    n0 = len(g.node_order)
    bit = g.bit_of
    base_fprime = g.mask_of(fault_set)
    touching = sorted(
        (e.id, bit[e.head], t)
        for e, t in zip(g.edges, g.tail_masks)
        if t & base_fprime or base_fprime >> bit[e.head] & 1
    )
    for x in xs:
        copies = {bit[v]: n0 + k for k, v in enumerate(sorted(x))}
        m = n0 + len(copies)
        if m > _MASK_BITS:
            raise ValueError(f"split graph has {m} nodes; out-masks hold at most {_MASK_BITS}")
        static = list(g.out_union_masks) + [0] * len(copies)
        fprime = base_fprime
        for b0, b1 in copies.items():
            static[b0] = 0
            fprime |= 1 << b1
        slots = []
        for eid, head, t in touching if copies else ():
            for b0, b1 in copies.items():
                t |= (t >> b0 & 1) << b1
            if head in copies:
                slots.append((eid, head, copies[head], t))
            else:
                static[head] |= t
        yield SplitLayout(m, fprime, tuple(static), tuple(slots))


def split_layout(
    g: DirectedHypergraph, fault_set: Iterable[int], x: Iterable[int]
) -> SplitLayout:
    """The bit layout of the splits of ``x``, a subset of ``fault_set``."""
    return next(_layouts(g, fault_set, [x]))


def split_layouts(
    g: DirectedHypergraph, fault_set: Iterable[int]
) -> Iterator[tuple[list[int], SplitLayout]]:
    """Each split set of ``fault_set`` in ``split_sets`` order, with its
    layout; the layouts share the fault set's channel scan."""
    xs = list(split_sets(fault_set))
    return zip(xs, _layouts(g, fault_set, xs))

