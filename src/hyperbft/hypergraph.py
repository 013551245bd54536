"""Directed hypergraphs with head/tail hyperedges and their basic operations.

A hyperedge models one local-multicast channel: the head node transmits, every
tail node receives the same value.  The node universe is the half-open id
range [0, n); a graph may restrict itself to an explicit subset of that range
(used by node-split constructions, where removed originals leave unused id
slots).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Iterable


@lru_cache(maxsize=64)
def _id_range(n: int) -> frozenset[int]:
    """The default node set [0, n), one frozenset per n shared by every graph
    built without ``nodes``."""
    return frozenset(range(n))


@dataclass(frozen=True, slots=True)
class Hyperedge:
    """One multicast channel: ``head`` transmits, every node in ``tails`` receives.

    Channels carry no ``__dict__``, and a frozenset ``tails`` is kept as
    given (``frozenset`` returns its argument), so graphs built from the same
    candidate channels share each tail set."""

    id: int
    head: int
    tails: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tails", frozenset(self.tails))
        if not self.tails:
            raise ValueError(f"hyperedge {self.id}: tail set must be non-empty")
        if self.head in self.tails:
            raise ValueError(f"hyperedge {self.id}: head {self.head} cannot be a tail")

    def sorted_tails(self) -> tuple[int, ...]:
        return tuple(sorted(self.tails))


@dataclass(frozen=True)
class TopologyClass:
    """Which restricted communication models a hypergraph falls into."""

    single_tail: bool
    single_channel_per_node: bool
    undirected: bool
    bidirectional: bool


@dataclass(frozen=True)
class DirectedHypergraph:
    """A directed hypergraph: node ids below ``n`` plus a list of hyperedges.

    Edge ids must be unique but need not be dense (restrictions drop edges).
    Equality is structural and order-sensitive on the edge list, which makes
    serialization round-trips exact.
    """

    n: int
    edges: tuple[Hyperedge, ...]
    nodes: frozenset[int] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"n must be non-negative, got {self.n}")
        object.__setattr__(self, "edges", tuple(self.edges))
        given = self.nodes is not None
        object.__setattr__(self, "nodes", frozenset(self.nodes) if given else _id_range(self.n))
        seen: set[int] = set()
        for e in self.edges:
            if e.id in seen:
                raise ValueError(f"duplicate hyperedge id {e.id}")
            seen.add(e.id)
            if e.head not in self.nodes or not e.tails <= self.nodes:
                raise ValueError(f"hyperedge {e.id} uses nodes outside the node set")
        if given and any(v < 0 or v >= self.n for v in self.nodes):
            raise ValueError("node ids must lie in [0, n)")

    def __hash__(self) -> int:
        return self._field_hash

    @cached_property
    def _field_hash(self) -> int:
        # the frozen dataclass's own field hash, which walks every edge;
        # engines are cached by graph, so it is computed once per graph
        return hash((self.n, self.edges, self.nodes))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_edge_tuples(
        cls, n: int, pairs: Iterable[tuple[int, Iterable[int]]]
    ) -> "DirectedHypergraph":
        """Build from (head, tails) pairs; edge ids are assigned 0, 1, ..."""
        edges = tuple(
            Hyperedge(i, head, frozenset(tails)) for i, (head, tails) in enumerate(pairs)
        )
        return cls(n, edges)

    @classmethod
    def from_edge_list(
        cls, n: int, triples: Iterable[tuple[int, int, Iterable[int]]]
    ) -> "DirectedHypergraph":
        """Build from explicit (id, head, tails) triples."""
        edges = tuple(Hyperedge(eid, head, frozenset(tails)) for eid, head, tails in triples)
        return cls(n, edges)

    # -- basic accessors ----------------------------------------------------

    @cached_property
    def node_order(self) -> tuple[int, ...]:
        return tuple(sorted(self.nodes))

    @cached_property
    def edge_by_id(self) -> dict[int, Hyperedge]:
        return {e.id: e for e in self.edges}

    @cached_property
    def _head_edges(self) -> dict[int, tuple[Hyperedge, ...]]:
        by_head: dict[int, list[Hyperedge]] = {v: [] for v in self.nodes}
        for e in self.edges:
            by_head[e.head].append(e)
        return {v: tuple(sorted(es, key=lambda e: e.id)) for v, es in by_head.items()}

    def head_edges(self, u: int) -> tuple[Hyperedge, ...]:
        """All hyperedges headed by ``u``, ordered by id."""
        return self._head_edges[u]

    # -- bitmask infrastructure (internal, shared by the checkers) ----------

    @cached_property
    def bit_of(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.node_order)}

    def mask_of(self, nodes: Iterable[int]) -> int:
        bit = self.bit_of
        m = 0
        for v in nodes:
            m |= 1 << bit[v]
        return m

    def nodes_of_mask(self, mask: int) -> list[int]:
        order = self.node_order
        out = []
        while mask:
            low = mask & -mask
            out.append(order[low.bit_length() - 1])
            mask ^= low
        return out

    @cached_property
    def tail_masks(self) -> tuple[int, ...]:
        """Per hyperedge, in edge-list order: its tail set as a bitmask."""
        return tuple(self.mask_of(e.tails) for e in self.edges)

    @cached_property
    def out_union_masks(self) -> tuple[int, ...]:
        """Per bit position: the union of all tail sets of that node's hyperedges."""
        masks = [0] * len(self.node_order)
        bit = self.bit_of
        for e, t in zip(self.edges, self.tail_masks):
            masks[bit[e.head]] |= t
        return tuple(masks)

    @cached_property
    def in_masks(self) -> tuple[int, ...]:
        """Per bit position: the underlying in-neighbors of that node."""
        masks = [0] * len(self.node_order)
        bit = self.bit_of
        for e in self.edges:
            hb = 1 << bit[e.head]
            for v in e.tails:
                masks[bit[v]] |= hb
        return tuple(masks)

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Per bit position: the neighbors of that node in the undirected
        version of the underlying digraph."""
        return tuple(o | i for o, i in zip(self.out_union_masks, self.in_masks))

    # -- neighborhoods and adjacency -----------------------------------------

    def in_neighborhood(self, a: Iterable[int], b: Iterable[int]) -> frozenset[int]:
        """Nodes of ``a`` heading some hyperedge with a tail in ``b``."""
        bmask = self.mask_of(b)
        bit = self.bit_of
        out = self.out_union_masks
        return frozenset(u for u in a if out[bit[u]] & bmask)

    def adjacent(self, a: Iterable[int], b: Iterable[int], f: int) -> bool:
        """True if ``b`` is empty or |in_neighborhood(a, b)| >= f + 1."""
        bmask = self.mask_of(b)
        if not bmask:
            return True
        bit = self.bit_of
        out = self.out_union_masks
        count = 0
        for u in a:
            if out[bit[u]] & bmask:
                count += 1
                if count >= f + 1:
                    return True
        return False

    # -- derived graphs ------------------------------------------------------

    def induced(self, u: Iterable[int]) -> "DirectedHypergraph":
        """Restrict to nodes ``u``: keep hyperedges headed inside with their
        tails intersected with ``u``; drop those whose restricted tails are empty.
        Edge ids are retained."""
        uset = frozenset(u)
        if not uset <= self.nodes:
            raise ValueError("induced node set must be a subset of the graph's nodes")
        edges = []
        for e in self.edges:
            if e.head in uset:
                t = e.tails & uset
                if t:
                    edges.append(Hyperedge(e.id, e.head, t))
        return DirectedHypergraph(self.n, tuple(edges), uset)

    def remove_nodes(self, x: Iterable[int]) -> "DirectedHypergraph":
        return self.induced(self.nodes - frozenset(x))

    # -- decomposition -------------------------------------------------------

    @cached_property
    def source_components(self) -> tuple[frozenset[int], ...]:
        """``source_components_without(0)``: the source components of the
        whole graph."""
        return self.source_components_without(0)

    def source_components_without(self, removed_mask: int) -> tuple[frozenset[int], ...]:
        """Strongly connected components of the underlying digraph minus
        the nodes in ``removed_mask`` (node bits) with no incoming arc from
        outside, ordered by their smallest node id.  The arcs of
        ``remove_nodes(X)`` are this graph's arcs between nodes outside X, so
        masking X out of every closure gives the components of that graph
        without building it.  A node v lies in one exactly when v reaches
        every node that reaches it, and the component is then the set of
        nodes that reach v."""
        bit = self.bit_of
        sources = []
        found = removed_mask
        for v in self.node_order:
            vb = 1 << bit[v]
            if found & vb:
                continue
            back = reach_closure_bits(self.in_masks, vb, removed_mask)
            if not back & ~reach_closure_bits(self.out_union_masks, vb, removed_mask):
                found |= back
                sources.append(frozenset(self.nodes_of_mask(back)))
        return tuple(sources)

    # -- classification ------------------------------------------------------

    @cached_property
    def classify(self) -> TopologyClass:
        single_tail = all(len(e.tails) == 1 for e in self.edges)
        single_channel = all(len(self.head_edges(v)) == 1 for v in self.nodes)
        groups = set(self.undirected_hyperedge_sets)
        undirected = all(e.tails | {e.head} in groups for e in self.edges)
        # the underlying digraph is symmetric exactly when every node's
        # out-neighbors are its in-neighbors
        bidirectional = self.out_union_masks == self.in_masks
        return TopologyClass(single_tail, single_channel, undirected, bidirectional)

    @cached_property
    def undirected_hyperedge_sets(self) -> tuple[frozenset[int], ...]:
        """The node sets {head} | tails of hyperedges whose full orbit of
        head rotations is present, deduplicated and sorted."""
        shapes = {(e.head, e.tails) for e in self.edges}
        found: set[frozenset[int]] = set()
        for e in self.edges:
            group = e.tails | {e.head}
            if group in found:
                continue
            if all((v, group - {v}) in shapes for v in group):
                found.add(group)
        return tuple(sorted(found, key=sorted))


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
