"""Directed hypergraphs with head/tail hyperedges and their basic operations.

A hyperedge models one local-multicast channel: the head node transmits, every
tail node receives the same value.  The node universe is the half-open id
range [0, n); a graph may restrict itself to an explicit subset of that range
(used by node-split constructions, where removed originals leave unused id
slots).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable


@dataclass(frozen=True)
class Hyperedge:
    """One multicast channel: ``head`` transmits, every node in ``tails`` receives."""

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
class SimpleDigraph:
    """A simple directed graph on node ids below ``n`` (optionally a subset)."""

    n: int
    arcs: frozenset[tuple[int, int]]
    nodes: frozenset[int] = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        object.__setattr__(self, "arcs", frozenset(self.arcs))
        if self.nodes is None:
            object.__setattr__(self, "nodes", frozenset(range(self.n)))
        else:
            object.__setattr__(self, "nodes", frozenset(self.nodes))
        for (u, v) in self.arcs:
            if u == v:
                raise ValueError(f"self-loop arc ({u},{v})")
            if u not in self.nodes or v not in self.nodes:
                raise ValueError(f"arc ({u},{v}) leaves the node set")

    @cached_property
    def node_order(self) -> tuple[int, ...]:
        return tuple(sorted(self.nodes))

    @cached_property
    def is_symmetric(self) -> bool:
        return all((v, u) in self.arcs for (u, v) in self.arcs)

    @cached_property
    def undirected_adjacency(self) -> dict[int, frozenset[int]]:
        """Neighbors under the symmetrized (undirected) view of the arcs."""
        adj: dict[int, set[int]] = {v: set() for v in self.nodes}
        for (u, v) in self.arcs:
            adj[u].add(v)
            adj[v].add(u)
        return {v: frozenset(s) for v, s in adj.items()}

    @cached_property
    def is_complete_undirected(self) -> bool:
        k = len(self.nodes)
        return all(len(self.undirected_adjacency[v]) == k - 1 for v in self.nodes)


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
        if self.nodes is None:
            object.__setattr__(self, "nodes", frozenset(range(self.n)))
        else:
            object.__setattr__(self, "nodes", frozenset(self.nodes))
        seen: set[int] = set()
        for e in self.edges:
            if e.id in seen:
                raise ValueError(f"duplicate hyperedge id {e.id}")
            seen.add(e.id)
            if e.head not in self.nodes or not e.tails <= self.nodes:
                raise ValueError(f"hyperedge {e.id} uses nodes outside the node set")
        if any(v < 0 or v >= self.n for v in self.nodes):
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

    @cached_property
    def underlying(self) -> SimpleDigraph:
        """The simple digraph with an arc (u, v) whenever some hyperedge headed
        by u has v among its tails."""
        arcs = set()
        for e in self.edges:
            for v in e.tails:
                arcs.add((e.head, v))
        return SimpleDigraph(self.n, frozenset(arcs), self.nodes)

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

    def induced_with_edges(
        self, u: Iterable[int], extra_edge_ids: Iterable[int]
    ) -> "DirectedHypergraph":
        """Restriction to ``u`` plus the listed hyperedges kept whole.

        The node set grows by the endpoints of the extra edges.  If an extra
        edge would also appear (restricted) in the induced part, the whole
        edge wins."""
        uset = frozenset(u)
        extra_ids = set(extra_edge_ids)
        by_id = self.edge_by_id
        nodes = set(uset)
        for eid in extra_ids:
            e = by_id[eid]
            nodes.add(e.head)
            nodes.update(e.tails)
        edges = []
        for e in self.edges:
            if e.id in extra_ids:
                edges.append(e)
            elif e.head in uset:
                t = e.tails & uset
                if t:
                    edges.append(Hyperedge(e.id, e.head, t))
        return DirectedHypergraph(self.n, tuple(edges), frozenset(nodes))

    # -- decomposition -------------------------------------------------------

    @cached_property
    def source_components(self) -> tuple[frozenset[int], ...]:
        """Strongly connected components of the underlying digraph with no
        incoming arc from outside, ordered by their smallest node id.  A node
        v lies in one exactly when v reaches every node that reaches it, and
        the component is then the set of nodes that reach v."""
        bit = self.bit_of
        sources = []
        found = 0
        for v in self.node_order:
            vb = 1 << bit[v]
            if found & vb:
                continue
            back = reach_closure_bits(self.in_masks, vb)
            if not back & ~reach_closure_bits(self.out_union_masks, vb):
                found |= back
                sources.append(frozenset(self.nodes_of_mask(back)))
        return tuple(sources)

    # -- classification ------------------------------------------------------

    @cached_property
    def classify(self) -> TopologyClass:
        single_tail = all(len(e.tails) == 1 for e in self.edges)
        single_channel = all(len(self.head_edges(v)) == 1 for v in self.nodes)
        shapes = {(e.head, e.tails) for e in self.edges}
        undirected = all(
            (v, (e.tails - {v}) | {e.head}) in shapes for e in self.edges for v in e.tails
        )
        bidirectional = self.underlying.is_symmetric
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
