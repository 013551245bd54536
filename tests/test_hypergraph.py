from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from hyperbft.hypergraph import DirectedHypergraph, Hyperedge
from hyperbft.generators import (
    complete_p2p,
    cycle_local_broadcast,
    random_hypergraph,
    two_channel_example,
)

from oracles import source_components_mutual_reach


def small_graphs(max_n: int = 6, max_m: int = 12):
    return st.builds(
        random_hypergraph,
        st.integers(min_value=2, max_value=max_n),
        st.integers(min_value=1, max_value=max_m),
        st.integers(min_value=0, max_value=2**31),
    )


def test_hyperedge_rejects_empty_tails() -> None:
    with pytest.raises(ValueError):
        Hyperedge(0, 0, frozenset())


def test_duplicate_edge_ids_rejected() -> None:
    edges = [Hyperedge(0, 0, frozenset({1})), Hyperedge(0, 1, frozenset({0}))]
    with pytest.raises(ValueError):
        DirectedHypergraph(2, edges)


def test_negative_node_count_rejected() -> None:
    with pytest.raises(ValueError, match="n must be non-negative"):
        DirectedHypergraph(-3, ())


def test_edges_must_use_known_nodes() -> None:
    with pytest.raises(ValueError):
        DirectedHypergraph(2, [Hyperedge(0, 0, frozenset({5}))])


def test_in_neighborhood_by_hand() -> None:
    # 0 multicasts to {1, 2}; 1 sends to 2; 2 sends to 0.
    g = DirectedHypergraph.from_edge_tuples(3, [(0, (1, 2)), (1, (2,)), (2, (0,))])
    assert g.in_neighborhood({0, 1}, {2}) == {0, 1}
    assert g.in_neighborhood({0, 1}, {1}) == {0}
    assert g.in_neighborhood({2}, {0}) == {2}
    assert g.in_neighborhood({2}, {1}) == set()


def test_adjacency_empty_target_is_trivial() -> None:
    g = DirectedHypergraph.from_edge_tuples(2, [(0, (1,))])
    assert g.adjacent(set(), set(), f=5)
    assert g.adjacent({0}, set(), f=5)


def test_adjacency_threshold() -> None:
    g = complete_p2p(4)
    # three distinct heads in A reach node 3
    assert g.adjacent({0, 1, 2}, {3}, f=2)
    assert not g.adjacent({0, 1, 2}, {3}, f=3)


def test_remove_nodes_drops_incident_edges() -> None:
    g = complete_p2p(3)
    h = g.remove_nodes({2})
    assert h.nodes == {0, 1}
    assert all(e.head != 2 and 2 not in e.tails for e in h.edges)
    assert len(h.edges) == 2


def test_induced_keeps_edge_ids() -> None:
    g = cycle_local_broadcast(4)
    h = g.induced({0, 1, 2})
    kept = {e.id for e in h.edges}
    assert kept <= {e.id for e in g.edges}
    for e in h.edges:
        orig = g.edge_by_id[e.id]
        assert e.head == orig.head and e.tails <= orig.tails


def test_hash_is_the_field_hash_and_survives_pickling() -> None:
    """The cached hash equals the dataclass field hash, so equal graphs
    built apart hash equal, and a graph passed between processes (pickled,
    with or without its hash computed) hashes and compares equal too."""
    g = complete_p2p(5)
    same = DirectedHypergraph.from_edge_list(5, [(e.id, e.head, e.tails) for e in g.edges])
    assert same == g and same is not g
    assert hash(same) == hash(g) == hash((g.n, g.edges, g.nodes))
    for graph in (complete_p2p(5), g):   # unhashed, and with its hash cached
        reloaded = pickle.loads(pickle.dumps(graph))
        assert reloaded == g
        assert hash(reloaded) == hash(g)
    assert {g: 1}[same] == 1
    assert complete_p2p(5).induced({0, 1, 2, 3}) != g


def test_source_components_of_cycle_plus_sink() -> None:
    # 0 <-> 1 strongly connected, feeding 2
    g = DirectedHypergraph.from_edge_tuples(3, [(0, (1,)), (1, (0,)), (0, (2,))])
    assert g.source_components == (frozenset({0, 1}),)


def test_two_source_components() -> None:
    g = DirectedHypergraph.from_edge_tuples(4, [(0, (2,)), (1, (2,)), (2, (3,))])
    assert set(g.source_components) == {frozenset({0}), frozenset({1})}


def test_classify_fixture_shapes() -> None:
    k4 = complete_p2p(4)
    assert k4.classify.single_tail
    assert k4.classify.bidirectional
    c4 = cycle_local_broadcast(4)
    assert c4.classify.single_channel_per_node
    assert not c4.classify.single_tail
    fig = two_channel_example()
    assert not fig.classify.single_tail


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_neighborhood_is_subset_of_heads(g: DirectedHypergraph) -> None:
    nodes = sorted(g.nodes)
    a = {v for v in nodes if v % 2 == 0}
    b = {v for v in nodes if v % 3 == 0}
    nb = g.in_neighborhood(a, b)
    assert nb <= a
    heads = {e.head for e in g.edges}
    assert nb <= heads


@settings(max_examples=60, deadline=None)
@given(small_graphs(), st.integers(min_value=0, max_value=5))
def test_neighborhood_monotone_in_target(g: DirectedHypergraph, pivot: int) -> None:
    nodes = sorted(g.nodes)
    a = set(nodes)
    small = {v for v in nodes if v <= pivot}
    large = set(nodes)
    assert g.in_neighborhood(a, small) <= g.in_neighborhood(a, large)


@settings(max_examples=60, deadline=None)
@given(small_graphs())
def test_remove_nodes_composes(g: DirectedHypergraph) -> None:
    nodes = sorted(g.nodes)
    first = {nodes[0]}
    second = {nodes[-1]} - first
    once = g.remove_nodes(first | second)
    twice = g.remove_nodes(first).remove_nodes(second)
    assert once == twice


@settings(max_examples=100, deadline=None)
@given(small_graphs(), st.sets(st.integers(min_value=0, max_value=5), max_size=2))
def test_source_components_match_mutual_reachability(g: DirectedHypergraph, removed) -> None:
    """Source components, on a graph and on it with up to two nodes removed
    (its node ids then leave gaps), are the classes of mutual reachability
    that no arc enters, ordered by their smallest node."""
    assert len(g.source_components) >= 1
    for h in (g, g.remove_nodes(removed & g.nodes)):
        assert h.source_components == source_components_mutual_reach(h)
