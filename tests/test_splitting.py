from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from hyperbft.generators import complete_p2p, random_hypergraph, two_channel_example
from hyperbft.splitting import (
    SplitSpec,
    enumerate_lambda,
    lambda_cardinality,
    split,
    split_layout,
    split_layouts,
    split_sets,
)

from oracles import split_layout_relifting


def small_graphs(max_n: int = 5, max_m: int = 8):
    return st.builds(
        random_hypergraph,
        st.integers(min_value=2, max_value=max_n),
        st.integers(min_value=1, max_value=max_m),
        st.integers(min_value=0, max_value=2**31),
    )


def test_split_copies_get_fresh_ids() -> None:
    g = complete_p2p(3)
    eids = sorted(e.id for e in g.head_edges(1))
    sh = split(g, {1}, SplitSpec.make({1}, {eids[0]: 0, eids[1]: 1}))
    assert sh.copy_pairs[1] == (3, 4)
    assert sh.graph.nodes == {0, 2, 3, 4}
    assert sh.origin_map[3] == 1 and sh.origin_map[4] == 1
    assert sh.origin_map[0] == 0


def test_split_expands_tails_to_both_copies() -> None:
    g = complete_p2p(3)
    eids = sorted(e.id for e in g.head_edges(1))
    sh = split(g, {1}, SplitSpec.make({1}, {eid: 0 for eid in eids}))
    c0, c1 = sh.copy_pairs[1]
    for e in sh.graph.edges:
        base = g.edge_by_id[e.id]
        if 1 in base.tails:
            assert c0 in e.tails and c1 in e.tails
        assert e.id == base.id


def test_split_assigns_head_edges_per_edge() -> None:
    g = complete_p2p(3)
    eids = sorted(e.id for e in g.head_edges(1))
    sh = split(g, {1}, SplitSpec.make({1}, {eids[0]: 0, eids[1]: 1}))
    c0, c1 = sh.copy_pairs[1]
    heads = {e.id: e.head for e in sh.graph.edges}
    assert heads[eids[0]] == c0
    assert heads[eids[1]] == c1


def test_fault_carryover_includes_copies_and_unsplit_faults() -> None:
    g = complete_p2p(4)
    eids = sorted(e.id for e in g.head_edges(2))
    sh = split(g, {1, 2}, SplitSpec.make({2}, {eid: 0 for eid in eids}))
    c0, c1 = sh.copy_pairs[2]
    assert sh.f_prime == {1, c0, c1}


def test_empty_split_is_the_base_graph() -> None:
    g = complete_p2p(3)
    sh = split(g, {1}, SplitSpec.make(set(), {}))
    assert sh.graph == g
    assert sh.f_prime == {1}


def test_two_channel_example_family_size() -> None:
    g = two_channel_example()
    assert lambda_cardinality(g, {1}) == 5
    assert sum(1 for _ in enumerate_lambda(g, {1})) == 5


def test_split_rejects_assignment_for_missing_edges() -> None:
    g = complete_p2p(3)
    with pytest.raises(ValueError):
        split(g, {1}, SplitSpec.make({1}, {99: 0}))


def test_node_labels_distinguish_copies() -> None:
    g = complete_p2p(3)
    eids = sorted(e.id for e in g.head_edges(0))
    sh = split(g, {0}, SplitSpec.make({0}, {eids[0]: 0, eids[1]: 1}))
    c0, c1 = sh.copy_pairs[0]
    assert sh.node_label(c0) == "0^0"
    assert sh.node_label(c1) == "0^1"
    assert sh.node_label(1) == "1"


@settings(max_examples=40, deadline=None)
@given(small_graphs(), st.integers(min_value=0, max_value=4))
def test_lambda_enumeration_matches_cardinality(g, pivot: int) -> None:
    fault_set = {v for v in g.nodes if v <= pivot}
    count = sum(1 for _ in enumerate_lambda(g, fault_set))
    assert count == lambda_cardinality(g, fault_set)


@settings(max_examples=40, deadline=None)
@given(small_graphs(), st.integers(min_value=0, max_value=4))
def test_collapse_inverts_every_split(g, pivot: int) -> None:
    """Merging every copy back onto its original node gives back g's edges."""
    fault_set = {v for v in g.nodes if v <= pivot}
    for sh in enumerate_lambda(g, fault_set):
        omap = sh.origin_map
        assert {
            (e.id, omap[e.head], frozenset(omap[t] for t in e.tails)) for e in sh.graph.edges
        } == {(e.id, e.head, e.tails) for e in g.edges}


@settings(max_examples=40, deadline=None)
@given(small_graphs(), st.integers(min_value=0, max_value=4))
def test_split_graph_structure_invariants(g, pivot: int) -> None:
    fault_set = {v for v in g.nodes if v <= pivot}
    for sh in enumerate_lambda(g, fault_set):
        x = sh.spec.split_set
        # copies exist exactly for split nodes, originals are gone
        for v in x:
            c0, c1 = sh.copy_pairs[v]
            assert {c0, c1} <= sh.graph.nodes
            assert v not in sh.graph.nodes
        assert sh.graph.nodes == (g.nodes - x) | {
            c for v in x for c in sh.copy_pairs[v]
        }
        # carried fault set per its definition
        assert sh.f_prime == (sh.graph.nodes & sh.fault_set) | (sh.graph.nodes - g.nodes)
        # edge ids preserved
        assert {e.id for e in sh.graph.edges} == {e.id for e in g.edges}


@settings(max_examples=60, deadline=None)
@given(small_graphs(max_n=6, max_m=14), st.integers(min_value=0, max_value=2**31))
def test_fault_set_layouts_match_the_relifting_layout(g, seed: int) -> None:
    """Each split set's layout from the fault set's shared channel list equals
    the one lifted from every tail mask, for fault sets of up to 3 nodes."""
    nodes = sorted(g.nodes)
    fault_set = {v for i, v in enumerate(nodes) if seed >> i & 1} - set(nodes[3:])
    pairs = list(split_layouts(g, fault_set))
    assert [x for x, _ in pairs] == list(split_sets(fault_set))
    for x, layout in pairs:
        assert layout == split_layout_relifting(g, fault_set, x)
        assert layout == split_layout(g, fault_set, x)
