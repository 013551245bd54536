from __future__ import annotations

import math

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from hyperbft.conditions import (
    LCR,
    MAX_CLOSURE_PAIRS,
    check_lcr_hyper,
    check_with_fault_set,
    verify_witness,
)
from hyperbft.generators import (
    all_local_broadcast_graphs,
    all_p2p_graphs,
    all_undirected_hypergraphs,
    complete_p2p,
    cycle_local_broadcast,
    path_local_broadcast,
    random_hypergraph,
    random_p2p,
    sample_undirected_hypergraphs,
)
from hyperbft.hypergraph import DirectedHypergraph
from hyperbft.reductions import (
    check_lcr_local,
    check_lcr_p2p,
    counterexample_hypergraph,
    cross_validate_reduction,
    hyper_k_connected,
    theorem_local_classic,
    theorem_p2p_classic,
    triple_cover_condition,
    undirected_conditions,
    vertex_connectivity,
)


def test_point_to_point_fixtures() -> None:
    assert check_lcr_p2p(complete_p2p(4), 1).holds
    assert not check_lcr_p2p(complete_p2p(3), 1).holds
    assert theorem_p2p_classic(complete_p2p(4), 1)
    assert not theorem_p2p_classic(complete_p2p(3), 1)


def test_local_broadcast_fixtures() -> None:
    assert check_lcr_local(cycle_local_broadcast(4), 1).holds
    assert not check_lcr_local(path_local_broadcast(3), 1).holds
    assert theorem_local_classic(cycle_local_broadcast(4), 1)
    assert not theorem_local_classic(path_local_broadcast(3), 1)


def test_fixtures_match_general_checker() -> None:
    assert check_lcr_hyper(complete_p2p(4), 1).holds
    assert not check_lcr_hyper(complete_p2p(3), 1).holds
    assert check_lcr_hyper(cycle_local_broadcast(4), 1).holds
    assert not check_lcr_hyper(path_local_broadcast(3), 1).holds


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=20),
    st.integers(min_value=0, max_value=2**31),
    st.sampled_from(["p2p", "multi-tail", "id-gap"]),
)
def test_vertex_connectivity_against_networkx(n: int, arcs: int, seed: int, kind: str) -> None:
    # connectivity is defined on the undirected version of the digraph, in
    # which a multi-tail channel joins its head to each of its tails; the
    # id-gap graph drops node n // 2, so the nodes above it sit one bit lower
    if kind == "multi-tail":
        g = random_hypergraph(n, arcs % 8, seed)
    else:
        g = random_p2p(n, arcs, seed)
    if kind == "id-gap":
        g = g.remove_nodes({n // 2})
    arcs_set = {(e.head, t) for e in g.edges for t in e.tails}
    ug = nx.Graph()
    ug.add_nodes_from(g.nodes)
    ug.add_edges_from(arcs_set)
    assert vertex_connectivity(g) == nx.node_connectivity(ug)
    assert g.classify.bidirectional == all((v, u) in arcs_set for (u, v) in arcs_set)
    for v in g.nodes:
        assert g.neighbor_masks[g.bit_of[v]] == g.mask_of(ug[v])
    assert min(m.bit_count() for m in g.neighbor_masks) == min(d for _, d in ug.degree())


def test_exhaustive_cross_validation_tiny() -> None:
    for g in all_p2p_graphs(3):
        assert cross_validate_reduction(g, 1, "p2p").agree
    for g in all_local_broadcast_graphs(3):
        assert cross_validate_reduction(g, 1, "local").agree
    for g in all_undirected_hypergraphs(3):
        assert cross_validate_reduction(g, 1, "undirected").agree


def test_undirected_cross_validation_at_two_faults() -> None:
    # n=5 nodes with up to 15 channels each: two split nodes give up to
    # 2^14 x 2^14 light splits per split set, but few minimal rows
    for g in sample_undirected_hypergraphs(5, 25, 3):
        assert cross_validate_reduction(g, 2, "undirected").agree


def test_reduced_check_refuses_an_oversized_graph() -> None:
    """The 30-ring is decided at f=0 (30 closures) and refused at f=3,
    where its C(30, 3) * 30 closures pass the closure-pair limit."""
    assert (math.comb(30, 3) * 30) ** 2 > MAX_CLOSURE_PAIRS
    assert check_lcr_local(cycle_local_broadcast(30), 0).holds
    with pytest.raises(ValueError, match="split graph has 30 nodes"):
        check_lcr_local(cycle_local_broadcast(30), 3)


def two_clique_hub(n: int) -> DirectedHypergraph:
    """Cliques {0..h} and {0, h+1..n-1}, h = (n-1) // 2, that share only
    node 0, with one broadcast channel per node."""
    h = (n - 1) // 2
    cliques = (range(h + 1), [0, *range(h + 1, n)])
    adj = {u: set() for u in range(n)}
    for clique in cliques:
        for u in clique:
            adj[u].update(v for v in clique if v != u)
    return DirectedHypergraph.from_edge_tuples(n, [(u, tuple(sorted(adj[u]))) for u in range(n)])


@pytest.mark.parametrize(
    "n, partitions",
    [(11, 59_292), (13, 532_170), (14, 1_596_510), (16, 14_355_468)],
)
def test_hub_graph_witness_index(n, partitions) -> None:
    """Every violation of the hub graph at f=1 puts node 0 in C, so the
    canonical labelling index passes 3^(n-1); the counts are the
    product-order scan's."""
    g = two_clique_hub(n)
    for check in (check_lcr_hyper, check_lcr_local):
        report = check(g, 1)
        assert not report.holds
        assert report.partitions_checked == partitions
        assert report.violation.partition.center == frozenset({0})


def test_witness_with_many_head_sets() -> None:
    """complete_p2p(14) at f=7 violates at F = {} (n <= 2f).  The detector's
    closed form decides it, and the witness search over C(14, 7) * 14 =
    48,048 closures finds the product-order scan's labelling, index 3^7 - 1."""
    g = complete_p2p(14)
    for check in (check_lcr_p2p, check_lcr_hyper):
        report = check(g, 7)
        assert not report.holds
        assert report.partitions_checked == 2_187
        assert report.violation.partition.left == frozenset(range(7))


def test_long_rings_are_decided_at_one_fault() -> None:
    # split graphs of up to 41 nodes, decided by closures (C(41, 1) * 41 of them)
    g = cycle_local_broadcast(40)
    assert check_lcr_hyper(g, 1).holds
    assert check_lcr_local(g, 1).holds
    assert theorem_local_classic(g, 1)


def test_25_ring_is_decided_at_three_faults() -> None:
    """The 25-ring's split graphs at f=3 hold up to C(25, 3) * 25 = 57,500
    closures, under the closure-pair limit: both checks find the violation
    the closed form predicts, and the witness of the fault-free split set
    passes the raw re-verification."""
    g = cycle_local_broadcast(25)
    assert (math.comb(25, 3) * 25) ** 2 <= MAX_CLOSURE_PAIRS
    assert not theorem_local_classic(g, 3)
    assert not check_lcr_local(g, 3).holds
    assert not check_lcr_hyper(g, 3).holds
    holds, violation = check_with_fault_set(g, set(), 3, LCR)
    assert not holds
    assert verify_witness(g, 3, violation)


def test_cross_validation_rejects_wrong_class() -> None:
    with pytest.raises(ValueError):
        cross_validate_reduction(cycle_local_broadcast(4), 1, "p2p")
    one_way = DirectedHypergraph.from_edge_tuples(3, [(0, (1,)), (1, (2,))])
    with pytest.raises(ValueError):
        cross_validate_reduction(one_way, 1, "undirected")
    with pytest.raises(ValueError):
        cross_validate_reduction(complete_p2p(3), 1, "nonsense")


def test_undirected_conditions_on_complete_pair_exchange() -> None:
    # undirected K4 as pairwise channels: every pair {u, v} present both ways
    pairs = [(u, (v,)) for u in range(4) for v in range(4) if u != v]
    g = DirectedHypergraph.from_edge_tuples(4, pairs)
    cond = undirected_conditions(g, 1)
    assert cond.holds == check_lcr_hyper(g, 1).holds


def test_triple_cover_on_counterexample() -> None:
    g = counterexample_hypergraph(3)
    assert g.n == 8
    assert triple_cover_condition(g, 3)
    assert not hyper_k_connected(g, 3, 3, 2)


def test_counterexample_scales_with_budget() -> None:
    g = counterexample_hypergraph(4)
    assert g.n == 11
    assert triple_cover_condition(g, 4)
    assert not hyper_k_connected(g, 4, 4, 2)


def test_counterexample_rejects_small_budgets() -> None:
    with pytest.raises(ValueError):
        counterexample_hypergraph(2)


def test_hyper_connectivity_needs_wide_channels() -> None:
    # pairwise channels alone cannot witness a three-way partition,
    # a genuinely three-wide channel can
    pairs = [(u, (v,)) for u in range(3) for v in range(3) if u != v]
    tri = DirectedHypergraph.from_edge_tuples(3, pairs)
    assert hyper_k_connected(tri, 2, 2, 1)
    assert not hyper_k_connected(tri, 3, 1, 1)
    wide = DirectedHypergraph.from_edge_tuples(
        3, pairs + [(v, tuple(sorted({0, 1, 2} - {v}))) for v in range(3)]
    )
    assert hyper_k_connected(wide, 3, 1, 1)
