from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from hyperbft.conditions import check_lcr_hyper
from hyperbft.generators import (
    _random_candidates,
    all_local_broadcast_graphs,
    all_p2p_graphs,
    all_undirected_hypergraphs,
    complete_p2p,
    cycle_local_broadcast,
    interlocked_example,
    path_local_broadcast,
    random_hypergraph,
    random_p2p,
    sample_condition_passing,
    sample_condition_violating,
    sample_local_broadcast_graphs,
    two_channel_example,
    union_hypergraph,
)


def test_complete_p2p_edge_count() -> None:
    g = complete_p2p(4)
    assert len(g.edges) == 12
    assert all(len(e.tails) == 1 for e in g.edges)
    assert g.classify.single_tail and g.classify.bidirectional


def test_cycle_local_broadcast_shape() -> None:
    g = cycle_local_broadcast(5)
    assert len(g.edges) == 5
    assert all(len(e.tails) == 2 for e in g.edges)
    assert g.classify.single_channel_per_node


def test_path_local_broadcast_shape() -> None:
    g = path_local_broadcast(4)
    assert len(g.edges) == 4
    assert len(g.edge_by_id[0].tails) == 1  # endpoints reach one neighbor
    assert len(g.edge_by_id[1].tails) == 2


def test_interlocked_example_is_multi_tail() -> None:
    g = interlocked_example()
    assert any(len(e.tails) >= 2 for e in g.edges)


def test_two_channel_example_node_one_heads_two_channels() -> None:
    g = two_channel_example()
    assert len(g.head_edges(1)) == 2


def test_union_concatenates_channels() -> None:
    a = complete_p2p(3)
    b = cycle_local_broadcast(3)
    u = union_hypergraph(a, b)
    assert u.n == 3
    assert len(u.edges) == len(a.edges) + len(b.edges)
    shapes = {(e.head, e.tails) for e in u.edges}
    assert all((e.head, e.tails) in shapes for e in a.edges)
    assert all((e.head, e.tails) in shapes for e in b.edges)


def test_union_requires_matching_node_sets() -> None:
    with pytest.raises(ValueError):
        union_hypergraph(complete_p2p(3), complete_p2p(4))


def test_negative_sizes_are_refused() -> None:
    with pytest.raises(ValueError, match="n must be non-negative"):
        complete_p2p(-2)
    with pytest.raises(ValueError, match="channel count must be non-negative"):
        random_hypergraph(5, -3, 1)
    assert len(random_hypergraph(5, 0, 1).edges) == 0


def test_random_generators_are_seed_deterministic() -> None:
    assert random_hypergraph(5, 7, 123) == random_hypergraph(5, 7, 123)
    assert random_hypergraph(5, 7, 123) != random_hypergraph(5, 7, 124)
    assert random_p2p(5, 9, 3) == random_p2p(5, 9, 3)


def test_exhaustive_family_counts_small() -> None:
    assert sum(1 for _ in all_p2p_graphs(2)) == 4
    assert sum(1 for _ in all_p2p_graphs(3)) == 64
    # each node picks one non-empty channel: (2^(n-1) - 1)^n
    assert sum(1 for _ in all_local_broadcast_graphs(2)) == 1
    assert sum(1 for _ in all_local_broadcast_graphs(3)) == 27
    # subsets of the 2^n - n - 1 candidate undirected groups
    assert sum(1 for _ in all_undirected_hypergraphs(2)) == 2
    assert sum(1 for _ in all_undirected_hypergraphs(3)) == 16


def test_exhaustive_families_have_declared_shapes() -> None:
    for g in itertools.islice(all_p2p_graphs(3), 20):
        assert g.classify.single_tail
    for g in itertools.islice(all_local_broadcast_graphs(3), 20):
        assert g.classify.single_channel_per_node
    for g in itertools.islice(all_undirected_hypergraphs(3), 20):
        assert g.classify.undirected


def test_sampled_family_is_deterministic() -> None:
    a = list(sample_local_broadcast_graphs(4, 10, seed=5))
    b = list(sample_local_broadcast_graphs(4, 10, seed=5))
    assert a == b


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_condition_samplers_deliver_what_they_promise(seed: int) -> None:
    passing = sample_condition_passing(2, 4, 1, seed=seed)
    for g, rep in passing:
        assert rep.holds and check_lcr_hyper(g, 1).holds
    violating = sample_condition_violating(2, 4, 1, seed=seed)
    for g, rep in violating:
        assert not rep.holds and not check_lcr_hyper(g, 1).holds
        assert rep.violation is not None


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_passing_sampler_keeps_the_checker_reports_of_its_stream(seed: int) -> None:
    """The passing sampler decides a violating draw without building its
    witness, and still returns exactly the (graph, report) pairs that
    ``check_lcr_hyper`` keeps from the same candidate stream."""
    stream = _random_candidates(6, 1, seed)
    want, draws = [], 0
    while len(want) < 20:
        g = next(stream)
        draws += 1
        report = check_lcr_hyper(g, 1)
        if report.holds:
            want.append((g, report))
    assert draws > len(want)   # the stream held violating draws
    assert sample_condition_passing(20, 6, 1, seed) == want
