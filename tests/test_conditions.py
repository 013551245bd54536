from __future__ import annotations

import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from hyperbft import conditions
from hyperbft.conditions import (
    AB,
    LCR,
    MAX_LCR_NODES,
    _lcr_split_violated,
    _partition_base,
    _scan_fault_set,
    check_ab_hyper,
    check_lcr_hyper,
    check_with_fault_set,
    subsets_by_cardinality,
    verify_witness,
)
from hyperbft.formats import canonical_json
from hyperbft.generators import (
    complete_p2p,
    cycle_local_broadcast,
    path_local_broadcast,
    random_hypergraph,
    two_channel_example,
)
from hyperbft.hypergraph import DirectedHypergraph
from hyperbft.splitting import lambda_cardinality, split_sets

from oracles import (
    first_violation_rebuilding,
    lcr_split_violated_loop,
    simple_ab_check,
    simple_lcr_check,
)


def small_graphs(max_n: int = 4, max_m: int = 8):
    return st.builds(
        random_hypergraph,
        st.integers(min_value=2, max_value=max_n),
        st.integers(min_value=1, max_value=max_m),
        st.integers(min_value=0, max_value=2**31),
    )


def test_subsets_ordering() -> None:
    got = list(subsets_by_cardinality({0, 1, 2}, 2))
    assert got == [
        frozenset(),
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
        frozenset({0, 1}),
        frozenset({0, 2}),
        frozenset({1, 2}),
    ]


def test_complete_four_holds_and_triangle_fails() -> None:
    assert check_lcr_hyper(complete_p2p(4), 1).holds
    assert check_ab_hyper(complete_p2p(4), 1).holds
    rep = check_lcr_hyper(complete_p2p(3), 1)
    assert not rep.holds
    assert rep.violation is not None


def test_fault_free_condition_is_connectivity_like() -> None:
    # with f=0 a graph with an isolated pair still fails: no channel crosses
    g = DirectedHypergraph.from_edge_tuples(2, [(0, (1,))])
    assert check_lcr_hyper(g, 0).holds
    lonely = DirectedHypergraph(2, [])
    assert not check_lcr_hyper(lonely, 0).holds
    assert not check_ab_hyper(lonely, 0).holds


def test_broadcast_fixtures_at_one_fault() -> None:
    assert check_lcr_hyper(cycle_local_broadcast(4), 1).holds
    assert not check_lcr_hyper(path_local_broadcast(3), 1).holds


def test_two_channel_example_survives_one_fault() -> None:
    g = two_channel_example()
    assert check_lcr_hyper(g, 1).holds == check_ab_hyper(g, 1).holds


def test_report_metadata_names_condition() -> None:
    rep_l = check_lcr_hyper(complete_p2p(3), 1)
    rep_a = check_ab_hyper(complete_p2p(3), 1)
    assert rep_l.condition == LCR
    assert rep_a.condition == AB
    assert rep_l.f == rep_a.f == 1


@settings(max_examples=120, deadline=None)
@given(small_graphs(), st.integers(min_value=0, max_value=2))
def test_both_conditions_agree(g: DirectedHypergraph, f: int) -> None:
    assert check_lcr_hyper(g, f).holds == check_ab_hyper(g, f).holds


@settings(max_examples=40, deadline=None)
@given(small_graphs(max_n=3, max_m=6), st.integers(min_value=0, max_value=1))
def test_matches_raw_definition_replay(g: DirectedHypergraph, f: int) -> None:
    assert check_lcr_hyper(g, f).holds == simple_lcr_check(g, f)
    assert check_ab_hyper(g, f).holds == simple_ab_check(g, f)


@settings(max_examples=60, deadline=None)
@given(small_graphs(), st.integers(min_value=0, max_value=2))
def test_violations_verify_against_their_graph(g: DirectedHypergraph, f: int) -> None:
    rep = check_lcr_hyper(g, f)
    if rep.violation is not None:
        assert verify_witness(g, f, rep.violation)
    rep_ab = check_ab_hyper(g, f)
    if rep_ab.violation is not None:
        assert verify_witness(g, f, rep_ab.violation)


@settings(max_examples=40, deadline=None)
@given(small_graphs(), st.integers(min_value=0, max_value=2))
def test_checker_reports_are_reproducible(g: DirectedHypergraph, f: int) -> None:
    first = canonical_json(check_lcr_hyper(g, f))
    second = canonical_json(check_lcr_hyper(g, f))
    assert first == second
    assert canonical_json(check_ab_hyper(g, f)) == canonical_json(check_ab_hyper(g, f))


def test_parameterized_fault_set_check() -> None:
    g = complete_p2p(4)
    holds, violation = check_with_fault_set(g, frozenset({0}), 1, AB, want_witness=False)
    assert holds and violation is None
    g3 = complete_p2p(3)
    holds3, violation3 = check_with_fault_set(g3, frozenset({0}), 1, LCR)
    assert not holds3
    assert violation3 is not None
    assert violation3.fault_set == frozenset({0})
    assert verify_witness(g3, 1, violation3)


def test_monotone_in_fault_budget() -> None:
    # a harder budget can only break feasibility, never restore it
    for n in (3, 4):
        g = complete_p2p(n)
        feasible = [check_lcr_hyper(g, f).holds for f in (0, 1, 2)]
        assert feasible == sorted(feasible, reverse=True)


@st.composite
def detector_batches(draw):
    """(rows, m, fprime, f): 1-40 random out-mask rows over m = 1..10 nodes.
    Each row keeps every arc with its own probability, so one batch mixes
    sparse rows (often violating) with dense ones (rarely violating) and both
    verdicts occur, for whole batches and for single rows."""
    m = draw(st.integers(min_value=1, max_value=10))
    f = draw(st.integers(min_value=0, max_value=2))
    fprime = draw(st.integers(min_value=0, max_value=(1 << m) - 1))
    batch = draw(st.integers(min_value=1, max_value=40))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    rows = []
    for _ in range(batch):
        density = rng.choice((0.1, 0.25, 0.5, 0.9, 1.0))
        rows.append(
            [sum(1 << v for v in range(m) if v != u and rng.random() < density) for u in range(m)]
        )
    return rows, m, fprime, f


@settings(max_examples=150, deadline=None)
@given(detector_batches())
def test_batched_lcr_detector_matches_loop_oracle(case) -> None:
    rows, m, fprime, f = case
    expected = [lcr_split_violated_loop(row, m, fprime, f) for row in rows]
    first = expected.index(True) if any(expected) else -1
    assert _lcr_split_violated(rows, m, fprime, f) == first
    for row, want in zip(rows, expected):
        assert _lcr_split_violated([row], m, fprime, f) == (0 if want else -1)


def test_oversized_split_graph_is_refused_before_allocating() -> None:
    assert MAX_LCR_NODES < 30
    g = cycle_local_broadcast(30)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="split graph has 30 nodes"):
            check_lcr_hyper(g, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(ValueError, match="out-masks hold at most 62"):
        check_ab_hyper(cycle_local_broadcast(63), 0)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=1, max_value=2),
    st.sampled_from((LCR, AB)),
)
# witnesses that put a split node's lowest-id channel on copy 1
@example(3, 4, 5, 1, LCR)
@example(3, 4, 5, 1, AB)
@example(5, 12, 6, 2, LCR)
def test_first_violation_matches_the_rebuilding_oracle(n, channels, seed, f, condition) -> None:
    """The one-pass scan over the halved family finds the canonical witness
    of a violated fault set and counts the whole family of a holding one."""
    if condition == AB:
        n = min(n, 4)
    g = random_hypergraph(n, channels, seed, max_tail_size=2)
    base = _partition_base(condition)
    for fset in subsets_by_cardinality(g.nodes, f):
        holds, splits, partitions, violation = _scan_fault_set(g, fset, f, condition)
        if holds:
            assert violation is None
            assert splits == lambda_cardinality(g, fset)
            assert partitions == sum(
                (1 << sum(len(g.head_edges(v)) for v in x)) * base ** (len(g.nodes) + len(x))
                for x in split_sets(fset)
            )
        else:
            got = (splits - 1, partitions - 1, violation)
            assert got == first_violation_rebuilding(g, fset, f, condition)


@pytest.mark.parametrize(
    "g, fset, condition, split_index",
    [
        (random_hypergraph(5, 12, 125, max_tail_size=2), {1}, LCR, 19),
        (random_hypergraph(4, 10, 238, max_tail_size=2), {0}, LCR, 9),
        (random_hypergraph(4, 10, 238, max_tail_size=2), {0}, AB, 9),
    ],
    ids=["n5-lcr", "n4-lcr", "n4-ab"],
)
def test_rescan_builds_only_the_winning_split(monkeypatch, g, fset, condition, split_index) -> None:
    built = []
    real_split = conditions.split
    monkeypatch.setattr(conditions, "split", lambda *args: built.append(args) or real_split(*args))
    holds, splits, _, violation = _scan_fault_set(g, frozenset(fset), 1, condition)
    # the rebuilding rescan built split_index + 1 split graphs here
    assert not holds and splits == split_index + 1
    assert len(built) == 1
    built.clear()
    holds, witness = check_with_fault_set(g, fset, 1, condition)
    assert not holds and witness == violation
    assert len(built) == 1
