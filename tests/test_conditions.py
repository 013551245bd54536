from __future__ import annotations

import itertools
import math
import random
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hyperbft import conditions, necessity, protocol, reductions
from hyperbft.conditions import (
    AB,
    LCR,
    MAX_AB_PARTITIONS,
    MAX_CLOSURE_PAIRS,
    MAX_SPLIT_PAIRS,
    _SQUARING_CELLS,
    _ab_batch_violated,
    _check,
    _closure_violated,
    _closures,
    _condition,
    _first_lcr_labelling,
    _head_sets,
    _lcr_split_violated,
    _light_splits,
    _node_rows,
    _pinned,
    _scan_fault_set,
    _slot_groups,
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
from hyperbft.splitting import lambda_cardinality, split_layout, split_layouts, split_sets

from oracles import (
    check_per_fault_set,
    closures_search,
    first_lcr_labelling_scan,
    first_violation_rebuilding,
    lcr_split_violated_loop,
    light_splits_ordered,
    scan_fault_set_ordered,
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


def test_unknown_condition_is_refused() -> None:
    with pytest.raises(ValueError, match="unknown condition 'lcr'"):
        check_with_fault_set(complete_p2p(3), {0}, 1, "lcr")


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


def test_empty_graph_holds() -> None:
    # its one split graph has no nodes, so no closure cells: still one batch
    g = DirectedHypergraph(0, ())
    for f in (0, 1):
        assert check_lcr_hyper(g, f) == check_per_fault_set(g, f, LCR)
        assert check_lcr_hyper(g, f).holds and check_ab_hyper(g, f).holds


def test_monotone_in_fault_budget() -> None:
    # a harder budget can only break feasibility, never restore it
    for n in (3, 4):
        g = complete_p2p(n)
        feasible = [check_lcr_hyper(g, f).holds for f in (0, 1, 2)]
        assert feasible == sorted(feasible, reverse=True)


@st.composite
def detector_batches(draw):
    """(rows, m, fprime, f): 1-40 random out-mask rows over m = 1..10 nodes,
    with f small (m > 2f, the closures decide) or from m/2 to past m
    (m <= 2f, the closed form decides), and F' often empty or full.  Each
    row keeps every arc with its own probability, so one batch mixes sparse
    rows (often violating) with dense ones (rarely violating) and both
    verdicts occur, for whole batches and for single rows."""
    m = draw(st.integers(min_value=1, max_value=10))
    f = draw(
        st.one_of(
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=(m + 1) // 2, max_value=m + 1),
        )
    )
    full = (1 << m) - 1
    fprime = draw(st.one_of(st.sampled_from((0, full)), st.integers(min_value=0, max_value=full)))
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
    """The detector, and its closure helper on every m, give the index of
    the loop oracle's first violating row, for the whole batch and for
    every row alone."""
    rows, m, fprime, f = case
    expected = [lcr_split_violated_loop(row, m, fprime, f) for row in rows]
    first = expected.index(True) if any(expected) else -1
    for detect in (_lcr_split_violated, _closure_violated):
        assert detect(rows, m, fprime, f) == first
        for row, want in zip(rows, expected):
            assert detect([row], m, fprime, f) == (0 if want else -1)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda f: st.tuples(st.just(f), st.integers(min_value=1, max_value=min(2 * f, 12)))
    ),
    st.sampled_from(("empty", "full", "random")),
    st.integers(min_value=0, max_value=2**32),
)
def test_closed_form_matches_loop_oracle(fm, fault_copies, seed) -> None:
    """At m <= 2f a split graph violates exactly when two of its nodes lie
    outside F', whatever its arcs: the detector's closed form agrees with
    the loop oracle on random rows, with F' empty, full or random."""
    f, m = fm
    rng = random.Random(seed)
    full = (1 << m) - 1
    fprime = {"empty": 0, "full": full, "random": rng.randrange(1 << m)}[fault_copies]
    density = rng.choice((0.0, 0.2, 0.5, 0.9, 1.0))
    row = [sum(1 << v for v in range(m) if v != u and rng.random() < density) for u in range(m)]
    want = lcr_split_violated_loop(row, m, fprime, f)
    assert want == ((full & ~fprime).bit_count() >= 2)
    assert _lcr_split_violated([row], m, fprime, f) == (0 if want else -1)


@settings(max_examples=150, deadline=None)
@given(detector_batches(), st.integers(min_value=0, max_value=2**32))
def test_squared_and_warshall_closures_match_the_search_oracle(case, seed) -> None:
    """Each row's closures, over the head sets of a random node universe,
    equal a plain search's: alone (squared) and repeated past
    ``_SQUARING_CELLS`` closure cells (the Warshall)."""
    rows, m, fprime, f = case
    universe = random.Random(seed).randrange(1 << m) | 1
    k = min(f, universe.bit_count())
    heads = _head_sets(universe, k).tolist()
    for row in rows:
        want = closures_search(row, m, fprime, heads)
        alone = _closures(np.array([row], dtype=np.int64), m, fprime, universe, k)
        repeats = _SQUARING_CELLS // m + 1
        repeated = _closures(np.array([row] * repeats, dtype=np.int64), m, fprime, universe, k)
        assert alone[0].tolist() == want
        assert all(cl.tolist() == want for cl in repeated)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2**32),
)
def test_prefix_search_matches_the_labelling_scan(m, f, seed) -> None:
    """The digit-by-digit labelling equals the product-order scan's first
    violating labelling, index and masks, on all nodes and on random subsets
    of them with p2p out-masks (faulty heads and targets dropped)."""
    rng = random.Random(seed)
    density = rng.choice((0.15, 0.3, 0.5, 0.8))
    out = [sum(1 << v for v in range(m) if v != u and rng.random() < density) for u in range(m)]
    fprime = rng.randrange(1 << m) if rng.random() < 0.6 else rng.choice((0, (1 << m) - 1))
    bits = list(range(m))
    if rng.random() < 0.5:
        # a p2p fault set: its nodes are unlabelled, mute and never targets
        fprime = sum(1 << v for v in range(m) if rng.random() < 0.3)
        out = [0 if fprime >> u & 1 else o & ~fprime for u, o in enumerate(out)]
        bits = [b for b in bits if not fprime >> b & 1]
    try:
        want = first_lcr_labelling_scan(out, fprime, bits, f)
    except AssertionError:
        with pytest.raises(AssertionError, match="violation vanished"):
            _first_lcr_labelling(out, fprime, bits, f)
        return
    assert _first_lcr_labelling(out, fprime, bits, f) == want


def test_oversized_split_graph_is_refused_before_allocating() -> None:
    """The 30-ring at f=0 has 30 closures and is decided; at f=3 its
    C(30, 3) * 30 closures pass the closure-pair limit, and it is refused
    before any large allocation, as is the detector called on such a row."""
    assert (math.comb(30, 3) * 30) ** 2 > MAX_CLOSURE_PAIRS
    g = cycle_local_broadcast(30)
    assert check_lcr_hyper(g, 0).holds
    with pytest.raises(ValueError, match="split graph has 30 nodes"):
        _lcr_split_violated([[0] * 30], 30, 0, 3)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="split graph has 30 nodes"):
            check_lcr_hyper(g, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(ValueError, match="out-masks hold at most 62"):
        check_ab_hyper(cycle_local_broadcast(63), 0)


def test_ab_form_refuses_past_its_partition_budget() -> None:
    """The 16-ring at f=1 would walk 2^15 partitions of its 16-node split
    graph before any fault: refused at once, where the scan ran past 60 s.
    The 8-ring (at most 2^8 per split set) is still decided."""
    assert 1 << 15 > MAX_AB_PARTITIONS >= 1 << 12
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"split graph has 16 nodes; .* \(here 1 x 2\^15\)"):
        check_ab_hyper(cycle_local_broadcast(16), 1)
    assert time.perf_counter() - start < 1.0
    g = cycle_local_broadcast(8)
    assert check_ab_hyper(g, 1).holds == check_lcr_hyper(g, 1).holds


def test_witness_past_the_closure_limit_is_refused(monkeypatch) -> None:
    """The witness search on the triangle's first violating split graph
    (4 nodes) would hold 16 closures: past a limit of 8 it is refused, not
    run."""
    monkeypatch.setattr(conditions, "MAX_WITNESS_CLOSURES", 8)
    with pytest.raises(ValueError, match="canonical witness over 4 nodes at f=1 needs 16"):
        check_lcr_hyper(complete_p2p(3), 1)


def test_oversized_split_set_is_refused_before_its_rows(monkeypatch) -> None:
    """complete_p2p(8) plus 22 channels of node 0 with distinct two- and
    three-node tails holds unsplit at f=1 (64^2 closure pairs at m = 8);
    splitting node 0 passes a closure-pair limit of 64^2 (81^2 pairs at
    m = 9), which is refused before the DP builds its millions of pairs."""
    tails = [t for k in (2, 3) for t in itertools.combinations(range(1, 8), k)][:22]
    base = complete_p2p(8)
    g = DirectedHypergraph.from_edge_tuples(
        8, [(e.head, tuple(e.tails)) for e in base.edges] + [(0, t) for t in tails]
    )
    monkeypatch.setattr(conditions, "MAX_CLOSURE_PAIRS", 64 * 64)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="split graph has 9 nodes"):
            check_with_fault_set(g, {0}, 1, LCR)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_split_pair_bound_refuses_a_wide_split_node(monkeypatch) -> None:
    """complete_p2p(6) splits node 0 into 2^4 distinct pairs: admitted by
    the default bound, refused by a bound of 8, for both conditions."""
    g = complete_p2p(6)
    assert MAX_SPLIT_PAIRS >= 16
    assert check_with_fault_set(g, {0}, 1, LCR)[0]
    monkeypatch.setattr(conditions, "MAX_SPLIT_PAIRS", 8)
    for condition in (LCR, AB):
        with pytest.raises(ValueError, match="more than 8 distinct out-mask pairs"):
            check_with_fault_set(g, {0}, 1, condition)


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
    _, _, base = _condition(condition)
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


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=15),
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=0, max_value=2),
    st.sampled_from((LCR, AB)),
)
# witnesses that put channels of one or two split nodes on copy 1
@example(6, 8, 4, 2, LCR)
@example(5, 15, 71, 2, LCR)
@example(3, 9, 5, 1, AB)
@example(4, 8, 16, 1, AB)
def test_minimal_row_scan_matches_the_ordered_scan(n, channels, seed, f, condition) -> None:
    """Deciding each split set on its Pareto-minimal rows and finding the
    least violating counter bit by bit gives the ordered scan's verdict,
    counters and witness."""
    if condition == AB:
        n = min(n, 4)
    g = random_hypergraph(n, channels, seed)
    for fset in subsets_by_cardinality(g.nodes, f):
        got = _scan_fault_set(g, fset, f, condition)
        assert got == scan_fault_set_ordered(g, fset, f, condition)


@st.composite
def check_graphs(draw, max_n: int):
    """Random hypergraphs of 2 to ``max_n`` nodes; half of them laid over the
    complete graph, whose checks hold or fail past the empty fault set."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    g = random_hypergraph(
        n, draw(st.integers(min_value=1, max_value=12)), draw(st.integers(min_value=0, max_value=2**31))
    )
    if draw(st.booleans()):
        edges = complete_p2p(n).edges + g.edges
        g = DirectedHypergraph.from_edge_tuples(n, [(e.head, tuple(e.tails)) for e in edges])
    return g


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((LCR, AB)), st.integers(min_value=0, max_value=2), st.data())
def test_check_matches_the_per_fault_set_oracle(condition, f, data) -> None:
    """A check's report is that of one ordered scan per fault set: verdict,
    witness and every counter.
    AB graphs keep to 5 nodes: the oracle runs the AB scan on every light
    split alone, which takes seconds on some 6-node graphs at f = 2."""
    g = data.draw(check_graphs(6 if condition == LCR else 5))
    assert _check(g, f, condition) == check_per_fault_set(g, f, condition)


def _rows_below(row, minimal) -> bool:
    return any(all(lo & ~hi == 0 for lo, hi in zip(low, row)) for low in minimal)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=15),
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=1, max_value=2),
)
def test_node_dp_rows_match_the_ordered_rows(n, channels, seed, k) -> None:
    """The product of every split node's distinct pairs is exactly the set
    of ordered-scan rows, each of those rows lies on or above a row that
    ``_light_splits`` yields, and those rows are pairwise incomparable."""
    g = random_hypergraph(n, channels, seed)
    x = sorted(g.nodes)[:k]
    layout = split_layout(g, x, x)
    groups = _slot_groups(layout)
    fixed = _pinned(groups)
    distinct = [list(layout.static)]
    for (b0, b1), slots in groups.items():
        grown = []
        for row in distinct:
            for a, b in _node_rows(slots, fixed):
                grown.append(list(row))
                grown[-1][b0], grown[-1][b1] = a, b
        distinct = grown
    ordered = {tuple(r) for _, rows in light_splits_ordered(layout, k) for r in rows.tolist()}
    assert {tuple(r) for r in distinct} == ordered
    minimal = [tuple(r) for rows in _light_splits(layout, groups, fixed, k) for r in rows]
    assert set(minimal) <= ordered
    assert all(_rows_below(row, minimal) for row in ordered)
    assert all(not _rows_below(row, [low for low in minimal if low != row]) for row in minimal)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=3, max_value=6),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=1, max_value=2),
    st.sampled_from((LCR, AB)),
)
def test_a_violated_split_set_implies_a_violated_whole_fault_set(
    n, channels, seed, f, condition
) -> None:
    """If some split graph of X, a proper subset of the fault set F,
    violates, then some split graph of F does.  The X-split graph is the
    F-split graph in which every node of F - X keeps all its channels on
    copy 0; each copy 1 this adds lies in F' with no out-arc, so no head
    count, closure or path uses it.  A check could skip every X but F."""
    if condition == AB:
        n = min(n, 4)
    g = random_hypergraph(n, channels, seed)
    detect, _, _ = _condition(condition)
    for fset in subsets_by_cardinality(g.nodes, f):
        violated = {}
        for x, layout in split_layouts(g, fset):
            groups = _slot_groups(layout)
            violated[tuple(x)] = any(
                detect(rows, layout.m, layout.fprime, f) >= 0
                for rows in _light_splits(layout, groups, _pinned(groups), f)
            )
        assert violated[tuple(sorted(fset))] or not any(violated.values())


@pytest.mark.parametrize("m, f", [(2, 1), (4, 2), (3, 2), (5, 1), (9, 2)])
def test_an_empty_batch_has_no_violating_row(m, f) -> None:
    """Both detectors take an empty batch and find no violating row in it:
    for m <= 2f the closed form would otherwise say row 0 violates, as two
    nodes lie outside F' = 0."""
    assert _lcr_split_violated([], m, 0, f) == -1
    assert _ab_batch_violated([], m, 0, f) == -1
    if m <= 2 * f:
        assert _lcr_split_violated([[0] * m], m, 0, f) == 0


def _drop_bit(mask: int, b: int) -> int:
    """``mask`` without bit b, the higher bits moved down by one."""
    return mask & ((1 << b) - 1) | mask >> (b + 1) << b


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=3, max_value=6),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=1, max_value=2),
    st.sampled_from((LCR, AB)),
)
def test_a_row_with_a_dead_copy_is_a_row_of_the_smaller_split_set(
    n, channels, seed, f, condition
) -> None:
    """Every Pareto-minimal row of a split set X in which the copy 1 of some
    node v of X has no out-arc, which the scan leaves unchecked, is a split
    graph of X - {v} once that copy is dropped and the bits above it are
    renumbered, with the same F' and the same verdict."""
    if condition == AB:
        n = min(n, 4)
    g = random_hypergraph(n, channels, seed)
    detect, _, _ = _condition(condition)
    for fset in subsets_by_cardinality(g.nodes, f):
        for x, layout in split_layouts(g, fset):
            groups = _slot_groups(layout)
            for rows in _light_splits(layout, groups, _pinned(groups), f):
                for row in rows:
                    for r, v in enumerate(x):
                        dead = n + r
                        if row[dead]:
                            continue
                        smaller = split_layout(g, fset, [u for u in x if u != v])
                        family = {
                            tuple(smaller.out_masks(c)) for c in range(1 << len(smaller.slots))
                        }
                        reduced = [_drop_bit(o, dead) for i, o in enumerate(row) if i != dead]
                        assert tuple(reduced) in family
                        assert _drop_bit(layout.fprime, dead) == smaller.fprime
                        assert (detect([row], layout.m, layout.fprime, f) >= 0) == (
                            detect([reduced], smaller.m, smaller.fprime, f) >= 0
                        )


@pytest.mark.parametrize("condition", [LCR, AB])
def test_local_broadcast_split_sets_hand_the_detector_no_rows(monkeypatch, condition) -> None:
    """On the 7-ring at f=1 every node heads one channel, which stays on
    copy 0, so each non-empty split set's one row is a row of the empty
    split set: the detector gets an empty batch for it, and still one call
    per batch ``_light_splits`` yields."""
    calls, batches = [], []
    name = "_lcr_split_violated" if condition == LCR else "_ab_batch_violated"
    real_detect, real_light = getattr(conditions, name), conditions._light_splits

    def detect(rows, m, fprime, f):
        calls.append((m, len(rows)))
        return real_detect(rows, m, fprime, f)

    def light(*args):
        for rows in real_light(*args):
            batches.append(len(rows))
            yield rows

    monkeypatch.setattr(conditions, name, detect)
    monkeypatch.setattr(conditions, "_light_splits", light)
    g = cycle_local_broadcast(7)
    assert _check(g, 1, condition).holds
    assert len(calls) == len(batches) == 1 + 7 * 2
    assert batches == [1] * len(batches)
    assert all((m == 7) == (rows == 1) for m, rows in calls)
    assert sum(m == 8 for m, _ in calls) == 7


class _Untouchable:
    """A stand-in graph that fails on any use, so an entry point that reads
    its graph before refusing f shows up."""

    def __getattr__(self, name):
        raise AssertionError(f"the graph's {name} was read before f was checked")

    def __eq__(self, other):
        raise AssertionError("the graph was compared before f was checked")

    __hash__ = None


@pytest.mark.parametrize(
    "entry",
    [
        lambda g: check_lcr_hyper(g, -1),
        lambda g: check_ab_hyper(g, -1),
        lambda g: check_with_fault_set(g, (), -1),
        lambda g: reductions.check_lcr_p2p(g, -1),
        lambda g: reductions.check_lcr_local(g, -1),
        lambda g: reductions.cross_validate_reduction(g, -1, "p2p"),
        lambda g: necessity.build_necessity_executions(g, -1),
        lambda g: protocol.Engine(g, -1),
    ],
    ids=[
        "check_lcr_hyper", "check_ab_hyper", "check_with_fault_set", "check_lcr_p2p",
        "check_lcr_local", "cross_validate_reduction", "build_necessity_executions", "Engine",
    ],
)
def test_negative_f_is_refused_before_any_work(entry) -> None:
    """Every entry point refuses a negative f with one message before it
    reads the graph; K3 at f = -1 used to hold after 0 fault sets."""
    with pytest.raises(ValueError, match="^f must be a non-negative integer, got -1$"):
        entry(_Untouchable())
    with pytest.raises(ValueError, match="^f must be a non-negative integer, got -1$"):
        entry(complete_p2p(3))
