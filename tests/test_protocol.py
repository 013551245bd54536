from __future__ import annotations

import gc
import itertools
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperbft import protocol
from hyperbft.formats import canonical_json, parse_topology
from hyperbft.generators import (
    complete_p2p,
    cycle_local_broadcast,
    random_hypergraph,
    sample_condition_passing,
)
from hyperbft.hypergraph import DirectedHypergraph
from hyperbft.paths import canonical_path, exists_disjoint_packing
from hyperbft.protocol import (
    ABSENT,
    ADVERSARY_NAMES,
    Adversary,
    Candidates,
    Engine,
    SplitPersonaAdversary,
    TrailUniverse,
    flood_records,
    get_engine,
    make_adversary,
    run_scenario,
    sweep_scenarios,
)

from oracles import (
    edge_used_reference,
    flood_records_layered,
    induced_with_edges,
    node_steps_reference,
    phase_candidates_reference,
    receives_reference,
    run_reference,
)


class SwapSilencer(Adversary):
    """A custom strategy: silent on even channels, the inverted state on the
    rest; forwards a 0 as 1 and swallows a 1."""

    name = "swap_silencer"
    forward = (1, None)

    def emit(self, node, gamma, ranks, edge_ids):
        return np.where(edge_ids % 2 == 0, ABSENT, 1 - gamma).astype(np.int16)


def all_inputs(n: int):
    import itertools

    return [dict(enumerate(bits)) for bits in itertools.product((0, 1), repeat=n)]


def test_unanimous_honest_run_keeps_the_common_value() -> None:
    g = complete_p2p(4)
    for bit in (0, 1):
        res = run_scenario(g, 1, [], {v: bit for v in range(4)}, "honest")
        assert res.terminated and res.agreement and res.validity
        assert dict(res.outputs) == {v: bit for v in range(4)}


def test_mixed_inputs_settle_on_an_input_value() -> None:
    g = complete_p2p(4)
    res = run_scenario(g, 1, [], {0: 0, 1: 1, 2: 1, 3: 0}, "honest")
    assert res.agreement and res.validity
    decided = {b for _, b in res.outputs}
    assert len(decided) == 1 and decided <= {0, 1}


def test_faulty_node_is_excluded_from_verdicts() -> None:
    g = complete_p2p(4)
    res = run_scenario(g, 1, [2], {0: 1, 1: 1, 2: 0, 3: 1}, "constant-0")
    assert res.faulty == (2,)
    assert 2 not in dict(res.outputs)
    assert res.agreement and res.validity
    # honest nodes were unanimous on 1, so the adversary cannot force 0
    assert {b for _, b in res.outputs} == {1}


def test_every_library_adversary_fails_on_complete_four() -> None:
    g = complete_p2p(4)
    for name in ADVERSARY_NAMES:
        res = run_scenario(g, 1, [3], {0: 1, 1: 0, 2: 1, 3: 0}, name)
        assert res.terminated and res.agreement and res.validity, name
        assert res.phase_validity_ok and res.exact_phase_agreement_ok, name


def test_split_persona_breaks_agreement_on_triangle() -> None:
    # the triangle fails the feasibility condition; the two-faced adversary
    # realizes exactly the violating node split
    g = complete_p2p(3)
    broke = False
    for inputs in all_inputs(3):
        res = run_scenario(g, 1, [0], inputs, "split_persona")
        if not res.agreement:
            broke = True
    assert broke


def test_honest_adversary_follows_protocol_exactly() -> None:
    g = complete_p2p(4)
    base = run_scenario(g, 1, [], {0: 1, 1: 0, 2: 0, 3: 1}, "honest")
    marked = run_scenario(g, 1, [1], {0: 1, 1: 0, 2: 0, 3: 1}, "honest")
    # a protocol-following "faulty" node changes nothing for the others
    assert dict(base.outputs)[0] == dict(marked.outputs)[0]
    assert marked.agreement and marked.validity


def test_phase_outcomes_expose_state_snapshots() -> None:
    g = complete_p2p(4)
    res = run_scenario(g, 1, [3], {0: 1, 1: 0, 2: 1, 3: 0}, "silent")
    assert len(res.phases) == 5  # empty fault set plus one per node
    for ph in res.phases:
        assert len(ph.state) == 4
        assert set(ph.state) <= {0, 1}
    assert res.phases[0].fault_set == ()
    assert res.phases[1].fault_set == (0,)


def test_split_persona_accepts_explicit_channel_map() -> None:
    g = complete_p2p(3)
    eids = sorted(e.id for e in g.head_edges(0))
    adv = SplitPersonaAdversary(assignment={eids[0]: 1, eids[1]: 0})
    res = run_scenario(g, 1, [0], {0: 0, 1: 0, 2: 1}, adv)
    assert res.terminated


def _flood_adversaries(g, faulty):
    names = [make_adversary(name) for name in ADVERSARY_NAMES]
    pinned = {e.id: e.id % 2 for w in faulty for e in g.head_edges(w)}
    return names + [SplitPersonaAdversary(assignment=pinned), SwapSilencer()]


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=7),
    st.integers(min_value=0, max_value=2**31),
    st.data(),
)
def test_closed_form_flood_matches_the_layered_oracle(n, m, seed, data) -> None:
    g = random_hypergraph(n, m, seed)
    tu = TrailUniverse(g)
    nodes = st.sets(st.integers(min_value=0, max_value=n - 1), max_size=n)
    seeds = data.draw(nodes, label="seeds")
    faulty = frozenset(data.draw(st.sets(st.integers(0, n - 1), max_size=2), label="faulty"))
    gamma = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n), label="gamma")
    for adv in [None] + _flood_adversaries(g, faulty):
        got = flood_records(tu, seeds, gamma, faulty, adv)
        want = flood_records_layered(tu, seeds, gamma, faulty, adv)
        assert got.dtype == np.int16
        assert np.array_equal(got, want), getattr(adv, "name", None)
    # an honest flood carries any state, bit or not
    states = data.draw(st.lists(st.integers(-1, 9), min_size=n, max_size=n), label="states")
    honest = flood_records(tu, seeds, states)
    assert np.array_equal(honest, flood_records_layered(tu, seeds, states))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=2),
    st.integers(min_value=0, max_value=2**31),
    st.data(),
)
def test_tabulated_floods_match_flood_records(n, m, f, seed, data) -> None:
    """Both floods of every phase, read off the engine's one table per
    (fault set, adversary), equal the closed form, for every library
    adversary, a pinned split persona and a custom rule.  Each seed set is
    flooded three times; the first flood under an adversary builds the
    table from the closed form on all-0 and all-1 states with every node
    seeded, and every flood reads it.  Honest floods also carry states that
    are not bits."""
    g = random_hypergraph(n, m, seed)
    engine = Engine(g, f)
    faulty = frozenset(data.draw(st.sets(st.integers(0, n - 1), max_size=f), label="faulty"))
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n).map(tuple)
    states = st.lists(st.integers(-1, 9), min_size=n, max_size=n).map(tuple)
    for adv in _flood_adversaries(g, faulty):
        deviates = bool(faulty) and not adv.follows_protocol
        for ph in engine.phases:
            if ph.source is None:
                continue
            for seeds in (ph.seeds_b, ph.source):
                for _ in range(3):
                    gamma = data.draw(bits if deviates else states, label="gamma")
                    got = engine._flood(seeds, gamma, faulty, adv)
                    want = flood_records(engine.tu, seeds, gamma, faulty, adv)
                    assert np.array_equal(got, want), (adv.name, sorted(seeds), gamma)
        if deviates and any(ph.source is not None for ph in engine.phases):
            assert engine._cache["floods"][0] == (faulty, adv.key)
            assert engine._cache["floods"][1].nbytes == engine.tu.size


def test_one_flood_table_serves_every_seed_set() -> None:
    """Under one (fault set, adversary) the engine keeps a single flood
    table of one byte per trail, however many seed sets it floods; a pair
    with another fault set or adversary, by a flood or by a run, replaces
    it, and every flood equals the closed form."""
    g = complete_p2p(5)
    engine = Engine(g, 2)
    seed_sets = [frozenset(s) for k in range(6) for s in itertools.combinations(range(5), k)]
    rng = np.random.default_rng(7)
    for fset, name in [({4}, "flip_forwarding"), ({4}, "split_persona"), ({1, 3}, "split_persona")]:
        faulty, adv = frozenset(fset), make_adversary(name)
        table = None
        for seeds in seed_sets:
            gamma = tuple(rng.integers(0, 2, 5).tolist())
            got = engine._flood(seeds, gamma, faulty, adv)
            assert np.array_equal(got, flood_records(engine.tu, seeds, gamma, faulty, adv))
            assert list(engine._cache) == ["floods"]
            key, current = engine._cache["floods"]
            assert key == (faulty, adv.key)
            assert current.nbytes == engine.tu.size
            assert table is None or current is table
            table = current
    engine.run([0, 2], {v: v % 2 for v in range(5)}, "constant-0")
    key, current = engine._cache["floods"]
    assert key == (frozenset({0, 2}), ("constant-0",))
    assert current.nbytes == engine.tu.size


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2**31),
)
def test_phase_trails_are_the_canonical_paths(n, m, f, seed) -> None:
    """Each phase's traced trails are the canonical paths: from every other
    node of S in G - F, and through each fault channel in S plus that
    channel."""
    g = random_hypergraph(n, m, seed, max_tail_size=3)
    engine = Engine(g, f)
    tu = engine.tu

    tid_of = {(int(o), trail): t for t, (o, trail) in enumerate(zip(tu.origin, tu.trail_of))}

    def tid(sub, u, v):
        path = canonical_path(sub, u, v)
        return None if path is None else tid_of.get((u, path))

    for ph in engine.phases:
        if ph.source is None:
            continue
        reduced = g.remove_nodes(ph.fault_set)
        for v in sorted(ph.source):
            others = [u for u in sorted(ph.source) if u != v]
            assert ph.cpath_s[v] == tuple((1 << g.bit_of[u], tid(reduced, u, v)) for u in others)
            assert ph.cpath_f[v] == tuple(
                tid(induced_with_edges(g, ph.source, (eid,)), g.edge_by_id[eid].head, v)
                for eid, _, _, _ in ph.layout.slots
            )


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2**31),
)
def test_adopt_on_sorted_distinct_masks_matches_the_raw_packing(n, m, f, seed) -> None:
    """Every candidate table is ordered by (popcount, mask) with its
    distinct masks recorded, and ``_adopt`` on it agrees with
    ``exists_disjoint_packing`` on the selected masks, shuffled and with
    repeats, for k = f + 1 = 1-3."""
    g = random_hypergraph(n, m, seed, max_tail_size=3)
    engine = Engine(g, f)
    rng = np.random.default_rng(seed)
    for ph in engine.phases:
        for cand in [*ph.cand_d.values(), *ph.cand_f.values()]:
            cand_masks = engine.tu.tmask[cand.tids]
            masks = cand_masks.tolist()
            assert masks == sorted(masks, key=lambda x: (x.bit_count(), x))
            assert cand.distinct.tolist() == list(dict.fromkeys(masks))
            assert cand_masks[cand.starts].tolist() == cand.distinct.tolist()
            vals = rng.choice(np.array([ABSENT, 0, 1], dtype=np.int8), engine.tu.size)
            read = np.where(vals[cand.tids] == ABSENT, 1, vals[cand.tids])
            for ok in (None, rng.random(len(cand.tids)) < 0.7):
                want = 7
                for b in (0, 1):
                    raw = cand_masks[(read == b) & (True if ok is None else ok)].tolist()
                    rng.shuffle(raw)
                    if exists_disjoint_packing(raw, f + 1):
                        want = b
                        break
                assert engine._adopt(7, cand, vals, ok) == want


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2**31),
)
def test_one_pass_candidates_match_the_per_node_filter(n, m, f, seed) -> None:
    """Every receive list, and every field of every phase's candidate
    tables, equals the node-by-node build of ``receives_reference`` and
    ``phase_candidates_reference``, values and dtypes, on graphs with up to
    three tails per channel."""
    g = random_hypergraph(n, m, seed, max_tail_size=3)
    engine = Engine(g, f)
    rt = protocol._receive_table(engine.tu)
    at = rt.received_at
    for v, want in receives_reference(engine.tu).items():
        got = rt.received[at[g.bit_of[v]]:at[g.bit_of[v] + 1]]
        assert got.dtype == want.dtype and np.array_equal(got, want), v
        assert got.base is rt.received, v
    for ph in engine.phases:
        if ph.source is None:
            continue
        want_d, want_f = phase_candidates_reference(engine, ph)
        for got, want in ((ph.cand_d, want_d), (ph.cand_f, want_f)):
            assert got.keys() == want.keys()
            for v in want:
                for field in Candidates._fields:
                    a, b = getattr(got[v], field), getattr(want[v], field)
                    assert a.dtype == b.dtype and a.shape == b.shape, (ph.fault_set, v, field)
                    assert np.array_equal(a, b), (ph.fault_set, v, field)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2**31),
)
def test_node_steps_match_the_reference(n, m, f, seed) -> None:
    g = random_hypergraph(n, m, seed, max_tail_size=3)
    engine = Engine(g, f)
    rng = np.random.default_rng(seed)
    for ph in engine.phases:
        if ph.source is None:
            continue
        for _ in range(3):
            p_zero = rng.uniform(0.2, 0.8)
            probs = [(1 - p_zero) / 3, p_zero, 2 * (1 - p_zero) / 3]
            vals = rng.choice(np.array([ABSENT, 0, 1], dtype=np.int16), engine.tu.size, p=probs)
            for v in sorted(g.nodes - ph.fault_set):
                own_gamma = int(rng.integers(2))
                step = engine.node_step_cd if v in ph.source else engine.node_step_f
                want = node_steps_reference(engine, ph, v, own_gamma, vals)
                assert step(ph, v, own_gamma, vals) == want, (ph.fault_set, v)


@pytest.mark.parametrize(
    "n, m, seed, obits", [(8, 12, 3, np.uint8), (10, 16, 0, np.uint16), (16, 26, 1, np.uint16)]
)
def test_origin_bits_take_the_narrowest_type(n, m, seed, obits) -> None:
    """Origin bits take the smallest unsigned type that holds bit n - 1,
    and node steps still match the reference, also where step (d)'s side
    masks carry fault-copy bits past that type (n = 8 and n = 16 at f=1)."""
    g = random_hypergraph(n, m, seed, max_tail_size=2)
    engine = Engine(g, 1)
    rng = np.random.default_rng(seed)
    phases = [ph for ph in engine.phases if ph.source is not None]
    assert phases
    for ph in phases:
        for cand in [*ph.cand_d.values(), *ph.cand_f.values()]:
            assert (cand.origin_bits.dtype, cand.sent.dtype) == (obits, np.int8)
        vals = rng.choice(np.array([ABSENT, 0, 1], dtype=np.int16), engine.tu.size)
        for v in sorted(g.nodes - ph.fault_set):
            own_gamma = int(rng.integers(2))
            step = engine.node_step_cd if v in ph.source else engine.node_step_f
            want = node_steps_reference(engine, ph, v, own_gamma, vals)
            assert step(ph, v, own_gamma, vals) == want, (ph.fault_set, v)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2**31),
    st.data(),
)
def test_runs_match_the_whole_run_reference(n, m, f, seed, data) -> None:
    """Whole runs equal ``run_reference``, which floods both seed sets of
    every phase and steps each node from first principles, for every
    library adversary, a pinned split persona and a custom rule.  Three
    inputs per adversary on one engine take the phase memo and the flood
    tables through their first, second and later floods."""
    g = random_hypergraph(n, m, seed, max_tail_size=3)
    engine = Engine(g, f)
    faulty = data.draw(st.sets(st.integers(0, n - 1), max_size=f), label="faulty")
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n).map(lambda b: dict(enumerate(b)))
    pinned = {e.id: e.id % 2 for w in faulty for e in g.head_edges(w)}
    for adv in [*ADVERSARY_NAMES, SplitPersonaAdversary(assignment=pinned), SwapSilencer()]:
        for _ in range(3):
            inputs = data.draw(bits, label="inputs")
            want = run_reference(engine, faulty, inputs, adv)
            assert engine.run(faulty, inputs, adv) == want, (adv, sorted(faulty), inputs)


def test_relay_flood_runs_only_for_step_f_readers() -> None:
    """Step (e)'s flood is read by step (f) alone: a phase with no node
    outside S and F floods once, any other phase twice.  Node 3 hears
    everyone and sends to node 0 alone, so with F = {0} it is outside S."""
    g = parse_topology(
        "hypergraph n=4\nedge 0 0 -> 1 2 3\nedge 1 1 -> 0 2 3\nedge 2 2 -> 0 1 3\nedge 3 3 -> 0"
    )
    engine = Engine(g, 1)
    flooded = []
    real_flood = engine._flood

    def recording(seeds, gamma, faulty, adversary):
        flooded.append(seeds)
        return real_flood(seeds, gamma, faulty, adversary)

    engine._flood = recording
    engine.run([2], {0: 0, 1: 1, 2: 0, 3: 1}, "flip_forwarding")
    want = []
    for ph in engine.phases:
        if ph.source is not None:
            want += [ph.seeds_b] + ([ph.source] if ph.updaters_f else [])
    assert flooded == want
    assert [ph.updaters_f for ph in engine.phases] == [(), (3,), (), (), ()]


def test_faulty_ids_outside_the_graph_are_refused() -> None:
    g = complete_p2p(4)
    inputs = {v: 0 for v in range(4)}
    for adv in ("honest", "flip_forwarding"):
        with pytest.raises(ValueError, match=r"faulty ids \[7\] are not nodes"):
            run_scenario(g, 1, [7], inputs, adv)
    with pytest.raises(ValueError, match=r"faulty ids \[-1, 4\] are not nodes"):
        Engine(g, 2).run([4, -1], inputs, "silent")


def test_missing_inputs_are_named() -> None:
    engine = Engine(complete_p2p(4), 1)
    with pytest.raises(ValueError, match=r"^missing inputs for nodes \[3\]$"):
        engine.run([], {0: 1, 1: 0, 2: 1})
    with pytest.raises(ValueError, match=r"^missing inputs for nodes \[0, 2\]$"):
        engine.run([1], {1: 0, 3: 1}, "silent")


def test_inputs_for_unknown_nodes_are_refused() -> None:
    engine = Engine(complete_p2p(4), 1)
    engine.run([], {v: 0 for v in range(4)})
    with pytest.raises(ValueError, match=r"^input for unknown node 9$"):
        engine.run([], {0: 0, 1: 0, 2: 0, 3: 0, 9: 1})
    with pytest.raises(ValueError, match=r"^input for unknown node -1$"):
        engine.run([2], {-1: 0, 0: 1, 1: 0, 2: 1, 3: 0}, "silent")
    # refused before the adversary is resolved, so before any phase runs
    assert ("adversary", "silent") not in engine._cache


def test_negative_f_is_refused_before_the_trail_universe(monkeypatch) -> None:
    def no_universe(*args, **kwargs):
        raise AssertionError("the trail universe was built")

    monkeypatch.setattr(protocol, "TrailUniverse", no_universe)
    with pytest.raises(ValueError, match="f must be a non-negative integer, got -1"):
        Engine(complete_p2p(4), -1)
    with pytest.raises(ValueError, match="got -2"):
        run_scenario(complete_p2p(3), -2, [], {v: 0 for v in range(3)})


def test_custom_adversary_runs_through_the_engine() -> None:
    g = complete_p2p(4)
    res = run_scenario(g, 1, [3], {0: 1, 1: 0, 2: 1, 3: 0}, SwapSilencer())
    assert res.adversary == "swap_silencer"
    assert res.terminated and res.agreement and res.validity


def test_mask_bit_budget_is_enforced_before_building() -> None:
    with pytest.raises(ValueError, match="n \\+ 2f = 65"):
        Engine(cycle_local_broadcast(63), 1)
    with pytest.raises(ValueError, match="n \\+ 2f = 63"):
        Engine(cycle_local_broadcast(61), 1)
    with pytest.raises(ValueError, match="n \\+ 2f = 64"):
        Engine(cycle_local_broadcast(64), 0)
    assert len(Engine(DirectedHypergraph(60, []), 1).phases) == 61  # n + 2f = 62 fits


def test_channel_less_graphs_trace_nothing() -> None:
    """A graph with no channel has an empty trail universe.  One node
    decides alone, and two nodes at f = 1 run a phase for each one-node
    source component, where that node traces no trail."""
    assert run_scenario(DirectedHypergraph(1, ()), 0, [], {0: 0}).ok
    assert [ph.cpath_s for ph in get_engine(DirectedHypergraph(1, ()), 0).phases] == [{0: ()}]
    engine = Engine(DirectedHypergraph(2, ()), 1)
    assert engine.tu.size == 0
    assert [ph.cpath_s for ph in engine.phases] == [{}, {1: ()}, {0: ()}]
    assert [ph.cpath_f for ph in engine.phases] == [{}, {1: ()}, {0: ()}]
    for faulty, adversary in itertools.product(([0], [1]), ADVERSARY_NAMES):
        for inputs in all_inputs(2):
            assert engine.run(faulty, inputs, adversary).ok, (faulty, adversary, inputs)
    # with nobody faulty there is no channel to agree over
    assert not engine.run([], {0: 0, 1: 1}).agreement


def test_trail_universe_holds_no_per_trail_objects() -> None:
    """A trail universe keeps arrays, not a Python object per trail: what
    building complete_p2p(7)'s 82,194 trails leaves allocated stays under
    8 MiB, where a tuple and a dict entry per trail held about 19 MiB."""
    g = complete_p2p(7)
    g.bit_of, g.head_edges(0)   # warm the graph's lazy tables, which outlive the build
    tracemalloc.start()
    try:
        tu = TrailUniverse(g)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tu.size == 82_194
    assert held < 8 << 20


def test_engine_keeps_only_what_runs_read() -> None:
    """The receive table is a value of the engine build: what building
    complete_p2p(7)'s engine at f=2 leaves allocated stays under 6 MiB,
    where keeping the table, the ``edge_used`` columns and int64 origin bits
    held about 12.4 MiB, and the universe holds none of the table's
    fields."""
    g = complete_p2p(7)
    g.bit_of, g.head_edges(0)   # warm the graph's lazy tables, which outlive the build
    tracemalloc.start()
    try:
        engine = Engine(g, 2)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not [name for name in protocol.ReceiveTable._fields if hasattr(engine.tu, name)]
    assert held < 6 << 20


def test_trail_universe_stops_past_the_trail_limit(monkeypatch) -> None:
    monkeypatch.setattr(protocol, "MAX_TRAILS", 2000)
    assert TrailUniverse(complete_p2p(5)).size == 1300
    with pytest.raises(ValueError, match="more than 2000 simple trails"):
        TrailUniverse(complete_p2p(6))  # 9,780 trails
    with pytest.raises(ValueError, match="more than 2000 simple trails"):
        Engine(complete_p2p(6), 1)


def test_trail_limit_refuses_before_building_any_trail() -> None:
    """complete_p2p(9) has 7,891,272 simple trails: counting them by
    (transmitters, last channel) states refuses the graph within a small
    traced peak, where building the first million trails took hundreds of
    MB."""
    g = complete_p2p(9)
    g.bit_of, g.head_edges(0)   # warm the graph's lazy tables, which outlive the count
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"more than {protocol.MAX_TRAILS} simple trails"):
            TrailUniverse(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=2**31),
)
def test_trail_count_is_the_universe_size(n, channels, seed) -> None:
    """The state count equals the number of trails built."""
    g = random_hypergraph(n, channels, seed)
    tu = TrailUniverse(g)
    tails = [g.edge_by_id[eid].sorted_tails() for eid in tu.channel_ids]
    assert protocol._count_trails(tu.head_channels, tails) == tu.size


def test_edge_used_names_each_trails_channel_of_a_node() -> None:
    g = random_hypergraph(5, 8, 3)
    tu = TrailUniverse(g)
    edge_used = protocol._receive_table(tu).edge_used
    for u in range(g.n):
        assert np.array_equal(edge_used[u], edge_used_reference(tu, u))


def test_unknown_adversary_name_rejected() -> None:
    with pytest.raises(ValueError):
        make_adversary("gremlin")


def test_engine_requires_dense_node_ids() -> None:
    g = DirectedHypergraph(3, [], nodes={0, 2}).remove_nodes({1})
    with pytest.raises(ValueError):
        Engine(g, 1)


def test_fault_budget_enforced() -> None:
    g = complete_p2p(4)
    with pytest.raises(ValueError):
        run_scenario(g, 1, [0, 1], {v: 0 for v in range(4)}, "honest")


def test_runs_are_deterministic() -> None:
    g = cycle_local_broadcast(4)
    a = run_scenario(g, 1, [2], {0: 0, 1: 1, 2: 0, 3: 1}, "flip_forwarding")
    b = run_scenario(g, 1, [2], {0: 0, 1: 1, 2: 0, 3: 1}, "flip_forwarding")
    assert canonical_json(a) == canonical_json(b)


def test_sweep_aggregates_and_is_worker_independent() -> None:
    g = complete_p2p(4)
    seq = sweep_scenarios(g, 1, workers=1)
    par = sweep_scenarios(g, 1, workers=2)
    assert canonical_json(seq) == canonical_json(par)
    assert seq.runs == (1 + 4 * len(ADVERSARY_NAMES)) * 16
    assert seq.all_terminated and seq.all_agreement and seq.all_validity
    assert seq.all_phase_validity and seq.all_exact_phase_agreement
    assert not seq.failures


def test_sweep_flags_failures_on_infeasible_graph() -> None:
    g = complete_p2p(3)
    rep = sweep_scenarios(g, 1)
    assert not rep.all_agreement
    assert rep.failures
    assert all(not r.agreement for r in rep.failures)
    assert {r.adversary for r in rep.failures} == {"split_persona"}


def test_worker_env_variable_controls_pool(monkeypatch) -> None:
    g = complete_p2p(4)
    monkeypatch.setenv("HYPERBFT_WORKERS", "2")
    env_rep = sweep_scenarios(g, 1)
    monkeypatch.delenv("HYPERBFT_WORKERS")
    assert canonical_json(env_rep) == canonical_json(sweep_scenarios(g, 1, workers=1))


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records the requested pool size and
    maps in this process, so no worker is ever started."""

    def __init__(self, sizes: list[int], max_workers: int):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


def test_worker_count_is_clamped_to_cpus_and_runs(monkeypatch) -> None:
    sizes: list[int] = []

    def pool(max_workers: int) -> RecordingPool:
        return RecordingPool(sizes, max_workers)

    monkeypatch.setattr(protocol, "ProcessPoolExecutor", pool)
    monkeypatch.setattr(protocol.os, "cpu_count", lambda: 4)
    g = complete_p2p(3)
    two_runs = {"faulty_sets": [()], "input_choices": [{0: 0, 1: 0, 2: 0}, {0: 1, 1: 1, 2: 1}]}
    monkeypatch.setenv("HYPERBFT_WORKERS", "1000000")
    full = sweep_scenarios(g, 1)
    sweep_scenarios(g, 1, **two_runs)
    monkeypatch.setenv("HYPERBFT_WORKERS", "3")
    sweep_scenarios(g, 1)
    monkeypatch.delenv("HYPERBFT_WORKERS")
    sweep_scenarios(g, 1, workers=1000000)
    sweep_scenarios(g, 1)                   # default: sequential, no pool
    assert sizes == [4, 2, 3, 4]
    assert canonical_json(full) == canonical_json(sweep_scenarios(g, 1, workers=1))


@pytest.mark.parametrize("value", ["four", "2.5", "0", "-3"])
def test_bad_worker_counts_are_refused(monkeypatch, value: str) -> None:
    monkeypatch.setenv("HYPERBFT_WORKERS", value)
    with pytest.raises(ValueError, match="HYPERBFT_WORKERS must be a positive integer"):
        sweep_scenarios(complete_p2p(3), 1)


def test_run_ok_is_the_conjunction_of_its_verdicts() -> None:
    g = complete_p2p(3)
    rep = sweep_scenarios(g, 1)
    assert rep.failures
    for inputs in itertools.product((0, 1), repeat=3):
        for adv in ADVERSARY_NAMES:
            r = run_scenario(g, 1, [0], dict(enumerate(inputs)), adv)
            assert r.ok == (
                r.terminated and r.agreement and r.validity
                and r.phase_validity_ok and r.exact_phase_agreement_ok
            )
            assert r.ok == (r not in rep.failures)
    assert "ok" not in json.loads(canonical_json(rep.failures[0]))


@settings(max_examples=6, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.data())
def test_validity_outputs_come_from_honest_inputs(seed: int, data) -> None:
    sampled = sample_condition_passing(1, 5, 1, seed=seed)
    if not sampled:
        return
    g, _ = sampled[0]
    inputs = {v: data.draw(st.integers(0, 1), label=f"input{v}") for v in range(g.n)}
    faulty = data.draw(st.sampled_from([frozenset(), *({v} for v in range(g.n))]))
    adversary = data.draw(st.sampled_from(ADVERSARY_NAMES))
    res = run_scenario(g, 1, faulty, inputs, adversary)
    honest_inputs = {inputs[v] for v in range(g.n) if v not in set(faulty)}
    assert res.terminated
    assert {b for _, b in res.outputs} <= honest_inputs
    assert res.agreement


def test_terminated_is_derived_from_the_run() -> None:
    g = complete_p2p(4)
    inputs = {0: 0, 1: 1, 2: 1, 3: 0}
    engine = Engine(g, 1)
    assert engine.run([], inputs).terminated
    assert not engine.run([], {v: 2 for v in range(4)}).terminated  # no 0/1 output
    engine.phases = engine.phases[:-1]  # the last fault set's phase never runs
    assert not engine.run([], inputs).terminated


def test_deviating_faulty_nodes_need_bit_inputs() -> None:
    engine = Engine(complete_p2p(4), 1)
    with pytest.raises(ValueError, match="inputs must be bits"):
        engine.run([3], {v: 2 for v in range(4)}, "flip_forwarding")
    assert not engine.run([3], {v: 2 for v in range(4)}, "honest").terminated


def test_readme_adversary_names_are_accepted() -> None:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = readme[readme.index("Adversary library:"):].split("\n\n")[0]
    listed = re.findall(r"`([a-z_0-9-]+)`", paragraph)
    assert listed == list(ADVERSARY_NAMES)
    for name in listed:
        assert make_adversary(name).name == name
