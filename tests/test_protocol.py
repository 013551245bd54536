from __future__ import annotations

import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperbft import protocol
from hyperbft.formats import canonical_json
from hyperbft.generators import (
    complete_p2p,
    cycle_local_broadcast,
    random_hypergraph,
    sample_condition_passing,
)
from hyperbft.hypergraph import DirectedHypergraph
from hyperbft.protocol import (
    ABSENT,
    ADVERSARY_NAMES,
    Adversary,
    Engine,
    SplitPersonaAdversary,
    TrailUniverse,
    flood_records,
    get_engine,
    make_adversary,
    run_scenario,
    sweep_scenarios,
)

from oracles import flood_records_layered


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
