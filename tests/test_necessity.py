from __future__ import annotations

import dataclasses
import re

import pytest

from hyperbft.conditions import check_lcr_hyper
from hyperbft.generators import complete_p2p, sample_condition_violating
from hyperbft.necessity import _run_carrier, build_carrier, build_necessity_executions
from hyperbft import necessity
from hyperbft.protocol import get_engine

from oracles import carrier_logs, carrier_trails


def test_triangle_produces_split_outputs() -> None:
    g = complete_p2p(3)
    rep = build_necessity_executions(g, 1)
    assert rep.ok
    assert rep.views_match_left and rep.views_match_right
    assert rep.left_outputs_zero and rep.right_outputs_one
    assert rep.split_outputs
    assert len(rep.executions) == 3


def test_triangle_execution_anatomy() -> None:
    g = complete_p2p(3)
    rep = build_necessity_executions(g, 1)
    e1, e2, e3 = rep.executions
    # the first two executions are honest worlds with unanimous inputs
    assert {b for _, b in e1.inputs} == {0}
    assert {b for _, b in e2.inputs} == {1}
    assert {b for _, b in e1.outputs} == {0}
    assert {b for _, b in e2.outputs} == {1}
    # the third runs the actual suspect fault set
    assert e3.faulty == rep.fault_set
    out3 = dict(e3.outputs)
    assert {out3[v] for v in rep.left_nodes} == {0}
    assert {out3[v] for v in rep.right_nodes} == {1}


def test_views_are_byte_identical_on_the_honest_sides() -> None:
    g = complete_p2p(3)
    rep = build_necessity_executions(g, 1)
    e1, e2, e3 = rep.executions
    for v in rep.left_nodes:
        assert e1.logs[v] == e3.logs[v]
    for v in rep.right_nodes:
        assert e2.logs[v] == e3.logs[v]


def test_construction_is_deterministic() -> None:
    g = complete_p2p(3)
    a = build_necessity_executions(g, 1)
    b = build_necessity_executions(g, 1)
    assert a.fault_set == b.fault_set
    assert a.left_nodes == b.left_nodes and a.right_nodes == b.right_nodes
    for ea, eb in zip(a.executions, b.executions):
        assert ea.logs == eb.logs and ea.outputs == eb.outputs


def test_feasible_graph_is_rejected() -> None:
    with pytest.raises(ValueError):
        build_necessity_executions(complete_p2p(4), 1)


def test_carrier_reuses_the_reported_witness() -> None:
    g = complete_p2p(3)
    violation = check_lcr_hyper(g, 1).violation
    assert violation is not None
    carrier = build_carrier(g, 1, violation)
    assert carrier.base == g
    assert carrier.f == 1
    # three executions, each with a fault set within budget
    assert set(carrier.faulty) == {1, 2, 3}
    assert all(len(fs) <= 1 for fs in carrier.faulty.values())


def test_random_violating_instances_all_split() -> None:
    for g, rep0 in sample_condition_violating(4, 4, 1, seed=17):
        rep = build_necessity_executions(g, 1, rep0.violation)
        assert rep.ok, (g.n, len(g.edges))


@pytest.mark.parametrize("f", [1, 2])
def test_reception_logs_match_the_canonical_json_oracle(f: int) -> None:
    checked = 0
    for g, rep0 in sample_condition_violating(8, 6, f, seed=3):
        if get_engine(g, f).tu.size > 400:
            continue    # the oracle renders logs of tens of MB there
        carrier = build_carrier(g, f, rep0.violation)
        gamma, logs = _run_carrier(carrier)
        want_gamma, want_logs = carrier_logs(carrier)
        assert gamma == want_gamma
        serving = [c.id for c in carrier.copies if c.serves]
        assert sorted(logs) == serving
        for cid in serving:
            assert logs[cid] == want_logs[cid], (g.n, len(g.edges), cid)
        checked += 1
    assert checked >= 6


def test_carrier_trail_count_matches_the_search_oracle(monkeypatch) -> None:
    """The size guard counts, off the base graph's trails, as many carrier
    trails as a depth-first search over the carrier graph finds."""
    monkeypatch.setattr(necessity, "MAX_CARRIER_RECORDS", 0)
    checked = 0
    for f in (1, 2):
        for g, rep0 in sample_condition_violating(8, 6, f, seed=3):
            if get_engine(g, f).tu.size > 400:
                continue
            carrier = build_carrier(g, f, rep0.violation)
            with pytest.raises(ValueError, match="the carrier has") as refused:
                _run_carrier(carrier)
            counted = int(re.search(r"has (\d+) trails", str(refused.value)).group(1))
            assert counted == len(carrier_trails(carrier)), (f, g.n, len(g.edges))
            checked += 1
    assert checked >= 12


def test_carrier_size_guard_refuses_before_any_log(monkeypatch) -> None:
    g = complete_p2p(3)   # 30 carrier trails over 4 phases with a source
    monkeypatch.setattr(necessity, "MAX_CARRIER_RECORDS", 30 * 4 - 1)
    monkeypatch.setattr(necessity, "_int_list", lambda *args: pytest.fail("log rendered"))
    with pytest.raises(ValueError, match="30 trails over 4 phases"):
        build_necessity_executions(g, 1)
    # the guard reads no carrier channel: the feed and origin tables, which
    # are read off them, come after it
    carrier = build_carrier(g, 1, check_lcr_hyper(g, 1).violation)
    with pytest.raises(ValueError, match="30 trails over 4 phases"):
        _run_carrier(dataclasses.replace(carrier, graph=None))
    monkeypatch.undo()
    monkeypatch.setattr(necessity, "MAX_CARRIER_RECORDS", 30 * 4)
    assert build_necessity_executions(g, 1).ok
