"""Tests of the benchmark itself: the reference verdicts on graphs whose
answer is known by hand, failure counting, and the tracer.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from hyperbft import generators, protocol
from hyperbft.hypergraph import DirectedHypergraph

import hostspeed
import reference
import workloads
from run import run_rounds

BENCH = Path(__file__).resolve().parents[1]


def undirected(n: int, pairs) -> DirectedHypergraph:
    """A simple undirected graph as a hypergraph: one channel per direction."""
    return DirectedHypergraph.from_edge_tuples(
        n, [(u, (v,)) for u, v in pairs] + [(v, (u,)) for u, v in pairs]
    )


K5 = undirected(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
WHEEL5 = undirected(5, [(0, 1), (1, 2), (2, 3), (3, 0)] + [(4, v) for v in range(4)])
CYCLE5 = undirected(5, [(v, (v + 1) % 5) for v in range(5)])


def test_undirected_closed_form_on_hand_verdicts():
    assert reference.undirected_f1_holds(K5)
    assert reference.undirected_f1_holds(WHEEL5)
    assert not reference.undirected_f1_holds(CYCLE5)


def test_local_broadcast_closed_form_on_hand_verdicts():
    for n in (4, 5, 12, 13):
        assert reference.local_broadcast_f1_holds(generators.cycle_local_broadcast(n))
        assert not reference.local_broadcast_f1_holds(generators.path_local_broadcast(n))


def test_trail_count_matches_the_simulator_universe():
    for g in (generators.complete_p2p(3), generators.cycle_local_broadcast(5), WHEEL5):
        assert reference.trail_count(g) == protocol.TrailUniverse(g).size


def crossval_op(g, expected: bool) -> workloads.Op:
    from hyperbft import reductions

    return workloads.Op(
        run=lambda _: reductions.cross_validate_reduction(g, 1, "undirected"),
        check=lambda res: reference.crossval_ok(res, expected),
    )


def test_wrong_expectation_counts_as_failed_op():
    ops = [crossval_op(K5, True), crossval_op(CYCLE5, False), crossval_op(WHEEL5, False)]
    times, samples, failed, rounds = run_rounds(ops, 0, 1, hostspeed.OBJECTS)
    assert (len(times), len(samples), failed, rounds) == (3, 3, 1, 1)


def test_raising_op_counts_as_failed():
    def boom(_):
        raise ValueError("boom")

    ops = [workloads.Op(run=boom, check=lambda out: True)]
    times, _, failed, _ = run_rounds(ops, 0, 2, hostspeed.OBJECTS)
    assert (len(times), failed) == (2, 2)


TRACE_SNIPPET = """
import json, spans
spans.FUNCTIONS.append(("hyperbft.conditions", "no_such_layer", "x", None))
tracer = spans.Tracer()
from hyperbft import conditions, generators, reductions
tracer.install()
g = generators.cycle_local_broadcast(5)
tracer.op_id = 0
holds = reductions.cross_validate_reduction(g, 1, "local").general
print(json.dumps({"holds": holds, "missing": tracer.missing, "metrics": tracer.metrics()}))
"""


def test_tracer_counts_layers_and_reports_missing_names():
    proc = subprocess.run(
        [sys.executable, "-c", TRACE_SNIPPET],
        cwd=BENCH, capture_output=True, text=True, check=True,
        env={"PYTHONPATH": f"{BENCH.parent / 'src'}:{BENCH}", "PATH": ""},
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    m = out["metrics"]
    assert out["holds"] is True
    assert out["missing"] == ["hyperbft.conditions.no_such_layer"]
    assert m["trace.missing"] == 1
    assert m["conditions.check_calls"] == 1
    # a local-broadcast node heads one channel: two light splits per
    # non-empty fault set, one for the empty set, all passing
    assert m["conditions.light_splits"] == 1 + 2 * 5
    # the reduced local check runs the detector once per fault set through
    # the name reductions imported
    assert m["conditions.detector_calls"] == m["conditions.light_splits"] + 6
    assert m["reductions.closed_form_calls"] == 1
    assert m["setup.conditions.check_calls"] == 0


def test_benchmark_json_lists_every_traced_metric():
    import spans

    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    listed = [m["name"] for m in doc["per_layer"]]
    assert listed == spans.metric_names() + ["trace.ops_per_s"]
    workloads_listed = {w["name"] for w in doc["workloads"]}
    assert workloads_listed <= set(workloads.WORKLOADS)


def test_host_speed_correction_scales_by_the_nearby_samples():
    import pytest

    for snippet in (hostspeed.OBJECTS, hostspeed.BITS):
        ref = snippet.reference_s
        ok = hostspeed.corrected([0.01, 0.02], [ref, ref], snippet)
        assert ok == pytest.approx([0.01, 0.02])
        # a host running at half speed doubles both the op and the snippet
        slow = hostspeed.corrected([0.02, 0.04], [2 * ref, 2 * ref], snippet)
        assert slow == pytest.approx([0.01, 0.02])
        # the median of the nearby samples, so one outlier does not count
        spike = hostspeed.corrected([0.01] * 3, [ref, 9 * ref, ref], snippet)
        assert spike == pytest.approx([0.01] * 3)
        assert hostspeed.sample(snippet) > 0
