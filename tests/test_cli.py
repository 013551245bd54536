from __future__ import annotations

import json

import pytest
from click.testing import CliRunner

from hyperbft import protocol
from hyperbft.cli import main
from hyperbft.formats import parse_topology, scenario_to_json, serialize_topology
from hyperbft.generators import complete_p2p, cycle_local_broadcast


@pytest.fixture
def runner() -> CliRunner:
    return CliRunner()


def invoke(runner: CliRunner, *args: str, **kwargs):
    return runner.invoke(main, list(args), catch_exceptions=False, **kwargs)


def write_fixture(tmp_path, name: str, text: str) -> str:
    target = tmp_path / name
    target.write_text(text)
    return str(target)


def k4_path(tmp_path) -> str:
    return write_fixture(tmp_path, "k4.hg", serialize_topology(complete_p2p(4)))


def k3_path(tmp_path) -> str:
    return write_fixture(tmp_path, "k3.hg", serialize_topology(complete_p2p(3)))


def test_check_feasible_topology_exits_zero(runner, tmp_path) -> None:
    res = invoke(runner, "check", k4_path(tmp_path), "--f", "1")
    assert res.exit_code == 0
    assert "holds: yes" in res.output


def test_check_violated_topology_exits_two_with_witness(runner, tmp_path) -> None:
    res = invoke(runner, "check", k3_path(tmp_path), "--f", "1")
    assert res.exit_code == 2
    assert "holds: no" in res.output
    assert "violating fault set" in res.output


def test_check_parse_error_exits_one_with_line(runner, tmp_path) -> None:
    bad = write_fixture(tmp_path, "bad.hg", "hypergraph n=2\nedge 0 9 -> 1\n")
    res = invoke(runner, "check", bad, "--f", "1")
    assert res.exit_code == 1
    assert "line 2" in res.output


def test_check_missing_file_exits_one(runner, tmp_path) -> None:
    res = invoke(runner, "check", str(tmp_path / "absent.hg"), "--f", "1")
    assert res.exit_code == 1


def test_check_condition_variants_agree(runner, tmp_path) -> None:
    path = k4_path(tmp_path)
    for cond in ("lcr", "ab", "auto"):
        res = invoke(runner, "check", path, "--f", "1", "--condition", cond)
        assert res.exit_code == 0


def test_check_json_report_is_machine_readable(runner, tmp_path) -> None:
    res = invoke(runner, "check", k3_path(tmp_path), "--f", "1", "--json")
    assert res.exit_code == 2
    doc = json.loads(res.output)
    assert doc["holds"] is False
    assert doc["violation"]["fault_set"] == [0]


def test_generate_round_trips_through_parse(runner) -> None:
    for args in (
        ("complete_p2p", "4"),
        ("cycle_local_broadcast", "5"),
        ("figure1b",),
        ("counterexample", "3"),
        ("random", "5", "7", "11"),
    ):
        res = invoke(runner, "generate", *args)
        assert res.exit_code == 0, args
        g = parse_topology(res.output)
        assert serialize_topology(g) == res.output


def test_generate_union_combines_files(runner, tmp_path) -> None:
    a = k4_path(tmp_path)
    res = invoke(runner, "generate", "union", a, a)
    assert res.exit_code == 0
    assert parse_topology(res.output).n == 4
    assert len(parse_topology(res.output).edges) == 24


def test_generate_writes_output_file(runner, tmp_path) -> None:
    out = tmp_path / "gen.hg"
    res = invoke(runner, "generate", "complete_p2p", "4", "--out", str(out))
    assert res.exit_code == 0
    assert parse_topology(out.read_text()).n == 4


def test_generate_bad_parameters_exit_one(runner) -> None:
    assert invoke(runner, "generate", "complete_p2p").exit_code == 1
    assert invoke(runner, "generate", "complete_p2p", "x").exit_code == 1
    assert invoke(runner, "generate", "counterexample", "1").exit_code == 1
    assert invoke(runner, "generate", "mystery").exit_code == 1


def test_generate_negative_sizes_exit_one(runner) -> None:
    res = invoke(runner, "generate", "--", "complete_p2p", "-2")
    assert res.exit_code == 1
    assert "n must be non-negative" in res.output
    res = invoke(runner, "generate", "--", "random", "5", "-3", "1")
    assert res.exit_code == 1
    assert "channel count must be non-negative" in res.output


@pytest.mark.parametrize(
    "args, message",
    [
        (["check", "{k4}"], "Missing option '--f'"),
        (["check", "{k4}", "--f", "x"], "Invalid value for '--f'"),
        (["crossval", "--class", "nope", "--n-max", "3", "--f", "1"], "Invalid value"),
        (["check", "{k4}", "--f", "-1"], "-1 is not in the range x>=0"),
        (["crossval", "--class", "p2p", "--n-max", "1", "--f", "1"], "1 is not in the range x>=2"),
        (["crossval", "--class", "p2p", "--n-max", "3", "--f", "1", "--sample", "0"],
         "0 is not in the range x>=1"),
        (["simulate"], "Missing argument 'SCENARIO'"),
        (["mystery"], "No such command"),
    ],
    ids=["missing-f", "bad-f", "bad-class", "negative-f", "small-n-max", "zero-sample",
         "no-scenario", "unknown-command"],
)
def test_usage_errors_exit_one(runner, tmp_path, args, message) -> None:
    res = invoke(runner, *[a.format(k4=k4_path(tmp_path)) for a in args])
    assert res.exit_code == 1
    assert message in res.output


@pytest.mark.parametrize("args", [["--help"], ["check", "--help"], ["simulate", "--help"]])
def test_help_exits_zero(runner, args) -> None:
    res = invoke(runner, *args)
    assert res.exit_code == 0
    assert "Usage:" in res.output


def scenario_file(tmp_path, g, faulty, inputs, adversary) -> str:
    return write_fixture(
        tmp_path, "scn.json", scenario_to_json(g, 1, faulty, inputs, adversary)
    )


def test_simulate_single_run(runner, tmp_path) -> None:
    path = scenario_file(tmp_path, complete_p2p(4), [3], {0: 1, 1: 0, 2: 1, 3: 0}, "constant-0")
    res = invoke(runner, "simulate", path)
    assert res.exit_code == 0
    assert "agreement: yes" in res.output


def test_simulate_sweep_all_on_feasible_graph(runner, tmp_path) -> None:
    path = scenario_file(tmp_path, complete_p2p(4), [], {v: 0 for v in range(4)}, "honest")
    res = invoke(runner, "simulate", path, "--sweep", "all")
    assert res.exit_code == 0
    assert "failures: 0" in res.output


def test_simulate_sweep_flags_violating_graph(runner, tmp_path) -> None:
    path = scenario_file(tmp_path, complete_p2p(3), [0], {v: 0 for v in range(3)}, "honest")
    res = invoke(runner, "simulate", path, "--sweep", "all")
    assert res.exit_code == 2
    assert "all agreement: no" in res.output


def test_simulate_bad_scenario_exits_one(runner, tmp_path) -> None:
    path = write_fixture(tmp_path, "broken.json", "{\"f\": 1}")
    res = invoke(runner, "simulate", path)
    assert res.exit_code == 1


@pytest.mark.parametrize(
    "field, value",
    [
        ("faulty", 3),
        ("faulty", [[1]]),
        ("faulty", [True]),
        ("f", True),
        ("inputs", {"0": True, "1": 1, "2": 1, "3": 0}),
        ("inputs", {"0": 1.0, "1": 1, "2": 1, "3": 0}),
        ("inputs", {"0": 1, "1": 1, "2": 1, "3": 0, "03": 1}),
        ("seed", False),
    ],
    ids=["faulty-int", "faulty-nested", "faulty-bool", "f-bool", "input-bool", "input-float",
         "input-alias", "seed-bool"],
)
def test_simulate_mistyped_scenario_field_exits_one(runner, tmp_path, field, value) -> None:
    doc = json.loads(scenario_to_json(complete_p2p(4), 1, [3], {v: 1 for v in range(4)}))
    doc[field] = value
    path = write_fixture(tmp_path, "typed.json", json.dumps(doc))
    res = invoke(runner, "simulate", path)
    assert res.exit_code == 1
    assert res.output.startswith("error: ")


def test_simulate_sweep_refuses_a_bad_worker_count(runner, tmp_path, monkeypatch) -> None:
    path = scenario_file(tmp_path, complete_p2p(3), [0], {v: 0 for v in range(3)}, "honest")
    monkeypatch.setenv("HYPERBFT_WORKERS", "four")
    res = invoke(runner, "simulate", path, "--sweep", "inputs")
    assert res.exit_code == 1
    assert "HYPERBFT_WORKERS must be a positive integer, got 'four'" in res.output


def test_simulate_refuses_graphs_past_the_mask_bit_budget(runner, tmp_path) -> None:
    g = cycle_local_broadcast(64)
    path = scenario_file(tmp_path, g, [], {v: 0 for v in range(64)}, "honest")
    res = invoke(runner, "simulate", path)
    assert res.exit_code == 1
    assert "n + 2f = 66" in res.output


def test_simulate_refuses_graphs_past_the_trail_limit(runner, tmp_path, monkeypatch) -> None:
    monkeypatch.setattr(protocol, "MAX_TRAILS", 2000)
    protocol._engine.cache_clear()
    path = scenario_file(tmp_path, complete_p2p(6), [], {v: 0 for v in range(6)}, "honest")
    res = invoke(runner, "simulate", path)
    assert res.exit_code == 1
    assert "more than 2000 simple trails" in res.output


def test_simulate_json_report(runner, tmp_path) -> None:
    path = scenario_file(tmp_path, complete_p2p(4), [3], {0: 1, 1: 0, 2: 1, 3: 0}, "silent")
    res = invoke(runner, "simulate", path, "--json")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["agreement"] is True
    assert len(doc["phases"]) == 5


def test_crossval_small_families(runner) -> None:
    res = invoke(runner, "crossval", "--class", "p2p", "--n-max", "3", "--f", "1")
    assert res.exit_code == 0
    assert "disagreements: 0" in res.output
    res = invoke(runner, "crossval", "--klass", "local", "--n-max", "3", "--f", "1")
    assert res.exit_code == 0


def test_crossval_sampled_mode_is_seeded(runner) -> None:
    args = ("crossval", "--class", "undirected", "--n-max", "4", "--f", "1",
            "--sample", "25", "--seed", "3")
    first = invoke(runner, *args)
    second = invoke(runner, *args)
    assert first.exit_code == 0
    assert first.output == second.output


def test_crossval_refused_graph_exits_one(runner) -> None:
    # the sampled n=63 graph splits into 63 nodes at f=0, past the mask bits
    res = invoke(runner, "crossval", "--class", "p2p", "--n-max", "63", "--f", "0",
                 "--sample", "1")
    assert res.exit_code == 1
    assert res.output.startswith("error: ")
    assert "split graph has 63 nodes" in res.output
    assert "Traceback" not in res.output


def test_cli_reports_are_reproducible(runner, tmp_path) -> None:
    path = k3_path(tmp_path)
    a = invoke(runner, "check", path, "--f", "1", "--json")
    b = invoke(runner, "check", path, "--f", "1", "--json")
    assert a.output == b.output


def test_check_oversized_split_graph_exits_one(runner, tmp_path) -> None:
    # the 30-ring is decided at f=0 and refused at f=3, where its
    # C(30, 3) * 30 closures pass the closure-pair limit
    ring = write_fixture(tmp_path, "ring30.hg", serialize_topology(cycle_local_broadcast(30)))
    assert invoke(runner, "check", ring, "--f", "0").exit_code == 0
    res = invoke(runner, "check", ring, "--f", "3")
    assert res.exit_code == 1
    assert "split graph has 30 nodes" in res.output


def test_check_ab_past_its_partition_budget_exits_one(runner, tmp_path) -> None:
    # the AB form would walk 2^15 partitions of the 16-ring's unsplit graph
    ring = write_fixture(tmp_path, "ring16.hg", serialize_topology(cycle_local_broadcast(16)))
    res = invoke(runner, "check", ring, "--f", "1", "--condition", "ab")
    assert res.exit_code == 1
    assert res.output.startswith("error: split graph has 16 nodes")
