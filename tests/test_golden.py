"""Golden bytes: the checkers' canonical JSON and the necessity harness's
reception logs must not drift.

The files under ``tests/golden/`` were written by the pure-Python detector;
any rewrite of the detector or of the split enumeration has to reproduce
them byte for byte (verdict, witness, and every ``*_checked`` counter).
The checker corpus digest was taken from the rescan that rebuilt every split
graph through ``enumerate_lambda``; a rewrite of the split layout or of the
canonical partition scan has to reproduce all of its reports.
The reception-log digests were taken from the log builder that rendered
each log with ``canonical_json``; a rewrite of the log builder has to
reproduce every log byte for byte.  The simulator digests were taken from
the dict-network max-flow and the layer-by-layer flood; a rewrite of either
has to reproduce every run's verdicts and phase states byte for byte.
"""

from __future__ import annotations

import hashlib
import itertools
from pathlib import Path

import pytest
from click.testing import CliRunner

from hyperbft.cli import main
from hyperbft.conditions import check_ab_hyper, check_lcr_hyper
from hyperbft.formats import canonical_json, parse_topology, serialize_topology
from hyperbft.generators import (
    complete_p2p,
    cycle_local_broadcast,
    path_local_broadcast,
    random_hypergraph,
    random_p2p,
    sample_condition_passing,
    sample_condition_violating,
    sample_undirected_hypergraphs,
)
from hyperbft.necessity import build_necessity_executions
from hyperbft.protocol import SplitPersonaAdversary, _sweep_combos, run_scenario, sweep_scenarios
from hyperbft.reductions import check_lcr_local, check_lcr_p2p, cross_validate_reduction

SEED = 20260817

GOLDEN = Path(__file__).parent / "golden"


def _undirected5():
    # a violating n=5 undirected hypergraph from sample_undirected_hypergraphs(5, 40, 7)
    return parse_topology((GOLDEN / "undirected5.txt").read_text())


CASES = {
    "complete3_lcr_hyper": lambda: check_lcr_hyper(complete_p2p(3), 1),
    "complete3_ab_hyper": lambda: check_ab_hyper(complete_p2p(3), 1),
    "complete3_lcr_p2p": lambda: check_lcr_p2p(complete_p2p(3), 1),
    "path3_lcr_hyper": lambda: check_lcr_hyper(path_local_broadcast(3), 1),
    "path3_ab_hyper": lambda: check_ab_hyper(path_local_broadcast(3), 1),
    "path3_lcr_local": lambda: check_lcr_local(path_local_broadcast(3), 1),
    "undirected5_lcr_hyper": lambda: check_lcr_hyper(_undirected5(), 1),
    "undirected5_ab_hyper": lambda: check_ab_hyper(_undirected5(), 1),
    "undirected5_crossval": lambda: cross_validate_reduction(_undirected5(), 1, "undirected"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden(name: str) -> None:
    expected = (GOLDEN / f"{name}.json").read_text()
    assert canonical_json(CASES[name]()) == expected


def _corpus_graphs():
    for s in range(6):
        yield from sample_undirected_hypergraphs(4, 6, s)
        yield from (g for g, _ in sample_condition_violating(6, 5, 1, seed=s))
    for n in range(3, 6):
        for s in range(10):
            yield random_hypergraph(n, n + s, s)
            yield random_p2p(n, n + s, s)


def _corpus_reports():
    for g in _corpus_graphs():
        cls = g.classify
        for f in (1, 2):
            yield check_lcr_hyper(g, f)
            if g.n <= 4 or f == 1:
                yield check_ab_hyper(g, f)
            if cls.single_tail:
                yield check_lcr_p2p(g, f)
            if cls.single_channel_per_node:
                yield check_lcr_local(g, f)


def test_checker_corpus_matches_golden() -> None:
    # 577 reports on 132 graphs, 487 of them violated, f in {1, 2}
    h = hashlib.sha256()
    for rep in _corpus_reports():
        h.update(canonical_json(rep).encode())
        sh = getattr(rep.violation, "split", None)
        if sh is not None:
            # the canonical first split of a copy-swap class keeps each split
            # node's highest-id channel on copy 0
            g = sh.base
            highest = [max(e.id for e in g.head_edges(v)) for v in sh.spec.split_set
                       if g.head_edges(v)]
            assert all(sh.spec.assignment_map[eid] == 0 for eid in highest)
    assert h.hexdigest() == (
        "53522794aeb978a3e395ab13e21d7b2dd8265cbcebb8ee2c1c2d71f7f181650b"
    )


def test_readme_k4_counters() -> None:
    rep = check_lcr_hyper(complete_p2p(4), 1)
    assert rep.holds
    assert (rep.fault_sets_checked, rep.split_graphs_checked, rep.partitions_checked) == (
        5,
        37,
        8181,
    )


def test_readme_k4_check_output(tmp_path) -> None:
    k4 = tmp_path / "k4.txt"
    k4.write_text(serialize_topology(complete_p2p(4)))
    res = CliRunner().invoke(main, ["check", str(k4), "--f", "1"], catch_exceptions=False)
    assert res.exit_code == 0
    assert res.output == (
        "condition: lcr-hyper\n"
        "f: 1\n"
        "holds: yes\n"
        "fault sets checked: 5\n"
        "split graphs checked: 37\n"
        "partitions checked: 8181\n"
    )


def _necessity_cases():
    yield "complete3", complete_p2p(3), 1, None
    # the criterion-6 corpus
    for i, (g, rep) in enumerate(sample_condition_violating(5, 4, 1, seed=SEED)):
        yield f"violating4_f1_{i}", g, 1, rep.violation
    # n=7, f=2: 3,306 carrier trails
    g, rep = sample_condition_violating(4, 7, 2, seed=SEED)[0]
    yield "violating7_f2_0", g, 2, rep.violation


# sha256 over every execution's outputs and every honest node's log
LOG_DIGESTS = {
    "complete3": "1db8da07793c72f805a84bade96aff9899be2dbd509fff11a7bc24247251ed30",
    "violating4_f1_0": "13de00d07f5cc3d6b2e4366631d432a5d2b31d8e110c85c3f23f92acff7cc784",
    "violating4_f1_1": "c2c1e312032a9db8ac6b1e36056bccfdc47117ca90e24db479fe04f24fe84e71",
    "violating4_f1_2": "33274c03a131d07ab0891891f0a43b57637f24316d7252b93aa578f54728fa18",
    "violating4_f1_3": "51fe0ce4be3cfd004b60df93df32d197f30968a7e534179c0cfa9e2c32259d77",
    "violating4_f1_4": "309bc20a8af87ce4d83d63bb918e4473029b28f40610a8853a5bccac7282a602",
    "violating7_f2_0": "3cb3a6245ff448f744d8fc8ecc530eb29e736568be36ddd09c2138564edc8adb",
}


def _log_digest(rep) -> str:
    h = hashlib.sha256()
    for e in rep.executions:
        h.update(repr((e.execution, e.outputs)).encode())
        for v in sorted(e.logs):
            h.update(b"%d %d\n" % (v, len(e.logs[v])))
            h.update(e.logs[v])
    return h.hexdigest()


def test_reception_logs_match_golden() -> None:
    got = {name: _log_digest(build_necessity_executions(g, f, v))
           for name, g, f, v in _necessity_cases()}
    assert got == LOG_DIGESTS


def _passing5(i: int):
    return [g for g, _ in sample_condition_passing(12, 5, 1, seed=SEED) if g.n == 5][i]


SWEEP_GRAPHS = {
    "complete4": lambda: complete_p2p(4),
    "cycle4": lambda: cycle_local_broadcast(4),
    "complete3": lambda: complete_p2p(3),   # infeasible: split_persona failures
    "passing5_0": lambda: _passing5(0),
    "passing5_1": lambda: _passing5(1),
    "passing5_2": lambda: _passing5(2),
}

# sha256 over canonical_json of the f=1 sweep report, then of every run in it
SWEEP_DIGESTS = {
    "complete4": "94bb73189ac3f68c71aa75ae0b85aa6c73b31e920634f17a999af813c7890da6",
    "cycle4": "02c6afb003ccebbd54cfa05ec8e1efc4148bc211d90489dfb5f9cc53eac7dbfc",
    "complete3": "41e1481468818288bc467cc81aa2e5b575d155e68a0603f332e5055970d14de0",
    "passing5_0": "de48e20d5f54a9be603359e34cd36bff5c071242559aa388ead8462c11f2865b",
    "passing5_1": "663a037d2017ced1b592417862eef39928a46f7c432bddf0e0811f015dabea12",
    "passing5_2": "b3dac541bf19c0c9384babcd807e5bbd05f0933b5aa737db7bb6282d4ce9051b",
}


@pytest.mark.parametrize("name", sorted(SWEEP_GRAPHS))
def test_sweep_bytes_match_golden(name: str) -> None:
    g = SWEEP_GRAPHS[name]()
    h = hashlib.sha256(canonical_json(sweep_scenarios(g, 1)).encode())
    for fset, adv, inputs in _sweep_combos(g, 1):
        h.update(canonical_json(run_scenario(g, 1, fset, dict(inputs), adv)).encode())
    assert h.hexdigest() == SWEEP_DIGESTS[name]


def test_split_persona_assignment_run_matches_golden() -> None:
    g = complete_p2p(3)
    eids = sorted(e.id for e in g.head_edges(0))
    adv = SplitPersonaAdversary(assignment={eids[0]: 1, eids[1]: 0})
    h = hashlib.sha256()
    for inputs in itertools.product((0, 1), repeat=3):
        h.update(canonical_json(run_scenario(g, 1, [0], dict(enumerate(inputs)), adv)).encode())
    assert h.hexdigest() == (
        "17d7bb0a8df4490377f595cd6bae4af69772614ec67f87c5c7914aa187369435"
    )
