"""Golden bytes: the checkers' canonical JSON and the necessity harness's
reception logs must not drift.

The files under ``tests/golden/`` were written by the pure-Python detector;
any rewrite of the detector or of the split enumeration has to reproduce
them byte for byte (verdict, witness, and every ``*_checked`` counter).
The reception-log digests were taken from the log builder that rendered
each log with ``canonical_json``; a rewrite of the log builder has to
reproduce every log byte for byte.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest
from click.testing import CliRunner

from hyperbft.cli import main
from hyperbft.conditions import check_ab_hyper, check_lcr_hyper
from hyperbft.formats import canonical_json, parse_topology, serialize_topology
from hyperbft.generators import complete_p2p, path_local_broadcast, sample_condition_violating
from hyperbft.necessity import build_necessity_executions
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
