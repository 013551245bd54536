"""Golden report bytes: the checkers' canonical JSON must not drift.

The files under ``tests/golden/`` were written by the pure-Python detector;
any rewrite of the detector or of the split enumeration has to reproduce
them byte for byte (verdict, witness, and every ``*_checked`` counter).
"""

from __future__ import annotations

from pathlib import Path

import pytest
from click.testing import CliRunner

from hyperbft.cli import main
from hyperbft.conditions import check_ab_hyper, check_lcr_hyper
from hyperbft.formats import canonical_json, parse_topology, serialize_topology
from hyperbft.generators import complete_p2p, path_local_broadcast
from hyperbft.reductions import check_lcr_local, check_lcr_p2p, cross_validate_reduction

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
