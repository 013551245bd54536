"""Every ``BENCH_*.json`` at the root of the repository records one change's
benchmark runs: both commits, the host, and for each workload of
``BENCHMARK.json`` its alternating parent/change pairs with the median and
quartiles of every end-to-end metric."""

from __future__ import annotations

import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _stats(values: list[float]) -> dict[str, float]:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def test_a_bench_record_exists() -> None:
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_bench_record_holds_every_workload_and_metric(path: Path) -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    record = json.loads(path.read_text())
    for commit in ("parent_commit", "change_commit"):
        assert re.fullmatch("[0-9a-f]{40}", record[commit]), commit
    assert isinstance(record["cores"], int) and record["cores"] >= 1
    assert re.fullmatch(r"\d+\.\d+\.\d+", record["python"])
    assert set(record["workloads"]) == {w["name"] for w in bench["workloads"]}
    for name, runs in record["workloads"].items():
        pairs = runs["pairs"]
        assert len(pairs) >= 10, name
        assert {p["first"] for p in pairs} == {"parent", "change"}, name
        for metric, better in metrics.items():
            summary = runs["summary"][metric]
            assert summary["better"] == better
            for side in ("parent", "change"):
                values = [p[side]["metrics"][metric] for p in pairs]
                assert summary[side] == pytest.approx(_stats(values)), (name, metric, side)
            wins = sum(
                (c > p) if better == "higher" else (c < p)
                for p, c in (
                    (pair["parent"]["metrics"][metric], pair["change"]["metrics"][metric])
                    for pair in pairs
                )
            )
            assert summary["wins"] == wins, (name, metric)
