"""Steadiness check: run one workload on several seeds and report, for each
end-to-end metric, the median, the quartiles and the spread (distance
between the quartiles as a share of the median).

    python3 bench/steady.py --workload NAME [--seeds 1 2 3 ...] [--seconds S] [--label L]

Runs are sequential, one fresh process each, through ``bench/run.py``; the
summary is printed and saved to ``bench/out/steady-<workload>-<label>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def summarize(values: list[float]) -> dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    p.add_argument("--seconds", type=int, default=None,
                   help="run length (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--label", default="check")
    args = p.parse_args()
    seconds = args.seconds or json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: failed {result['failed']}/{result['attempted']} {values}",
              file=sys.stderr)
    names = list(runs[0]["metrics"])
    summary = {
        name: summarize([r["metrics"][name]["value"] for r in runs]) for name in names
    }
    for name, s in summary.items():
        print(f"{name:12s} median {s['median']:10.4f}  q1 {s['q1']:10.4f}  "
              f"q3 {s['q3']:10.4f}  spread {s['spread']:.3f}")
    (BENCH / "out").mkdir(exist_ok=True)
    out = BENCH / "out" / f"steady-{args.workload}-{args.label}.json"
    out.write_text(json.dumps({"seconds": seconds, "runs": runs, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
