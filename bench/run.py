"""Benchmark for hyperbft: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``).  Raw op times, and
the spans of a traced run, go to ``bench/out/``.

Every measurement runs in a fresh worker process, as one caller in a closed
loop, with ``HYPERBFT_WORKERS`` unset.  The worker builds the corpus from the
seed (set-up), then runs whole rounds over it until about ``--seconds`` have
passed, timing each op and checking its output.  Op times are corrected for
the host's speed (``hostspeed.py``).  An untraced run also starts two
set-up-only workers first and reports the median set-up time of the three.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("crossval_undirected", "broadcast_large", "sweep_feasible", "necessity_harness")
SETUP_SAMPLES = 3           # set-up times whose median is setup_s
SETUP_HOST_SAMPLES = 15     # host-speed samples that scale each set-up time
SETUP_LIMIT_S = 30          # time limit of each set-up-only worker
WORKER_MARGIN_S = 60        # measuring worker's limit past 2 x --seconds

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "op/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--role", choices=("driver", "setup", "worker"), default="driver",
                   help=argparse.SUPPRESS)
    p.add_argument("--spawned-at", type=float, default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be positive")
    return args


# ---------------------------------------------------------------------------
# worker: set-up, then the timed rounds


def _percentile(sorted_vals: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_vals) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def run_rounds(ops, seconds: float, min_rounds: int, snippet, tracer=None):
    """Run whole rounds over ``ops`` until the run ends closest to
    ``seconds`` (and at least ``min_rounds`` rounds).  Returns the op wall
    times, the host-speed sample (of ``snippet``) taken after each op, the
    number of failed ops (an exception or a failed check) and the round
    count."""
    if tracer is not None:
        op_nid = tracer.name_id("op")
        tracer.op_id = tracer.BETWEEN
    times: list[float] = []
    samples: list[float] = []
    failed = 0
    rounds = 0
    start = time.perf_counter()
    while True:
        for op in ops:
            arg = op.prepare()
            ok = True
            if tracer is not None:
                tracer.op_id = len(times)
                sid = tracer.enter(op_nid)
            t0 = time.perf_counter()
            try:
                out = op.run(arg)
            except Exception:
                ok = False
                traceback.print_exc(file=sys.stderr)
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.exit(sid)
                tracer.op_id = tracer.BETWEEN
            times.append(t1 - t0)
            samples.append(hostspeed.sample(snippet))
            if ok:
                try:
                    ok = bool(op.check(out))
                except Exception:
                    ok = False
                    traceback.print_exc(file=sys.stderr)
                if not ok:
                    print(f"op {len(times) - 1} failed its reference check", file=sys.stderr)
            failed += not ok
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= min_rounds and elapsed >= seconds - elapsed / rounds / 2:
            return times, samples, failed, rounds


def worker(args: argparse.Namespace) -> int:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    import workloads

    if tracer is not None:
        tracer.install()
    workload = workloads.WORKLOADS[args.workload]
    ops = workload.build(args.seed)
    setup_wall = time.perf_counter() - args.spawned_at
    host = [hostspeed.sample(workload.snippet) for _ in range(SETUP_HOST_SAMPLES)]
    setup_s = hostspeed.scaled(setup_wall, host, workload.snippet)
    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    wall, samples, failed, rounds = run_rounds(
        ops, args.seconds, workload.min_rounds, workload.snippet, tracer
    )
    times = hostspeed.corrected(wall, samples, workload.snippet)
    ordered = sorted(times)
    ops_per_s = len(times) / sum(times)
    if tracer is not None:
        metrics = tracer.metrics()
        metrics["trace.ops_per_s"] = ops_per_s
        units = {}
    else:
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": ops_per_s,
            "op_p50_ms": statistics.median(times) * 1e3,
            "op_tail_ms": _percentile(ordered, workload.tail_pct) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": len(times),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k, _layer_unit(k))} for k, v in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": rounds,
        "ops_per_round": len(ops),
        "tail_pct": workload.tail_pct,
        "op_wall_s": wall,
        "host_samples_s": samples,
        "op_times_s": times,
        "result": result,
    }
    if tracer is not None:
        raw["missing"] = tracer.missing
        tracer.save(OUT / f"{stem}-spans.npz")
    (OUT / f"{stem}.json").write_text(json.dumps(raw))
    print(json.dumps(result))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("ops_per_s"):
        return "op/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_per_split_graph")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_cells"):
        return "cells"
    return "count"


# ---------------------------------------------------------------------------
# driver: start the workers, combine what they report


def _spawn(args: argparse.Namespace, role: str, timeout: float) -> dict:
    env = dict(os.environ)
    env.pop("HYPERBFT_WORKERS", None)
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--role", role, "--spawned-at", repr(time.perf_counter()),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=timeout, text=True
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{role} process exited with code {proc.returncode}")
    return json.loads(lines[-1])


def driver(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "hyperbft" / "__init__.py").is_file():
        print(f"error: no hyperbft sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    setup_times = []
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setup_times.append(_spawn(args, "setup", SETUP_LIMIT_S)["setup_s"])
        result = _spawn(args, "worker", 2 * args.seconds + WORKER_MARGIN_S)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.trace:
        setup_times.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setup_times)
        _record_setup_samples(args, setup_times)
    print(json.dumps(result))
    return 0


def _record_setup_samples(args: argparse.Namespace, setup_times: list[float]) -> None:
    """Add every set-up sample to the run's raw output, the measuring
    worker's last."""
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    raw = json.loads(path.read_text())
    raw["setup_samples_s"] = setup_times
    path.write_text(json.dumps(raw))


def main() -> int:
    args = parse_args()
    if args.role == "driver":
        return driver(args)
    return worker(args)


if __name__ == "__main__":
    sys.exit(main())
