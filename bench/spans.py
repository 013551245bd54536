"""Span tracer for the traced run: wraps hyperbft's layer functions from
outside the package and turns the spans into per-layer metrics.

Each wrapped call records a span (name, start, end, parent span, op id) and
may add to counters at the same boundary.  A function is replaced in every
``hyperbft`` module that holds it under its own name (so a caller that
imported it by name is traced too); methods are replaced on their class.
Spans stay in memory until ``save``.  A target that no longer exists is
listed in ``missing`` instead of raising.

Ops carry ids 0, 1, ...; spans recorded during set-up carry ``SETUP`` and
those between ops (argument preparation, output checks) ``BETWEEN``, which
no metric counts.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

SETUP = -1
BETWEEN = -2


class Tracer:
    BETWEEN = BETWEEN

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = SETUP
        self._stack = [-1]
        # counters and distinct-call sets, kept apart for set-up and ops
        self.counts = {"setup": defaultdict(float), "ops": defaultdict(float)}
        self.distinct = {"setup": defaultdict(set), "ops": defaultdict(set)}
        self.missing: list[str] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def enter(self, nid: int) -> int:
        sid = len(self.name)
        self.name.append(nid)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self._stack.append(sid)
        return sid

    def exit(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def _phase(self) -> str | None:
        if self.op_id == BETWEEN:
            return None
        return "setup" if self.op_id == SETUP else "ops"

    def count(self, key: str, amount: float = 1) -> None:
        phase = self._phase()
        if phase is not None:
            self.counts[phase][key] += amount

    def add_distinct(self, key: str, item) -> None:
        phase = self._phase()
        if phase is not None:
            self.distinct[phase][key].add(item)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, span: str, after):
        nid = self.name_id(span)
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer.enter(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(sid)
            if after is not None:
                try:
                    after(tracer, args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError) as exc:
                    tracer._note_missing(f"{span} counters: {exc}")
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, fn, span: str, counter: str):
        """Each step of the generator is one span; each yielded item adds one
        to ``counter``."""
        nid = self.name_id(span)
        tracer = self

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                sid = tracer.enter(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.exit(sid)
                tracer.count(counter)
                yield item

        traced.__wrapped__ = fn
        return traced

    def _note_missing(self, what: str) -> None:
        if what not in self.missing:
            self.missing.append(what)
            print(f"trace: missing {what}", file=sys.stderr)

    def _replace_everywhere(self, module: str, attr: str, make) -> None:
        mod = importlib.import_module(module)
        orig = getattr(mod, attr, None)
        if orig is None:
            self._note_missing(f"{module}.{attr}")
            return
        wrapped = make(orig)
        for name, m in list(sys.modules.items()):
            if (name == "hyperbft" or name.startswith("hyperbft.")) and getattr(
                m, attr, None
            ) is orig:
                setattr(m, attr, wrapped)

    def install(self) -> None:
        for module, attr, span, after in FUNCTIONS:
            self._replace_everywhere(
                module, attr, lambda fn, s=span, a=after: self._wrap(fn, s, a)
            )
        for module, attr, span, counter in GENERATORS:
            self._replace_everywhere(
                module, attr, lambda fn, s=span, c=counter: self._wrap_generator(fn, s, c)
            )
        for module, cls_name, attr, span, after in METHODS:
            cls = getattr(importlib.import_module(module), cls_name, None)
            orig = getattr(cls, attr, None) if cls is not None else None
            if orig is None:
                self._note_missing(f"{module}.{cls_name}.{attr}")
                continue
            setattr(cls, attr, self._wrap(orig, span, after))

    # -- output --------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the timed ops, then the same metrics of
        set-up under a ``setup.`` prefix."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_time = dur - child
        out: dict[str, float] = {}
        for phase, prefix, sel in (
            ("ops", "", a["op"] >= 0),
            ("setup", "setup.", a["op"] == SETUP),
        ):
            calls = np.bincount(a["name"][sel], minlength=len(self.names))
            secs = np.bincount(a["name"][sel], weights=self_time[sel], minlength=len(self.names))
            m: dict[str, float] = {}
            for span, (calls_metric, secs_metric) in SPAN_METRICS.items():
                nid = self._name_ids.get(span)
                if calls_metric:
                    m[calls_metric] = float(calls[nid]) if nid is not None else 0.0
                if secs_metric:
                    m[secs_metric] = float(secs[nid]) if nid is not None else 0.0
            counts = self.counts[phase]
            for key in COUNTERS:
                m[key] = float(counts.get(key, 0.0))
            m["paths.maxflow_distinct"] = float(len(self.distinct[phase]["paths.maxflow"]))
            graphs = m["conditions.split_graphs_checked"]
            m["conditions.detector_calls_per_split_graph"] = (
                m["conditions.detector_calls"] / graphs if graphs else 0.0
            )
            lookups = counts.get("protocol.phase_lookups", 0.0)
            m["protocol.phase_cache_hit_ratio"] = (
                1.0 - m["protocol.phase_evals"] / lookups if lookups else 0.0
            )
            out.update({prefix + k: v for k, v in m.items()})
        out["trace.spans"] = float(len(dur))
        out["trace.missing"] = float(len(self.missing))
        return out


# ---------------------------------------------------------------------------
# what is wrapped, and the counters taken at each boundary


def _after_check(tracer, args, kwargs, report):
    tracer.count("conditions.split_graphs_checked", report.split_graphs_checked)


def _after_detector(tracer, args, kwargs, result):
    tracer.count("conditions.detector_cells", 1 << args[1])


def _after_maxflow(tracer, args, kwargs, result):
    key = (tuple(args[0]),) + args[1:] + tuple(sorted(kwargs.items()))
    tracer.add_distinct("paths.maxflow", key)


def _after_flood(tracer, args, kwargs, result):
    tracer.count("protocol.flood_records", len(result))


def _after_trail_universe(tracer, args, kwargs, result):
    tu = args[0]
    tracer.count("protocol.trails", tu.size)
    groups = args[2] if len(args) > 2 else kwargs.get("groups")
    if groups is not None:
        tracer.count("necessity.carrier_trails", tu.size)


def _after_run(tracer, args, kwargs, result):
    tracer.count("protocol.phase_lookups", len(args[0].phases))


def _after_carrier(tracer, args, kwargs, carrier):
    tracer.count("necessity.carrier_copies", len(carrier.copies))


def _after_run_carrier(tracer, args, kwargs, result):
    tracer.count("necessity.log_bytes", sum(len(b) for b in result[1].values()))


def _after_json(tracer, args, kwargs, text):
    tracer.count("formats.canonical_json_bytes", len(text))


FUNCTIONS = [
    ("hyperbft.conditions", "check_lcr_hyper", "conditions.check", _after_check),
    ("hyperbft.conditions", "check_ab_hyper", "conditions.check", _after_check),
    ("hyperbft.conditions", "_lcr_split_violated", "conditions.detector", _after_detector),
    ("hyperbft.conditions", "_ab_split_violated", "conditions.detector", _after_detector),
    ("hyperbft.conditions", "_canonical_lcr_partition", "conditions.witness", None),
    ("hyperbft.conditions", "_canonical_ab_partition", "conditions.witness", None),
    ("hyperbft.conditions", "verify_witness", "conditions.witness", None),
    ("hyperbft.splitting", "split", "splitting.split", None),
    ("hyperbft.reductions", "undirected_conditions", "reductions.closed_form", None),
    ("hyperbft.reductions", "theorem_p2p_classic", "reductions.closed_form", None),
    ("hyperbft.reductions", "theorem_local_classic", "reductions.closed_form", None),
    ("hyperbft.paths", "max_disjoint_paths_bits", "paths.maxflow", _after_maxflow),
    ("hyperbft.paths", "exists_disjoint_packing", "paths.packing", None),
    ("hyperbft.paths", "canonical_path", "paths.canonical_path", None),
    ("hyperbft.protocol", "_build_phase", "protocol.phase_build", None),
    ("hyperbft.protocol", "flood_records", "protocol.flood", _after_flood),
    ("hyperbft.necessity", "build_carrier", "necessity.carrier_build", _after_carrier),
    ("hyperbft.necessity", "_run_carrier", "necessity.run_carrier", _after_run_carrier),
    ("hyperbft.formats", "canonical_json", "formats.canonical_json", _after_json),
]

GENERATORS = [
    ("hyperbft.conditions", "_light_splits", "conditions.light_splits", "conditions.light_splits"),
]

METHODS = [
    ("hyperbft.protocol", "Engine", "__init__", "protocol.engine_build", None),
    ("hyperbft.protocol", "Engine", "run", "protocol.run", _after_run),
    ("hyperbft.protocol", "Engine", "_eval_phase", "protocol.phase_eval", None),
    ("hyperbft.protocol", "Engine", "node_step_cd", "protocol.node_step_cd", None),
    ("hyperbft.protocol", "Engine", "node_step_f", "protocol.node_step_f", None),
    ("hyperbft.protocol", "TrailUniverse", "__init__", "protocol.trail_universe",
     _after_trail_universe),
]

# span name -> (call-count metric, self-time metric)
SPAN_METRICS = {
    "conditions.check": ("conditions.check_calls", "conditions.check_s"),
    "conditions.light_splits": (None, "conditions.light_splits_s"),
    "conditions.detector": ("conditions.detector_calls", "conditions.detector_s"),
    "conditions.witness": (None, "conditions.witness_s"),
    "splitting.split": ("splitting.splits_built", "splitting.split_s"),
    "reductions.closed_form": ("reductions.closed_form_calls", "reductions.closed_form_s"),
    "paths.maxflow": ("paths.maxflow_calls", "paths.maxflow_s"),
    "paths.packing": ("paths.packing_calls", "paths.packing_s"),
    "paths.canonical_path": ("paths.canonical_path_calls", "paths.canonical_path_s"),
    "protocol.engine_build": ("protocol.engine_builds", None),
    "protocol.trail_universe": (None, "protocol.trail_universe_s"),
    "protocol.phase_build": (None, "protocol.phase_build_s"),
    "protocol.run": ("protocol.runs", None),
    "protocol.phase_eval": ("protocol.phase_evals", None),
    "protocol.flood": ("protocol.floods", "protocol.flood_s"),
    "protocol.node_step_cd": ("protocol.node_step_cd_calls", "protocol.node_step_cd_s"),
    "protocol.node_step_f": ("protocol.node_step_f_calls", "protocol.node_step_f_s"),
    "necessity.carrier_build": (None, "necessity.carrier_build_s"),
    "necessity.run_carrier": (None, "necessity.run_carrier_s"),
    "formats.canonical_json": ("formats.canonical_json_calls", "formats.canonical_json_s"),
}

COUNTERS = [
    "conditions.light_splits",
    "conditions.split_graphs_checked",
    "conditions.detector_cells",
    "protocol.trails",
    "protocol.flood_records",
    "necessity.carrier_copies",
    "necessity.carrier_trails",
    "necessity.log_bytes",
    "formats.canonical_json_bytes",
]


def metric_names() -> list[str]:
    """Every per-layer metric ``Tracer.metrics`` reports, in report order."""
    base = [m for pair in SPAN_METRICS.values() for m in pair if m] + COUNTERS + [
        "paths.maxflow_distinct",
        "conditions.detector_calls_per_split_graph",
        "protocol.phase_cache_hit_ratio",
    ]
    return base + ["setup." + m for m in base] + ["trace.spans", "trace.missing"]
