"""File formats: the topology grammar, scenario documents, and report rendering.

Topology grammar (one statement per line, ``#`` starts a comment):

    hypergraph n=<int>
    edge <id> <head> -> <tail> [<tail> ...]

Serialization is canonical — edges in id order, tails ascending — and
round-trips byte-identically.  All JSON reports are rendered with sorted keys
and a fixed indent so repeated runs produce identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import fields, is_dataclass
from typing import Any

from .conditions import ConditionReport, PartitionAB, PartitionLCR, Violation
from .hypergraph import DirectedHypergraph
from .splitting import SplitHypergraph


class FormatError(ValueError):
    """A parse problem, annotated with the 1-based line it occurred on."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


# ---------------------------------------------------------------------------
# topology grammar


def parse_topology(text: str) -> DirectedHypergraph:
    n: int | None = None
    edges: list[tuple[int, int, tuple[int, ...]]] = []
    seen_ids: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "hypergraph":
            if n is not None:
                raise FormatError(lineno, "duplicate hypergraph declaration")
            if len(tokens) != 2 or not tokens[1].startswith("n="):
                raise FormatError(lineno, "expected: hypergraph n=<int>")
            try:
                n = int(tokens[1][2:])
            except ValueError:
                raise FormatError(lineno, f"bad node count {tokens[1][2:]!r}") from None
            if n < 0:
                raise FormatError(lineno, "node count must be non-negative")
        elif tokens[0] == "edge":
            if n is None:
                raise FormatError(lineno, "edge before hypergraph declaration")
            if "->" not in tokens:
                raise FormatError(lineno, "expected: edge <id> <head> -> <tail> [<tail> ...]")
            arrow = tokens.index("->")
            if arrow != 3 or len(tokens) < 5:
                raise FormatError(lineno, "expected: edge <id> <head> -> <tail> [<tail> ...]")
            try:
                eid = int(tokens[1])
                head = int(tokens[2])
                tails = tuple(int(tok) for tok in tokens[4:])
            except ValueError:
                raise FormatError(lineno, "edge ids, heads, and tails must be integers") from None
            if eid < 0:
                raise FormatError(lineno, f"edge id {eid} must be non-negative")
            if eid in seen_ids:
                raise FormatError(lineno, f"duplicate edge id {eid}")
            if not 0 <= head < n:
                raise FormatError(lineno, f"head {head} outside 0..{n - 1}")
            for t in tails:
                if not 0 <= t < n:
                    raise FormatError(lineno, f"tail {t} outside 0..{n - 1}")
                if t == head:
                    raise FormatError(lineno, f"tail {t} equals the head")
            if len(set(tails)) != len(tails):
                raise FormatError(lineno, "repeated tail node")
            seen_ids.add(eid)
            edges.append((eid, head, tails))
        else:
            raise FormatError(lineno, f"unknown statement {tokens[0]!r}")
    if n is None:
        raise FormatError(1, "missing hypergraph declaration")
    return DirectedHypergraph.from_edge_list(n, edges)


def serialize_topology(g: DirectedHypergraph) -> str:
    if g.nodes != frozenset(range(g.n)):
        raise ValueError("only graphs on the full node range 0..n-1 serialize to files")
    lines = [f"hypergraph n={g.n}"]
    for e in sorted(g.edges, key=lambda e: e.id):
        tails = " ".join(str(t) for t in e.sorted_tails())
        lines.append(f"edge {e.id} {e.head} -> {tails}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# scenario documents


def _is_int(value: Any) -> bool:
    """JSON integers only: ``true`` and ``false`` parse as Python bools,
    which are ints too."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_scenario_dict(doc: dict[str, Any]) -> dict[str, Any]:
    """Validate a scenario JSON document and normalize its fields.

    Returns a dict with keys: graph, f, faulty (frozenset), inputs (dict
    node -> bit), adversary (str), seed (int).
    """
    if not isinstance(doc, dict):
        raise ValueError("scenario document must be a JSON object")
    graph_text = doc.get("graph", doc.get("topology"))
    if graph_text is None:
        raise ValueError("scenario is missing the 'graph' field")
    for key in ("f", "inputs"):
        if key not in doc:
            raise ValueError(f"scenario is missing the {key!r} field")
    if not isinstance(graph_text, str):
        raise ValueError("the 'graph' field must hold topology text")
    g = parse_topology(graph_text)
    f = doc["f"]
    if not _is_int(f) or f < 0:
        raise ValueError("f must be a non-negative integer")
    raw_faulty = doc.get("faulty", [])
    if not isinstance(raw_faulty, list) or not all(
        _is_int(v) and v in g.nodes for v in raw_faulty
    ):
        raise ValueError("faulty must list node ids")
    faulty = frozenset(raw_faulty)
    if len(faulty) > f:
        raise ValueError(f"faulty set has {len(faulty)} nodes but f={f}")
    raw_inputs = doc["inputs"]
    if not isinstance(raw_inputs, dict):
        raise ValueError("inputs must map node ids to bits")
    inputs: dict[int, int] = {}
    for key, bit in raw_inputs.items():
        v = int(key)
        if v not in g.nodes:
            raise ValueError(f"input for unknown node {v}")
        if v in inputs:
            raise ValueError(f"node {v} has more than one input")
        if not _is_int(bit) or bit not in (0, 1):
            raise ValueError(f"input for node {v} must be 0 or 1")
        inputs[v] = bit
    missing = g.nodes - inputs.keys()
    if missing:
        raise ValueError(f"missing inputs for nodes {sorted(missing)}")
    adversary = doc.get("adversary", "honest")
    if not isinstance(adversary, str):
        raise ValueError("adversary must be a string")
    seed = doc.get("seed", 0)
    if not _is_int(seed):
        raise ValueError("seed must be an integer")
    return {
        "graph": g,
        "f": f,
        "faulty": faulty,
        "inputs": inputs,
        "adversary": adversary,
        "seed": seed,
    }


def parse_scenario(text: str) -> dict[str, Any]:
    return parse_scenario_dict(json.loads(text))


def scenario_to_json(
    g: DirectedHypergraph,
    f: int,
    faulty,
    inputs: dict[int, int],
    adversary: str = "honest",
    seed: int = 0,
) -> str:
    doc = {
        "graph": serialize_topology(g),
        "f": f,
        "faulty": sorted(faulty),
        "inputs": {str(v): inputs[v] for v in sorted(inputs)},
        "adversary": adversary,
        "seed": seed,
    }
    return canonical_json(doc)


# ---------------------------------------------------------------------------
# report rendering


def canonical_json(obj: Any) -> str:
    return json.dumps(to_jsonable(obj), sort_keys=True, indent=2) + "\n"


def to_jsonable(obj: Any) -> Any:
    """Deterministic conversion of report objects to plain JSON values."""
    if isinstance(obj, Violation):
        return violation_to_dict(obj)
    if isinstance(obj, SplitHypergraph):
        return split_to_dict(obj)
    if isinstance(obj, DirectedHypergraph):
        return graph_to_dict(obj)
    if is_dataclass(obj) and not isinstance(obj, type):
        return {fld.name: to_jsonable(getattr(obj, fld.name)) for fld in fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (frozenset, set)):
        return [to_jsonable(v) for v in sorted(obj)]
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    raise TypeError(f"cannot render {type(obj).__name__} to JSON")


def graph_to_dict(g: DirectedHypergraph) -> dict[str, Any]:
    return {
        "n": g.n,
        "nodes": sorted(g.nodes),
        "edges": [
            {"id": e.id, "head": e.head, "tails": e.sorted_tails()}
            for e in sorted(g.edges, key=lambda e: e.id)
        ],
    }


def split_to_dict(sh: SplitHypergraph) -> dict[str, Any]:
    return {
        "fault_set": sorted(sh.fault_set),
        "split_set": sorted(sh.spec.split_set),
        "assignment": {str(eid): copy for eid, copy in sh.spec.assignment},
        "fault_copies": [sh.node_label(v) for v in sorted(sh.f_prime)],
        "nodes": [sh.node_label(v) for v in sh.graph.node_order],
    }


def violation_to_dict(v: Violation) -> dict[str, Any]:
    label = v.split.node_label
    part = v.partition
    if isinstance(part, PartitionLCR):
        partition = {
            "left": [label(u) for u in sorted(part.left)],
            "center": [label(u) for u in sorted(part.center)],
            "right": [label(u) for u in sorted(part.right)],
        }
    elif isinstance(part, PartitionAB):
        partition = {
            "side_a": [label(u) for u in sorted(part.side_a)],
            "side_b": [label(u) for u in sorted(part.side_b)],
        }
    else:
        raise TypeError(f"unknown partition type {type(part).__name__}")
    return {
        "fault_set": sorted(v.fault_set),
        "split": split_to_dict(v.split),
        "partition": partition,
    }


def render_condition_report(report: ConditionReport) -> str:
    lines = [
        f"condition: {report.condition}",
        f"f: {report.f}",
        f"holds: {'yes' if report.holds else 'no'}",
        f"fault sets checked: {report.fault_sets_checked}",
        f"split graphs checked: {report.split_graphs_checked}",
        f"partitions checked: {report.partitions_checked}",
    ]
    if report.violation is not None:
        v = report.violation
        label = v.split.node_label
        lines.append(f"violating fault set: {sorted(v.fault_set)}")
        lines.append(f"split nodes: {sorted(v.split.spec.split_set)}")
        assignment = ", ".join(
            f"edge {eid} -> copy {copy}" for eid, copy in v.split.spec.assignment
        )
        lines.append(f"assignment: {assignment if assignment else '(none)'}")
        part = v.partition
        if isinstance(part, PartitionLCR):
            lines.append(f"left: {[label(u) for u in sorted(part.left)]}")
            lines.append(f"center: {[label(u) for u in sorted(part.center)]}")
            lines.append(f"right: {[label(u) for u in sorted(part.right)]}")
        else:
            lines.append(f"side A: {[label(u) for u in sorted(part.side_a)]}")
            lines.append(f"side B: {[label(u) for u in sorted(part.side_b)]}")
    return "\n".join(lines) + "\n"


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def render_run_result(result) -> str:
    """Human-readable rendering of a single simulator run (RunResult)."""
    lines = [
        f"f: {result.f}",
        f"faulty: {list(result.faulty)}",
        f"adversary: {result.adversary}",
        "inputs: " + " ".join(f"{v}={b}" for v, b in result.inputs),
        "outputs: " + " ".join(f"{v}={b}" for v, b in result.outputs),
        f"terminated: {_yn(result.terminated)}",
        f"agreement: {_yn(result.agreement)}",
        f"validity: {_yn(result.validity)}",
        f"phase validity: {_yn(result.phase_validity_ok)}",
        f"exact phase agreement: {_yn(result.exact_phase_agreement_ok)}",
        "phases:",
    ]
    for idx, ph in enumerate(result.phases):
        status = "inert" if ph.aborted else "active"
        agree = "-" if ph.agreement_reached is None else _yn(ph.agreement_reached)
        lines.append(
            f"  phase {idx} F={list(ph.fault_set)}: {status}"
            f" sources_ok={_yn(ph.state_sources_ok)} agreement={agree}"
            f" state={list(ph.state)}"
        )
    return "\n".join(lines) + "\n"


# failing runs a sweep report lists before it counts the rest
MAX_LISTED_FAILURES = 5


def render_sweep_report(report) -> str:
    """Human-readable rendering of an aggregated scenario sweep (SweepReport):
    the first ``MAX_LISTED_FAILURES`` failing runs, then a count of the rest."""
    lines = [
        f"f: {report.f}",
        f"runs: {report.runs}",
        f"all terminated: {_yn(report.all_terminated)}",
        f"all agreement: {_yn(report.all_agreement)}",
        f"all validity: {_yn(report.all_validity)}",
        f"all phase validity: {_yn(report.all_phase_validity)}",
        f"all exact phase agreement: {_yn(report.all_exact_phase_agreement)}",
        f"failures: {len(report.failures)}",
    ]
    for res in report.failures[:MAX_LISTED_FAILURES]:
        lines.append(
            f"  faulty={list(res.faulty)} adversary={res.adversary}"
            f" inputs={[b for _, b in res.inputs]}"
            f" terminated={_yn(res.terminated)} agreement={_yn(res.agreement)}"
            f" validity={_yn(res.validity)}"
        )
    if len(report.failures) > MAX_LISTED_FAILURES:
        lines.append(f"  ... {len(report.failures) - MAX_LISTED_FAILURES} more")
    return "\n".join(lines) + "\n"
