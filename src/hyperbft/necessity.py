"""Indistinguishability harness: why a violated condition dooms consensus.

Given a graph whose feasibility condition fails, the violation witness (a
fault set F, a split of it, and a partition (L, C, R) of the split graph with
neither side adjacent enough to the other) is turned into three executions on
the real network that no deterministic algorithm can survive:

* E1: the nodes that can still talk into L - F' are faulty, everyone honest
  starts with 0;
* E2: symmetric, the nodes talking into R - F' are faulty, honest inputs 1;
* E3: the original fault set F is faulty and plays both sides.

The three executions are built from a single fault-free *carrier* system: a
graph whose nodes are copies (personas) of the split graph's nodes, wired so
that every copy's receptions are exactly what it would see in each execution
it serves.  Because honest L-side nodes see identical bytes in E1 and E3,
they output as in E1 (all zeros, by validity); honest R-side nodes mirror E2
(all ones) - so E3 ends split and agreement is impossible.

Carrier copies run the real consensus algorithm for the base graph; the
carrier's channels keep the base channel ids, so a copy's reception log reads
exactly like a log of the node it impersonates.  A copy hears each base
channel from one copy at most, so every record it receives is a trail of the
base graph relayed by one chain of copies.  ``_run_carrier`` thus floods over
the engine's trail universe: a table names, per copy and base trail, the copy
that originated the record, and a flood is one gather of the seeded states.

A reception log holds one entry per record the node received with a value,
in each phase's two floods: ``"trace"`` (step (b), the traced flood from
S u N(F, S)) and ``"relay"`` (step (e), S's updated states).  An entry is
``[phase fault set, "trace"|"relay", origin, base channel trail, value]``:
the phase's sorted fault set, the base node that started the record, the
base channel ids it travelled, and the value it arrived with.  The log's
bytes are ``canonical_json`` of the sorted entries (JSON, indent 2, one
trailing newline); ``_run_carrier`` renders that text directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .conditions import Violation, check_lcr_hyper
from .hypergraph import DirectedHypergraph
from .protocol import ABSENT, get_engine
from .splitting import SplitHypergraph

EXECUTIONS = (1, 2, 3)
# Largest carrier trail count x phases (with a source) the harness renders;
# the reception logs grow with it.  The n=7, f=2 golden case is 92,568; a
# case of 534,122 (18,418 trails x 29 phases) peaked at about 800 MB.
MAX_CARRIER_RECORDS = 250_000


@dataclass(frozen=True)
class CopyInfo:
    id: int
    split_node: int          # node of the split graph this copy impersonates
    base_node: int           # underlying node of the real graph
    klass: str
    tag: int                 # copy index within its class entry
    serves: frozenset[int]   # executions in which this copy is an honest node
    input: int


@dataclass(frozen=True)
class Carrier:
    base: DirectedHypergraph
    f: int
    sh: SplitHypergraph
    graph: DirectedHypergraph            # the carrier system
    copies: tuple[CopyInfo, ...]
    persona: dict[tuple[int, int], int]  # (execution, split node) -> copy id
    base_edge: dict[int, int]            # carrier edge id -> base edge id
    left: frozenset[int]                 # partition sides, split-graph nodes
    center: frozenset[int]
    right: frozenset[int]
    faulty: dict[int, frozenset[int]]    # execution -> faulty base nodes


@dataclass(frozen=True)
class ExecutionView:
    execution: int
    faulty: tuple[int, ...]
    inputs: tuple[tuple[int, int], ...]   # honest base node -> input
    outputs: tuple[tuple[int, int], ...]  # honest base node -> final state
    logs: dict[int, bytes]                # honest base node -> reception log


@dataclass(frozen=True)
class NecessityReport:
    f: int
    fault_set: tuple[int, ...]
    left_nodes: tuple[int, ...]           # honest nodes tracked on the L side
    right_nodes: tuple[int, ...]
    executions: tuple[ExecutionView, ExecutionView, ExecutionView]
    views_match_left: bool                # E1 == E3 reception logs on L - F'
    views_match_right: bool               # E2 == E3 reception logs on R - F'
    left_outputs_zero: bool
    right_outputs_one: bool
    split_outputs: bool

    @property
    def ok(self) -> bool:
        return (
            self.views_match_left
            and self.views_match_right
            and self.split_outputs
        )


# ---------------------------------------------------------------------------
# carrier construction

# class -> (copy count, persona copy per execution, input per copy)
_CLASS_SPECS: dict[str, tuple[int, tuple[int, int, int], tuple[int, ...]]] = {
    "left-faulty": (2, (0, 1, 0), (0, 1)),
    "left-honest": (2, (0, 1, 0), (0, 1)),
    "right-faulty": (2, (0, 1, 1), (0, 1)),
    "right-honest": (2, (0, 1, 1), (0, 1)),
    "left-faulty-bridge": (1, (0, 0, 0), (0,)),
    "left-bridge": (1, (0, 0, 0), (0,)),
    "right-faulty-bridge": (1, (0, 0, 0), (1,)),
    "right-bridge": (1, (0, 0, 0), (1,)),
    "center-left": (2, (0, 1, 0), (0, 1)),
    "center-right": (2, (0, 1, 1), (0, 1)),
    "center-both": (1, (0, 0, 0), (1,)),
    "center-rest": (3, (0, 1, 2), (0, 1, 1)),
}


def _copy_serves(klass: str, tag: int, honest_in: frozenset[int]) -> frozenset[int]:
    """Executions a copy participates in honestly: those whose persona it is
    and in which its node is not faulty."""
    _, personas, _ = _CLASS_SPECS[klass]
    return frozenset(i for i in EXECUTIONS if personas[i - 1] == tag) & honest_in


def build_carrier(g: DirectedHypergraph, f: int, violation: Violation) -> Carrier:
    sh = violation.split
    if sh.base != g:
        raise ValueError("violation witness belongs to a different graph")
    gp = sh.graph
    fprime = sh.f_prime
    part = violation.partition
    left = frozenset(part.left)
    center = frozenset(part.center)
    right = frozenset(part.right)
    # pull faulty center nodes onto the left side: the sets whose adjacency
    # the violation bounds are unchanged, and it leaves the center fully
    # honest in every execution
    left = left | (center & fprime)
    center = center - fprime

    def heads_into(a: frozenset[int], b: frozenset[int]) -> frozenset[int]:
        return frozenset(gp.in_neighborhood(a, b))

    l_open = left - fprime
    r_open = right - fprime
    nlf = heads_into(left & fprime, r_open)
    nl = heads_into(left - fprime, r_open)
    nrf = heads_into(right & fprime, l_open)
    nr = heads_into(right - fprime, l_open)
    c_to_l = heads_into(center, l_open)
    c_to_r = heads_into(center, r_open)
    ncl = c_to_l - c_to_r
    ncr = c_to_r - c_to_l
    nclr = c_to_l & c_to_r

    classes = {
        "left-faulty": (left & fprime) - nlf,
        "left-honest": (left - fprime) - nl,
        "right-faulty": (right & fprime) - nrf,
        "right-honest": (right - fprime) - nr,
        "left-faulty-bridge": nlf,
        "left-bridge": nl,
        "right-faulty-bridge": nrf,
        "right-bridge": nr,
        "center-left": ncl,
        "center-right": ncr,
        "center-both": nclr,
        "center-rest": center - ncl - ncr - nclr,
    }
    phi_l = nrf | nr | ncl | nclr   # faulty in E1: whoever talks into L - F'
    phi_r = nlf | nl | ncr | nclr   # faulty in E2
    omap = sh.origin_map
    faulty = {
        1: frozenset(omap[v] for v in phi_l),
        2: frozenset(omap[v] for v in phi_r),
        3: frozenset(omap[v] for v in fprime),
    }
    for i in EXECUTIONS:
        if len(faulty[i]) > f:
            raise AssertionError(
                f"execution {i} needs {len(faulty[i])} faulty nodes, more than f={f}"
            )

    copies: list[CopyInfo] = []
    persona: dict[tuple[int, int], int] = {}
    serves_of: dict[int, frozenset[int]] = {}
    for klass in _CLASS_SPECS:
        count, personas, inputs = _CLASS_SPECS[klass]
        members = sorted(classes[klass])
        for v in members:
            honest_in = frozenset(i for i in EXECUTIONS if omap[v] not in faulty[i])
            for tag in range(count):
                cid = len(copies)
                copies.append(
                    CopyInfo(
                        cid, v, omap[v], klass, tag,
                        _copy_serves(klass, tag, honest_in), inputs[tag],
                    )
                )
                serves_of[cid] = copies[-1].serves
            for i in EXECUTIONS:
                persona[(i, v)] = copies[-count + personas[i - 1]].id

    # sanity: an honest node of execution i has exactly one copy serving i,
    # namely its persona, and that copy's input matches the execution
    by_serving: dict[tuple[int, int], list[CopyInfo]] = {}
    for c in copies:
        for i in c.serves:
            by_serving.setdefault((i, c.split_node), []).append(c)
    for v in gp.node_order:
        for i in EXECUTIONS:
            if omap[v] in faulty[i]:
                continue
            owners = by_serving.get((i, v), [])
            if len(owners) != 1 or owners[0].id != persona[(i, v)]:
                raise AssertionError(f"execution {i} has no unique persona for node {v}")

    # wiring: a copy hears a channel from the persona of the channel's head
    # in the executions the copy serves; the choice must be identical across
    # all of them.  A copy serving no execution exists only as an emission
    # source for faulty mimicry; wire it like execution 1 so it stays
    # deterministic.
    feeds: dict[tuple[int, int], int] = {}   # (copy id, split edge id) -> head copy
    for e in gp.edges:
        for c in copies:
            if c.split_node not in e.tails:
                continue
            choices = {persona[(i, e.head)] for i in (c.serves or {1})}
            if len(choices) != 1:
                raise AssertionError(
                    f"copy {c.id} of node {c.split_node} would hear channel "
                    f"{e.id} from different personas across its executions"
                )
            feeds[(c.id, e.id)] = choices.pop()

    carrier_edges: list[tuple[int, int, tuple[int, ...]]] = []
    base_edge: dict[int, int] = {}
    for e in gp.edges:
        head_copies = sorted({persona[(i, e.head)] for i in EXECUTIONS})
        for hc in head_copies:
            tails = tuple(
                sorted(
                    c.id
                    for c in copies
                    if c.split_node in e.tails and feeds[(c.id, e.id)] == hc
                )
            )
            if not tails:
                continue
            new_id = len(carrier_edges)
            carrier_edges.append((new_id, hc, tails))
            base_edge[new_id] = e.id
    graph = DirectedHypergraph.from_edge_list(
        len(copies), [(eid, h, t) for eid, h, t in carrier_edges]
    )
    return Carrier(
        g, f, sh, graph, tuple(copies), persona, base_edge,
        left, center, right, faulty,
    )


# ---------------------------------------------------------------------------
# carrier execution: every copy runs the base-graph protocol honestly


def _int_list(xs) -> str:
    """A list of ints as ``canonical_json`` renders it inside a log entry."""
    if not xs:
        return "[]"
    return "[\n" + ",\n".join(f"      {x}" for x in xs) + "\n    ]"


def _run_carrier(carrier: Carrier):
    engine = get_engine(carrier.base, carrier.f)
    tu = engine.tu
    phases = [ph for ph in engine.phases if ph.source is not None]
    # A carrier trail is its last carrier channel plus a base trail ending on
    # that channel's base channel, relayed back by one chain of copies.
    copies = carrier.copies
    base_edge = carrier.base_edge
    per_channel = np.bincount(
        np.fromiter(base_edge.values(), dtype=np.int64, count=len(base_edge)),
        minlength=tu.max_edge_id + 1,
    )
    trails = int(per_channel[tu.edge].sum())
    if trails * len(phases) > MAX_CARRIER_RECORDS:
        raise ValueError(
            f"the carrier has {trails} trails over {len(phases)} phases; the harness "
            f"renders at most {MAX_CARRIER_RECORDS} carrier trails x phases"
        )

    # feed[c, e]: the copy whose transmission on base channel e copy c hears,
    # -1 for none; the last row is a sentinel of -1s, which index -1 reads.
    feed = np.full((len(copies) + 1, tu.max_edge_id + 1), -1, dtype=np.int32)
    for ce in carrier.graph.edges:
        feed[list(ce.tails), base_edge[ce.id]] = ce.head
    # origin[c, t]: the copy that originated the carrier record of base trail
    # t that copy c receives, -1 for none: c's feed on the trail's last
    # channel received the trail's parent from origin[feed, parent].
    origin = np.empty((len(copies) + 1, tu.size), dtype=np.int32)
    for lo, hi in tu.layers:
        heard = feed[:, tu.edge[lo:hi]]
        origin[:, lo:hi] = origin[heard, tu.parent[lo:hi]] if lo else heard

    def flood(seeds: frozenset[int], states: list[int]) -> np.ndarray:
        """Row c: every base trail's value as copy c receives it, ABSENT
        where it receives none; the carrier is honest, so a record carries
        its origin copy's state when that copy is seeded."""
        seeded = [x if c.base_node in seeds else ABSENT for c, x in zip(copies, states)]
        return np.array(seeded + [ABSENT], dtype=np.int16)[origin]

    # Reception logs, kept only for copies that serve an execution.  An
    # entry's origin and trail are those of its base trail, so each base
    # trail's text and sort key are computed once, and each copy's trails
    # are put in (origin, trail) order once.
    serving = [c.id for c in copies if c.serves]
    origin_g = tu.origin.tolist()
    used = np.array(sorted(
        np.flatnonzero((origin[serving] >= 0).any(axis=0)).tolist(),
        key=lambda b: (origin_g[b], tu.trail_of[b]),
    ), dtype=np.int64)
    record_text = {
        b: f"{origin_g[b]},\n    {_int_list(tu.trail_of[b])},\n    " for b in used.tolist()
    }
    log_order: dict[int, tuple[np.ndarray, list[str]]] = {}
    for cid in serving:
        tids = used[origin[cid, used] >= 0]
        log_order[cid] = (tids, [record_text[b] for b in tids.tolist()])
    # per copy: (phase fault set, flood tag, rendered entries of that flood)
    chunks: dict[int, list[tuple[tuple[int, ...], str, str]]] = {cid: [] for cid in serving}

    def record_log(phase_tag: tuple[int, ...], flood_tag: str, vals: np.ndarray) -> None:
        head = f'  [\n    {_int_list(phase_tag)},\n    "{flood_tag}",\n    '
        sep = "\n  ],\n" + head
        for cid in serving:
            tids, texts = log_order[cid]
            v = vals[cid, tids]
            kept = np.flatnonzero(v != ABSENT).tolist()
            if kept:
                body = sep.join([texts[i] + str(x) for i, x in zip(kept, v[kept].tolist())])
                chunks[cid].append((phase_tag, flood_tag, head + body + "\n  ]"))

    gamma = [c.input for c in copies]
    for ph in phases:
        phase_tag = tuple(sorted(ph.fault_set))
        vals_b = flood(ph.seeds_b, gamma)
        record_log(phase_tag, "trace", vals_b)
        new_gamma = list(gamma)
        for c in copies:
            if c.base_node in ph.source:
                new_gamma[c.id] = engine.node_step_cd(ph, c.base_node, gamma[c.id], vals_b[c.id])
        vals_e = flood(ph.source, new_gamma)
        record_log(phase_tag, "relay", vals_e)
        for c in copies:
            if c.base_node not in ph.source and c.base_node not in ph.fault_set:
                new_gamma[c.id] = engine.node_step_f(ph, c.base_node, gamma[c.id], vals_e[c.id])
        gamma = new_gamma

    log_bytes = {}
    for cid, parts in chunks.items():
        parts.sort(key=lambda p: p[:2])
        text = ",\n".join(p[2] for p in parts)
        log_bytes[cid] = (f"[\n{text}\n]\n" if parts else "[]\n").encode()
    return gamma, log_bytes


# ---------------------------------------------------------------------------
# the three executions


def build_necessity_executions(
    g: DirectedHypergraph,
    f: int,
    violation: Violation | None = None,
) -> NecessityReport:
    """Construct executions E1/E2/E3 witnessing that no deterministic
    algorithm reaches consensus on a condition-violating graph.

    The violation witness is computed when not supplied; passing one makes
    the construction reproducible for a chosen witness.
    """
    if violation is None:
        report = check_lcr_hyper(g, f)
        if report.holds:
            raise ValueError("graph satisfies the condition; nothing to refute")
        violation = report.violation
    carrier = build_carrier(g, f, violation)
    gamma, log_bytes = _run_carrier(carrier)

    omap = carrier.sh.origin_map
    fprime = carrier.sh.f_prime
    copy_pairs = carrier.sh.copy_pairs

    def rep_split_node(v: int) -> int:
        # A real honest node that was split has two behaviorally identical
        # clone chains (same feeds, same input); read the lower copy's chain.
        return v if v in carrier.sh.graph.nodes else copy_pairs[v][0]

    views: list[ExecutionView] = []
    for i in EXECUTIONS:
        faulty = carrier.faulty[i]
        honest = sorted(v for v in g.nodes if v not in faulty)
        inputs = {}
        outputs = {}
        elogs: dict[int, bytes] = {}
        for v in honest:
            cid = carrier.persona[(i, rep_split_node(v))]
            inputs[v] = carrier.copies[cid].input
            outputs[v] = gamma[cid]
            elogs[v] = log_bytes[cid]
        views.append(
            ExecutionView(
                i,
                tuple(sorted(faulty)),
                tuple(sorted(inputs.items())),
                tuple(sorted(outputs.items())),
                elogs,
            )
        )
    e1, e2, e3 = views

    left_nodes = tuple(sorted(omap[v] for v in carrier.left - fprime))
    right_nodes = tuple(sorted(omap[v] for v in carrier.right - fprime))
    e1_logs = e1.logs
    e2_logs = e2.logs
    e3_logs = e3.logs
    views_left = all(e1_logs[v] == e3_logs[v] for v in left_nodes)
    views_right = all(e2_logs[v] == e3_logs[v] for v in right_nodes)
    out3 = dict(e3.outputs)
    left_zero = all(out3[v] == 0 for v in left_nodes)
    right_one = all(out3[v] == 1 for v in right_nodes)
    return NecessityReport(
        f=f,
        fault_set=tuple(sorted(violation.fault_set)),
        left_nodes=left_nodes,
        right_nodes=right_nodes,
        executions=(e1, e2, e3),
        views_match_left=views_left,
        views_match_right=views_right,
        left_outputs_zero=left_zero,
        right_outputs_one=right_one,
        split_outputs=left_zero and right_one,
    )
