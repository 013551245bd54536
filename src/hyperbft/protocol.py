"""Deterministic synchronous simulator for the consensus algorithm.

The algorithm runs one phase per candidate fault set F (|F| <= f, cardinality
then lexicographic order).  Each phase:

(a) computes the unique source component S of G - F (phase is inert if the
    decomposition has several sources, which cannot happen on feasible
    graphs);
(b) floods the state of every node in S u N(F, S) for n rounds with path
    tracing;
(c) every node v in S builds its private split graph: each channel of a
    candidate-faulty node goes to copy 0 exactly when v traced a 0 back
    through that channel, and sorts traced states into sets Z_v / N_v;
(d) v checks whether Z_v propagates to N_v and adopts a value it received
    identically along f+1 node-disjoint paths from the propagating side;
(e) S floods the updated states;
(f) every remaining node adopts a value received identically along f+1
    node-disjoint paths from S in G - F.

Flooding is modeled exactly: a record is a simple trail (origin; e1...ek)
whose value is transformed at every hop by the transmitting node - honestly
for non-faulty nodes, by the adversary's rule for faulty ones.  A missing
record is read as 1 at every decision point.  The engine precomputes the
trail universe per graph and evaluates floods layer by layer with numpy, so
repeated runs (sweeps over inputs, fault sets, and adversaries) are cheap;
phase transitions are memoized on the full state vector.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .conditions import subsets_by_cardinality
from .hypergraph import DirectedHypergraph
from .paths import canonical_path, exists_disjoint_packing, max_disjoint_paths_bits

ABSENT = -1
WORKERS_ENV = "HYPERBFT_WORKERS"


# ---------------------------------------------------------------------------
# adversary library


class Adversary:
    """Behavior of a faulty node.

    A faulty node only ever transmits in its legitimate slots: when seeding a
    flood, or when forwarding a record that physically reached it
    (records never materialize out of thin air, and receivers validate trail
    structure and timing).  Within a slot the rule picks the emitted value;
    ``None`` means stay silent, which downstream readers see as a missing
    record.  ``follows_protocol`` marks rules that behave exactly like a
    correct node."""

    name = "adversary"
    follows_protocol = False

    def origin_value(self, node: int, gamma: int, edge_id: int) -> int | None:
        raise NotImplementedError

    def forward_value(self, node: int, edge_id: int, incoming: int) -> int | None:
        raise NotImplementedError

    @property
    def key(self) -> tuple:
        return (self.name,)


class HonestAdversary(Adversary):
    """No deviation at all: the node runs the protocol."""

    name = "honest"
    follows_protocol = True

    def origin_value(self, node, gamma, edge_id):
        return gamma

    def forward_value(self, node, edge_id, incoming):
        return incoming


class ConstantAdversary(Adversary):
    """Transmits the same bit in every slot, regardless of state."""

    def __init__(self, bit: int):
        self.bit = bit
        self.name = f"constant-{bit}"

    def origin_value(self, node, gamma, edge_id):
        return self.bit

    def forward_value(self, node, edge_id, incoming):
        return self.bit


class FlipForwardingAdversary(Adversary):
    """Originates its own state honestly but inverts every forwarded value."""

    name = "flip_forwarding"

    def origin_value(self, node, gamma, edge_id):
        return gamma

    def forward_value(self, node, edge_id, incoming):
        return 1 - incoming


class SilentAdversary(Adversary):
    """Never transmits; every record through it is missing downstream."""

    name = "silent"

    def origin_value(self, node, gamma, edge_id):
        return None

    def forward_value(self, node, edge_id, incoming):
        return None


class SplitPersonaAdversary(Adversary):
    """Maintains two honest personas with inputs 0 and 1 sharing a reception
    log.  Each channel the node heads is owned by one persona: the node
    originates that persona's input on it, and forwards received values
    unchanged (both personas hear the same physical receptions).

    With no explicit assignment, channels alternate personas in id order.
    An explicit mapping {edge_id: 0 or 1} pins channels to personas; missing
    channels default to persona 0."""

    def __init__(self, assignment: dict[int, int] | None = None):
        self.assignment = dict(assignment) if assignment else None
        self.name = "split_persona"

    def persona(self, node: int, edge_rank: int, edge_id: int) -> int:
        if self.assignment is not None:
            return self.assignment.get(edge_id, 0)
        return edge_rank % 2

    def origin_value(self, node, gamma, edge_id):
        raise NotImplementedError("engine resolves personas via persona()")

    def forward_value(self, node, edge_id, incoming):
        return incoming

    @property
    def key(self) -> tuple:
        if self.assignment is None:
            return (self.name, None)
        return (self.name, tuple(sorted(self.assignment.items())))


def make_adversary(name: str) -> Adversary:
    if name == "honest":
        return HonestAdversary()
    if name == "constant-0":
        return ConstantAdversary(0)
    if name == "constant-1":
        return ConstantAdversary(1)
    if name == "flip_forwarding":
        return FlipForwardingAdversary()
    if name == "silent":
        return SilentAdversary()
    if name == "split_persona":
        return SplitPersonaAdversary()
    raise ValueError(f"unknown adversary {name!r}")


ADVERSARY_NAMES = (
    "honest",
    "constant-0",
    "constant-1",
    "flip_forwarding",
    "silent",
    "split_persona",
)


# ---------------------------------------------------------------------------
# trail universe: every simple forwarding trail, indexed for vectorized floods


class TrailUniverse:
    """Every forwarding trail of a graph, in BFS layers.

    A trail is simple: no node transmits twice.  ``groups`` generalizes that
    check — nodes sharing a group id exclude each other along one trail (used
    when several carrier copies stand in for one underlying node and a
    receiver would reject the collapsed duplicate)."""

    def __init__(self, g: DirectedHypergraph, groups: dict[int, int] | None = None):
        n = g.n
        bit = g.bit_of if groups is None else {v: groups[v] for v in g.node_order}
        tails_of = {e.id: e.sorted_tails() for e in g.edges}
        origins: list[int] = []
        parents: list[int] = []
        edges: list[int] = []
        transmitters: list[int] = []
        tmask: list[int] = []
        first_edge: list[int] = []
        trail_of: list[tuple[int, ...]] = []
        index: dict[tuple[int, tuple[int, ...]], int] = {}
        layer_bounds: list[tuple[int, int]] = []

        for u in g.node_order:
            for e in g.head_edges(u):
                tid = len(origins)
                origins.append(u)
                parents.append(-1)
                edges.append(e.id)
                transmitters.append(u)
                tmask.append(1 << bit[u])
                first_edge.append(e.id)
                trail_of.append((e.id,))
                index[(u, (e.id,))] = tid
        layer_bounds.append((0, len(origins)))

        lo, hi = 0, len(origins)
        while lo < hi:
            for ptid in range(lo, hi):
                pmask = tmask[ptid]
                for w in tails_of[edges[ptid]]:
                    wb = 1 << bit[w]
                    if pmask & wb:
                        continue
                    for e2 in g.head_edges(w):
                        tid = len(origins)
                        origins.append(origins[ptid])
                        parents.append(ptid)
                        edges.append(e2.id)
                        transmitters.append(w)
                        tmask.append(pmask | wb)
                        first_edge.append(first_edge[ptid])
                        te = trail_of[ptid] + (e2.id,)
                        trail_of.append(te)
                        index[(origins[ptid], te)] = tid
            lo, hi = hi, len(origins)
            if lo < hi:
                layer_bounds.append((lo, hi))

        self.g = g
        self.size = len(origins)
        self.index = index
        self.layer_bounds = layer_bounds
        self.origin = np.array(origins, dtype=np.int32)
        self.parent = np.array(parents, dtype=np.int32)
        self.edge = np.array(edges, dtype=np.int32)
        self.transmitter = np.array(transmitters, dtype=np.int32)
        self.tmask = np.array(tmask, dtype=np.int64)
        self.first_edge = np.array(first_edge, dtype=np.int32)

        # per-node columns: the edge the node transmitted on within the trail
        max_eid = max((e.id for e in g.edges), default=-1)
        self.max_edge_id = max_eid
        self.edge_used: dict[int, np.ndarray] = {}
        for v in g.node_order:
            col = np.full(self.size, -1, dtype=np.int32)
            for tid in range(self.size):
                p = parents[tid]
                if transmitters[tid] == v:
                    col[tid] = edges[tid]
                elif p >= 0:
                    col[tid] = col[p]
            self.edge_used[v] = col

        receives: dict[int, list[int]] = {v: [] for v in g.node_order}
        for tid in range(self.size):
            for w in tails_of[edges[tid]]:
                receives[w].append(tid)
        self.receives = {v: np.array(ts, dtype=np.int32) for v, ts in receives.items()}

    def tid(self, origin: int, trail: tuple[int, ...]) -> int | None:
        return self.index.get((origin, trail))


def flood_records(
    tu: TrailUniverse,
    seeds,
    gamma,
    rules: dict[int, Adversary] | None = None,
) -> np.ndarray:
    """Evaluate one flood: the value of every trail record, layer by layer.

    ``gamma[v]`` is the state node v would honestly originate; only nodes in
    ``seeds`` originate anything.  ``rules`` overrides the behavior of faulty
    nodes.  Returns an int16 array indexed by trail id, ABSENT for records
    that never materialize.
    """
    g = tu.g
    rules = rules or {}
    vals = np.full(tu.size, ABSENT, dtype=np.int16)
    garr = np.array([gamma[v] for v in range(g.n)], dtype=np.int16)
    s0, e0 = tu.layer_bounds[0]
    orig = tu.origin[s0:e0]
    seed_arr = np.zeros(g.n, dtype=bool)
    for s in seeds:
        seed_arr[s] = True
    base = np.where(seed_arr[orig], garr[orig], ABSENT)
    for w, rule in rules.items():
        if rule.follows_protocol or not seed_arr[w]:
            continue
        sel = np.nonzero(orig == w)[0]
        if isinstance(rule, SplitPersonaAdversary):
            ranks = {e.id: i for i, e in enumerate(g.head_edges(w))}
            for i in sel:
                eid = int(tu.edge[s0 + i])
                base[i] = rule.persona(w, ranks[eid], eid)
        else:
            for i in sel:
                out = rule.origin_value(w, int(garr[w]), int(tu.edge[s0 + i]))
                base[i] = ABSENT if out is None else out
    vals[s0:e0] = base

    for s, e in tu.layer_bounds[1:]:
        pv = vals[tu.parent[s:e]]
        out = pv.copy()
        for w, rule in rules.items():
            if rule.follows_protocol:
                continue
            sel = tu.transmitter[s:e] == w
            if not sel.any():
                continue
            if isinstance(rule, ConstantAdversary):
                out[sel] = rule.bit
            elif isinstance(rule, FlipForwardingAdversary):
                out[sel] = 1 - out[sel]
            elif isinstance(rule, SilentAdversary):
                out[sel] = ABSENT
            elif isinstance(rule, SplitPersonaAdversary):
                pass  # forwards received values unchanged
            else:
                idx = np.nonzero(sel)[0]
                for i in idx:
                    inc = int(out[i])
                    if inc == ABSENT:
                        continue
                    o = rule.forward_value(w, int(tu.edge[s + i]), inc)
                    out[i] = ABSENT if o is None else o
        out = np.where(pv == ABSENT, ABSENT, out)
        vals[s:e] = out
    return vals


# ---------------------------------------------------------------------------
# per-phase static data


@dataclass
class PhaseData:
    fault_set: frozenset[int]
    source: frozenset[int] | None
    nfs: frozenset[int]
    seeds_b: frozenset[int]
    f_sorted: tuple[int, ...]
    f_edges: tuple[tuple[int, int], ...]        # (faulty head, edge id)
    cpath_f: dict[int, dict[tuple[int, int], int | None]]
    cpath_s: dict[int, dict[int, int | None]]
    split_m: int
    split_static: tuple[int, ...]
    split_fprime: int
    extra_bit: dict[int, int]
    lifted_tails: dict[int, int]
    cand_d: dict[int, np.ndarray]
    cand_f: dict[int, np.ndarray]
    updaters_f: tuple[int, ...]


def _build_phase(g: DirectedHypergraph, tu: TrailUniverse, fset: frozenset[int]) -> PhaseData:
    bit = g.bit_of
    reduced = g.remove_nodes(fset)
    sources = reduced.source_components
    source = frozenset(sources[0]) if len(sources) == 1 else None
    if source is None:
        return PhaseData(
            fset, None, frozenset(), frozenset(), tuple(sorted(fset)), (),
            {}, {}, 0, (), 0, {}, {}, {}, {}, (),
        )
    nfs = frozenset(g.in_neighborhood(fset, source))
    seeds_b = source | nfs
    f_sorted = tuple(sorted(fset))
    f_edges = tuple((u, e.id) for u in f_sorted for e in g.head_edges(u))

    cpath_f: dict[int, dict[tuple[int, int], int | None]] = {}
    cpath_s: dict[int, dict[int, int | None]] = {}
    for v in sorted(source):
        per_fe: dict[tuple[int, int], int | None] = {}
        for u, eid in f_edges:
            sub = g.induced_with_edges(source, (eid,))
            path = canonical_path(sub, u, v)
            per_fe[(u, eid)] = None if path is None else tu.tid(u, path)
        cpath_f[v] = per_fe
        per_s: dict[int, int | None] = {}
        for u in sorted(source):
            if u == v:
                continue
            path = canonical_path(reduced, u, v)
            per_s[u] = None if path is None else tu.tid(u, path)
        cpath_s[v] = per_s

    # split graph layout: base bits double as copy 0, one extra bit per F node
    n0 = len(g.node_order)
    extra_bit = {u: n0 + i for i, u in enumerate(f_sorted)}
    split_m = n0 + len(f_sorted)
    lifted_tails: dict[int, int] = {}
    for e in g.edges:
        t = g.mask_of(e.tails)
        for w in e.tails:
            if w in fset:
                t |= 1 << extra_bit[w]
        lifted_tails[e.id] = t
    static = [0] * split_m
    for e in g.edges:
        if e.head not in fset:
            static[bit[e.head]] |= lifted_tails[e.id]
    split_fprime = g.mask_of(fset) | sum(1 << extra_bit[u] for u in f_sorted)

    fmask = g.mask_of(fset)
    smask = g.mask_of(source)
    seeds_mask = g.mask_of(seeds_b)
    # step (d) candidates: trails ending at v whose origin could sit on the
    # adopting side's complement; the receiving node itself must not appear
    # mid-trail, or the underlying path would visit it twice.
    cand_d: dict[int, np.ndarray] = {}
    for v in sorted(source):
        tids = tu.receives[v]
        if len(tids) == 0:
            cand_d[v] = tids
            continue
        tm = tu.tmask[tids]
        ok = (tm & (1 << bit[v])) == 0
        origin_bits = np.left_shift(np.int64(1), tu.origin[tids].astype(np.int64))
        ok &= (origin_bits & seeds_mask) != 0
        cand_d[v] = tids[ok]
    updaters_f = tuple(v for v in g.node_order if v not in source and v not in fset)
    cand_f: dict[int, np.ndarray] = {}
    for v in updaters_f:
        tids = tu.receives[v]
        if len(tids) == 0:
            cand_f[v] = tids
            continue
        tm = tu.tmask[tids]
        ok = (tm & (fmask | (1 << bit[v]))) == 0
        origin_bits = np.left_shift(np.int64(1), tu.origin[tids].astype(np.int64))
        ok &= (origin_bits & smask) != 0
        cand_f[v] = tids[ok]
    return PhaseData(
        fset, source, nfs, seeds_b, f_sorted, f_edges, cpath_f, cpath_s,
        split_m, tuple(static), split_fprime, extra_bit, lifted_tails,
        cand_d, cand_f, updaters_f,
    )


# ---------------------------------------------------------------------------
# run results


@dataclass(frozen=True)
class PhaseOutcome:
    fault_set: tuple[int, ...]
    aborted: bool
    state_sources_ok: bool        # every new state existed at some non-faulty node
    agreement_reached: bool | None  # non-faulty states identical (checked when F == F*)
    state: tuple[int, ...]        # per-node record snapshot after the phase


@dataclass(frozen=True)
class RunResult:
    f: int
    faulty: tuple[int, ...]
    adversary: str
    inputs: tuple[tuple[int, int], ...]
    outputs: tuple[tuple[int, int], ...]
    terminated: bool
    agreement: bool
    validity: bool
    phase_validity_ok: bool
    exact_phase_agreement_ok: bool
    phases: tuple[PhaseOutcome, ...]


class Engine:
    """Shared per-graph simulator state; run() is memoized per phase."""

    def __init__(self, g: DirectedHypergraph, f: int):
        if g.nodes != frozenset(range(g.n)):
            raise ValueError("the simulator needs node ids 0..n-1")
        self.g = g
        self.f = f
        self.tu = TrailUniverse(g)
        self.phases = [
            _build_phase(g, self.tu, fset) for fset in subsets_by_cardinality(g.nodes, f)
        ]
        self._cache: dict[tuple, tuple[tuple[int, ...], bool, bool | None]] = {}

    # -- flooding ---------------------------------------------------------

    def _flood(
        self,
        seeds: frozenset[int],
        gamma: tuple[int, ...],
        rules: dict[int, Adversary],
    ) -> np.ndarray:
        return flood_records(self.tu, seeds, gamma, rules)

    # -- per-node protocol steps (reused by the indistinguishability harness)

    def node_step_cd(self, ph: PhaseData, v: int, own_gamma: int, vals_b: np.ndarray) -> int:
        """Steps (c)+(d) as executed by node v: build its private split of
        the candidate fault set from traced values, sort traced states into
        Z/N, test propagation, and adopt a value carried identically along
        f+1 node-disjoint paths from the propagating side.  Returns v's new
        state (== own_gamma when nothing is adopted)."""
        g = self.g
        tu = self.tu
        bit = g.bit_of
        nfs_sorted = sorted(ph.nfs)
        f_index = {u: i for i, u in enumerate(ph.f_sorted)}

        # step (c): per-channel copy assignment from traced values
        side_of_edge = np.full(tu.max_edge_id + 2, -1, dtype=np.int8)
        assignment: dict[int, int] = {}
        for u, eid in ph.f_edges:
            tid = ph.cpath_f[v][(u, eid)]
            side = 0 if (tid is not None and vals_b[tid] == 0) else 1
            assignment[eid] = side
            side_of_edge[eid] = side
        out_bits = list(ph.split_static)
        for u, eid in ph.f_edges:
            b = bit[u] if assignment[eid] == 0 else ph.extra_bit[u]
            out_bits[b] |= ph.lifted_tails[eid]

        zmask = 0
        for u in nfs_sorted:
            zmask |= 1 << bit[u]  # copy 0 of a helper node starts in Z
        nmask = sum(1 << ph.extra_bit[u] for u in nfs_sorted)
        for u in sorted(ph.source):
            if u == v:
                received0 = own_gamma == 0
            else:
                tid = ph.cpath_s[v][u]
                received0 = tid is not None and vals_b[tid] == 0
            if received0:
                zmask |= 1 << bit[u]
            else:
                nmask |= 1 << bit[u]

        # step (d): does Z propagate to N - F' once N's fault copies go?
        fprime = ph.split_fprime
        removed = nmask & fprime
        targets = nmask & ~fprime
        prop = True
        t = targets
        while t:
            low = t & -t
            t ^= low
            tb = low.bit_length() - 1
            if (
                max_disjoint_paths_bits(
                    out_bits, ph.split_m, zmask, tb, removed, 0, self.f + 1
                )
                < self.f + 1
            ):
                prop = False
                break
        if prop:
            amask, bmask = zmask, nmask
            need_side = 0
        else:
            amask, bmask = nmask, zmask
            need_side = 1

        if not bmask >> bit[v] & 1:
            return own_gamma
        # v is on the adopting side: look for f+1 disjoint paths from A
        a_node = np.zeros(g.n, dtype=bool)
        for u in sorted(ph.source):
            if amask >> bit[u] & 1:
                a_node[u] = True
        cand = ph.cand_d[v]
        if len(cand) == 0:
            return own_gamma
        eff = vals_b[cand].copy()
        eff[eff == ABSENT] = 1
        origins = tu.origin[cand]
        orig_in_s = a_node[origins]
        first_sides = side_of_edge[tu.first_edge[cand]]
        orig_is_helper = np.zeros(len(cand), dtype=bool)
        for u in nfs_sorted:
            orig_is_helper |= origins == u
        ok_origin = np.where(orig_is_helper, first_sides == need_side, orig_in_s)
        base_masks = (tu.tmask[cand] & ~g.mask_of(ph.fault_set)).astype(np.int64)
        extra = np.zeros(len(cand), dtype=np.int64)
        ok_sides = np.ones(len(cand), dtype=bool)
        for u in ph.f_sorted:
            col = tu.edge_used[u][cand]
            visited = col >= 0
            if not visited.any():
                continue
            sides = np.where(visited, side_of_edge[np.where(visited, col, 0)], 0)
            if u in ph.nfs:
                ok_sides &= ~visited | (sides == need_side)
            sbit = np.int64(1) << (g.n + 2 * f_index[u] + sides.astype(np.int64))
            extra |= np.where(visited, sbit, 0)
        masks_all = base_masks | extra
        for b in (0, 1):
            sel = (eff == b) & ok_origin & ok_sides
            if int(sel.sum()) < self.f + 1:
                continue
            masks = sorted(set(masks_all[sel].tolist()))
            if exists_disjoint_packing(masks, self.f + 1):
                return b
        return own_gamma

    def node_step_f(self, ph: PhaseData, v: int, own_gamma: int, vals_e: np.ndarray) -> int:
        """Step (f) as executed by node v outside the source component."""
        tu = self.tu
        cand = ph.cand_f[v]
        if len(cand) == 0:
            return own_gamma
        eff = vals_e[cand].copy()
        eff[eff == ABSENT] = 1
        masks_all = tu.tmask[cand]
        for b in (0, 1):
            sel = eff == b
            if int(sel.sum()) < self.f + 1:
                continue
            masks = sorted(set(masks_all[sel].tolist()))
            if exists_disjoint_packing(masks, self.f + 1):
                return b
        return own_gamma

    # -- one phase ----------------------------------------------------------

    def _eval_phase(
        self,
        ph: PhaseData,
        gamma: tuple[int, ...],
        rules: dict[int, Adversary],
    ) -> tuple[int, ...]:
        if ph.source is None:
            return gamma
        new_gamma = list(gamma)
        vals_b = self._flood(ph.seeds_b, gamma, rules)
        for v in sorted(ph.source):
            new_gamma[v] = self.node_step_cd(ph, v, gamma[v], vals_b)
        # step (e)+(f): S floods its updated state, the rest adopts
        vals_e = self._flood(ph.source, tuple(new_gamma), rules)
        for v in ph.updaters_f:
            new_gamma[v] = self.node_step_f(ph, v, gamma[v], vals_e)
        return tuple(new_gamma)

    # -- full runs ----------------------------------------------------------

    def run(
        self,
        faulty,
        inputs: dict[int, int],
        adversary: str | Adversary = "honest",
    ) -> RunResult:
        fstar = frozenset(faulty)
        if len(fstar) > self.f:
            raise ValueError(f"|faulty| = {len(fstar)} exceeds f = {self.f}")
        adv = make_adversary(adversary) if isinstance(adversary, str) else adversary
        rules = {w: adv for w in fstar}
        fkey = (tuple(sorted(fstar)), adv.key)
        gamma = tuple(inputs[v] for v in range(self.g.n))
        honest = [v for v in range(self.g.n) if v not in fstar]
        start_states = {gamma[v] for v in honest}

        phases: list[PhaseOutcome] = []
        validity_ok = True
        exact_ok = True
        for idx, ph in enumerate(self.phases):
            key = (fkey, idx, gamma)
            hit = self._cache.get(key)
            if hit is None:
                before = {gamma[v] for v in honest}
                new_gamma = self._eval_phase(ph, gamma, rules)
                sources_ok = all(new_gamma[v] in before for v in honest)
                if ph.fault_set == fstar and ph.source is not None:
                    agreement = len({new_gamma[v] for v in honest}) <= 1
                else:
                    agreement = None
                self._cache[key] = (new_gamma, sources_ok, agreement)
                hit = self._cache[key]
            new_gamma, sources_ok, agreement = hit
            phases.append(
                PhaseOutcome(
                    tuple(sorted(ph.fault_set)),
                    ph.source is None,
                    sources_ok,
                    agreement,
                    new_gamma,
                )
            )
            validity_ok &= sources_ok
            if agreement is not None:
                exact_ok &= agreement
            gamma = new_gamma

        outputs = {v: gamma[v] for v in honest}
        out_vals = set(outputs.values())
        fault_set_count = sum(math.comb(self.g.n, k) for k in range(min(self.f, self.g.n) + 1))
        result = RunResult(
            f=self.f,
            faulty=tuple(sorted(fstar)),
            adversary=adv.name,
            inputs=tuple(sorted(inputs.items())),
            outputs=tuple(sorted(outputs.items())),
            terminated=len(phases) == fault_set_count and out_vals <= {0, 1},
            agreement=len(out_vals) <= 1,
            validity=out_vals <= start_states,
            phase_validity_ok=validity_ok,
            exact_phase_agreement_ok=exact_ok,
            phases=tuple(phases),
        )
        return result


@lru_cache(maxsize=32)
def _engine(g: DirectedHypergraph, f: int) -> Engine:
    return Engine(g, f)


def get_engine(g: DirectedHypergraph, f: int) -> Engine:
    return _engine(g, f)


def run_scenario(
    g: DirectedHypergraph,
    f: int,
    faulty,
    inputs: dict[int, int],
    adversary: str | Adversary = "honest",
) -> RunResult:
    return get_engine(g, f).run(faulty, inputs, adversary)


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SweepReport:
    f: int
    runs: int
    all_terminated: bool
    all_agreement: bool
    all_validity: bool
    all_phase_validity: bool
    all_exact_phase_agreement: bool
    failures: tuple[RunResult, ...]


def _sweep_combos(
    g: DirectedHypergraph,
    f: int,
    faulty_sets=None,
    adversaries=None,
    input_choices=None,
):
    if faulty_sets is None:
        faulty_sets = list(subsets_by_cardinality(g.nodes, f))
    if adversaries is None:
        adversaries = list(ADVERSARY_NAMES)
    if input_choices is None:
        input_choices = [
            dict(zip(range(g.n), bits))
            for bits in itertools.product((0, 1), repeat=g.n)
        ]
    for fset in faulty_sets:
        names = ["honest"] if not fset else adversaries
        for adv in names:
            for inputs in input_choices:
                yield (tuple(sorted(fset)), adv, tuple(sorted(inputs.items())))


def _run_combo(args) -> RunResult:
    g, f, fset, adv, inputs = args
    return run_scenario(g, f, fset, dict(inputs), adv)


def sweep_scenarios(
    g: DirectedHypergraph,
    f: int,
    faulty_sets=None,
    adversaries=None,
    input_choices=None,
    workers: int | None = None,
) -> SweepReport:
    """Run the full cross product of fault sets, adversaries, and inputs.

    With an empty fault set every adversary acts identically, so that slice
    runs once under the honest rule.  Worker count comes from the argument or
    the HYPERBFT_WORKERS environment variable; results are assembled in the
    deterministic combo order either way.
    """
    combos = list(_sweep_combos(g, f, faulty_sets, adversaries, input_choices))
    if workers is None:
        workers = int(os.environ.get(WORKERS_ENV, "1") or "1")
    results: list[RunResult]
    if workers > 1 and len(combos) > 1:
        args = [(g, f, fset, adv, inputs) for fset, adv, inputs in combos]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_combo, args, chunksize=64))
    else:
        results = [run_scenario(g, f, fset, dict(inputs), adv) for fset, adv, inputs in combos]
    failures = tuple(
        r
        for r in results
        if not (
            r.terminated
            and r.agreement
            and r.validity
            and r.phase_validity_ok
            and r.exact_phase_agreement_ok
        )
    )
    return SweepReport(
        f=f,
        runs=len(results),
        all_terminated=all(r.terminated for r in results),
        all_agreement=all(r.agreement for r in results),
        all_validity=all(r.validity for r in results),
        all_phase_validity=all(r.phase_validity_ok for r in results),
        all_exact_phase_agreement=all(r.exact_phase_agreement_ok for r in results),
        failures=failures,
    )
