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
trail universe per graph; since an adversary's forward rule is a fixed map
on {0, 1}, a flood is evaluated in closed form with a few numpy operations
over the universe (each trail's origin emission, mapped once per faulty
forwarder), so repeated runs (sweeps over inputs, fault sets, and
adversaries) are cheap.  Phase transitions are memoized on the full state
vector, and step (d)'s propagation test on the split and the Z/N sorting.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .conditions import _MASK_BITS, subsets_by_cardinality
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
    structure and timing).  A strategy fixes the value sent in each slot, in
    two parts:

    * ``forward``: the values forwarded on receiving 0 and on receiving 1,
      each 0, 1 or ``None`` (stay silent, which downstream readers see as a
      missing record).  The same map applies at every hop through a faulty
      node, so a record's value is the origin's emission with the map applied
      once per faulty forwarder on its trail.
    * ``emit(node, gamma, ranks, edge_ids)``: the values ``node`` originates
      on its channels, given the state ``gamma`` it would honestly send, each
      channel's rank among the node's channels in id order, and the channel
      ids.  Returns one entry per channel, ABSENT for silence.

    The defaults forward and originate honestly.  ``follows_protocol`` marks
    rules that behave exactly like a correct node."""

    name = "adversary"
    follows_protocol = False
    forward: tuple[int | None, int | None] = (0, 1)

    def emit(self, node: int, gamma: int, ranks: np.ndarray, edge_ids: np.ndarray) -> np.ndarray:
        return np.full(len(ranks), gamma, dtype=np.int16)

    @property
    def key(self) -> tuple:
        return (self.name,)


class HonestAdversary(Adversary):
    """No deviation at all: the node runs the protocol."""

    name = "honest"
    follows_protocol = True


class ConstantAdversary(Adversary):
    """Transmits the same bit in every slot, regardless of state."""

    def __init__(self, bit: int):
        self.bit = bit
        self.name = f"constant-{bit}"
        self.forward = (bit, bit)

    def emit(self, node, gamma, ranks, edge_ids):
        return np.full(len(ranks), self.bit, dtype=np.int16)


class FlipForwardingAdversary(Adversary):
    """Originates its own state honestly but inverts every forwarded value."""

    name = "flip_forwarding"
    forward = (1, 0)


class SilentAdversary(Adversary):
    """Never transmits; every record through it is missing downstream."""

    name = "silent"
    forward = (None, None)

    def emit(self, node, gamma, ranks, edge_ids):
        return np.full(len(ranks), ABSENT, dtype=np.int16)


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

    def emit(self, node, gamma, ranks, edge_ids):
        if self.assignment is None:
            return (ranks % 2).astype(np.int16)
        return np.array([self.assignment.get(e, 0) for e in edge_ids.tolist()], dtype=np.int16)

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
    """Every forwarding trail of a graph, in BFS order (a trail's parent,
    the trail one channel shorter, comes first).

    A trail is simple: no node transmits twice.  ``groups`` generalizes that
    check — nodes sharing a group id exclude each other along one trail (used
    when several carrier copies stand in for one underlying node and a
    receiver would reject the collapsed duplicate).  ``tmask`` holds each
    trail's transmitters as node bits, or as group bits with ``groups``."""

    def __init__(self, g: DirectedHypergraph, groups: dict[int, int] | None = None):
        bit = g.bit_of if groups is None else {v: groups[v] for v in g.node_order}
        tails_of = {e.id: e.sorted_tails() for e in g.edges}
        origins: list[int] = []
        parents: list[int] = []
        edges: list[int] = []
        tmask: list[int] = []
        first_edge: list[int] = []
        trail_of: list[tuple[int, ...]] = []
        index: dict[tuple[int, tuple[int, ...]], int] = {}

        for u in g.node_order:
            for e in g.head_edges(u):
                tid = len(origins)
                origins.append(u)
                parents.append(-1)
                edges.append(e.id)
                tmask.append(1 << bit[u])
                first_edge.append(e.id)
                trail_of.append((e.id,))
                index[(u, (e.id,))] = tid

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
                        tmask.append(pmask | wb)
                        first_edge.append(first_edge[ptid])
                        te = trail_of[ptid] + (e2.id,)
                        trail_of.append(te)
                        index[(origins[ptid], te)] = tid
            lo, hi = hi, len(origins)

        self.g = g
        self.grouped = groups is not None
        self.size = len(origins)
        self.index = index
        self.trail_of = trail_of        # trail id -> its channel ids, in order
        self.origin = np.array(origins, dtype=np.int32)
        self.parent = np.array(parents, dtype=np.int32)
        self.edge = np.array(edges, dtype=np.int32)
        self.tmask = np.array(tmask, dtype=np.int64)
        self.first_edge = np.array(first_edge, dtype=np.int32)
        self.max_edge_id = max((e.id for e in g.edges), default=-1)
        # channel id -> its head (unused ids point at node 0 and are never read)
        self.edge_head = np.zeros(self.max_edge_id + 1, dtype=np.int32)
        for e in g.edges:
            self.edge_head[e.id] = e.head

        receives: dict[int, list[int]] = {v: [] for v in g.node_order}
        for tid in range(self.size):
            for w in tails_of[edges[tid]]:
                receives[w].append(tid)
        self.receives = {v: np.array(ts, dtype=np.int32) for v, ts in receives.items()}

    def tid(self, origin: int, trail: tuple[int, ...]) -> int | None:
        return self.index.get((origin, trail))

    def edge_used(self) -> dict[int, np.ndarray]:
        """Per node, the channel it transmitted on within each trail (-1 if
        it did not transmit)."""
        parents = self.parent.tolist()
        edges = self.edge.tolist()
        heads = self.edge_head.tolist()
        cols = {}
        for v in self.g.node_order:
            col = [-1] * self.size
            for tid, (p, eid) in enumerate(zip(parents, edges)):
                if heads[eid] == v:
                    col[tid] = eid
                elif p >= 0:
                    col[tid] = col[p]
            cols[v] = np.array(col, dtype=np.int32)
        return cols


def flood_records(
    tu: TrailUniverse,
    seeds,
    gamma,
    faulty=(),
    adversary: Adversary | None = None,
) -> np.ndarray:
    """Evaluate one flood: the value of every trail record.

    ``gamma[v]`` is the state node v would honestly originate; only nodes in
    ``seeds`` originate anything.  The nodes in ``faulty`` all follow the one
    ``adversary`` (none: everybody is honest).  Returns an int16 array indexed
    by trail id, ABSENT for records that never materialize.

    In closed form: every channel's emission is looked up by each trail's
    first channel, then the adversary's forward map is applied k times, k
    being the number of faulty forwarders on the trail (told by ``tmask``, so
    an adversary needs an ungrouped universe).
    """
    g = tu.g
    garr = np.array([gamma[v] for v in range(g.n)], dtype=np.int16)
    seeded = np.zeros(g.n, dtype=bool)
    seeded[list(seeds)] = True
    heads = tu.edge_head
    emission = np.where(seeded[heads], garr[heads], np.int16(ABSENT))
    if adversary is None or adversary.follows_protocol or not faulty:
        return emission.take(tu.first_edge)
    if tu.grouped:
        raise ValueError("an adversary needs a trail universe without groups")
    bit = g.bit_of
    for w in faulty:
        if seeded[w]:
            eids = np.array([e.id for e in g.head_edges(w)], dtype=np.int32)
            emission[eids] = adversary.emit(w, int(garr[w]), np.arange(len(eids)), eids)
    # table[c, e]: the value of a record whose first channel is e and whose
    # trail has c faulty transmitters, a faulty origin (the head of e) included
    step = np.array(
        [ABSENT] + [ABSENT if x is None else x for x in adversary.forward], dtype=np.int16
    )
    powers = [emission]
    for _ in faulty:
        powers.append(step[powers[-1] + 1])
    is_faulty = np.zeros(g.n, dtype=bool)
    is_faulty[list(faulty)] = True
    origin_faulty = is_faulty[heads]
    table = [emission] + [
        np.where(origin_faulty, powers[c - 1], powers[c]) for c in range(1, len(powers))
    ]
    count = sum((tu.tmask >> bit[w]) & 1 for w in faulty)
    return np.concatenate(table).take(count * len(emission) + tu.first_edge)


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
    """Shared per-graph simulator state.

    ``_cache`` memoizes run() per phase and step (d)'s propagation test per
    (phase, split, Z, N); clearing it empties both."""

    def __init__(self, g: DirectedHypergraph, f: int):
        if g.nodes != frozenset(range(g.n)):
            raise ValueError("the simulator needs node ids 0..n-1")
        if g.n + 2 * f > _MASK_BITS:
            raise ValueError(
                f"n + 2f = {g.n + 2 * f}; the simulator's int64 trail masks hold "
                f"at most {_MASK_BITS} node and fault-copy bits"
            )
        self.g = g
        self.f = f
        self.tu = TrailUniverse(g)
        self.edge_used = self.tu.edge_used()
        self.phases = [
            _build_phase(g, self.tu, fset) for fset in subsets_by_cardinality(g.nodes, f)
        ]
        self._cache: dict[tuple, object] = {}

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
        sides = 0
        for i, (u, eid) in enumerate(ph.f_edges):
            tid = ph.cpath_f[v][(u, eid)]
            side = 0 if (tid is not None and vals_b[tid] == 0) else 1
            side_of_edge[eid] = side
            sides |= side << i

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
        key = ("propagates", ph.fault_set, sides, zmask, nmask)
        prop = self._cache.get(key)
        if prop is None:
            prop = self._propagates(ph, sides, zmask, nmask)
            self._cache[key] = prop
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
            col = self.edge_used[u][cand]
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

    def _propagates(self, ph: PhaseData, sides: int, zmask: int, nmask: int) -> bool:
        """Whether Z reaches every node of N - F' along f+1 node-disjoint
        paths in the split graph whose fault channels go to copy 0 or copy 1
        by the bits of ``sides`` (one per entry of ``ph.f_edges``), with N's
        fault copies removed."""
        bit = self.g.bit_of
        out_bits = list(ph.split_static)
        for i, (u, eid) in enumerate(ph.f_edges):
            b = ph.extra_bit[u] if sides >> i & 1 else bit[u]
            out_bits[b] |= ph.lifted_tails[eid]
        fprime = ph.split_fprime
        removed = nmask & fprime
        t = nmask & ~fprime
        while t:
            low = t & -t
            t ^= low
            paths = max_disjoint_paths_bits(
                out_bits, ph.split_m, zmask, low.bit_length() - 1, removed, 0, self.f + 1
            )
            if paths < self.f + 1:
                return False
        return True

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
        faulty: frozenset[int],
        adversary: Adversary,
    ) -> tuple[int, ...]:
        if ph.source is None:
            return gamma
        new_gamma = list(gamma)
        vals_b = flood_records(self.tu, ph.seeds_b, gamma, faulty, adversary)
        for v in sorted(ph.source):
            new_gamma[v] = self.node_step_cd(ph, v, gamma[v], vals_b)
        # step (e)+(f): S floods its updated state, the rest adopts
        vals_e = flood_records(self.tu, ph.source, tuple(new_gamma), faulty, adversary)
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
        fkey = (tuple(sorted(fstar)), adv.key)
        gamma = tuple(inputs[v] for v in range(self.g.n))
        if fstar and not adv.follows_protocol and not set(gamma) <= {0, 1}:
            # an adversary's forward map is defined on bits only
            raise ValueError("inputs must be bits when faulty nodes deviate")
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
                new_gamma = self._eval_phase(ph, gamma, fstar, adv)
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
