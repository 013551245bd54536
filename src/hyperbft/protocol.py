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

Only step (f) reads the flood of step (e), so a phase with no node outside
S and F skips that flood: nobody would receive it.

Flooding is modeled exactly: a record is a simple trail (origin; e1...ek)
whose value is transformed at every hop by the transmitting node - honestly
for non-faulty nodes, by the adversary's rule for faulty ones.  A missing
record is read as 1 at every decision point.  The engine precomputes the
trail universe per graph, which fixes one dense numbering: node v is bit v
(the simulator needs node ids 0..n-1), and channel i is the i-th channel by
id, so every per-channel table is sized by the channel count, whatever the
ids.  Channel ids appear only where a reader sees them: reception logs,
adversary emissions and split-layout slots.  Trail ids run by length,
then by (origin, e1, w1, e2, w2, ...), w_i being the tail of e_i that
transmits e_{i+1}: the tie order of canonical paths, so step (c)'s
canonical trails are the least trail ids a node receives through S.
Since an adversary's forward rule is a fixed map on {0, 1},
``flood_records`` evaluates a flood in closed form (each trail's origin
emission, mapped once per faulty forwarder).  A record's value thus
depends only on its origin's state: an honest flood takes each origin's
state along its trails.  With deviating nodes the engine keeps one table
per (fault set, adversary), whatever the seed set: each trail's value for
an origin seeded with 0, seeded with 1 or unseeded, packed in one byte and
built from two closed-form floods with every node seeded, on all-0 and
all-1 states.  Each flood is then one ``take`` over the trails' origins
and two shifts.
Repeated runs (sweeps over inputs, fault sets, and adversaries) are thus
cheap.  Phase transitions are memoized on the full state vector, and step
(d)'s propagation test on the split and the Z/N sorting.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .conditions import require_fault_bound, subsets_by_cardinality
from .hypergraph import DirectedHypergraph
from .paths import packs_sorted, propagates_bits
from .splitting import _MASK_BITS, SplitLayout, split_layout

ABSENT = -1
WORKERS_ENV = "HYPERBFT_WORKERS"
# A trail universe holds every simple trail, and their number grows like n!
# (complete_p2p(8) has 767,200, complete_p2p(9) 7,891,272); a graph with
# more is refused with a ValueError before any trail is built.
MAX_TRAILS = 1_000_000


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
      ids.  Returns one entry per channel: 0, 1, or ABSENT for silence.

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


_ADVERSARIES = {
    "honest": HonestAdversary,
    "constant-0": lambda: ConstantAdversary(0),
    "constant-1": lambda: ConstantAdversary(1),
    "flip_forwarding": FlipForwardingAdversary,
    "silent": SilentAdversary,
    "split_persona": SplitPersonaAdversary,
}

ADVERSARY_NAMES = tuple(_ADVERSARIES)


def make_adversary(name: str) -> Adversary:
    factory = _ADVERSARIES.get(name)
    if factory is None:
        raise ValueError(f"unknown adversary {name!r}")
    return factory()


# ---------------------------------------------------------------------------
# trail universe: every simple forwarding trail, indexed for vectorized floods


class TrailUniverse:
    """Every forwarding trail of a graph, in BFS order (a trail's parent,
    the trail one channel shorter, comes first).

    The universe owns the simulator's numbering.  Node v is bit v, so the
    graph's nodes must be 0..n-1.  Channel i is the i-th channel by id:
    ``channel_ids`` maps an index to its id, ``channel_index`` an id to its
    index, and ``head_channels[v]`` lists the channels v heads, ascending.
    ``edge``, ``first_edge`` and ``edge_used`` hold channel indices, and
    every per-channel table is sized by the channel count, whatever the
    ids; ``trail_of`` lists channel ids.

    A trail is simple: no node transmits twice.  ``origin`` (intp, so a
    ``take`` by it copies no index), ``parent``, ``edge``, ``first_edge``
    and ``tmask`` (each trail's transmitters as node bits) are what runs
    and the necessity harness's carrier read; the receive table the phase
    builds read is ``_receive_table``'s, and an engine drops it once its
    phases are built.  A graph with more than ``MAX_TRAILS`` trails raises
    ValueError before any trail is built (``_count_trails``).

    Trail ids run by length first and, within a length, lexicographically
    by (origin, e1, w1, e2, w2, ...), where w_i is the tail of e_i that
    transmits e_{i+1}: the tie order of ``paths.canonical_path``.  So of
    the trails a node receives from one origin with every transmitter in a
    node set W, the least id is the canonical path within W."""

    def __init__(self, g: DirectedHypergraph):
        if g.nodes != frozenset(range(g.n)):
            raise ValueError("the simulator needs node ids 0..n-1")
        channels = sorted(g.edges, key=lambda e: e.id)
        self.channel_ids = tuple(e.id for e in channels)
        self.channel_index = {eid: i for i, eid in enumerate(self.channel_ids)}
        self.head_channels: list[list[int]] = [[] for _ in range(g.n)]
        for i, e in enumerate(channels):
            self.head_channels[e.head].append(i)
        heads = self.head_channels
        tails = [e.sorted_tails() for e in channels]
        if _count_trails(heads, tails) > MAX_TRAILS:
            raise ValueError(f"the graph has more than {MAX_TRAILS} simple trails")
        origins: list[int] = []
        parents: list[int] = []
        edges: list[int] = []
        tmask: list[int] = []
        first_edge: list[int] = []

        for u in range(g.n):
            for i in heads[u]:
                origins.append(u)
                parents.append(-1)
                edges.append(i)
                tmask.append(1 << u)
                first_edge.append(i)

        lo, hi = 0, len(origins)
        layers = []
        while lo < hi:
            layers.append((lo, hi))
            for ptid in range(lo, hi):
                pmask = tmask[ptid]
                for w in tails[edges[ptid]]:
                    wb = 1 << w
                    if pmask & wb:
                        continue
                    for i in heads[w]:
                        origins.append(origins[ptid])
                        parents.append(ptid)
                        edges.append(i)
                        tmask.append(pmask | wb)
                        first_edge.append(first_edge[ptid])
            lo, hi = hi, len(origins)

        self.g = g
        self.size = len(origins)
        self.layers = tuple(layers)     # (first, end) trail ids of each trail length
        self.origin = np.array(origins, dtype=np.intp)
        self.parent = np.array(parents, dtype=np.int32)
        self.edge = np.array(edges, dtype=np.int32)
        self.tmask = np.array(tmask, dtype=np.int64)
        self.first_edge = np.array(first_edge, dtype=np.int32)
        self.edge_head = np.array([e.head for e in channels], dtype=np.int32)
        # tail_bits[i, w]: node w is a tail of channel i
        self.tail_bits = np.zeros((len(channels), g.n), dtype=bool)
        self.tail_bits[
            [i for i, ts in enumerate(tails) for _ in ts], [w for ts in tails for w in ts]
        ] = True

    @cached_property
    def trail_of(self) -> list[tuple[int, ...]]:
        """Trail id -> its channel ids, in order: its parent's and then its
        own last channel's."""
        ids = self.channel_ids
        trails: list[tuple[int, ...]] = []
        for p, i in zip(self.parent.tolist(), self.edge.tolist()):
            trails.append(trails[p] + (ids[i],) if p >= 0 else (ids[i],))
        return trails


def _count_trails(heads: list[list[int]], tails: list[tuple[int, ...]]) -> int:
    """The number of simple trails ``TrailUniverse`` would build, or some
    number past ``MAX_TRAILS``, given each node's head channels and each
    channel's tails (channel indices).  A trail extends by the same channels
    as any other trail with its last channel and its transmitters, so each
    layer is counted as (transmitter mask, last channel) states with
    multiplicities, one int key each, and counting stops once the total
    passes ``MAX_TRAILS``."""
    shift = len(tails).bit_length()
    layer = {1 << v << shift | i: 1 for v, own in enumerate(heads) for i in own}
    total = len(layer)
    low = (1 << shift) - 1
    while layer and total <= MAX_TRAILS:
        grown: dict[int, int] = {}
        for state, count in layer.items():
            mask = state >> shift
            for w in tails[state & low]:
                wb = 1 << w
                if mask & wb:
                    continue
                for i in heads[w]:
                    key = (mask | wb) << shift | i
                    grown[key] = grown.get(key, 0) + count
                    total += count
            if total > MAX_TRAILS:
                break
        layer = grown
    return total


def flood_records(
    tu: TrailUniverse,
    seeds,
    gamma,
    faulty=(),
    adversary: Adversary | None = None,
) -> np.ndarray:
    """Evaluate one flood: the value of every trail record.

    ``gamma`` holds, in node id order, the state each node would honestly
    originate (a sequence of n ints); only nodes in ``seeds`` originate
    anything.  The nodes in ``faulty`` all follow the one
    ``adversary`` (none: everybody is honest).  Returns an int16 array indexed
    by trail id, ABSENT for records that never materialize.

    In closed form: an honest flood carries each seeded origin's state along
    its trails.  Otherwise every channel's emission is looked up by each
    trail's first channel, then the adversary's forward map is applied k
    times, k being the number of faulty forwarders on the trail (told by
    ``tmask``).
    """
    g = tu.g
    garr = np.asarray(gamma, dtype=np.int16)
    seeded = np.zeros(g.n, dtype=bool)
    seeded[list(seeds)] = True
    states = np.where(seeded, garr, np.int16(ABSENT))
    if adversary is None or adversary.follows_protocol or not faulty:
        return states.take(tu.origin)
    heads = tu.edge_head
    emission = states.take(heads)
    for w in faulty:
        if seeded[w]:
            own = tu.head_channels[w]
            ids = [tu.channel_ids[i] for i in own]
            # ids past int64 stay Python ints
            eids = np.array(ids, dtype=np.int64 if max(ids, default=0) < 1 << 63 else object)
            emission[own] = adversary.emit(w, int(garr[w]), np.arange(len(own)), eids)
    # table[c, i]: the value of a record whose first channel is i and whose
    # trail has c faulty transmitters, a faulty origin (the head of i) included
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
    count = sum((tu.tmask >> w) & 1 for w in faulty)
    return np.concatenate(table).take(count * len(emission) + tu.first_edge)


# ---------------------------------------------------------------------------
# per-phase static data


class ReceiveTable(NamedTuple):
    """What the phase builds of one engine read off its trail universe and
    runs do not: built once per engine by ``_receive_table`` and dropped
    with the build.

    The receive lists are one int32 array, ``received``, in node order:
    node v receives ``received[received_at[v]:received_at[v + 1]]``, by
    (length, tmask) and then by trail id.  ``receiver``, ``received_mask``
    and ``received_origin`` hold each entry's receiver, transmitter mask and
    origin bit, the last in the smallest unsigned type that holds bit n - 1.
    ``relays`` holds each trail's transmitters without its origin, and
    ``edge_used[v, t]`` the channel index node v transmitted on within
    trail t, -1 if it did not."""

    received: np.ndarray
    received_at: np.ndarray
    receiver: np.ndarray
    received_mask: np.ndarray
    received_origin: np.ndarray
    relays: np.ndarray
    edge_used: np.ndarray


def _receive_table(tu: TrailUniverse) -> ReceiveTable:
    """``tu``'s receive table.  Each trail's receive entries are the tails
    of its last channel: one nonzero over those tail bits, in (length,
    tmask, id) order and transposed, lists them receiver by receiver.  A
    trail's length is its popcount in tmask, so any selection of them keeps
    equal masks adjacent and sparse masks first.  A trail's ``edge_used``
    column is its parent's plus the head of its last channel."""
    n = tu.g.n
    length = np.repeat(np.arange(len(tu.layers)), [hi - lo for lo, hi in tu.layers])
    order = np.lexsort((tu.tmask, length))
    receiver, at = np.nonzero(tu.tail_bits[tu.edge[order]].T)
    received = order[at].astype(np.int32)
    node_bit = np.left_shift(np.int64(1), np.arange(n))
    origin_bit = node_bit.astype(np.min_scalar_type(1 << max(n - 1, 0))).take(tu.origin)
    used = np.full((n, tu.size), -1, dtype=np.int32)
    heads = tu.edge_head[tu.edge]
    for lo, hi in tu.layers:
        if lo:
            used[:, lo:hi] = used[:, tu.parent[lo:hi]]
        used[heads[lo:hi], np.arange(lo, hi)] = tu.edge[lo:hi]
    return ReceiveTable(
        received,
        np.searchsorted(receiver, np.arange(n + 1)),
        receiver,
        tu.tmask.take(received),
        origin_bit.take(received),
        tu.tmask ^ node_bit.take(tu.origin),
        used,
    )


class Candidates(NamedTuple):
    """The trails one node weighs when it adopts a value in one phase, by
    ascending (popcount, mask) of their transmitter masks (node bits), then
    by id: ``origin_bits`` holds their origins' bits, in the smallest
    unsigned type that holds bit n - 1 (uint8 for n <= 8), and ``sent[k]``
    the slot of the phase's split layout on which the k-th node of sorted
    N(F, S) transmitted, -1 where it did not (one column per trail, in the
    smallest signed type that holds -(slots + 1): int8 for up to 127
    slots).  ``distinct`` holds each transmitter mask once, in that order,
    and ``starts`` the index of its first trail, so a selection of trails
    maps to its distinct masks with one ``reduceat``.

    ``_build_phase`` builds the tables of all nodes of a phase at once and
    each node's fields are slices (views) of the phase's arrays."""

    tids: np.ndarray
    origin_bits: np.ndarray
    sent: np.ndarray
    distinct: np.ndarray
    starts: np.ndarray


@dataclass
class PhaseData:
    """What steps (b)-(f) of one phase read that does not depend on the
    states: built once per phase by ``_build_phase``, per node of S for
    steps (c)+(d) and per updater for step (f).  A phase whose G - F has
    several source components keeps only its first four fields."""

    fault_set: frozenset[int]
    source: frozenset[int] | None
    seeds_b: frozenset[int]                     # S u N(F, S), the seeds of flood (b)
    layout: SplitLayout                         # every node of F split
    nfs_mask: int = 0                           # N(F, S) as base (copy-0) bits
    nfs_copy1: int = 0                          # N(F, S) as copy-1 bits
    # v in S -> v's canonical trail from the head of each layout slot through
    # that slot (None: unreachable), and (u's bit, v's canonical trail from
    # u in G - F) for every other u in S
    cpath_f: dict[int, tuple[int | None, ...]] = field(default_factory=dict)
    cpath_s: dict[int, tuple[tuple[int, int | None], ...]] = field(default_factory=dict)
    cand_d: dict[int, Candidates] = field(default_factory=dict)   # v in S
    cand_f: dict[int, Candidates] = field(default_factory=dict)   # v in updaters_f
    updaters_f: tuple[int, ...] = ()            # the nodes outside S and F


def _build_phase(
    g: DirectedHypergraph, tu: TrailUniverse, rt: ReceiveTable, fset: frozenset[int]
) -> PhaseData:
    """One phase's ``PhaseData``, read off G, its trail universe and the
    universe's receive table ``rt`` with F masked out rather than off a
    graph G - F: S is the one source component of G minus F's bits, and no
    arc of G - F enters S.

    Canonical trails are least trail ids, since trail ids follow
    ``canonical_path``'s tie order (``TrailUniverse``).  v's canonical
    trail from u in S is the least id v receives from u with every
    transmitter in S; through fault channel e, the least id v receives
    whose first channel is e and whose other transmitters lie in S.  Only
    an origin in S or F reaches S that way, and neither trail has more than
    |S| channels.  Those trails are scattered to their receivers with a
    minimum under two keys, their origin and their first channel's layout
    slot; only receivers in S, origins in S and slots are read back, and a
    trail from S starts on no channel of F.

    The candidate tables of all nodes come from one pass over the receive
    array: each receiver's avoid mask and origin mask are broadcast over its
    run, one keep mask filters the whole array, a run of equal transmitter
    masks starts wherever the mask or the receiver changes, and each node's
    ``Candidates`` are sliced out of the result."""
    n = g.n
    fmask = g.mask_of(fset)
    sources = g.source_components_without(fmask)
    layout = split_layout(g, fset, fset)
    if len(sources) != 1:
        return PhaseData(fset, None, frozenset(), layout)
    source = frozenset(sources[0])
    smask = g.mask_of(source)
    nfs = g.in_neighborhood(fset, source)
    in_s = sorted(source)

    # slot_of[i]: channel i's layout slot; the extra last entry maps -1 to -1
    slot_of = np.full(
        len(tu.channel_ids) + 1, -1, dtype=np.min_scalar_type(-(len(layout.slots) + 1))
    )
    for j, (eid, _, _, _) in enumerate(layout.slots):
        slot_of[tu.channel_index[eid]] = j

    # least[v, k]: the least trail id node v receives under key k: an
    # origin (k < n), or a first channel's layout slot j (k = n + 1 + j;
    # k = n for a channel in no slot)
    end = tu.layers[min(len(in_s), len(tu.layers)) - 1][1] if tu.layers else 0
    kept = ((rt.relays[:end] & np.int64(~smask)) == 0).nonzero()[0]
    which, row = tu.tail_bits[tu.edge[kept]].nonzero()
    kept = kept[which]
    least = np.full((n, n + 1 + len(layout.slots)), tu.size, dtype=np.int64)
    np.minimum.at(least, (row, tu.origin[kept]), kept)
    slot = np.add(slot_of[tu.first_edge[kept]], n + 1, dtype=np.intp)
    np.minimum.at(least, (row, slot), kept)
    least = least.tolist()
    cpath_s = {}
    cpath_f = {}
    for v in in_s:
        found = [t if t < tu.size else None for t in least[v]]
        cpath_s[v] = tuple((1 << u, found[u]) for u in in_s if u != v)
        cpath_f[v] = tuple(found[n + 1:])

    # Per receiver: the transmitters its trails must avoid and the origins
    # they may start at.  Step (d) (v in S) keeps trails from S u N(F, S);
    # the receiving node itself must not appear mid-trail, or the underlying
    # path would visit it twice.  Step (f) keeps trails from S that avoid F
    # and v itself.  A node of F weighs no trail.
    seeds_b = source | nfs
    seeds_mask = g.mask_of(seeds_b)
    updaters_f = tuple(v for v in range(n) if v not in source and v not in fset)
    avoid = np.array([1 << v | (0 if v in source else fmask) for v in range(n)], dtype=np.int64)
    origins = np.array(
        [seeds_mask if v in source else 0 if v in fset else smask for v in range(n)],
        dtype=rt.received_origin.dtype,
    )
    receiver = rt.receiver
    keep = (
        ((rt.received_mask & avoid[receiver]) == 0)
        & ((rt.received_origin & origins[receiver]) != 0)
    ).nonzero()[0]
    tids, masks = rt.received[keep], rt.received_mask[keep]
    obits, receiver = rt.received_origin[keep], receiver[keep]
    # a run of equal masks starts where the mask or the receiver changes
    first = np.ones(len(keep), dtype=bool)
    np.not_equal(masks[1:], masks[:-1], out=first[1:])
    first[1:] |= receiver[1:] != receiver[:-1]
    starts = first.nonzero()[0]
    cut = np.searchsorted(receiver, np.arange(n + 1))
    # each run's start within its receiver's table
    local = starts - cut[receiver[starts]]
    distinct = masks[starts]
    sent = slot_of[rt.edge_used[sorted(nfs)][:, tids]]
    run_cut = np.searchsorted(starts, cut).tolist()
    cut = cut.tolist()

    tables = {}
    for v in (*in_s, *updaters_f):
        lo, hi = cut[v], cut[v + 1]
        rlo, rhi = run_cut[v], run_cut[v + 1]
        tables[v] = Candidates(
            tids[lo:hi], obits[lo:hi], sent[:, lo:hi], distinct[rlo:rhi], local[rlo:rhi]
        )
    return PhaseData(
        fset, source, seeds_b, layout, g.mask_of(nfs),
        sum(1 << layout.copy1[u] for u in nfs),
        cpath_f, cpath_s,
        {v: tables[v] for v in in_s},
        {v: tables[v] for v in updaters_f},
        updaters_f,
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

    @property
    def ok(self) -> bool:
        """Every verdict of the run holds."""
        return all((self.terminated, self.agreement, self.validity,
                    self.phase_validity_ok, self.exact_phase_agreement_ok))


class Engine:
    """Shared per-graph simulator state.

    An engine keeps what runs read: the trail universe ``tu`` and one
    ``PhaseData`` per fault set.  The receive table its phase builds read
    (``_receive_table``) is built once and dropped with the build.

    ``_cache`` memoizes run() per phase and step (d)'s propagation test per
    (phase, split, Z, N), holds the flood table of the current (fault set,
    adversary) (``_flood``), and the one instance of each library adversary
    a run has named; clearing it empties all four.  The table takes one
    byte per trail, whatever the seed sets, and a run with another fault
    set or adversary replaces it.  A phase floods at most two seed sets:
    S u N(F, S) for step (b), and S for step (e) only when step (f) has a
    node to update."""

    def __init__(self, g: DirectedHypergraph, f: int):
        require_fault_bound(f)
        if g.n + 2 * f > _MASK_BITS:
            raise ValueError(
                f"n + 2f = {g.n + 2 * f}; the simulator's int64 trail masks hold "
                f"at most {_MASK_BITS} node and fault-copy bits"
            )
        self.g = g
        self.f = f
        self.tu = TrailUniverse(g)
        table = _receive_table(self.tu)
        self.phases = [
            _build_phase(g, self.tu, table, fset) for fset in subsets_by_cardinality(g.nodes, f)
        ]
        self._fault_set_count = len(self.phases)   # one phase per fault set
        self._node_bits = (1 << g.n) - 1
        self._cache: dict = {}

    # -- per-node protocol steps (reused by the indistinguishability harness)

    def node_step_cd(self, ph: PhaseData, v: int, own_gamma: int, vals_b: np.ndarray) -> int:
        """Steps (c)+(d) as executed by node v: split the candidate fault
        set by the values v traced through each fault channel, sort the
        traced states into Z/N, test propagation, and adopt a value carried
        identically along f+1 node-disjoint paths from the propagating side.
        Returns v's new state (== own_gamma when nothing is adopted).

        Step (d) keeps a candidate trail when its origin is in A n S or in
        N(F, S) and every node of N(F, S) on it transmitted on a channel of
        the adopting side's copy (a helper origin's first channel included).
        Disjointness is read off the base transmitter masks.  v's canonical
        trail through a fault channel runs in S plus that channel, so a
        channel with no tail in S has none and always goes to copy 1: a node
        of F outside N(F, S) is on copy 1 wherever it transmits, and a node
        of N(F, S) on a kept trail is on the adopting side's copy.  The
        split-graph bits of the kept trails are thus one renaming of their
        base bits, which keeps every intersection as it is."""
        vbit = 1 << v
        # step (c): slot j of the layout goes to copy 0 exactly when v traced
        # a 0 through it; a phase with no fault channel has no slot
        side: list[int] = []
        sides = 0
        if ph.cpath_f[v]:
            side = [0 if tid is not None and vals_b[tid] == 0 else 1 for tid in ph.cpath_f[v]]
            sides = sum(s << j for j, s in enumerate(side))
        # copy 0 of a helper node starts in Z, copy 1 in N
        zmask, nmask = ph.nfs_mask, ph.nfs_copy1
        if own_gamma == 0:
            zmask |= vbit
        else:
            nmask |= vbit
        for ubit, tid in ph.cpath_s[v]:
            if tid is not None and vals_b[tid] == 0:
                zmask |= ubit
            else:
                nmask |= ubit

        # step (d): does Z propagate to N - F' once N's fault copies go?
        key = ("propagates", ph.fault_set, sides, zmask, nmask)
        prop = self._cache.get(key)
        if prop is None:
            lay = ph.layout
            prop = self._cache[key] = propagates_bits(
                lay.out_masks(sides), lay.m, zmask, nmask & ~lay.fprime,
                nmask & lay.fprime, self.f + 1,
            )
        amask, bmask, need_side = (zmask, nmask, 0) if prop else (nmask, zmask, 1)
        if not bmask & vbit:
            return own_gamma
        # v is on the adopting side: look for f+1 disjoint paths from A.
        # Origins lie in S u N(F, S), and A's bits outside S are N(F, S)'s
        # own or its fault copies; a helper that did not transmit reads need_side.
        # With N(F, S) empty there is no helper to filter by.  Origin bits
        # are node bits in a narrow type, so the mask drops its copy bits.
        cand = ph.cand_d[v]
        ok = (cand.origin_bits & ((amask | ph.nfs_mask) & self._node_bits)) != 0
        if len(cand.sent):
            ok &= (np.array(side + [need_side])[cand.sent] == need_side).all(axis=0)
        return self._adopt(own_gamma, cand, vals_b, ok)

    def node_step_f(self, ph: PhaseData, v: int, own_gamma: int, vals_e: np.ndarray) -> int:
        """Step (f) as executed by node v outside S and F: adopt a value
        carried identically along f+1 node-disjoint trails from S in G - F."""
        return self._adopt(own_gamma, ph.cand_f[v], vals_e)

    def _adopt(self, own_gamma: int, cand: Candidates, vals: np.ndarray, ok=None) -> int:
        """The value (0 first) that f+1 of the candidate trails kept by
        ``ok`` (all when None) carry identically in the flood ``vals`` with
        pairwise disjoint transmitter masks, a missing record read as 1;
        own_gamma when neither value is."""
        k = self.f + 1
        if len(cand.distinct) < k:
            return own_gamma
        vals = vals[cand.tids]
        for b in (0, 1):
            sel = vals == 0 if b == 0 else (vals == 1) | (vals == ABSENT)
            if ok is not None:
                sel &= ok
            if packs_sorted(cand.distinct[np.logical_or.reduceat(sel, cand.starts)].tolist(), k):
                return b
        return own_gamma

    # -- one phase ----------------------------------------------------------

    def _flood(
        self,
        seeds: frozenset[int],
        gamma: tuple[int, ...],
        faulty: frozenset[int],
        adversary: Adversary,
    ) -> np.ndarray:
        """``flood_records(self.tu, seeds, gamma, faulty, adversary)``;
        the records come back int8 when faulty nodes deviate.

        With deviating nodes a record is 0, 1 or ABSENT, fixed by its
        origin's code c: 0 or 1 for an origin seeded with that state, 2 for
        an unseeded one, whose records are all ABSENT.  So the current (fault
        set, adversary) keeps one table of a byte per trail, whose bits 2c
        and 2c + 1 hold the trail's record for code c in two's complement.
        It is built from ``flood_records`` with every node seeded, on all-0
        and on all-1 states.  A flood gathers each trail's left shift 6 - 2c
        by its origin, which moves field c to the top two bits, and an
        arithmetic shift right by 6 sign-extends it."""
        if adversary.follows_protocol or not faulty:
            return flood_records(self.tu, seeds, gamma)
        n = self.g.n
        fkey = (faulty, adversary.key)
        current = self._cache.get("floods")
        if current is None or current[0] != fkey:
            v0, v1 = (flood_records(self.tu, range(n), (b,) * n, faulty, adversary) for b in (0, 1))
            table = (ABSENT << 4 | (v1 & 3) << 2 | v0 & 3).astype(np.int8)
            current = self._cache["floods"] = (fkey, table)
        shift = np.array([6 - 2 * gamma[v] if v in seeds else 2 for v in range(n)], dtype=np.int8)
        return (current[1] << shift.take(self.tu.origin)) >> 6

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
        vals_b = self._flood(ph.seeds_b, gamma, faulty, adversary)
        for v in sorted(ph.source):
            new_gamma[v] = self.node_step_cd(ph, v, gamma[v], vals_b)
        # step (e)+(f): S floods its updated state, the rest adopts; only
        # step (f) reads that flood, so with no node outside S and F it is skipped
        if ph.updaters_f:
            vals_e = self._flood(ph.source, tuple(new_gamma), faulty, adversary)
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
        unknown = fstar - self.g.nodes
        if unknown:
            raise ValueError(f"faulty ids {sorted(unknown)} are not nodes of the graph")
        if len(fstar) > self.f:
            raise ValueError(f"|faulty| = {len(fstar)} exceeds f = {self.f}")
        for v in inputs:
            if v not in self.g.nodes:
                raise ValueError(f"input for unknown node {v}")
        try:
            gamma = tuple(inputs[v] for v in range(self.g.n))
        except KeyError:
            missing = sorted(set(range(self.g.n)) - inputs.keys())
            raise ValueError(f"missing inputs for nodes {missing}") from None
        adv = adversary
        if isinstance(adversary, str):
            # a library rule holds no state: one instance serves every run
            adv = self._cache.get(("adversary", adversary))
            if adv is None:
                adv = self._cache["adversary", adversary] = make_adversary(adversary)
        fkey = (tuple(sorted(fstar)), adv.key)
        if fstar and not adv.follows_protocol and not set(gamma) <= {0, 1}:
            # an adversary's forward map is defined on bits only
            raise ValueError("inputs must be bits when faulty nodes deviate")
        honest = [v for v in range(self.g.n) if v not in fstar]
        start_states = {gamma[v] for v in honest}

        # this (fault set, adversary)'s phase memo: (phase index, states) -> outcome
        memo = self._cache.setdefault(fkey, {})
        phases: list[PhaseOutcome] = []
        validity_ok = True
        exact_ok = True
        for idx, ph in enumerate(self.phases):
            outcome = memo.get((idx, gamma))
            if outcome is None:
                before = {gamma[v] for v in honest}
                new_gamma = self._eval_phase(ph, gamma, fstar, adv)
                if ph.fault_set == fstar and ph.source is not None:
                    agreement = len({new_gamma[v] for v in honest}) <= 1
                else:
                    agreement = None
                outcome = memo[idx, gamma] = PhaseOutcome(
                    tuple(sorted(ph.fault_set)),
                    ph.source is None,
                    all(new_gamma[v] in before for v in honest),
                    agreement,
                    new_gamma,
                )
            phases.append(outcome)
            validity_ok &= outcome.state_sources_ok
            if outcome.agreement_reached is not None:
                exact_ok &= outcome.agreement_reached
            gamma = outcome.state

        outputs = {v: gamma[v] for v in honest}
        out_vals = set(outputs.values())
        result = RunResult(
            f=self.f,
            faulty=tuple(sorted(fstar)),
            adversary=adv.name,
            inputs=tuple(sorted(inputs.items())),
            outputs=tuple(sorted(outputs.items())),
            terminated=len(phases) == self._fault_set_count and out_vals <= {0, 1},
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
    the HYPERBFT_WORKERS environment variable (a positive integer), capped at
    the CPU count and the number of runs; results are assembled in the
    deterministic combo order either way.
    """
    combos = list(_sweep_combos(g, f, faulty_sets, adversaries, input_choices))
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "1") or "1"
        if not raw.isdecimal() or int(raw) < 1:
            raise ValueError(f"{WORKERS_ENV} must be a positive integer, got {raw!r}")
        workers = int(raw)
    workers = min(workers, os.cpu_count() or 1, len(combos))
    results: list[RunResult]
    if workers > 1:
        args = [(g, f, fset, adv, inputs) for fset, adv, inputs in combos]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_combo, args, chunksize=64))
    else:
        results = [run_scenario(g, f, fset, dict(inputs), adv) for fset, adv, inputs in combos]
    failures = tuple(r for r in results if not r.ok)
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
