"""Checkers for the two equivalent consensus-feasibility conditions.

Both conditions quantify over every candidate fault set F (|F| <= f), every
split of every subset of F, and every partition of the split graph's nodes:

* the three-part condition: for every partition (L, C, R), either L u C has
  f+1 heads into R - F' or R u C has f+1 heads into L - F';
* the two-part condition: for every partition (A, B), either A reaches every
  node of B - F' via f+1 node-disjoint paths once B's fault copies are
  removed, or symmetrically with A and B swapped.

The production scan works on bitmasks (``splitting.split_layouts``).  The
predicates are invariant under relabeling a node's two copies, so each split
node's highest-id channel stays on copy 0, which keeps the least assignment
counter of every copy-swap class.  Both violations are monotone in arcs
(fewer arcs mean fewer heads and fewer disjoint paths), so a split set is
decided on the distinct, Pareto-minimal out-mask rows of its split graphs
alone: a per-node DP folds each split node's channels onto copy 0 or copy 1,
keeps the distinct (copy-0, copy-1) pairs after every step and the minimal
ones at the end, and the product of those pairs across split nodes goes to
the detector.  Its cost follows the number of minimal rows, not 2^channels.
A row in which the copy 1 of some node v of the split set X has no out-arc
is a split graph of X - {v} with one dead fault copy added; X - {v} comes
first and passed, so such a row never reaches the detector, and a split set
of nodes that head one channel each leaves it no row at all.
The canonical witness, the definitional first violating split graph, is the
least violating counter; it is found bit by bit from the highest free slot
down by asking the same DP and detector whether some completion still
violates, and it is the only split graph built.  Reported witnesses are
always re-verified against the raw set-level definitions before being
returned.

The three-part condition fails exactly when two disjoint sets are *bad*: a
set P is bad when P - F' is non-empty and at most f heads outside P point
into it.  For a fixed head set H, the least bad set with heads in H that
holds a node x outside F' is the closure cl_H(x) (x, then every in-neighbour
outside H of each member outside F', and so on), and every bad set contains
one, so the inclusion-minimal bad sets are closures and a split graph
violates exactly when two closures are disjoint.  The detector grows the
C(m, f) * m closures of each split graph at once and pair-tests the distinct
ones, polynomial in m for fixed f.  A split graph of m <= 2f nodes needs
none of that: its nodes split into two halves of at most f nodes each, so
it violates exactly when two of them lie outside F'.  A check calls the
detector once per batch of a split set's rows, mostly on one row or on
none; up to 512 closure cells (rows x head sets x nodes) the closures come
from squaring a reach matrix in a few numpy calls, and larger batches run
an m-step bitmask Warshall.
The canonical (L, C, R) labelling is built digit by digit from the same
closures, with no scan over the 3^m labellings.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .hypergraph import DirectedHypergraph
from .paths import count_disjoint_paths, propagates_bits
from .splitting import (
    SplitHypergraph,
    SplitLayout,
    SplitSpec,
    split,
    split_layouts,
)

LCR = "lcr-hyper"
AB = "ab-hyper"

# Most closure pairs, (C(m, f) * m)^2, the LCR detector accepts per split
# graph of m > 2f nodes; larger ones are refused.  A detector call's traced
# peak stays about 5 MiB (one dense row at m = 51, f = 2: 65,025 int64
# closures, pairs compared in blocks), so the limit bounds time: a
# worst-case pair test over 65,536 distinct closures that pairwise
# intersect takes about 3.9 s (32,768: 1.0 s; 2-core Xeon).
MAX_CLOSURE_PAIRS = 1 << 32
# Most closures (head sets x nodes) the canonical witness search holds.  It
# keeps a few int64 arrays of that many cells, about 53 bytes per closure at
# its traced peak: 46 MiB at 875,160 closures (18 nodes, f=9), 92 MiB at
# 1,755,182 (19 nodes, f=9), so about 220 MiB at the limit.  It binds only
# where m <= 2f, whose verdict the detector's closed form gives.
MAX_WITNESS_CLOSURES = 1 << 22
# Closure pairs compared at once by the pair test, and the pair count above
# which it first drops repeated closures (below it, sorting costs more than
# the repeats do).
_PAIR_BLOCK = 1 << 18
_DEDUP_CELLS = 1 << 12
# Closure cells (rows x head sets x nodes) up to which ``_closures`` squares
# a reach matrix rather than running the Warshall; fitted to timings of both
# on random rows (m = 4-20, f <= 3, 1-8 rows).
_SQUARING_CELLS = 1 << 9
# Most distinct (copy-0, copy-1) out-mask pairs the split-row DP holds for
# one split node; a node whose d channels have distinct single tails has
# 2^(d-1) of them.
MAX_SPLIT_PAIRS = 1 << 18
# Most partitions x split graphs the AB detector walks per split set: every
# Pareto-minimal row of m nodes has 2^(m-1) partitions, each a max-flow
# test.  2^14 take about 0.5 s (the 15-node ring at f=0, 2-core Xeon); the
# tests reach 4,096 (5-node graphs over the complete graph at f=2).
MAX_AB_PARTITIONS = 1 << 14
# Closure cells (rows x C(m, f) x m) per batch of split graphs.  Larger
# batches leave the cache: at 2^16 cells complete_p2p(7) and (8) at f=2
# check 1.5x slower than at 2^14, and at 2^12 the per-call cost shows.
_BATCH_CELLS = 1 << 14


@dataclass(frozen=True)
class PartitionLCR:
    left: frozenset[int]
    center: frozenset[int]
    right: frozenset[int]


@dataclass(frozen=True)
class PartitionAB:
    side_a: frozenset[int]
    side_b: frozenset[int]


@dataclass(frozen=True)
class Violation:
    """A definitional counterexample: fault set, split member, and partition."""

    fault_set: frozenset[int]
    split: SplitHypergraph
    partition: PartitionLCR | PartitionAB


@dataclass(frozen=True)
class ConditionReport:
    condition: str
    f: int
    holds: bool
    fault_sets_checked: int
    split_graphs_checked: int
    partitions_checked: int
    violation: Violation | None


def require_fault_bound(f: int) -> None:
    """Refuse a negative fault bound f, which would otherwise leave every
    check with no fault set to scan."""
    if f < 0:
        raise ValueError(f"f must be a non-negative integer, got {f}")


def subsets_by_cardinality(items: Iterable[int], max_k: int) -> Iterator[frozenset[int]]:
    """All subsets of size <= max_k, ordered by cardinality then lexicographically."""
    ordered = sorted(items)
    for k in range(min(max_k, len(ordered)) + 1):
        for combo in itertools.combinations(ordered, k):
            yield frozenset(combo)


# ---------------------------------------------------------------------------
# public path/propagation operations


def count_disjoint_Uv_paths(
    g: DirectedHypergraph, sources: Iterable[int], target: int, excluded: Iterable[int] = ()
) -> int:
    """Maximum number of node-disjoint paths from the source set to ``target``
    avoiding ``excluded`` (paths share only the target, so sources are distinct)."""
    return count_disjoint_paths(g, sources, target, excluded, cap=None)


def propagates(
    g: DirectedHypergraph,
    sources: Iterable[int],
    targets: Iterable[int],
    f: int,
    excluded: Iterable[int] = (),
) -> bool:
    """True when every target has >= f+1 node-disjoint source paths (or no targets)."""
    src = frozenset(sources)
    excl = frozenset(excluded)
    for v in sorted(frozenset(targets)):
        if count_disjoint_paths(g, src, v, excl, cap=f + 1) < f + 1:
            return False
    return True


# ---------------------------------------------------------------------------
# violation detectors (bitmask level)


def _admit_lcr(m: int, f: int) -> None:
    """Raise ``ValueError`` when m-node split graphs at f have more than
    ``MAX_CLOSURE_PAIRS`` closure pairs; the closed form for m <= 2f
    admits every m."""
    if m <= 2 * f:
        return
    closures = math.comb(m, f) * m
    if closures * closures > MAX_CLOSURE_PAIRS:
        raise ValueError(
            f"split graph has {m} nodes; at f={f} the LCR detector takes at most "
            f"{MAX_CLOSURE_PAIRS} closure pairs (here {closures}^2)"
        )


def _admit_ab(m: int, rows: int) -> None:
    """Raise ``ValueError`` when ``rows`` split graphs of m nodes hold more
    than ``MAX_AB_PARTITIONS`` partitions (2^(m-1) each) for the AB
    detector to walk."""
    if rows << max(m - 1, 0) > MAX_AB_PARTITIONS:
        raise ValueError(
            f"split graph has {m} nodes; the AB detector walks at most "
            f"{MAX_AB_PARTITIONS} partitions x split graphs per split set "
            f"(here {rows} x 2^{m - 1})"
        )


@functools.lru_cache(maxsize=64)
def _head_sets(universe: int, k: int) -> np.ndarray:
    """Every k-node subset of the bits of ``universe``, as read-only int64
    masks (the array is shared by every caller)."""
    bits = [1 << b for b in range(universe.bit_length()) if universe >> b & 1]
    heads = np.array([sum(c) for c in itertools.combinations(bits, k)], dtype=np.int64)
    heads.flags.writeable = False
    return heads


@functools.lru_cache(maxsize=64)
def _squaring_tables(universe: int, k: int, m: int) -> tuple[np.ndarray, ...]:
    """What ``_closures`` squares with, for the k-node head sets of the bits
    of ``universe`` and m-node rows: bit shifts (m, 1), a 0/1 factor
    (H, 1, m) that drops the in-neighbours in each head set, the m x m
    identity and the bit weights (read-only, shared by every caller)."""
    bit = np.int64(1) << np.arange(m, dtype=np.int64)
    outside = ((_head_sets(universe, k)[:, None] & bit) == 0)[:, None, :].astype(np.float64)
    tables = (np.arange(m, dtype=np.int64)[:, None], outside, np.eye(m), bit)
    for t in tables:
        t.flags.writeable = False
    return tables


def _closures(outs: np.ndarray, m: int, fprime: int, universe: int, k: int) -> np.ndarray:
    """cl[b, h, v]: the least set that holds v and every in-neighbour outside
    head set h of each of its members outside F', in row b of ``outs``
    (shape (B, m), int64); the head sets are the k-node subsets of the bits
    of ``universe`` (``_head_sets``).

    Up to ``_SQUARING_CELLS`` cells (B * H * m), the matrix of one step (v
    and its in-neighbours outside head set h) is squared ceil(log2(m - 1))
    times, which covers every simple path: 11 numpy calls, where the
    Warshall makes about 3m, and at that size each call costs more than its
    cells.  One row of 13 nodes at f = 1 takes 55 us against 94 us (2-core
    Xeon).  Past it a bitmask Warshall over shape (B, H, m) runs, whose
    cells grow m log2(m) times slower; a node of F' adds nothing as a
    pivot, since its own closure is itself."""
    heads = _head_sets(universe, k)
    if len(outs) * len(heads) * m <= _SQUARING_CELLS:
        shifts, outside, eye, bit = _squaring_tables(universe, k, m)
        into = (outs & ~fprime)[:, None, :] >> shifts & 1   # into[b, v, u]: u -> v, v not in F'
        reach = into[:, None] * outside + eye
        for _ in range(max(m - 2, 0).bit_length()):
            # entries count walks: at most (m + 1)^(2m), finite in float64 for m <= 62
            reach = reach @ reach
        return (reach > 0) @ bit
    bit = np.int64(1) << np.arange(m, dtype=np.int64)
    arcs = (outs[:, :, None] & (bit & ~fprime)) != 0     # arcs[b, u, v]: u -> v, v not in F'
    cl = (bit @ arcs)[:, None, :] & ~heads[:, None] | bit  # in-neighbours outside H, and v
    for pivot in range(m):
        if not fprime >> pivot & 1:
            cl |= np.where(cl & (1 << pivot), cl[:, :, pivot, None], 0)
    return cl


def _distinct(masks: np.ndarray) -> np.ndarray:
    """The distinct values of ``masks``, sorted (``np.unique`` without the
    ``numpy.ma`` import it brings)."""
    masks = np.sort(masks)
    if len(masks) > 1:
        masks = masks[np.append(True, masks[1:] != masks[:-1])]
    return masks


def _disjoint_pair(left: np.ndarray, right: np.ndarray | None = None) -> tuple[int, int] | None:
    """A mask of ``left`` and a mask of ``right`` (``left`` itself when
    None) that share no bit, or None.  Sides with more than
    ``_DEDUP_CELLS`` pairs are deduplicated first, and the pairs are
    compared in blocks of at most ``_PAIR_BLOCK`` cells."""
    if right is None:
        right = left
    if not len(right):
        return None
    if len(left) * len(right) > _DEDUP_CELLS:
        same = right is left
        left = _distinct(left)
        right = left if same else _distinct(right)
    step = max(1, _PAIR_BLOCK // len(right))
    for i in range(0, len(left), step):
        block = left[i:i + step, None] & right
        k = int(block.argmin())   # masks are non-negative: a zero is the least cell
        if block.flat[k] == 0:
            return int(left[i + k // len(right)]), int(right[k % len(right)])
    return None


def _first_disjoint_row(cl: np.ndarray, full: int) -> int:
    """The index of the first row of ``cl`` (shape (B, K), masks within
    ``full``) holding two masks that share no bit, or -1.

    A batch of several rows is tested at once: each row's repeats become
    ``full``, which meets every non-empty mask, and sort to its end, the
    rows are cut to the longest run of distinct masks, and the pairs are
    compared in blocks of whole rows of at most ``_PAIR_BLOCK`` cells.  A
    single row, or rows that alone pass ``_PAIR_BLOCK``, go through
    ``_disjoint_pair`` one by one: for one row of 169 closures that costs
    17 us against 27 us for the batch form."""
    if len(cl) > 1:
        cl = np.sort(cl, axis=1)
        cl[:, 1:][cl[:, 1:] == cl[:, :-1]] = full
        cl.sort(axis=1)
        k = int((cl != full).sum(axis=1).max())
        cl = cl[:, :k]
        if 0 < k * k <= _PAIR_BLOCK:
            step = _PAIR_BLOCK // (k * k)
            for i in range(0, len(cl), step):
                block = cl[i:i + step]
                meets = block[:, :, None] & block[:, None, :]
                hits = (meets == 0).reshape(len(block), -1).any(axis=1)
                if hits.any():
                    return i + int(hits.argmax())
            return -1
    return next((b for b, row in enumerate(cl) if _disjoint_pair(row) is not None), -1)


def _lcr_split_violated(out_bits, m: int, fprime: int, f: int) -> int:
    """The index of the first split graph of a batch that has a violating
    (L, C, R) partition, or -1 when none has.

    ``out_bits`` holds one row of m out-masks per split graph (shape (B, m));
    the rows share m and the fault-copy mask ``fprime``.  Both failing
    clauses reduce to the one-argument predicate
    bad(P) := P - F' is non-empty and at most f heads outside P point into
    it, so a violation is exactly a disjoint pair of bad sets (L, R; C is
    whatever remains).

    When m <= 2f, V' splits into two halves of at most f nodes each, and
    each half has at most f heads outside it: a half is bad as soon as it
    holds a node outside F'.  So when two nodes lie outside F', halves that
    part them violate in every row; otherwise no two bad sets are disjoint
    and no row violates.  Larger split graphs go to ``_closure_violated``.
    An empty batch has no violating row, whatever m.
    """
    _admit_lcr(m, f)
    if not len(out_bits):
        return -1
    if m <= 2 * f:
        return 0 if (~fprime & ((1 << m) - 1)).bit_count() >= 2 else -1
    return _closure_violated(out_bits, m, fprime, f)


def _closure_violated(out_bits, m: int, fprime: int, f: int) -> int:
    """``_lcr_split_violated`` by closures, for any m and f.

    The bad sets whose heads lie in a fixed head set H are closed under
    union and intersection, and the least one holding a node x outside F'
    is the closure cl_H(x): x, every in-neighbour outside H of each member
    outside F', and so on.  Every bad set contains such a closure (its own
    heads, padded to min(f, m) nodes, and any x of P - F'), so the
    inclusion-minimal bad sets are closures, and a split graph violates
    exactly when two closures are disjoint.  Cost: C(m, f) * m closures,
    m Warshall steps over them, and a pair test over the distinct ones;
    polynomial in m for fixed f."""
    seeds = [v for v in range(m) if not fprime >> v & 1]
    if not seeds:
        return -1
    outs = np.asarray(out_bits, dtype=np.int64)
    cl = _closures(outs, m, fprime, (1 << m) - 1, min(f, m))[:, :, seeds]
    return _first_disjoint_row(cl.reshape(len(outs), -1), (1 << m) - 1)


def _ab_split_violated(out_bits: list[int], m: int, fprime: int, f: int) -> int:
    """The first violating (A, B) partition, as its index in
    ``itertools.product((0, 1), repeat=m)`` order (digit i is 1 when node
    bit i lies in B); -1 when there is none.  A partition violates when
    neither side (f+1)-propagates to the other side minus F' once the fault
    copies outside it are removed.

    That holds for (A, B) exactly when it holds for (B, A), so the first
    violation puts node bit 0 in A: the scan walks the first half of that
    order and tests the second side lazily."""
    full = (1 << m) - 1

    def fails(a_mask: int) -> bool:
        targets = full & ~a_mask & ~fprime
        return not propagates_bits(out_bits, m, a_mask, targets, fprime & ~a_mask, f + 1)

    for idx in range(1, 1 << max(m - 1, 0)):
        bm = int(f"{idx:0{m}b}"[::-1], 2)  # digit i of idx is bit i of B
        if fails(full & ~bm) and fails(bm):
            return idx
    return -1


# ---------------------------------------------------------------------------
# the distinct, Pareto-minimal rows of a split set


def _slot_groups(layout: SplitLayout) -> dict[tuple[int, int], list[tuple[int, int]]]:
    """Each split node's (copy-0 bit, copy-1 bit) -> its channels, as
    (slot index, tail mask) pairs in ascending slot order."""
    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for j, (_, b0, b1, tm) in enumerate(layout.slots):
        groups.setdefault((b0, b1), []).append((j, tm))
    return groups


def _pinned(groups: dict[tuple[int, int], list[tuple[int, int]]]) -> dict[int, int]:
    """Each split node's highest-id slot on copy 0: one split graph per copy swap."""
    return {slots[-1][0]: 0 for slots in groups.values()}


def _node_rows(slots, fixed: dict[int, int]) -> set[tuple[int, int]]:
    """The distinct (copy-0 out-mask, copy-1 out-mask) pairs of one split
    node whose channels are ``slots``, (slot index, tail mask) pairs.

    The channels ``fixed`` places (slot index -> copy) start the pair; the
    others fold in one at a time, each on copy 0 or on copy 1, and the set
    keeps one pair per distinct outcome after every step.  More than
    ``MAX_SPLIT_PAIRS`` pairs raise ``ValueError``."""
    start = [0, 0]
    free = []
    for j, tm in slots:
        copy = fixed.get(j)
        if copy is None:
            free.append(tm)
        else:
            start[copy] |= tm
    pairs = {tuple(start)}
    for tm in free:
        grown = set()
        for a, b in pairs:
            grown.add((a | tm, b))
            grown.add((a, b | tm))
        if len(grown) > MAX_SPLIT_PAIRS:
            raise ValueError(
                f"a split node has more than {MAX_SPLIT_PAIRS} distinct out-mask pairs"
            )
        pairs = grown
    return pairs


def _pareto_minimal(pairs) -> list[tuple[int, int]]:
    """The pairs that no other pair lies below, componentwise as bit sets.

    A pair below another one has strictly fewer bits, so the pairs are taken
    by ascending bit count and each is compared only with the kept pairs of
    smaller count."""
    kept: list[tuple[int, int]] = []
    below = 0
    size = -1
    for a, b in sorted(pairs, key=lambda p: p[0].bit_count() + p[1].bit_count()):
        bits = a.bit_count() + b.bit_count()
        if bits != size:
            size, below = bits, len(kept)
        for ka, kb in kept[:below]:
            if not (ka & ~a or kb & ~b):
                break
        else:
            kept.append((a, b))
    return kept


def _row_tables(groups, fixed: dict[int, int]) -> list[list[tuple[int, int]]]:
    """Each split node's Pareto-minimal (copy-0, copy-1) out-mask pairs."""
    return [_pareto_minimal(_node_rows(slots, fixed)) for slots in groups.values()]


def _light_splits(layout: SplitLayout, groups, fixed: dict[int, int], f: int):
    """Yield batches of out-mask rows (lists of m ints) that decide whether
    some split graph of ``layout`` whose assignment counter agrees with
    ``fixed`` (slot index -> copy) has a violating partition at f.
    ``groups`` is ``_slot_groups(layout)``.

    Both violations are monotone in arcs: removing arcs from a split graph
    only removes heads and disjoint paths, so a violating partition stays
    violating.  Split nodes own disjoint columns of a row, so a row lies
    below another exactly when each node's (copy-0, copy-1) pair does, and
    it is enough to run the detector on the product of every split node's
    Pareto-minimal pairs (``_node_rows``, then ``_pareto_minimal``).  A batch
    fills at most ``_BATCH_CELLS`` closure cells, C(m, f) * m per row
    (always at least one row), so a layout whose rows fit is one batch.
    """
    m = layout.m
    combos = itertools.product(*_row_tables(groups, fixed))
    step = max(1, _BATCH_CELLS // (math.comb(m, min(f, m)) * m or 1))
    while batch := list(itertools.islice(combos, step)):
        rows = []
        for combo in batch:
            row = list(layout.static)
            for (b0, b1), (a, b) in zip(groups, combo):
                row[b0] = a
                row[b1] = b
            rows.append(row)
        yield rows


def _split_graph_bits(sh: SplitHypergraph) -> tuple[list[int], int, int]:
    gp = sh.graph
    return list(gp.out_union_masks), len(gp.node_order), gp.mask_of(sh.f_prime)


# ---------------------------------------------------------------------------
# canonical witness extraction


def _first_lcr_labelling(out, fprime: int, bits, f: int) -> tuple[int, int, int, int]:
    """The first violating (L, C, R) labelling of the node bits ``bits``.

    Labellings run in ``itertools.product((0, 1, 2))`` order, digit i
    labelling ``bits[i]``; only the labelled nodes act as heads.  A labelling
    violates when L and R are non-empty, at most f heads of L u C point into
    R - F' and at most f heads of R u C point into L - F'.  Returns (index,
    L mask, C mask, R mask).

    The labelling is built digit by digit, trying L, then C, then R, and a
    digit stays when some completion of the prefix still violates.  With the
    labelled nodes forced onto L, C and R, that holds exactly when some head
    sets H1, H2 and nodes x, y outside F' give closures
    A = cl_H1(L u {x}) and B = cl_H2(R u {y}) (see ``_closure_violated``)
    that are disjoint, A avoids C u R and B avoids C u L: A and B are then
    the least bad sets on each side.  A closure of a set is the union of its
    members' closures, so a test is one pair test.  The last pair found
    stays a witness for whichever digit it allows, so that digit needs no
    test, and after the first pair no digit needs more than two.  The
    index is sum(d_i * 3^(len(bits) - 1 - i)).  The search raises
    ``ValueError`` when it would hold more than ``MAX_WITNESS_CLOSURES``
    closures (C(len(bits), f) head sets times m nodes).
    """
    bits = list(bits)
    closures = math.comb(len(bits), min(f, len(bits))) * len(out)
    if closures > MAX_WITNESS_CLOSURES:
        raise ValueError(
            f"the canonical witness over {len(bits)} nodes at f={f} needs {closures} "
            f"closures; at most {MAX_WITNESS_CLOSURES} are held"
        )
    universe = 0
    for b in bits:
        universe |= 1 << b
    m = len(out)
    outs = np.array([[o if universe >> u & 1 else 0 for u, o in enumerate(out)]], dtype=np.int64)
    cl = _closures(outs, m, fprime, universe, min(f, len(bits)))[0]
    seeds = cl[:, [b for b in bits if not fprime >> b & 1]]

    def violating_pair(masks, closed) -> tuple[int, int] | None:
        """Least bad sets (A, B) of a violating completion of the forced
        (L, C, R) masks, or None; ``closed`` holds each head set's closure
        of the forced L and of the forced R."""
        lm, cm, rm = masks
        a = closed[0][:, None] | seeds
        b = closed[2][:, None] | seeds
        return _disjoint_pair(a[(a & (cm | rm)) == 0], b[(b & (cm | lm)) == 0])

    zero = np.zeros(len(cl), dtype=np.int64)
    masks, closed = [0, 0, 0], [zero, None, zero]
    pair = None
    idx = 0
    for b in bits:
        # once a pair (A, B) is found it stays two disjoint bad sets, A
        # holding L and avoiding C u R, B holding R and avoiding C u L: b on
        # L keeps it when b is in A, on C when b is in neither, on R when b
        # is in B, so only the digits tried before that one need a test
        bit = 1 << b
        keeps = pair and (pair[0] & bit, not (pair[0] | pair[1]) & bit, pair[1] & bit)
        for digit in (0, 1, 2):
            trial = masks.copy()
            trial[digit] |= bit
            grown = closed.copy()
            if digit != 1:
                grown[digit] = closed[digit] | cl[:, b]
            if keeps and keeps[digit]:
                break
            if found := violating_pair(trial, grown):
                pair = found
                break
        else:
            break   # no digit keeps a violation; only before the first pair
        masks, closed = trial, grown
        idx = 3 * idx + digit
    if pair is None:
        raise AssertionError("violation vanished during canonical rescan")
    return idx, *masks


def _canonical_lcr_partition(sh: SplitHypergraph, f: int) -> tuple[int, PartitionLCR]:
    out, m, fprime = _split_graph_bits(sh)
    idx, lm, cm, rm = _first_lcr_labelling(out, fprime, range(m), f)
    return idx, _lcr_partition(sh.graph, lm, cm, rm)


def _lcr_partition(g: DirectedHypergraph, *masks: int) -> PartitionLCR:
    """The (L, C, R) partition of ``g``'s nodes given by three bitmasks."""
    return PartitionLCR(*(frozenset(g.nodes_of_mask(mask)) for mask in masks))


def _canonical_ab_partition(sh: SplitHypergraph, f: int) -> tuple[int, PartitionAB]:
    out, m, fprime = _split_graph_bits(sh)
    idx = _ab_split_violated(out, m, fprime, f)
    if idx < 0:
        raise AssertionError("violation vanished during canonical rescan")
    gp = sh.graph
    b_nodes = frozenset(v for i, v in enumerate(gp.node_order) if idx >> (m - 1 - i) & 1)
    return idx, PartitionAB(gp.nodes - b_nodes, b_nodes)


# ---------------------------------------------------------------------------
# top-level checkers


def _ab_batch_violated(out_bits, m: int, fprime: int, f: int) -> int:
    """The reference AB detector over a batch, one split graph at a time:
    the index of the first violating row, or -1."""
    return next(
        (i for i, r in enumerate(out_bits) if _ab_split_violated(r, m, fprime, f) >= 0), -1
    )


def _condition(condition: str):
    """The condition table: condition -> (detector, canonical partition,
    partition base).  The detector decides a batch of split graphs, the
    canonical partition rescans a violating one, and a split graph of m
    nodes has base ** m labellings.  The table is built per call, so it
    holds the functions the module names at that time."""
    table = {
        LCR: (_lcr_split_violated, _canonical_lcr_partition, 3),
        AB: (_ab_batch_violated, _canonical_ab_partition, 2),
    }
    if condition not in table:
        raise ValueError(f"unknown condition {condition!r}")
    return table[condition]


def _scan_fault_set(
    g: DirectedHypergraph, fset: frozenset[int], f: int, condition: str, want_witness: bool = True
) -> tuple[bool, int, int, Violation | None]:
    """Decide one fault set, one split set at a time in ``split_sets`` order.

    Returns ``(holds, splits, partitions, violation)``.  Each split set is
    decided in one pass over its distinct, Pareto-minimal rows
    (``_light_splits`` with every node's highest-id slot pinned on copy 0).
    A row in which the copy 1 of some node v of X has no out-arc goes
    unchecked: that copy lies in F' and no head count, closure or path uses
    it, so the row is a split graph of X - {v} with one dead node added, and
    X - {v} comes earlier in ``split_sets`` order and passed.  Every batch
    still reaches the detector, empty or not, and a split node that heads no
    channel leaves every row of X unchecked.  The first violated split set
    yields the canonical witness: its least violating assignment counter,
    found bit by bit from the highest free slot down (a bit stays 0 when
    some completion of the lower bits still violates, and is 1 otherwise),
    then that split graph's first violating partition; only
    the winning split graph is built.  Counters are arithmetic: a fault set
    that holds counts its whole family, ``lambda_cardinality`` split graphs
    and every labelling of each, and a violated one counts up to its
    witness, as a scan in ``enumerate_lambda`` order would.  With
    ``want_witness`` off, a violated fault set returns ``(False, 0, 0,
    None)`` at the first violating batch.

    An LCR split graph of m > 2f nodes with more than ``MAX_CLOSURE_PAIRS``
    closure pairs raises ``ValueError`` before any row of its split set is built,
    and so does a split node with more than ``MAX_SPLIT_PAIRS`` distinct
    pairs.  An AB split set whose rows hold more than ``MAX_AB_PARTITIONS``
    partitions raises it before the detector runs.
    """
    detect, canonical, base = _condition(condition)
    n0 = len(g.node_order)  # bits n0 .. m - 1 are the copies 1 of X

    def violated(layout: SplitLayout, groups, fixed: dict[int, int]) -> bool:
        return any(
            detect([row for row in rows if all(row[n0:])], layout.m, layout.fprime, f) >= 0
            for rows in _light_splits(layout, groups, fixed, f)
        )

    splits = partitions = 0
    for x, layout in split_layouts(g, fset):
        m = layout.m
        if condition == LCR:
            _admit_lcr(m, f)  # before the DP builds any pair
        groups = _slot_groups(layout)
        fixed = _pinned(groups)
        if condition == AB:
            _admit_ab(m, math.prod(map(len, _row_tables(groups, fixed))))
        if violated(layout, groups, fixed):
            if not want_witness:
                return False, 0, 0, None
            for j in reversed(range(len(layout.slots))):
                if j not in fixed:
                    fixed[j] = 0
                    if not violated(layout, groups, fixed):
                        fixed[j] = 1
            counter = sum(copy << j for j, copy in fixed.items())
            sh = split(g, fset, SplitSpec.make(x, {layout.slots[j][0]: c for j, c in fixed.items()}))
            pidx, part = canonical(sh, f)
            return (
                False,
                splits + counter + 1,
                partitions + counter * base ** m + pidx + 1,
                Violation(fset, sh, part),
            )
        family = 1 << len(layout.slots)
        splits += family
        partitions += family * base ** m
    return True, splits, partitions, None


def check_with_fault_set(
    g: DirectedHypergraph,
    fault_set: Iterable[int],
    f: int,
    condition: str = AB,
    want_witness: bool = True,
) -> tuple[bool, Violation | None]:
    """Check one condition for a single fixed fault set.

    Returns ``(holds, violation)``.  With ``want_witness=False`` the scan
    stops at the first violating split graph and builds no witness.
    """
    require_fault_bound(f)
    holds, _, _, violation = _scan_fault_set(g, frozenset(fault_set), f, condition, want_witness)
    return holds, violation


def _check(
    g: DirectedHypergraph, f: int, condition: str, want_witness: bool = True
) -> ConditionReport | None:
    """The condition's report over every fault set.  With ``want_witness``
    off, a violated condition returns None at its first violated fault set,
    which builds no witness; a report that holds is the same either way."""
    require_fault_bound(f)
    fault_sets = splits_total = partitions_total = 0
    for fset in subsets_by_cardinality(g.nodes, f):
        fault_sets += 1
        holds, splits, partitions, violation = _scan_fault_set(
            g, fset, f, condition, want_witness
        )
        splits_total += splits
        partitions_total += partitions
        if holds:
            continue
        if not want_witness:
            return None
        if not verify_witness(g, f, violation):
            raise AssertionError("witness failed raw re-verification")
        return ConditionReport(
            condition, f, False, fault_sets, splits_total, partitions_total, violation
        )
    return ConditionReport(condition, f, True, fault_sets, splits_total, partitions_total, None)


def check_lcr_hyper(g: DirectedHypergraph, f: int) -> ConditionReport:
    """Quantify the three-part condition over all fault sets, splits, partitions."""
    return _check(g, f, LCR)


def check_ab_hyper(g: DirectedHypergraph, f: int) -> ConditionReport:
    """Quantify the two-part propagation condition over all fault sets, splits, partitions."""
    return _check(g, f, AB)


# ---------------------------------------------------------------------------
# raw-definition witness verification


def verify_witness(g: DirectedHypergraph, f: int, violation: Violation) -> bool:
    """Re-check a reported witness against the raw set-level definitions."""
    fset = violation.fault_set
    if not fset <= g.nodes or len(fset) > f:
        return False
    sh = violation.split
    rebuilt = split(g, fset, sh.spec)
    if rebuilt.graph != sh.graph or rebuilt.f_prime != sh.f_prime:
        return False
    gp = sh.graph
    fp = sh.f_prime
    part = violation.partition
    if isinstance(part, PartitionLCR):
        pieces = (part.left, part.center, part.right)
        if frozenset().union(*pieces) != gp.nodes:
            return False
        if sum(len(p) for p in pieces) != len(gp.nodes):
            return False
        if not part.left or not part.right:
            return False
        clause1 = gp.adjacent(part.left | part.center, part.right - fp, f)
        clause2 = gp.adjacent(part.right | part.center, part.left - fp, f)
        return not clause1 and not clause2
    pieces = (part.side_a, part.side_b)
    if frozenset().union(*pieces) != gp.nodes:
        return False
    if sum(len(p) for p in pieces) != len(gp.nodes):
        return False
    a, b = part.side_a, part.side_b
    if not a or not b:
        return False
    clause1 = propagates(gp, a, b - fp, f, excluded=b & fp)
    clause2 = propagates(gp, b, a - fp, f, excluded=a & fp)
    return not clause1 and not clause2
