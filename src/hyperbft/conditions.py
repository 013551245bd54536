"""Checkers for the two equivalent consensus-feasibility conditions.

Both conditions quantify over every candidate fault set F (|F| <= f), every
split of every subset of F, and every partition of the split graph's nodes:

* the three-part condition: for every partition (L, C, R), either L u C has
  f+1 heads into R - F' or R u C has f+1 heads into L - F';
* the two-part condition: for every partition (A, B), either A reaches every
  node of B - F' via f+1 node-disjoint paths once B's fault copies are
  removed, or symmetrically with A and B swapped.

The production scan works on bitmasks (``splitting.split_layout``) and
visits one split graph of every copy-swap class (the predicates are invariant
under relabeling a node's two copies): the one that keeps each split node's
highest-id channel on copy 0, which is also the class's first in canonical
``enumerate_lambda`` order.  The three-part condition is decided with numpy
over batches of split graphs.  So one pass over a fault set's halved family
both decides it and finds its definitional first violating split graph,
which is the only one built.  Reported witnesses are always re-verified
against the raw set-level definitions before being returned.
"""

from __future__ import annotations

import itertools
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
    split_layout,
    split_sets,
)

LCR = "lcr-hyper"
AB = "ab-hyper"

# Largest split graph the LCR detector accepts.  Its tables take 8 bytes per
# subset of the m nodes, so the peak allocation at m = 26 is 512 MiB and
# doubles with every further node.
MAX_LCR_NODES = 26
# Detector cells (rows x 2^m) per batch of split graphs.
_BATCH_CELLS = 1 << 16


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


def _lcr_split_violated(out_bits, m: int, fprime: int, f: int) -> int:
    """The index of the first split graph of a batch that has a violating
    (L, C, R) partition, or -1 when none has.

    ``out_bits`` holds one row of m out-masks per split graph (shape (B, m));
    the rows share m and the fault-copy mask ``fprime``.  Both failing
    clauses reduce to the one-argument predicate
    bad(P) := not adjacent(V' - P, P - F'), so a violation is exactly a
    disjoint pair of non-empty bad sets (L, R; C is whatever remains): some
    bad X whose complement contains a bad set.
    """
    if m > MAX_LCR_NODES:
        raise ValueError(
            f"split graph has {m} nodes; the LCR detector handles at most "
            f"{MAX_LCR_NODES} (its tables grow as 2^m)"
        )
    outs = np.asarray(out_bits, dtype=np.uint32)
    rows = len(outs)
    size = 1 << m
    # targets[P] = P - F'; heads[b, P] = number of heads of V' - P into it
    targets = np.arange(size, dtype=np.uint32) & np.uint32(~fprime & (size - 1))
    heads = np.zeros((rows, size), dtype=np.uint8)
    for u in range(m):
        # the sets P without u, where u is a candidate head
        without_u = heads.reshape(rows, -1, 2, 1 << u)[:, :, 0, :]
        without_u += (outs[:, u, None, None] & targets.reshape(-1, 2, 1 << u)[:, 0, :]) != 0
    bad = (heads <= min(f, m)) & (targets != 0)
    # covered[P]: some bad set is a subset of P (subset-sum transform, one bit at a time)
    covered = bad.copy()
    for i in range(m):
        halves = covered.reshape(rows, -1, 2, 1 << i)
        halves[:, :, 1, :] |= halves[:, :, 0, :]
    # covered[:, ::-1][X] is covered[full ^ X]
    hits = np.flatnonzero((bad & covered[:, ::-1]).any(axis=1))
    return int(hits[0]) if len(hits) else -1


def _ab_clause_fails(out_bits: list[int], m: int, fprime: int, f: int, a_mask: int) -> bool:
    """Whether side A fails to (f+1)-propagate to (V'-A)-F' once the fault
    copies outside A are removed."""
    targets = ((1 << m) - 1) & ~a_mask & ~fprime
    return not propagates_bits(out_bits, m, a_mask, targets, fprime & ~a_mask, f + 1)


def _ab_split_violated(out_bits: list[int], m: int, fprime: int, f: int) -> bool:
    """Existence of a violating (A, B) partition: both clauses fail.

    The clause predicate depends only on its own side, so the scan walks the
    2^(m-1) unordered complement pairs and evaluates the second side lazily."""
    if m == 0:
        return False
    full = (1 << m) - 1
    for a in range(1, 1 << (m - 1)):
        if _ab_clause_fails(out_bits, m, fprime, f, a) and _ab_clause_fails(
            out_bits, m, fprime, f, full & ~a
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# the copy-swap-halved split family


def _light_splits(layout: SplitLayout):
    """Yield (counters, rows) batches that together hold one representative
    of every copy-swap class of the split graphs of ``layout``.

    ``rows`` is a (B, m) int64 array of out-masks, one row per split graph;
    ``counters`` holds each row's assignment counter (its index in the
    split set's ``enumerate_lambda`` range), ascending.  Swapping a split
    node's two copies gives an isomorphic split graph and toggles all of
    the node's counter bits, the highest of which is its highest-id slot.
    Pinning that slot on copy 0 keeps the least counter of every class, so
    the first violating row is the first violating split graph of the full
    range.  A batch fills at most ``_BATCH_CELLS`` detector cells (always
    at least one row).
    """
    # copy-0 bit -> that node's highest-id slot (slots ascend by id: the last one wins)
    highest = {b0: j for j, (_, b0, _, _) in enumerate(layout.slots)}
    static = list(layout.static)
    free = []
    for j, (_, b0, _, tm) in enumerate(layout.slots):
        if highest[b0] == j:
            static[b0] |= tm
        else:
            free.append(j)
    total = 1 << len(free)
    step = max(1, _BATCH_CELLS >> layout.m)
    base = np.array(static, dtype=np.int64)
    for lo in range(0, total, step):
        light = np.arange(lo, min(lo + step, total), dtype=np.int64)
        rows = np.tile(base, (len(light), 1))
        counters = np.zeros_like(light)
        for k, j in enumerate(free):
            _, b0, b1, tm = layout.slots[j]
            bit = light >> k & 1
            counters |= bit << j
            on_copy1 = bit.astype(bool)
            rows[:, b0] |= np.where(on_copy1, 0, tm)
            rows[:, b1] |= np.where(on_copy1, tm, 0)
        yield counters, rows


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
    """
    universe = 0
    for b in bits:
        universe |= 1 << b

    def adjacent(heads_mask: int, into_mask: int) -> bool:
        if not into_mask:
            return True
        count = 0
        rest = heads_mask
        while rest:
            low = rest & -rest
            rest ^= low
            if out[low.bit_length() - 1] & into_mask:
                count += 1
                if count > f:
                    return True
        return False

    for idx, digits in enumerate(itertools.product((0, 1, 2), repeat=len(bits))):
        masks = [0, 0, 0]
        for b, dg in zip(bits, digits):
            masks[dg] |= 1 << b
        lm, cm, rm = masks
        if not lm or not rm:
            continue
        if adjacent(universe & ~rm, rm & ~fprime):
            continue
        if adjacent(universe & ~lm, lm & ~fprime):
            continue
        return idx, lm, cm, rm
    raise AssertionError("violation vanished during canonical rescan")


def _canonical_lcr_partition(sh: SplitHypergraph, f: int) -> tuple[int, PartitionLCR]:
    out, m, fprime = _split_graph_bits(sh)
    idx, lm, cm, rm = _first_lcr_labelling(out, fprime, range(m), f)
    return idx, _lcr_partition(sh.graph, lm, cm, rm)


def _lcr_partition(g: DirectedHypergraph, *masks: int) -> PartitionLCR:
    """The (L, C, R) partition of ``g``'s nodes given by three bitmasks."""
    return PartitionLCR(*(frozenset(g.nodes_of_mask(mask)) for mask in masks))


def _canonical_ab_partition(sh: SplitHypergraph, f: int) -> tuple[int, PartitionAB]:
    out, m, fprime = _split_graph_bits(sh)
    full = (1 << m) - 1
    for idx, digits in enumerate(itertools.product((0, 1), repeat=m)):
        am = 0
        for i, dg in enumerate(digits):
            if dg == 0:
                am |= 1 << i
        bm = full & ~am
        if not am or not bm:
            continue
        if not _ab_clause_fails(out, m, fprime, f, am):
            continue
        if not _ab_clause_fails(out, m, fprime, f, bm):
            continue
        gp = sh.graph
        return idx, PartitionAB(frozenset(gp.nodes_of_mask(am)), frozenset(gp.nodes_of_mask(bm)))
    raise AssertionError("violation vanished during canonical rescan")


# ---------------------------------------------------------------------------
# top-level checkers


def _partition_base(condition: str) -> int:
    return 3 if condition == LCR else 2


def _ab_batch_violated(out_bits, m: int, fprime: int, f: int) -> int:
    """The reference AB detector over a batch, one split graph at a time:
    the index of the first violating row, or -1."""
    rows = np.asarray(out_bits).tolist()
    return next((i for i, row in enumerate(rows) if _ab_split_violated(row, m, fprime, f)), -1)


def _detector(condition: str):
    if condition == LCR:
        return _lcr_split_violated
    if condition == AB:
        return _ab_batch_violated
    raise ValueError(f"unknown condition {condition!r}")


def _scan_fault_set(
    g: DirectedHypergraph, fset: frozenset[int], f: int, condition: str, want_witness: bool = True
) -> tuple[bool, int, int, Violation | None]:
    """Decide one fault set in one pass over its copy-swap-halved split
    family, in ``enumerate_lambda`` order.

    Returns ``(holds, splits, partitions, violation)``.  A fault set that
    holds counts its whole family: ``lambda_cardinality`` split graphs and
    every labelling of each.  A violated one counts through its canonical
    witness, the first violating split graph and that graph's first
    violating partition; only the winning split graph is built.  With
    ``want_witness`` off, a violated fault set returns ``(False, 0, 0,
    None)`` at the first violating row.
    """
    detect = _detector(condition)
    canonical = _canonical_lcr_partition if condition == LCR else _canonical_ab_partition
    base = _partition_base(condition)
    splits = partitions = 0
    for x in split_sets(fset):
        layout = split_layout(g, fset, x)
        m = layout.m
        for counters, rows in _light_splits(layout):
            hit = detect(rows, m, layout.fprime, f)
            if hit < 0:
                continue
            if not want_witness:
                return False, 0, 0, None
            counter = int(counters[hit])
            assignment = {s[0]: counter >> j & 1 for j, s in enumerate(layout.slots)}
            sh = split(g, fset, SplitSpec.make(x, assignment))
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
    holds, _, _, violation = _scan_fault_set(g, frozenset(fault_set), f, condition, want_witness)
    return holds, violation


def _check(g: DirectedHypergraph, f: int, condition: str) -> ConditionReport:
    fault_sets = splits_total = partitions_total = 0
    for fset in subsets_by_cardinality(g.nodes, f):
        fault_sets += 1
        holds, splits, partitions, violation = _scan_fault_set(g, fset, f, condition)
        splits_total += splits
        partitions_total += partitions
        if holds:
            continue
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
