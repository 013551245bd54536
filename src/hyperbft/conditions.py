"""Checkers for the two equivalent consensus-feasibility conditions.

Both conditions quantify over every candidate fault set F (|F| <= f), every
split of every subset of F, and every partition of the split graph's nodes:

* the three-part condition: for every partition (L, C, R), either L u C has
  f+1 heads into R - F' or R u C has f+1 heads into L - F';
* the two-part condition: for every partition (A, B), either A reaches every
  node of B - F' via f+1 node-disjoint paths once B's fault copies are
  removed, or symmetrically with A and B swapped.

The production scan works on bitmasks (``splitting.split_layout``) and skips
copy-swapped duplicate splits (the predicates are invariant under relabeling
a node's two copies); the three-part condition is decided with numpy over
batches of split graphs.  When a violation exists, the violated fault set's
full split family is rescanned in canonical ``enumerate_lambda`` order, in
the same batches, and only the first violating split graph is built, so the
reported witness is the definitional first one.  Reported witnesses are
always re-verified against the raw set-level definitions before being
returned.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .hypergraph import DirectedHypergraph
from .paths import count_disjoint_paths, max_disjoint_paths_bits, reach_closure_bits
from .splitting import (
    SplitHypergraph,
    SplitSpec,
    lambda_cardinality,
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
    full = (1 << m) - 1
    removed = fprime & ~a_mask
    targets = (full & ~a_mask) & ~fprime
    if not targets:
        return False
    reach = reach_closure_bits(out_bits, a_mask, removed)
    if targets & ~reach:
        return True
    t = targets
    while t:
        low = t & -t
        t ^= low
        v = low.bit_length() - 1
        if max_disjoint_paths_bits(out_bits, m, a_mask, v, removed, 0, f + 1) < f + 1:
            return True
    return False


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
# canonical-order enumeration of the split family


def _split_rows(static, slots, m: int):
    """Yield (first counter, rows) batches over every copy assignment of
    ``slots`` in counter order: one (B, m) int64 row of out-masks per
    assignment, starting from ``static``.  A batch fills at most
    ``_BATCH_CELLS`` cells of the detector's tables (always at least one
    row)."""
    total = 1 << len(slots)
    step = max(1, _BATCH_CELLS >> m)
    base = np.array(static, dtype=np.int64)
    for lo in range(0, total, step):
        counters = np.arange(lo, min(lo + step, total), dtype=np.int64)
        outs = np.tile(base, (len(counters), 1))
        for j, (_, b0, b1, tm) in enumerate(slots):
            on_copy1 = (counters >> j & 1).astype(bool)
            outs[:, b0] |= np.where(on_copy1, 0, tm)
            outs[:, b1] |= np.where(on_copy1, tm, 0)
        yield lo, outs


def _light_splits(g: DirectedHypergraph, fault_set: frozenset[int]):
    """Yield (out_bits, m, fprime_mask) batches that together hold one
    representative of every copy-swap class of the split family of
    ``fault_set``.

    ``out_bits`` is a (B, m) int64 array, one row of out-masks per split
    graph in the ``split_layout`` numbering.  The rows of a batch share the
    split set X, hence m and fprime.  The violation predicates are invariant
    under swapping a node's two copies, so each split node's lowest-id
    channel is fixed on copy 0 and only the remaining slots vary.
    """
    for x in split_sets(fault_set):
        layout = split_layout(g, fault_set, x)
        # copy-0 bit -> that node's lowest-id slot (reversed: the first one wins)
        lowest = {slot[1]: slot for slot in reversed(layout.slots)}
        static = list(layout.static)
        for _, b0, _, tm in lowest.values():
            static[b0] |= tm
        free = [slot for slot in layout.slots if lowest[slot[1]] != slot]
        for _, outs in _split_rows(static, free, layout.m):
            yield outs, layout.m, layout.fprime


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


def _partitions_in_family(g: DirectedHypergraph, fault_set: frozenset[int], base: int) -> int:
    """Logical number of partition labelings across the full split family of
    one fault set (used for the deterministic work counters)."""
    return sum(
        (1 << sum(len(g.head_edges(v)) for v in x)) * base ** (len(g.nodes) + len(x))
        for x in split_sets(fault_set)
    )


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


def _fault_set_violated(g: DirectedHypergraph, fset: frozenset[int], f: int, detect) -> bool:
    return any(detect(outs, m, fprime, f) >= 0 for outs, m, fprime in _light_splits(g, fset))


def _first_violation(
    g: DirectedHypergraph, fset: frozenset[int], f: int, condition: str
) -> tuple[int, int, Violation]:
    """Canonical rescan of a violated fault set: the first violating split
    graph in ``enumerate_lambda`` order and its first violating partition.

    The detector walks every split set's full counter range (no copy-swap
    halving: the first violating split may put a node's lowest-id channel on
    copy 1); only the winning split graph is built.  Returns (split index,
    partition index counted across the family, violation).
    """
    detect = _detector(condition)
    base = _partition_base(condition)
    canonical = _canonical_lcr_partition if condition == LCR else _canonical_ab_partition
    splits_before = partitions_before = 0
    for x in split_sets(fset):
        layout = split_layout(g, fset, x)
        m = layout.m
        for lo, outs in _split_rows(layout.static, layout.slots, m):
            hit = detect(outs, m, layout.fprime, f)
            if hit < 0:
                continue
            counter = lo + hit
            assignment = {s[0]: counter >> j & 1 for j, s in enumerate(layout.slots)}
            sh = split(g, fset, SplitSpec.make(x, assignment))
            pidx, part = canonical(sh, f)
            return (
                splits_before + counter,
                partitions_before + counter * base ** m + pidx,
                Violation(fset, sh, part),
            )
        family = 1 << len(layout.slots)
        splits_before += family
        partitions_before += family * base ** m
    raise AssertionError("violation vanished during canonical rescan")


def check_with_fault_set(
    g: DirectedHypergraph,
    fault_set: Iterable[int],
    f: int,
    condition: str = AB,
    want_witness: bool = True,
) -> tuple[bool, Violation | None]:
    """Check one condition for a single fixed fault set.

    Returns ``(holds, violation)``.  With ``want_witness=False`` the canonical
    witness rescan is skipped and only the verdict is computed.
    """
    fset = frozenset(fault_set)
    if not _fault_set_violated(g, fset, f, _detector(condition)):
        return True, None
    if not want_witness:
        return False, None
    return False, _first_violation(g, fset, f, condition)[2]


def _check(g: DirectedHypergraph, f: int, condition: str) -> ConditionReport:
    base = _partition_base(condition)
    detect = _detector(condition)
    fault_sets = 0
    splits_total = 0
    partitions_total = 0
    for fset in subsets_by_cardinality(g.nodes, f):
        fault_sets += 1
        if not _fault_set_violated(g, fset, f, detect):
            splits_total += lambda_cardinality(g, fset)
            partitions_total += _partitions_in_family(g, fset, base)
            continue
        idx, pidx, violation = _first_violation(g, fset, f, condition)
        if not verify_witness(g, f, violation):
            raise AssertionError("witness failed raw re-verification")
        return ConditionReport(
            condition, f, False,
            fault_sets, splits_total + idx + 1, partitions_total + pidx + 1,
            violation,
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
