"""Constructors for common topologies, exhaustive families, and random samplers.

Everything here is deterministic: families enumerate in a fixed order and the
random constructors derive all choices from an explicit seed.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator

from .conditions import LCR, ConditionReport, _check, check_lcr_hyper
from .hypergraph import DirectedHypergraph
from .reductions import counterexample_hypergraph

__all__ = [
    "complete_p2p",
    "cycle_local_broadcast",
    "path_local_broadcast",
    "two_channel_example",
    "interlocked_example",
    "counterexample_hypergraph",
    "union_hypergraph",
    "random_hypergraph",
    "random_p2p",
    "all_p2p_graphs",
    "all_local_broadcast_graphs",
    "all_undirected_hypergraphs",
    "sample_local_broadcast_graphs",
    "sample_undirected_hypergraphs",
    "sample_condition_passing",
    "sample_condition_violating",
]


def complete_p2p(n: int) -> DirectedHypergraph:
    """Complete point-to-point network: one single-tail channel per ordered pair."""
    pairs = [(u, (v,)) for u in range(n) for v in range(n) if v != u]
    return DirectedHypergraph.from_edge_tuples(n, pairs)


def cycle_local_broadcast(n: int) -> DirectedHypergraph:
    """Ring of n nodes, each broadcasting on one channel to both ring neighbors."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 nodes")
    pairs = [(u, ((u - 1) % n, (u + 1) % n)) for u in range(n)]
    return DirectedHypergraph.from_edge_tuples(n, pairs)


def path_local_broadcast(n: int) -> DirectedHypergraph:
    """Path of n nodes, each broadcasting on one channel to its path neighbors."""
    if n < 2:
        raise ValueError("a path needs at least 2 nodes")
    pairs = []
    for u in range(n):
        nbrs = tuple(v for v in (u - 1, u + 1) if 0 <= v < n)
        pairs.append((u, nbrs))
    return DirectedHypergraph.from_edge_tuples(n, pairs)


def two_channel_example() -> DirectedHypergraph:
    """Four nodes; node 1 heads two multicast channels covering the others."""
    return DirectedHypergraph.from_edge_tuples(4, [(1, (0, 2)), (1, (2, 3))])


def interlocked_example() -> DirectedHypergraph:
    """Four nodes with two multicast channels each at nodes 0 and 1, plus
    single-tail back-channels from nodes 2 and 3."""
    return DirectedHypergraph.from_edge_tuples(
        4,
        [(0, (1, 2)), (0, (2, 3)), (1, (0, 3)), (1, (2, 3)), (2, (0,)), (3, (1,))],
    )


def union_hypergraph(g1: DirectedHypergraph, g2: DirectedHypergraph) -> DirectedHypergraph:
    """Combine two networks on the same node set: every node keeps the
    channels it heads in both graphs.  Edge ids are renumbered sequentially."""
    if g1.n != g2.n or g1.nodes != g2.nodes:
        raise ValueError("union requires identical node sets")
    pairs = [(e.head, tuple(e.sorted_tails())) for e in g1.edges]
    pairs += [(e.head, tuple(e.sorted_tails())) for e in g2.edges]
    return DirectedHypergraph.from_edge_tuples(g1.n, pairs)


def random_hypergraph(
    n: int, m: int, seed: int, max_tail_size: int | None = None
) -> DirectedHypergraph:
    """m random channels on n nodes; head and tail set drawn from the seed."""
    if n < 2:
        raise ValueError("need at least 2 nodes")
    if m < 0:
        raise ValueError(f"the channel count must be non-negative, got {m}")
    rng = random.Random(seed)
    cap = n - 1 if max_tail_size is None else min(max_tail_size, n - 1)
    pairs = []
    for _ in range(m):
        head = rng.randrange(n)
        k = rng.randint(1, cap)
        others = [v for v in range(n) if v != head]
        tails = tuple(sorted(rng.sample(others, k)))
        pairs.append((head, tails))
    return DirectedHypergraph.from_edge_tuples(n, pairs)


def random_p2p(n: int, arcs: int, seed: int) -> DirectedHypergraph:
    """Random simple digraph with the given number of arcs, as single-tail channels."""
    rng = random.Random(seed)
    universe = [(u, v) for u in range(n) for v in range(n) if u != v]
    chosen = rng.sample(universe, min(arcs, len(universe)))
    pairs = [(u, (v,)) for u, v in sorted(chosen)]
    return DirectedHypergraph.from_edge_tuples(n, pairs)


# ---------------------------------------------------------------------------
# exhaustive families (used by cross-validation)


def all_p2p_graphs(n: int) -> Iterator[DirectedHypergraph]:
    """Every simple digraph on n labeled nodes, as single-tail hypergraphs."""
    universe = [(u, v) for u in range(n) for v in range(n) if u != v]
    for r in range(1 << len(universe)):
        pairs = [(u, (v,)) for i, (u, v) in enumerate(universe) if r >> i & 1]
        yield DirectedHypergraph.from_edge_tuples(n, pairs)


def all_local_broadcast_graphs(n: int) -> Iterator[DirectedHypergraph]:
    """Every assignment of one non-empty broadcast channel to each of n nodes."""
    per_node = []
    for u in range(n):
        others = [v for v in range(n) if v != u]
        per_node.append(
            [tuple(c) for k in range(1, n) for c in itertools.combinations(others, k)]
        )
    for combo in itertools.product(*per_node):
        yield DirectedHypergraph.from_edge_tuples(n, list(enumerate(combo)))


def _undirected_candidates(n: int) -> list[tuple[int, ...]]:
    return [c for k in range(2, n + 1) for c in itertools.combinations(range(n), k)]


def _undirected_from_subset(n: int, cands: list[tuple[int, ...]], mask: int) -> DirectedHypergraph:
    pairs = []
    for i, s in enumerate(cands):
        if mask >> i & 1:
            for head in s:
                pairs.append((head, tuple(v for v in s if v != head)))
    return DirectedHypergraph.from_edge_tuples(n, pairs)


def all_undirected_hypergraphs(n: int) -> Iterator[DirectedHypergraph]:
    """Every undirected hypergraph on n labeled nodes (each undirected
    hyperedge expands to one directed channel per member)."""
    cands = _undirected_candidates(n)
    for r in range(1 << len(cands)):
        yield _undirected_from_subset(n, cands, r)


def sample_local_broadcast_graphs(n: int, count: int, seed: int) -> Iterator[DirectedHypergraph]:
    """Seeded sample of the local-broadcast family (one channel per node)."""
    rng = random.Random(seed)
    others = {u: [v for v in range(n) if v != u] for u in range(n)}
    for _ in range(count):
        pairs = []
        for u in range(n):
            k = rng.randint(1, n - 1)
            pairs.append((u, tuple(sorted(rng.sample(others[u], k)))))
        yield DirectedHypergraph.from_edge_tuples(n, pairs)


def sample_undirected_hypergraphs(n: int, count: int, seed: int) -> Iterator[DirectedHypergraph]:
    """Seeded sample of undirected hypergraphs with varying density."""
    rng = random.Random(seed)
    cands = _undirected_candidates(n)
    for _ in range(count):
        density = rng.uniform(0.05, 0.9)
        mask = 0
        for i in range(len(cands)):
            if rng.random() < density:
                mask |= 1 << i
        yield _undirected_from_subset(n, cands, mask)


# ---------------------------------------------------------------------------
# condition-targeted samplers


def _random_candidates(n_max: int, f: int, seed: int) -> Iterator[DirectedHypergraph]:
    """Endless deterministic stream of random graphs biased toward densities
    where the feasibility condition is in play."""
    rng = random.Random(seed)
    while True:
        n = rng.randint(max(3, 2 * f + 1), n_max)
        dense = rng.random() < 0.5
        if dense:
            m = rng.randint(2 * n, 3 * n + 2)
            cap = min(4, n - 1)
        else:
            m = rng.randint(n, 2 * n)
            cap = min(2, n - 1)
        yield random_hypergraph(n, m, rng.randrange(1 << 30), max_tail_size=cap)


def sample_condition_passing(
    count: int, n_max: int, f: int, seed: int, max_tries: int = 20000
) -> list[tuple[DirectedHypergraph, ConditionReport]]:
    """Deterministically collect graphs that satisfy the feasibility condition."""
    return _sample_condition(True, count, n_max, f, seed, max_tries)


def sample_condition_violating(
    count: int, n_max: int, f: int, seed: int, max_tries: int = 20000
) -> list[tuple[DirectedHypergraph, ConditionReport]]:
    """Deterministically collect graphs that violate the feasibility condition,
    with their witness reports."""
    return _sample_condition(False, count, n_max, f, seed, max_tries)


def _sample_condition(
    holds: bool, count: int, n_max: int, f: int, seed: int, max_tries: int
) -> list[tuple[DirectedHypergraph, ConditionReport]]:
    """The first ``count`` graphs of the candidate stream whose condition
    report ``holds`` as asked, within ``max_tries`` draws."""
    found: list[tuple[DirectedHypergraph, ConditionReport]] = []
    stream = _random_candidates(n_max, f, seed)
    for _ in range(max_tries):
        if len(found) >= count:
            break
        g = next(stream)
        if holds:
            # a violating draw is thrown away, so it is decided without a witness
            report = _check(g, f, LCR, want_witness=False)
        else:
            report = check_lcr_hyper(g, f)
        if report is not None and report.holds == holds:
            found.append((g, report))
    if len(found) < count:
        kind = "passing" if holds else "violating"
        raise RuntimeError(f"found only {len(found)} {kind} graphs in {max_tries} tries")
    return found
