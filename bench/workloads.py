"""The four workloads: how each builds its corpus from a seed, what one op
is, and how the op's output is checked.

Every op calls the public functions the ``hyperbft`` command line calls,
looked up on their modules at call time so the traced run sees its wrappers.
Corpora are drawn from the program's seeded samplers and then picked to a
fixed work profile (node counts, trail counts, split counts fixed per
workload), so a new seed changes the graphs but not the mix of op costs.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

from hyperbft import conditions, formats, generators, hypergraph, necessity, protocol, reductions

import hostspeed
import reference

F = 1


@dataclass
class Op:
    """One timed call.  ``prepare`` (untimed) makes the argument, ``run`` is
    timed, ``check`` (untimed) compares the output with the expectation."""

    run: Callable[[Any], Any]
    check: Callable[[Any], bool]
    prepare: Callable[[], Any] = lambda: None


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], list[Op]]
    tail_pct: int      # the op_tail_ms percentile
    min_rounds: int    # rounds every run makes, so >= 10 ops lie beyond tail_pct
    snippet: hostspeed.Snippet  # the host-speed snippet nearest to the ops' work


def _geometric(lo: float, hi: float, count: int) -> list[float]:
    ratio = (hi / lo) ** (1 / (count - 1))
    return [lo * ratio**i for i in range(count)]


def _pick_nearest(candidates: list[tuple[int, Any]], targets: list[float]) -> list[Any]:
    """For each target, the unused candidate whose size is nearest to it on a
    log scale (earliest candidate on ties).  ``candidates`` are (size, item)
    pairs in draw order."""
    used: set[int] = set()
    picked = []
    for t in targets:
        best = min(
            (i for i in range(len(candidates)) if i not in used),
            key=lambda i: (abs(math.log(candidates[i][0] / t)), i),
        )
        used.add(best)
        picked.append(candidates[best][1])
    return picked


def _fresh(g):
    """An equal graph object with no cached properties, as a new process
    would parse it."""
    return hypergraph.DirectedHypergraph(g.n, g.edges)


# ---------------------------------------------------------------------------
# crossval_undirected: cross_validate_reduction on n=5 undirected hypergraphs

CROSSVAL_POOL = 1500
# passing graphs picked at these light-split counts: a log-uniform spread,
# and dense bands where the median and the p90 op fall
CROSSVAL_SPLITS = (
    _geometric(32, 8192, 40) + _geometric(800, 1300, 40) + _geometric(3500, 4500, 10)
)
CROSSVAL_VIOLATING = 10          # the first violating graphs of the draw


def crossval_ops(seed: int) -> list[Op]:
    pool = list(generators.sample_undirected_hypergraphs(5, CROSSVAL_POOL, seed))
    passing, violating = [], []
    for g in pool:
        holds = reference.undirected_f1_holds(g)
        if holds:
            passing.append((reference.light_split_count(g), g))
        elif len(violating) < CROSSVAL_VIOLATING:
            violating.append(g)
    picked = _pick_nearest(passing, CROSSVAL_SPLITS)
    corpus = [(g, True) for g in picked] + [(g, False) for g in violating]

    def op(g, expected: bool) -> Op:
        return Op(
            prepare=lambda: _fresh(g),
            run=lambda fresh: reductions.cross_validate_reduction(fresh, F, "undirected"),
            check=lambda res: reference.crossval_ok(res, expected),
        )

    return [op(g, expected) for g, expected in corpus]


# ---------------------------------------------------------------------------
# broadcast_large: `hyperbft check --json` on n = 12-13 local-broadcast graphs

BROADCAST_PASSING = {12: 14, 13: 12}   # rings included
BROADCAST_VIOLATING = {12: 2, 13: 2}
BROADCAST_P = (0.25, 0.45)


def _broadcast_text(n: int, adj: dict[int, set[int]]) -> str:
    lines = [f"hypergraph n={n}"]
    for u in range(n):
        lines.append(f"edge {u} {u} -> " + " ".join(str(v) for v in sorted(adj[u])))
    return "\n".join(lines) + "\n"


def _random_adjacency(rng: random.Random, n: int, p: float) -> dict[int, set[int]]:
    while True:
        adj: dict[int, set[int]] = {v: set() for v in range(n)}
        for u, v in itertools.combinations(range(n), 2):
            if rng.random() < p:
                adj[u].add(v)
                adj[v].add(u)
        if all(adj.values()):
            return adj


def broadcast_corpus(seed: int) -> list[tuple[str, bool]]:
    """(topology text, expected verdict) pairs.  Passing graphs are rings and
    seeded G(n, p) graphs, at edge probabilities spread evenly over
    BROADCAST_P, that pass the closed form; violating graphs hang a pendant
    node n-1 off a seeded G(n-1, p) graph, so each fails at the empty fault
    set."""
    rng = random.Random(seed)
    lo, hi = BROADCAST_P
    corpus: list[tuple[str, bool]] = []
    for n, count in BROADCAST_PASSING.items():
        ring = {v: {(v - 1) % n, (v + 1) % n} for v in range(n)}
        corpus.append((_broadcast_text(n, ring), True))
        for i in range(count - 1):
            p = lo + (hi - lo) * i / (count - 2)
            while True:
                adj = _random_adjacency(rng, n, p)
                g = hypergraph.DirectedHypergraph.from_edge_tuples(
                    n, [(u, tuple(sorted(adj[u]))) for u in range(n)]
                )
                if reference.local_broadcast_f1_holds(g):
                    break
            corpus.append((_broadcast_text(n, adj), True))
    for n, count in BROADCAST_VIOLATING.items():
        for i in range(count):
            adj = _random_adjacency(rng, n - 1, lo + (hi - lo) * i / max(count - 1, 1))
            adj[n - 1] = set()
            anchor = rng.randrange(n - 1)
            adj[n - 1].add(anchor)
            adj[anchor].add(n - 1)
            corpus.append((_broadcast_text(n, adj), False))
    return corpus


def broadcast_ops(seed: int) -> list[Op]:
    def run(text: str) -> str:
        g = formats.parse_topology(text)
        report = conditions.check_lcr_hyper(g, F)
        return formats.canonical_json(report)

    def op(text: str, expected: bool) -> Op:
        return Op(
            prepare=lambda: text,
            run=run,
            check=lambda out: reference.check_json_ok(json.loads(out), expected, F),
        )

    return [op(text, expected) for text, expected in broadcast_corpus(seed)]


# ---------------------------------------------------------------------------
# sweep_feasible: one (graph, fault set, adversary) cell over every input

SWEEP_POOL = 200
# n=5 graphs picked at these trail counts; with K4 and C4 they make the 32
# engines get_engine caches
SWEEP_N5_TRAILS = _geometric(600, 4000, 30)


def sweep_graphs(seed: int) -> list:
    """K4, C4 and the n=5 graphs of criterion 4's sampler nearest to the
    trail counts SWEEP_N5_TRAILS.  The draw is widened until it holds enough
    n=5 graphs."""
    pool = SWEEP_POOL
    while True:
        sampled = [g for g, _ in generators.sample_condition_passing(pool, 6, F, seed)]
        five = [(reference.trail_count(g), g) for g in sampled if g.n == 5]
        if len(five) >= len(SWEEP_N5_TRAILS):
            break
        pool *= 2
    graphs = [generators.complete_p2p(4), generators.cycle_local_broadcast(4)]
    return graphs + _pick_nearest(five, SWEEP_N5_TRAILS)


def _reset_phase_memo(engine) -> None:
    """Empty the engine's per-run phase memo, so every op starts with the
    memo a fresh `hyperbft simulate` process has.  The engine itself stays
    built, as set-up built it."""
    memo = getattr(engine, "_cache", None)
    if memo is not None:
        memo.clear()


def sweep_ops(seed: int) -> list[Op]:
    """Seven cells per graph: the fault-free run, and each adversary on a
    seeded faulty node."""
    rng = random.Random(seed)
    ops = []
    for g in sweep_graphs(seed):
        protocol.get_engine(g, F)
        cells = [(frozenset(), "honest")] + [
            (frozenset({rng.randrange(g.n)}), adv) for adv in protocol.ADVERSARY_NAMES
        ]
        ops += [_sweep_op(g, fset, adv) for fset, adv in cells]
    return ops


def _sweep_op(g, fset: frozenset, adv: str) -> Op:
    assignments = [dict(zip(range(g.n), bits)) for bits in itertools.product((0, 1), repeat=g.n)]

    def prepare():
        _reset_phase_memo(protocol.get_engine(g, F))

    def run(_):
        return [protocol.run_scenario(g, F, fset, inputs, adv) for inputs in assignments]

    def check(results) -> bool:
        return len(results) == 2**g.n and all(
            reference.sweep_run_ok(r, g.n, fset, inputs)
            for r, inputs in zip(results, assignments)
        )

    return Op(prepare=prepare, run=run, check=check)


# ---------------------------------------------------------------------------
# necessity_harness: build_necessity_executions with the sampler's witness

NECESSITY_POOL = 360
NECESSITY_BAND = (20, 110)      # base trail counts the sampled graphs keep to
NECESSITY_TRAILS = _geometric(*NECESSITY_BAND, 159)


def necessity_cases(seed: int) -> list:
    """(graph, witness) pairs: the triangle K3 and sampled violating graphs
    picked at the base trail counts NECESSITY_TRAILS, each with its checker
    witness.  The draw is widened until the band holds enough graphs."""
    lo, hi = NECESSITY_BAND
    pool = NECESSITY_POOL
    while True:
        sampled = generators.sample_condition_violating(pool, 6, F, seed)
        cands = [
            (trails, (g, rep.violation))
            for g, rep in sampled
            if lo <= (trails := reference.trail_count(g)) <= hi
        ]
        if len(cands) >= len(NECESSITY_TRAILS):
            break
        pool *= 2
    k3 = generators.complete_p2p(3)
    return [(k3, conditions.check_lcr_hyper(k3, F).violation)] + _pick_nearest(
        cands, NECESSITY_TRAILS
    )


def necessity_ops(seed: int) -> list[Op]:
    """A round holds more graphs than the 32 engines get_engine caches, so
    every op builds its graph's engine, as a first call on a graph does."""
    return [
        Op(
            prepare=lambda g=g, v=violation: (g, v),
            run=lambda arg: necessity.build_necessity_executions(arg[0], F, arg[1]),
            check=lambda rep, v=violation: reference.necessity_ok(rep, F, v),
        )
        for g, violation in necessity_cases(seed)
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("crossval_undirected", crossval_ops, tail_pct=90, min_rounds=1,
                 snippet=hostspeed.BITS),
        Workload("broadcast_large", broadcast_ops, tail_pct=80, min_rounds=2,
                 snippet=hostspeed.BITS),
        Workload("sweep_feasible", sweep_ops, tail_pct=95, min_rounds=1,
                 snippet=hostspeed.OBJECTS),
        Workload("necessity_harness", necessity_ops, tail_pct=90, min_rounds=1,
                 snippet=hostspeed.OBJECTS),
    )
}
