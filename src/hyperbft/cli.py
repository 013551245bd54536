"""Command-line front end for the condition checkers and the simulator.

Subcommands:

* ``check``     — audit a topology file against the agreement feasibility
  condition (adjacency-based or propagation-based form).
* ``simulate``  — run the consensus protocol on a scenario file, optionally
  sweeping fault sets, inputs, or adversaries.
* ``generate``  — emit standard topology fixtures or random instances.
* ``crossval``  — cross-validate the general checker against the reduced
  conditions for restricted topology classes.

Exit codes are uniform across subcommands: 0 when the checked property holds
(or every simulated run passes), 2 when a violation or failing run was found,
and 1 for I/O, parse, or parameter errors.
"""

from __future__ import annotations

import random
import sys
from collections.abc import Iterator
from contextlib import contextmanager

import click

from .conditions import check_ab_hyper, check_lcr_hyper
from .formats import (
    FormatError,
    canonical_json,
    parse_scenario,
    parse_topology,
    render_condition_report,
    render_run_result,
    render_sweep_report,
    serialize_topology,
)
from .generators import (
    all_local_broadcast_graphs,
    all_p2p_graphs,
    all_undirected_hypergraphs,
    complete_p2p,
    cycle_local_broadcast,
    interlocked_example,
    random_hypergraph,
    random_p2p,
    sample_local_broadcast_graphs,
    sample_undirected_hypergraphs,
    union_hypergraph,
)
from .hypergraph import DirectedHypergraph
from .protocol import run_scenario, sweep_scenarios
from .reductions import counterexample_hypergraph, cross_validate_reduction


def _error(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


def _read_topology(path: str) -> DirectedHypergraph:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        _error(f"cannot read {path}: {exc.strerror or exc}")
    try:
        return parse_topology(text)
    except FormatError as exc:
        _error(f"{path}: {exc}")
    raise AssertionError("unreachable")


class _Cli(click.Group):
    """Click exits 2 on a usage error (a missing or malformed argument or
    option, an unknown subcommand); here 2 means a violation, so usage
    errors exit 1 like every other parameter error."""

    def make_context(self, *args, **kwargs):
        with _usage_errors_exit_1():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _usage_errors_exit_1():
            return super().invoke(ctx)


@contextmanager
def _usage_errors_exit_1():
    try:
        yield
    except click.UsageError as exc:
        exc.exit_code = 1
        raise


@click.group(cls=_Cli)
def main() -> None:
    """Byzantine agreement on directed hypergraphs: checkers and simulator."""


# ---------------------------------------------------------------------------
# check


@main.command()
@click.argument("path", type=click.Path())
@click.option("--f", "f", type=click.IntRange(min=0), required=True, help="Fault budget.")
@click.option(
    "--condition",
    type=click.Choice(["lcr", "ab", "auto"]),
    default="auto",
    show_default=True,
    help="Condition form; the two are equivalent. auto runs the LCR form; "
    "ab is the slower reference form.",
)
@click.option("--json", "as_json", is_flag=True, help="Emit the machine-readable report.")
def check(path: str, f: int, condition: str, as_json: bool) -> None:
    """Check whether agreement is solvable on the topology in PATH."""
    g = _read_topology(path)
    checker = check_ab_hyper if condition == "ab" else check_lcr_hyper
    try:
        report = checker(g, f)
    except ValueError as exc:
        _error(str(exc))
    if as_json:
        click.echo(canonical_json(report), nl=False)
    else:
        click.echo(render_condition_report(report), nl=False)
    sys.exit(0 if report.holds else 2)


# ---------------------------------------------------------------------------
# simulate


_SWEEP_CHOICES = ("faulty-sets", "inputs", "adversaries", "all")


@main.command()
@click.argument("scenario", type=click.Path())
@click.option(
    "--sweep",
    type=click.Choice(_SWEEP_CHOICES),
    default=None,
    help="Sweep one scenario dimension (or all three) instead of a single run.",
)
@click.option("--json", "as_json", is_flag=True, help="Emit the machine-readable report.")
def simulate(scenario: str, sweep: str | None, as_json: bool) -> None:
    """Run the consensus protocol on the scenario file SCENARIO.

    Without --sweep this performs the single configured run.  With --sweep
    the chosen dimension is varied over its full range (fault sets of size at
    most f, all input assignments, or the whole adversary library) while the
    other fields stay pinned to the scenario values.  Worker count for sweeps
    comes from the HYPERBFT_WORKERS environment variable.
    """
    try:
        with open(scenario, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        _error(f"cannot read {scenario}: {exc.strerror or exc}")
    try:
        scn = parse_scenario(text)
    except (ValueError, FormatError) as exc:
        _error(f"{scenario}: {exc}")

    g = scn["graph"]
    f = scn["f"]
    try:
        if sweep is None:
            result = run_scenario(g, f, scn["faulty"], scn["inputs"], scn["adversary"])
            ok = result.ok
            text_out = render_run_result(result)
        else:
            kwargs = {
                "faulty_sets": [scn["faulty"]],
                "adversaries": [scn["adversary"]],
                "input_choices": [scn["inputs"]],
            }
            if sweep in ("faulty-sets", "all"):
                kwargs["faulty_sets"] = None
            if sweep in ("inputs", "all"):
                kwargs["input_choices"] = None
            if sweep in ("adversaries", "all"):
                kwargs["adversaries"] = None
            result = sweep_scenarios(g, f, **kwargs)
            ok = not result.failures
            text_out = render_sweep_report(result)
    except ValueError as exc:
        _error(str(exc))
    if as_json:
        click.echo(canonical_json(result), nl=False)
    else:
        click.echo(text_out, nl=False)
    sys.exit(0 if ok else 2)


# ---------------------------------------------------------------------------
# generate


def _generate_graph(kind: str, args: tuple[str, ...]) -> DirectedHypergraph:
    def want(count: int) -> None:
        if len(args) != count:
            noun = "argument" if count == 1 else "arguments"
            _error(f"{kind} takes {count} {noun}, got {len(args)}")

    def as_int(value: str, name: str) -> int:
        try:
            return int(value)
        except ValueError:
            _error(f"{name} must be an integer, got {value!r}")
        raise AssertionError("unreachable")

    try:
        if kind == "complete_p2p":
            want(1)
            return complete_p2p(as_int(args[0], "n"))
        if kind == "cycle_local_broadcast":
            want(1)
            return cycle_local_broadcast(as_int(args[0], "n"))
        if kind == "figure1b":
            want(0)
            return interlocked_example()
        if kind == "counterexample":
            want(1)
            return counterexample_hypergraph(as_int(args[0], "f"))
        if kind == "union":
            want(2)
            return union_hypergraph(_read_topology(args[0]), _read_topology(args[1]))
        if kind == "random":
            want(3)
            return random_hypergraph(
                as_int(args[0], "n"), as_int(args[1], "edges"), as_int(args[2], "seed")
            )
    except ValueError as exc:
        _error(str(exc))
    _error(
        f"unknown kind {kind!r}; choose from complete_p2p, cycle_local_broadcast, "
        "figure1b, counterexample, union, random"
    )
    raise AssertionError("unreachable")


@main.command()
@click.argument("kind")
@click.argument("args", nargs=-1)
@click.option("--out", type=click.Path(), default=None, help="Write to a file instead of stdout.")
def generate(kind: str, args: tuple[str, ...], out: str | None) -> None:
    """Emit a topology: complete_p2p N | cycle_local_broadcast N | figure1b |
    counterexample F | union FILE1 FILE2 | random N EDGES SEED."""
    g = _generate_graph(kind, args)
    text = serialize_topology(g)
    if out is None:
        click.echo(text, nl=False)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            _error(f"cannot write {out}: {exc.strerror or exc}")


# ---------------------------------------------------------------------------
# crossval


def _family(klass: str, n: int, sample: int | None, seed: int) -> Iterator[DirectedHypergraph]:
    if sample is None:
        if klass == "p2p":
            return all_p2p_graphs(n)
        if klass == "local":
            return all_local_broadcast_graphs(n)
        return all_undirected_hypergraphs(n)
    if klass == "p2p":
        rng = random.Random(seed * 1_000_003 + n)
        return iter(
            random_p2p(n, rng.randint(0, n * (n - 1)), rng.randrange(2**32))
            for _ in range(sample)
        )
    if klass == "local":
        return sample_local_broadcast_graphs(n, sample, seed + n)
    return sample_undirected_hypergraphs(n, sample, seed + n)


@main.command()
@click.option(
    "--class",
    "--klass",
    "klass",
    type=click.Choice(["p2p", "local", "undirected"]),
    required=True,
    help="Topology class whose reduced condition is cross-validated.",
)
@click.option(
    "--n-max", type=click.IntRange(min=2), required=True, help="Largest node count to enumerate."
)
@click.option("--f", "f", type=click.IntRange(min=0), required=True, help="Fault budget.")
@click.option(
    "--sample",
    type=click.IntRange(min=1),
    default=None,
    help="Sample this many instances per node count instead of exhaustive enumeration.",
)
@click.option("--seed", type=int, default=0, show_default=True, help="Sampling seed.")
@click.option("--json", "as_json", is_flag=True, help="Emit the machine-readable summary.")
def crossval(
    klass: str, n_max: int, f: int, sample: int | None, seed: int, as_json: bool
) -> None:
    """Compare the general checker with the reduced per-class conditions.

    Enumerates every instance of the class with 2 <= n <= n-max (or --sample
    random instances per node count) and reports any verdict disagreement.
    """
    per_n: list[dict[str, int]] = []
    disagreements: list[dict[str, object]] = []
    for n in range(2, n_max + 1):
        checked = holds = 0
        for g in _family(klass, n, sample, seed):
            try:
                res = cross_validate_reduction(g, f, klass)
            except ValueError as exc:
                _error(str(exc))
            checked += 1
            holds += res.general
            if not res.agree:
                disagreements.append(
                    {
                        "n": n,
                        "general": res.general,
                        "reduced": res.reduced,
                        "classic": res.classic,
                        "topology": serialize_topology(g),
                    }
                )
        per_n.append({"n": n, "instances": checked, "holds": holds})
    summary = {
        "klass": klass,
        "f": f,
        "mode": "exhaustive" if sample is None else f"sample={sample} seed={seed}",
        "per_n": per_n,
        "instances": sum(row["instances"] for row in per_n),
        "disagreements": len(disagreements),
        "mismatches": disagreements,
    }
    if as_json:
        click.echo(canonical_json(summary), nl=False)
    else:
        click.echo(f"class: {klass}")
        click.echo(f"f: {f}")
        click.echo(f"mode: {summary['mode']}")
        for row in per_n:
            click.echo(
                f"n={row['n']}: instances={row['instances']} holds={row['holds']}"
            )
        click.echo(f"instances: {summary['instances']}")
        click.echo(f"disagreements: {len(disagreements)}")
        for miss in disagreements[:5]:
            click.echo(
                f"  n={miss['n']} general={miss['general']}"
                f" reduced={miss['reduced']} classic={miss['classic']}"
            )
    sys.exit(0 if not disagreements else 2)


if __name__ == "__main__":
    main()
