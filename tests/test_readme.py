"""The README's library quick tour and command lines run as written."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from click.testing import CliRunner

from hyperbft.cli import main
from hyperbft.formats import serialize_topology
from hyperbft.generators import complete_p2p, cycle_local_broadcast

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_tour_runs() -> None:
    readme = README.read_text()
    section = readme[readme.index("## Library quick tour"):]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None
    exec(compile(block.group(1), f"{README}:quick tour", "exec"), {})


def test_readme_cli_snippets(tmp_path, monkeypatch) -> None:
    """Every ``hyperbft generate``, ``check``, ``crossval`` and ``simulate``
    line of the README's shell blocks, in README order, exits 0 or 2 (never
    1, the usage-error code).  ``union a.txt b.txt`` reads two topologies the
    reader supplies, and ``scenario.json`` is the README's scenario block;
    the test writes them first.  A leading ``NAME=value`` sets an
    environment variable for its line."""
    monkeypatch.chdir(tmp_path)
    readme = README.read_text()
    (tmp_path / "a.txt").write_text(serialize_topology(complete_p2p(3)))
    (tmp_path / "b.txt").write_text(serialize_topology(cycle_local_broadcast(3)))
    scenario = re.search(r"```json\n(.*?)```", readme, re.S)
    assert scenario is not None
    (tmp_path / "scenario.json").write_text(scenario.group(1))
    subcommands = ("generate", "check", "crossval", "simulate")
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
        for line in block.splitlines():
            argv = shlex.split(line, comments=True)
            env = {}
            while argv and re.fullmatch(r"[A-Z_]+=.*", argv[0]):
                name, value = argv.pop(0).split("=", 1)
                env[name] = value
            if argv[:1] == ["hyperbft"] and argv[1] in subcommands:
                commands.append((env, argv[1:]))
    assert {argv[0] for _, argv in commands} == set(subcommands)
    assert {"HYPERBFT_WORKERS": "4"} in [env for env, _ in commands]
    for env, argv in commands:
        res = CliRunner().invoke(main, argv, env=env)
        assert res.exit_code in (0, 2), (env, argv, res.output)
