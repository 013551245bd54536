"""The README's library quick tour runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_tour_runs() -> None:
    readme = README.read_text()
    section = readme[readme.index("## Library quick tour"):]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None
    exec(compile(block.group(1), f"{README}:quick tour", "exec"), {})
