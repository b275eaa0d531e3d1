"""README's Library example runs as written and its commented values hold."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs():
    ns = {}
    exec(compile(library_block(), str(README), "exec"), ns)
    assert ns["out"].fidelity_bob == pytest.approx(8.0 / 11.0, abs=1e-10)
    assert ns["out"].fidelity_charlie == pytest.approx(2.0 / 5.0, abs=1e-10)
