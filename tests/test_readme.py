"""Every python code block in README.md runs against the package in src/."""

import contextlib
import io
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)


def _blocks():
    text = README.read_text(encoding="utf-8")
    return [(text.count("\n", 0, m.start()) + 1, m.group(1)) for m in BLOCK.finditer(text)]


def test_readme_has_python_examples():
    assert _blocks()


@pytest.mark.parametrize("line,code", _blocks(), ids=[f"line-{line}" for line, _ in _blocks()])
def test_readme_python_block_runs(line, code):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, f"{README.name}:{line}", "exec"), {"__name__": "readme"})
    printed = out.getvalue().splitlines()
    assert printed, "the example prints nothing"
    # an example that reports an audit or a verdict shows it holding
    assert not any(row.endswith("False") for row in printed), printed
