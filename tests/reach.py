"""List the statements of ``src/pqclab`` that the CLI rows and Tier-1 never reach,
and fail unless Tier-1 passes and reaches every one.

Usage: python3 tests/reach.py

Runs, in this one process and under a ``sys.settrace`` line tracer limited to
the files of ``src/pqclab``:

1. the rows of ``report_fingerprint.py`` (``verify`` and ``audit`` on every
   builder, ``inequalities`` at every sample count), through ``cli.main``;
2. Tier-1, through ``pytest.main`` on ``tests/``, whose subprocess tests run
   untraced.

Then, for each module and each run, it prints the statements inside
functions that the run never reached, by line, with the statement's first
line: a compound statement counts by its header, a docstring or a nested
``def`` not at all.  What neither run reaches, nothing the CLI or the tests
do uses.  It exits 1 when Tier-1 fails or misses any statement, so every
statement, each ``raise`` included, is pinned by an in-process test, and 0
otherwise.  It needs no package beyond the test dependencies.
"""

from __future__ import annotations

import ast
import contextlib
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "pqclab"


def statements(path: Path) -> dict[int, range]:
    """The line span of each statement inside a function body, by its first
    line: a simple statement's whole span, a compound one's header."""
    spans: dict[int, range] = {}

    def visit(body: list[ast.stmt], inside: bool):
        for i, node in enumerate(body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                doc = ast.get_docstring(node, clean=False) is not None
                visit(node.body[doc:], True)
                continue
            bodies = [b for b in (getattr(node, f, None) for f in ("body", "orelse", "finalbody"))
                      if isinstance(b, list) and b]
            bodies += [h.body for h in getattr(node, "handlers", ())]
            if inside and not isinstance(node, (ast.Try, ast.ClassDef, ast.Global, ast.Nonlocal)):
                end = min(b[0].lineno for b in bodies) - 1 if bodies else node.end_lineno
                spans[node.lineno] = range(node.lineno, max(end, node.lineno) + 1)
            for b in bodies:
                visit(b, inside)

    visit(ast.parse(path.read_text(encoding="utf-8")).body, False)
    return spans


def traced(hits: dict[str, set[int]]):
    """A ``sys.settrace`` function recording the lines run in ``SOURCE``."""
    prefix = str(SOURCE) + os.sep

    def call(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        lines = hits[frame.f_code.co_filename]

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line
        return line
    return call


@contextlib.contextmanager
def tracing(hits: dict[str, set[int]]):
    tracer = traced(hits)
    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        yield
    finally:
        sys.settrace(None)
        threading.settrace(None)


def fingerprint_rows():
    sys.path.insert(0, str(ROOT / "tests"))
    import report_fingerprint
    from pqclab.cli import main as cli_main

    for argvs in report_fingerprint.rows().values():
        for argv in argvs:
            report_fingerprint.run(cli_main, argv)


def tier_1() -> int:
    import pytest

    return int(pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                            str(ROOT / "tests")]))


def main() -> None:
    if sys.argv[1:]:
        sys.exit("usage: python3 tests/reach.py")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    runs = {}
    for name, run in (("fingerprint rows", fingerprint_rows), ("Tier-1", tier_1)):
        hits: dict[str, set[int]] = defaultdict(set)
        with tracing(hits):
            result = run()
        runs[name] = hits
        if name == "Tier-1":
            print(f"Tier-1 exit code {result}")
            failed = result != 0
    for path in sorted(SOURCE.glob("*.py")):
        spans, source = statements(path), path.read_text(encoding="utf-8").splitlines()
        for name, hits in runs.items():
            lines = hits[str(path)]
            missed = [first for first, span in sorted(spans.items()) if lines.isdisjoint(span)]
            print(f"{path.relative_to(ROOT)}: {name} misses {len(missed)} of {len(spans)}")
            for first in missed:
                print(f"  {first}: {source[first - 1].strip()}")
            failed |= name == "Tier-1" and bool(missed)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
