"""Fingerprint the reports the CLI writes on the benchmark's rows.

Usage: python3 tests/report_fingerprint.py [--rows] [--peaks] [--cpu]

Runs in this one process, with a 1 GiB address-space cap and one BLAS thread:

* ``verify`` and ``audit`` on every builder at every n the admission check
  accepts and at the first n it refuses (``bench/workloads.py``), at seeds
  0 and 7: 132 rows;
* ``inequalities`` at seeds 0-9 and at the row seeds of the benchmark's
  ``inequalities`` workload for workload seeds 0 and 1, each at
  ``--samples`` 1, 7, 127, 128, 129, 200 and 500: 140 reports.

Each report's ``timestamp`` field is dropped.  For each set the script prints
the count of each exit code and one sha256 over every row's argv, exit code,
stdout and stderr, so two checkouts that print the same lines wrote the same
reports.  With ``--rows`` it prints, after those lines, one line per row:
its argv, its exit code and the sha256 of its stdout and of its stderr, so
the outputs of two checkouts can be diffed row by row.  With ``--peaks``
it prints, after those, one line per row: its argv and the tracemalloc peak of its
``main(argv)`` in MiB, so two checkouts' peaks can be diffed the same way.
With ``--cpu`` it prints, last, one line per row: its argv and the
least process CPU time of five more untraced runs of its ``main(argv)`` in
ms, so two checkouts' per-row times can be diffed on one machine.
It imports ``pqclab`` from the ``src`` next to this file.
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import importlib.util
import io
import os
import re
import resource
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')
SAMPLES = (1, 7, 127, 128, 129, 200, 500)
CPU_RUNS = 5


def _workloads():
    path = ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


def rows() -> dict[str, list[list[str]]]:
    w = _workloads()
    verdicts = [[command, builder, "--n", str(n), "--seed", str(seed)]
                for seed in (0, 7) for command in ("verify", "audit")
                for builder, ns in w.ACCEPTED.items()
                for n in (*ns, w.FIRST_REFUSED[builder])]
    seeds = [*range(10), *(row.seed for s in (0, 1) for row in w.inequalities(s))]
    reports = [["inequalities", "--samples", str(k), "--seed", str(seed)]
               for seed in seeds for k in SAMPLES]
    return {"verify/audit": verdicts, "inequalities": reports}


def run(main, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # checkouts that parsed argv with argparse exit 2
            code = exc.code
    return code, TIMESTAMP.sub('"timestamp": null', out.getvalue()), err.getvalue()


def main() -> None:
    flags = sys.argv[1:]
    if len(set(flags)) < len(flags) or not set(flags) <= {"--rows", "--peaks", "--cpu"}:
        sys.exit("usage: python3 tests/report_fingerprint.py [--rows] [--peaks] [--cpu]")
    # before numpy is first imported, through pqclab
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    sys.path.insert(0, str(ROOT / "src"))
    from pqclab.cli import main as cli_main

    per_row, peaks, cpu = [], [], []
    for name, argvs in rows().items():
        codes, digest = collections.Counter(), hashlib.sha256()
        for argv in argvs:
            if "--peaks" in flags:
                tracemalloc.start()
            code, out, err = run(cli_main, argv)
            if "--peaks" in flags:
                peaks.append(f"{' '.join(argv)}: {tracemalloc.get_traced_memory()[1] / 2 ** 20:.2f} MiB")
                tracemalloc.stop()
            if "--cpu" in flags:
                times = []
                for _ in range(CPU_RUNS):
                    start = time.process_time()
                    run(cli_main, argv)
                    times.append(time.process_time() - start)
                cpu.append(f"{' '.join(argv)}: {min(times) * 1e3:.2f} ms")
            codes[code] += 1
            for part in (" ".join(argv), str(code), out, err):
                digest.update(part.encode() + b"\0")
            per_row.append(f"{' '.join(argv)}: exit {code}, stdout "
                           f"{hashlib.sha256(out.encode()).hexdigest()}, stderr "
                           f"{hashlib.sha256(err.encode()).hexdigest()}")
        counts = ", ".join(f"{n} x exit {c}" for c, n in sorted(codes.items()))
        print(f"{name}: {len(argvs)} rows, {counts}, sha256 {digest.hexdigest()}")
    for flag, lines in (("--rows", per_row), ("--peaks", peaks), ("--cpu", cpu)):
        if flag in flags:
            print("\n".join(lines))


if __name__ == "__main__":
    main()
