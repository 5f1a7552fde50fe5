"""Run one pqclab CLI command in this fresh process and report on it.

Usage: python3 bench/child.py --trace 0|1 -- <pqclab argv...>

The process caps its own address space at ADDRESS_SPACE_CAP before it
imports anything heavy.  It imports numpy, then ``pqclab.cli`` from the
checkout's ``src``, and prints the process CPU time at both points.  It times
``cli.main(argv)`` on the wall clock and in process CPU time, with stdout and
stderr captured, and prints one JSON envelope line on its real stdout.
With ``--trace 1`` the span tracer wraps the package's functions for the
duration of the call and the envelope also carries the per-function
aggregates.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

# 4x the largest dense operator an accepted input needs (4096^2 complex =
# 256 MiB): a runaway allocation ends as a MemoryError in this child instead
# of exhausting the machine.  Only this process is capped.
ADDRESS_SPACE_CAP = 1 << 30

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(argv: list[str], traced: bool) -> dict:
    # the host-speed reference (run.REFERENCE_S): nothing in pqclab runs yet
    import numpy  # noqa: F401
    reference_s = time.process_time()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        from pqclab import cli
    except ImportError:
        return {"import_error": traceback.format_exc()}
    # a line of its own, so that a child killed later still reports its set-up;
    # process CPU time counts from exec and excludes time stolen by the host
    print(json.dumps({"import_cpu_s": time.process_time(), "reference_s": reference_s}), flush=True)
    envelope: dict = {"error": None}

    tracer = None
    if traced:
        import spans
        tracer = spans.Tracer()
        tracer.install()
    out = io.StringIO()
    start, start_cpu = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects an argv with exit 2
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # MemoryError included: the row is recorded as crashed
        code = None
        envelope["error"] = traceback.format_exc(limit=-6)
    envelope["main_s"] = time.perf_counter() - start
    envelope["main_cpu_s"] = time.process_time() - start_cpu
    if tracer is not None:
        tracer.uninstall()
        envelope["trace"] = {**tracer.summary(), "restored": tracer.restored()}
    envelope.update(exit=code, stdout=out.getvalue())
    return envelope


def main() -> int:
    args = sys.argv[1:]
    if len(args) < 3 or args[0] != "--trace" or args[2] != "--":
        print("usage: child.py --trace 0|1 -- <pqclab argv...>", file=sys.stderr)
        return 2
    # before pqclab, and with it numpy, is imported
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    envelope = run(args[3:], args[1] == "1")
    sys.stdout.write(json.dumps(envelope) + "\n")
    return 3 if "import_error" in envelope else 0


if __name__ == "__main__":
    sys.exit(main())
