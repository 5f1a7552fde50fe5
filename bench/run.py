"""pqclab benchmark: run the CLI as a user would and report what it costs.

    python3 bench/run.py --workload verify-quantum|audit-zoo|inequalities|all
                         --seed N --seconds S --trace 0|1

Each row of a workload (see workloads.py) runs as ``cli.main(argv)`` in its
own fresh child process (child.py), one at a time, with one BLAS thread,
capped at 1 GiB of address space and killed after TIMEOUT_S.  The run repeats
whole passes over the workload while another pass still fits in ``--seconds``
(at least one).

With ``--trace 0`` the last stdout line is the end-to-end result; with
``--trace 1`` one traced pass follows and the last line carries the
per-layer metrics instead.  Row outcomes and tables go to stderr.  The exit
status is 0 whenever a result is printed; a checkout without ``src/pqclab``
exits 1 without one.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import spans
from workloads import WORKLOADS, Row, check_report

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
TIMEOUT_S = 90.0
OK_OUTCOMES = {0: "pass", 1: "expected-fail", 2: "refused"}
TIMESTAMP = re.compile(r'"timestamp": "[^"]*"')
# One BLAS thread per child.  With OpenBLAS's default of one per vCPU, a worker
# spins on the second vCPU after each product, and the product waits for
# whichever vCPU the shared host is slowing.
CHILD_ENV = {**os.environ, **{var: "1" for var in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}

# The reference: CPU time from exec to numpy imported in a child, which no
# pqclab change can move.  It swings with the speed of the shared host much as
# pqclab's own times do; this is close to its median on the machine that
# bench/README.md records.
REFERENCE_S = 0.16

# name -> (unit, better); end-to-end metrics come from untraced passes.  The
# times are process CPU times, which exclude what the host steals from the VM,
# rescaled by REFERENCE_S over the run's median reference reading.
END_TO_END = {
    "ref_cpu_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ops_ok": ("count", "higher"),
}


class HarnessError(Exception):
    """The benchmark itself cannot run here; no result is printed."""


@dataclass
class RowRun:
    row: Row
    outcome: str
    main_s: float  # wall clock
    cpu_s: float
    setup_s: float | None  # CPU time from exec to pqclab.cli imported
    reference_s: float | None  # CPU time from exec to numpy imported
    rss_mb: float
    exit: int | None = None
    stdout: str = ""
    problems: list[str] = field(default_factory=list)
    trace: dict | None = None

    @property
    def failed(self) -> bool:
        return self.outcome not in OK_OUTCOMES.values()


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def classify(row: Row, returncode: int, timed_out: bool, envelope: dict | None) -> tuple[str, list[str]]:
    """Outcome of one child: pass, expected-fail or refused when the row got
    the outcome it expects; otherwise timeout, killed, crashed or mismatch."""
    if timed_out:
        return "timeout", [f"no verdict within {TIMEOUT_S:g} s"]
    if returncode < 0:
        return "killed", [f"child ended by signal {-returncode}"]
    if envelope is None:
        return "crashed", [f"child exited {returncode} without a report"]
    if envelope["error"]:
        return "crashed", [envelope["error"].strip().splitlines()[-1]]
    problems = check_report(row, envelope["exit"], envelope["stdout"])
    if problems:
        return "mismatch", problems
    return OK_OUTCOMES[row.expect], []


def run_child(row: Row, traced: bool, timeout: float = TIMEOUT_S, script: str = CHILD) -> RowRun:
    cmd = [sys.executable, script, "--trace", "1" if traced else "0", "--", *row.argv]
    with tempfile.TemporaryFile(dir=HERE) as out, tempfile.TemporaryFile(dir=HERE) as err:
        spawned = now()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=ROOT, env=CHILD_ENV)
        timed_out = False
        try:
            # reap with wait4 to get this child's own rusage
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if now() - spawned > timeout:
                    timed_out = True
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.02)
        except BaseException:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        ended = now()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        lines = out.read().decode(errors="replace").splitlines()
        err.seek(0)
        err_tail = err.read().decode(errors="replace").strip().splitlines()[-1:]
    records = []
    for line in lines:
        try:
            records.append(json.loads(line))
        except ValueError:  # a line cut short by a kill
            pass
    if records and "import_error" in records[0]:
        raise HarnessError(f"cannot import pqclab.cli from {ROOT}/src:\n{records[0]['import_error']}")
    setup_s, reference_s = (records[0]["import_cpu_s"], records[0]["reference_s"]) if records \
        else (None, None)
    envelope = records[-1] if records and "main_s" in records[-1] else None
    outcome, problems = classify(row, proc.returncode, timed_out, envelope)
    rss_mb = usage.ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB on Linux
    if envelope is None:
        cpu_s = usage.ru_utime + usage.ru_stime - (setup_s or 0.0)
        return RowRun(row, outcome, ended - spawned, cpu_s, setup_s, reference_s, rss_mb,
                      problems=problems + err_tail)
    return RowRun(row, outcome, envelope["main_s"], envelope["main_cpu_s"], setup_s, reference_s,
                  rss_mb,
                  envelope["exit"], envelope["stdout"], problems, envelope.get("trace"))


def _same_report(a: RowRun, b: RowRun) -> bool:
    return (a.outcome, a.exit, TIMESTAMP.sub("", a.stdout)) == \
           (b.outcome, b.exit, TIMESTAMP.sub("", b.stdout))


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> tuple[list[list[RowRun]], list[RowRun] | None]:
    rows = WORKLOADS[name](seed)
    passes: list[list[RowRun]] = []
    start = now()
    while True:
        began = now()
        passes.append([run_child(row, False) for row in rows])
        if now() - start + (now() - began) > seconds:
            break
    traced_pass = [run_child(row, True) for row in rows] if traced else None
    # reports must be identical apart from timestamp across repeats and tracing
    for repeat in passes[1:] + ([traced_pass] if traced_pass else []):
        for first, run in zip(passes[0], repeat):
            if not _same_report(run, first):
                run.outcome = "mismatch"
                run.problems.append("report differs from the first run's apart from timestamp")
    for run in traced_pass or []:
        if run.trace is not None and not run.trace.pop("restored"):
            run.outcome = "mismatch"
            run.problems.append("tracer left a wrapped binding behind")
    return passes, traced_pass


def speed_scale(passes: list[list[RowRun]]) -> float:
    """REFERENCE_S over the run's median reference reading."""
    readings = [r.reference_s for p in passes for r in p if r.reference_s is not None]
    if not readings:
        raise HarnessError("no child got as far as importing numpy")
    return REFERENCE_S / statistics.median(readings)


def end_to_end(passes: list[list[RowRun]], failed_rows: int) -> dict:
    runs = [r for p in passes for r in p]
    setups = [r.setup_s for r in runs if r.setup_s is not None]
    scale = speed_scale(passes)
    return {
        "ref_cpu_s": scale * statistics.median(sum(r.cpu_s for r in p) for p in passes),
        "setup_s": scale * statistics.median(setups),
        "peak_rss_mb": max(r.rss_mb for r in runs),
        "ops_ok": len(passes[0]) - failed_rows,
    }


def per_layer(traced_pass: list[RowRun], untraced_wall_s: float) -> dict:
    names = spans.span_names()
    functions = {name: {"s": 0.0, "self_s": 0.0, "calls": 0} for name in names}
    compose_bytes = lifts = verified = 0
    for run in traced_pass:
        if run.trace is None:  # a killed or timed-out child reports no spans
            continue
        for name, agg in run.trace["functions"].items():
            for key in agg:
                functions[name][key] += agg[key]
        compose_bytes += run.trace["compose_circuit_bytes"]
        lifts += run.trace["lifts_attempted"]
        verified += run.trace["lifts_verified"]
    metrics = {}
    for name in names:
        metrics[f"{name}.s"] = (functions[name]["s"], "s")
        metrics[f"{name}.self_s"] = (functions[name]["self_s"], "s")
        metrics[f"{name}.calls"] = (functions[name]["calls"], "count")
    for layer in spans.LAYERS:
        total = sum(functions[n]["self_s"] for n in names if n.startswith(f"{layer}."))
        metrics[f"{layer}.self_s"] = (total, "s")
    metrics["qmath.compose_circuit.bytes"] = (compose_bytes, "B")
    metrics["reductions.lift.attempted"] = (lifts, "count")
    # verified lifts over attempted ones; 0 when the workload attempts none
    metrics["reductions.lift.ok_ratio"] = (verified / lifts if lifts else 0.0, "ratio")
    traced_wall = sum(r.main_s for r in traced_pass)
    metrics["trace_overhead_s"] = (traced_wall - untraced_wall_s, "s")
    return metrics


def per_layer_units() -> dict:
    """Unit of every per-layer metric, for BENCHMARK.json and the tests."""
    return {name: unit for name, (_, unit) in per_layer([], 0.0).items()}


def _print_rows(name: str, passes: list[list[RowRun]], traced_pass: list[RowRun] | None):
    err = sys.stderr
    print(f"\n== {name}: {len(passes[0])} commands x {len(passes)} untraced pass(es)"
          f"{' + 1 traced' if traced_pass else ''}", file=err)
    for i, run in enumerate(passes[0]):
        repeats = [p[i] for p in passes[1:]] + ([traced_pass[i]] if traced_pass else [])
        times = " ".join(f"{r.cpu_s:7.3f}" for r in [run] + repeats)
        worst = next((r for r in [run] + repeats if r.failed), run)
        print(f"  {worst.outcome:13s} exp {run.row.expect}  {run.rss_mb:7.1f} MB  "
              f"cpu {times} s  {run.row.label}", file=err)
        for problem in worst.problems:
            print(f"      {problem}", file=err)


def _print_layers(metrics: dict, traced_wall: float):
    err = sys.stderr
    share = (lambda v: f"{100 * v / traced_wall:5.1f}%") if traced_wall > 0 else (lambda v: "   - ")
    print(f"  traced wall {traced_wall:.3f} s; layer self time:", file=err)
    for layer in spans.LAYERS:
        value = metrics[f"{layer}.self_s"][0]
        print(f"    {layer:11s} {value:9.3f} s  {share(value)}", file=err)
    print("  spans by total time (share of traced wall):", file=err)
    totals = sorted(((metrics[f"{n}.s"][0], n) for n in spans.span_names()), reverse=True)
    for total, name in totals:
        if total > 0:
            calls = metrics[f"{name}.calls"][0]
            self_s = metrics[f"{name}.self_s"][0]
            print(f"    {name:40s} {total:9.3f} s  {share(total)}  self {self_s:8.3f} s  "
                  f"{calls:9d} calls", file=err)


def run_one(name: str, seed: int, seconds: float, traced: bool) -> dict:
    passes, traced_pass = run_workload(name, seed, seconds, traced)
    _print_rows(name, passes, traced_pass)
    runs = [r for p in passes + [traced_pass or []] for r in p]
    # a row failed if any of its runs did, so the counts do not depend on the pass count
    failed_rows = len({r.row for r in runs if r.failed})
    e2e = end_to_end(passes, failed_rows)
    result = {
        "correct": not any(r.outcome == "mismatch" for r in runs),
        "attempted": len(passes[0]),
        "failed": failed_rows,
    }
    err = sys.stderr
    wall_s = statistics.median(sum(r.main_s for r in p) for p in passes)
    cpu_s = statistics.median(sum(r.cpu_s for r in p) for p in passes)
    print(f"  ops_failed {failed_rows} count, ops_total {len(passes[0])} count", file=err)
    print(f"  wall_s {wall_s:.4f} s, cpu_s {cpu_s:.4f} s, "
          f"reference speed scale {speed_scale(passes):.4f}", file=err)
    for metric, value in e2e.items():
        print(f"  {metric} {value:.4f} {END_TO_END[metric][0]}", file=err)
    if traced_pass is None:
        result["metrics"] = {m: {"value": v, "unit": END_TO_END[m][0]} for m, v in e2e.items()}
    else:
        layers = per_layer(traced_pass, wall_s)
        _print_layers(layers, sum(r.main_s for r in traced_pass))
        result["metrics"] = {m: {"value": v, "unit": u} for m, (v, u) in layers.items()}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(ROOT, "src", "pqclab", "cli.py")):
        print(f"error: no pqclab sources under {ROOT}/src", file=sys.stderr)
        return 1
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    # on SIGTERM, unwind through run_child so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        results = {name: run_one(name, args.seed, args.seconds, bool(args.trace))
                   for name in names}
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
