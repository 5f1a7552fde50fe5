"""Tests of the benchmark harness itself: python3 -m pytest bench/tests"""

import contextlib
import io
import json
import os
import re
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Row  # noqa: E402

FAKE_CHILD = os.path.join(BENCH, "tests", "fake_child.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _fake(behaviour: str, timeout: float = 20.0) -> run.RowRun:
    return run.run_child(Row("verify", behaviour, 1, 0, 0), False, timeout, FAKE_CHILD)


@pytest.mark.parametrize("behaviour, outcome", [
    ("memory", "crashed"), ("signal", "killed"), ("sleep", "timeout")])
def test_failing_children_are_counted_failed(behaviour, outcome):
    result = _fake(behaviour, timeout=2.0)
    assert result.outcome == outcome
    assert result.failed


def test_memory_error_child_stays_under_its_cap():
    result = _fake("memory")
    assert "MemoryError" in result.problems[0]
    assert result.rss_mb < (1 << 30) / 1e6


def test_classify_checks_the_report_against_the_row():
    row = Row("verify", "broken-otp", 1, 0, 1)
    failing = {"error": None, "exit": 1, "stdout": json.dumps({"pass": False})}
    assert run.classify(row, 0, False, failing) == ("expected-fail", [])
    wrong = {"error": None, "exit": 1, "stdout": json.dumps({"pass": True})}
    assert run.classify(row, 0, False, wrong)[0] == "mismatch"
    refused = Row("audit", "broken-otp", 2, 0, 2)
    assert run.classify(refused, 0, False, {"error": None, "exit": 2, "stdout": ""})[0] == "refused"
    assert run.classify(refused, 0, False, {"error": None, "exit": 2, "stdout": "{}"})[0] == "mismatch"


def _bindings():
    found = {}
    for key, module in sys.modules.items():
        if key == "pqclab" or key.startswith("pqclab."):
            for attr, value in vars(module).items():
                if getattr(value, "__module__", "").startswith("pqclab") and callable(value):
                    found[(key, attr)] = value
    from pqclab import qmath
    for cls in (qmath.DensityOp, qmath.UnitaryOp):
        found[(cls.__name__, "__post_init__")] = vars(cls)["__post_init__"]
    return found


def test_tracer_wraps_every_binding_and_restores_it():
    from pqclab import cli, protocols
    import pqclab
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.build_named is protocols.build_named is not before[("pqclab.cli", "build_named")]
        assert pqclab.encode is protocols.encode is not before[("pqclab.protocols", "encode")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "quantum-otp", "--n", "1"]) == 0
    finally:
        tracer.uninstall()
    assert tracer.restored()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    summary = tracer.summary()["functions"]
    assert summary["cli.main"]["calls"] == 1
    assert summary["protocols.security_deviations"]["calls"] == 1
    assert summary["qmath.DensityOp.validate"]["calls"] > 0
    layer_self = sum(v["self_s"] for v in summary.values())
    assert layer_self == pytest.approx(summary["cli.main"]["s"], rel=1e-6)
    for agg in summary.values():
        assert 0.0 <= agg["self_s"] <= agg["s"] + 1e-9


def test_metric_names_have_units_and_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == {name: unit for name, (unit, _) in run.END_TO_END.items()}
    assert layers == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for name, unit in {**e2e, **layers}.items():
        assert NAME.match(name) and UNIT.match(unit), (name, unit)


def test_workloads_cover_every_accepted_input():
    audited = {(r.builder, r.n, r.expect) for r in WORKLOADS["audit-zoo"](0)}
    assert len(audited) == 32 and sum(e == 2 for _, _, e in audited) == 8
    verified = {(r.builder, r.n) for r in WORKLOADS["verify-quantum"](0)}
    assert ("quantum-otp", 4) in verified and len(verified) == 9
    seeds = [r.seed for r in WORKLOADS["inequalities"](3)]
    assert len(set(seeds)) == len(seeds) and seeds == [r.seed for r in WORKLOADS["inequalities"](3)]


def test_one_command_runs_all_workloads_and_checks_outputs():
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload", "all",
                           "--seed", "0", "--seconds", "0"],
                          capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] == sum(len(w(0)) for w in WORKLOADS.values())
    expected = {f"{w}.{m}" for w in WORKLOADS for m in run.END_TO_END}
    assert set(result["metrics"]) == expected
    for metric in result["metrics"].values():
        assert metric["unit"] and isinstance(metric["value"], (int, float))
    for w in WORKLOADS:
        assert f"== {w}:" in proc.stderr


def test_traced_child_reports_spans_and_the_untraced_report():
    row = Row("verify", "teleportation", 1, 5, 0)
    plain, traced = run.run_child(row, False), run.run_child(row, True)
    assert plain.outcome == traced.outcome == "pass"
    assert run._same_report(plain, traced)
    assert traced.trace["restored"] is True
    assert traced.trace["functions"]["protocols.verify_correctness"]["calls"] == 1
    assert plain.trace is None
