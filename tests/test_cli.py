import contextlib
import dataclasses
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqclab import protocols, reductions
from pqclab.cli import SWEEP_CHUNK, _emit, _json_text, _worst_samples, main
from pqclab.entropy import (
    check_correlation_bounds,
    check_entropy_inequalities,
    mutual_information,
    relative_entropy,
)
from pqclab.protocols import (
    DESCRIPTOR_BYTE_LIMIT,
    PROTOCOL_BUILDERS,
    build_classical_otp,
    build_identity_protocol,
    build_named,
    build_quantum_otp,
    build_teleportation,
    load_protocol,
    protocol_to_dict,
    save_protocol,
)
from pqclab.qmath import (
    ALGEBRA_TOL,
    ENTROPY_TOL,
    DensityOp,
    SystemLayout,
    matrix_to_json,
    random_density_matrix,
    reduced_matrix,
)
from pqclab.reductions import lift_extra_comm, lift_extra_epr, require_lift_scale

from oracles import epr_keyed_quantum_otp, per_sample_density_matrix


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "pqclab.cli", *args],
                          capture_output=True, text=True)
    report = json.loads(proc.stdout) if proc.stdout.strip().startswith("{") else None
    return proc.returncode, report, proc.stderr


def test_verify_quantum_otp(capsys):
    code = main(["verify", "quantum-otp", "--n", "1"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["pass"] is True
    assert report["schema"] == 5
    assert report["resources"]["comm"] == pytest.approx(1.0)
    assert report["resources"]["key_entropy"] == pytest.approx(2.0)
    assert report["security_deviation"] <= 1e-9
    assert report["correctness_deviation"] <= 1e-9
    assert len(report["protocol"]["hash"]) == 64


def test_verify_superdense(capsys):
    code = main(["verify", "superdense", "--n", "2"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["resources"]["comm"] == pytest.approx(1.0)
    assert report["resources"]["entanglement"] == pytest.approx(1.0)


def test_verify_dimension_guard():
    code, report, err = run_cli("verify", "quantum-otp", "--n", "12")
    assert code == 2
    assert report is None
    assert "4096" in err


def test_verify_unknown_protocol():
    code, _, err = run_cli("verify", "no-such-protocol")
    assert code == 2
    assert "known names" in err


def test_verify_malformed_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"format\": \"nope\"}")
    code, _, err = run_cli("verify", str(bad))
    assert code == 2
    assert "malformed" in err


def test_verify_protocol_file(tmp_path, capsys):
    path = tmp_path / "qotp.json"
    save_protocol(build_quantum_otp(1), str(path))
    code = main(["verify", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["pass"]


def test_verify_broken_fixture_exit_code(capsys):
    code = main(["verify", "broken-otp"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["pass"] is False
    assert report["security_deviation"] > 0.2


def test_audit_quantum_otp(capsys):
    code = main(["audit", "quantum-otp", "--n", "1"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    audits = {a["quantity"]: a for a in report["audits"]}
    assert audits["key_entropy"]["measured"] == pytest.approx(2.0)
    assert audits["key_entropy"]["bound"] == 2.0
    assert audits["key_entropy"]["slack"] == pytest.approx(0.0, abs=1e-9)
    assert report["audit_log"]


def test_audit_teleportation(capsys):
    code = main(["audit", "teleportation", "--n", "1"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    audits = {a["quantity"]: a for a in report["audits"]}
    assert audits["comm_entropy"]["measured"] == pytest.approx(2.0)
    assert audits["entanglement"]["measured"] == pytest.approx(1.0)


@pytest.mark.parametrize("n", [1, 2])
def test_audit_of_the_epr_keyed_quantum_pad(n, tmp_path, capsys):
    # quantum input, a quantum message and an entangled resource: 2n ebits
    # against the bound n, n qubits of communication against n
    path = tmp_path / "pad.json"
    save_protocol(epr_keyed_quantum_otp(n), str(path))
    assert main(["audit", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["security_deviation"] == report["correctness_deviation"] == 0.0
    audits = {a["quantity"]: a for a in report["audits"]}
    assert audits["entanglement"]["measured"] == pytest.approx(2 * n, abs=1e-9)
    assert audits["entanglement"]["bound"] == n
    assert audits["entanglement"]["slack"] == pytest.approx(n, abs=1e-9)
    assert audits["comm_entropy"]["measured"] == pytest.approx(n, abs=1e-9)
    assert audits["comm_entropy"]["bound"] == n
    assert audits["comm_entropy"]["slack"] == pytest.approx(0.0, abs=1e-9)
    assert len(report["audit_log"]) == 2


def test_audit_of_the_leaking_epr_keyed_pad_fails(tmp_path, capsys):
    # without the CZ the input's phases reach the wire: correct but insecure
    path = tmp_path / "leaky.json"
    save_protocol(epr_keyed_quantum_otp(1, leaky=True), str(path))
    assert main(["audit", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["security_parts"]["cross_term"] == pytest.approx(0.5, abs=1e-9)
    assert report["security_parts"]["factorization"] == pytest.approx(0.5, abs=1e-9)
    assert report["correctness_deviation"] == 0.0
    assert report["audits"] == [] and report["audit_log"] == ["verification failed; audit skipped"]


def test_audit_of_the_epr_keyed_pad_refuses_n_3(tmp_path, capsys):
    path = tmp_path / "pad.json"
    save_protocol(epr_keyed_quantum_otp(3), str(path))
    assert main(["audit", str(path)]) == 2
    assert "load 2^15 exceeds 4096" in capsys.readouterr().err


def test_audit_negative_fixture_fails_before_audit(capsys):
    code = main(["audit", "identity-leaky", "--n", "1"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["audits"] == []
    assert any("skipped" in line for line in report["audit_log"])


def test_inequalities_sweep(capsys):
    code = main(["inequalities", "--samples", "60", "--seed", "9"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    names = {item["name"] for item in report["inequalities"]}
    assert {"subadditivity", "strong_subadditivity", "araki_lieb", "chain_rule",
            "cond_mutual_info_vs_marginals", "mutual_info_vs_marginals"} <= names
    for item in report["inequalities"]:
        if item["name"] == "chain_rule":
            assert item["max_residual"] <= 1e-8
        else:
            assert item["min_slack"] >= -1e-8
        assert item["witness"] is not None
    assert report["cross_check"]["max_deviation"] <= 1e-7


# ---------------------------------------------------------------------------
# the stacked sweep against the one-state-at-a-time loop it replaced


def per_sample_inequalities_report(seed, samples, entropy_tol=ENTROPY_TOL):
    """The inequalities report minus timestamp, from one check per sample."""
    rng = np.random.default_rng(seed)
    layout = SystemLayout.qubits(3)
    summary = {}
    for _ in range(samples):
        rho = DensityOp(layout, per_sample_density_matrix(layout.dim, rng))
        found = {**check_entropy_inequalities(rho, (0,), (1,), (2,)),
                 **check_correlation_bounds(rho, (0,), (1,), (2,))}
        for name, slack in found.items():
            if name not in summary or slack < summary[name][0]:
                summary[name] = (slack, {"dims": [2, 2, 2], "matrix": matrix_to_json(rho.matrix)})
    cross_samples = min(samples, 200)
    pair = SystemLayout.qubits(2)
    cross_dev = 0.0
    for _ in range(cross_samples):
        rho = DensityOp(pair, per_sample_density_matrix(pair.dim, rng))
        product = np.kron(reduced_matrix(rho.matrix, pair.dims, [0]),
                          reduced_matrix(rho.matrix, pair.dims, [1]))
        mi = mutual_information(rho, (0,), (1,))
        cross_dev = max(cross_dev, abs(mi - relative_entropy(rho, DensityOp(pair, product))))
    ordered = sorted(summary)
    passed = all(summary[name][0] >= -entropy_tol
                 for name in ordered) and cross_dev <= entropy_tol
    lines = []
    for name in ordered:
        # the report keeps the chain rule's residual |r|, whose slack is -|r|
        slack, witness = summary[name]
        line = {"max_residual": -slack} if name == "chain_rule" else {"min_slack": slack}
        lines.append({**line, "name": name, "witness": witness})
    return {
        "schema": 5, "command": "inequalities",
        "config": {"seed": seed, "algebra_tol": ALGEBRA_TOL, "entropy_tol": entropy_tol,
                   "samples": samples},
        "inequalities": lines,
        "cross_check": {"name": "mutual_info_equals_relative_entropy_to_marginals",
                        "samples": cross_samples, "max_deviation": cross_dev},
        "pass": passed,
    }


@pytest.mark.parametrize("samples", [1, SWEEP_CHUNK - 1, SWEEP_CHUNK, SWEEP_CHUNK + 1, 500])
@pytest.mark.parametrize("seed", [0, 7, 2_087_043_557])
def test_inequalities_report_matches_per_sample_loop(seed, samples, capsys):
    code = main(["inequalities", "--samples", str(samples), "--seed", str(seed)])
    report = json.loads(capsys.readouterr().out)
    del report["timestamp"]
    expected = per_sample_inequalities_report(seed, samples)
    assert code == (0 if expected["pass"] else 1)
    assert (json.dumps(report, sort_keys=True, indent=2)
            == json.dumps(expected, sort_keys=True, indent=2))


def test_inequalities_fails_on_a_chain_residual_above_the_tolerance(capsys):
    argv = ["inequalities", "--samples", "60", "--seed", "9", "--tol-entropy", "1e-300"]
    code = main(argv)
    report = json.loads(capsys.readouterr().out)
    del report["timestamp"]
    chain = next(item for item in report["inequalities"] if item["name"] == "chain_rule")
    assert chain["max_residual"] > 1e-300
    assert (code, report["pass"]) == (1, False)
    assert (json.dumps(report, sort_keys=True, indent=2) == json.dumps(
        per_sample_inequalities_report(9, 60, entropy_tol=1e-300), sort_keys=True, indent=2))
    # with the cross-check zeroed, the chain rule's line alone decides the verdict
    with mock.patch("pqclab.cli.stack_cross_check", return_value=np.zeros(1)):
        code = main(argv)
    report = json.loads(capsys.readouterr().out)
    assert all(item["min_slack"] > 0 for item in report["inequalities"]
               if item["name"] != "chain_rule")
    assert (code, report["pass"]) == (1, False)


@pytest.mark.parametrize("samples", [1, SWEEP_CHUNK - 1, SWEEP_CHUNK, SWEEP_CHUNK + 1, 500])
def test_inequalities_draws_one_stack_per_chunk(samples, capsys):
    with mock.patch("pqclab.cli.random_density_matrix", wraps=random_density_matrix) as draw:
        main(["inequalities", "--samples", str(samples)])
    capsys.readouterr()
    sweep = [min(SWEEP_CHUNK, samples - start) for start in range(0, samples, SWEEP_CHUNK)]
    assert draw.call_count == math.ceil(samples / SWEEP_CHUNK) + 1
    assert [c.kwargs["count"] for c in draw.call_args_list] == sweep + [min(samples, 200)]


def test_tied_samples_name_the_first_as_witness():
    rng = np.random.default_rng(5)
    m, other = random_density_matrix(8, rng), random_density_matrix(8, rng)
    for chunks in ([np.stack([m, m])], [np.stack([m]), np.stack([m])]):
        worst = _worst_samples(chunks)
        assert len(worst) == 6 and all(index == 0 for _, index, _ in worst.values())
    # m at indices 1 and 2, within one chunk and across two: 2 is never named
    for chunks in ([np.stack([other, m, m])], [np.stack([other, m]), np.stack([m])]):
        for _, index, witness in _worst_samples(chunks).values():
            assert index in (0, 1)
            assert np.array_equal(witness, (other, m)[index])


def test_inequalities_validates_no_state(capsys):
    # every state is an internal draw: the sweep and the cross-check keep
    # them as raw matrices, so no DensityOp is built, and none validated
    init = DensityOp.__post_init__
    built = []
    with mock.patch.object(DensityOp, "__post_init__",
                           lambda self: built.append(self) or init(self)):
        code = main(["inequalities", "--samples", "500"])
    assert (code, json.loads(capsys.readouterr().out)["pass"]) == (0, True)
    assert len(built) == 0


def test_importing_the_cli_loads_numpy_random_no_sooner_than_numpy_does():
    # numpy 2 imports numpy.random on first use, for about 5 ms of CPU: a
    # module-level reference would charge that to every command, verify and
    # audit too, which never draw a state
    script = ("import sys, numpy; plain = 'numpy.random' in sys.modules; import pqclab.cli; "
              "print(plain, 'numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    plain, cli = proc.stdout.split()
    assert cli == plain


def test_traced_names_resolve_in_their_modules():
    # the benchmark's tracer reads each traced function and validator by name,
    # so a name moved out of its module would crash the traced benchmark run
    spans = _bench_module("spans")
    missing = [f"{layer}.{name}" for layer, names in spans.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"pqclab.{layer}"), name, None))]
    qmath = importlib.import_module("pqclab.qmath")
    missing += [f"qmath.{cls}" for cls, _ in spans.VALIDATORS
                if "__post_init__" not in vars(getattr(qmath, cls, object))]
    assert missing == []


def test_inequalities_memory_is_bounded_by_the_chunk(capsys):
    def peak(samples):
        tracemalloc.start()
        try:
            main(["inequalities", "--samples", str(samples), "--seed", "3"])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            capsys.readouterr()

    peak(2)  # first-call imports and caches are not the sweep's
    assert peak(8 * SWEEP_CHUNK) <= 2 * peak(SWEEP_CHUNK)


def test_reports_deterministic_modulo_timestamp(capsys):
    def run():
        main(["verify", "quantum-otp", "--n", "1", "--seed", "4"])
        report = json.loads(capsys.readouterr().out)
        report.pop("timestamp")
        return json.dumps(report, sort_keys=True)

    assert run() == run()


def test_json_output_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "classical-otp", "--n", "2", "--json", str(out)])
    printed = capsys.readouterr().out
    assert code == 0
    on_disk = json.loads(out.read_text())
    assert on_disk["pass"] is True
    # the file holds the stdout text: the indented, sorted report and one newline
    assert out.read_text(encoding="utf-8") == printed
    assert printed == json.dumps(on_disk, sort_keys=True, indent=2) + "\n"


def test_config_echo_and_flags(capsys):
    main(["verify", "quantum-otp", "--n", "1", "--seed", "3",
          "--tol-algebra", "1e-8", "--tol-entropy", "1e-6", "--samples", "10"])
    report = json.loads(capsys.readouterr().out)
    assert report["config"] == {"seed": 3, "algebra_tol": 1e-8, "entropy_tol": 1e-6,
                                "samples": 10}


def test_probes_flag_is_gone(capsys):
    # security is read off the channel table; no probe count enters it
    assert main(["verify", "quantum-otp", "--probes", "5"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--probes" in err


#: a protocol file fixes its own size, so --n with it, whatever its value, is an argv fault
PROTOCOL_FILE = os.path.join(os.path.dirname(__file__), "schema1", "quantum-otp-1.json")


@pytest.mark.parametrize("argv,token", [
    (["verify", "quantum-otp", "--bogus", "1"], "--bogus"),
    (["verify", "quantum-otp", "--seed"], "--seed"),
    (["verify", "quantum-otp", "--n", "x"], "'x'"),
    (["verify", "quantum-otp", "--tol-algebra", "x"], "'x'"),
    (["inequalities", "--n", "2"], "--n"),
    (["inequalities", "extra-arg"], "extra-arg"),
    (["verify"], "PROTOCOL"),
    (["verify", "quantum-otp", "extra-arg"], "extra-arg"),
    ([], "command"),
    (["frobnicate", "quantum-otp"], "frobnicate"),
    (["verify", "quantum-otp", "--tol-a", "1e-8"], "--tol-a"),
    (["verify", "quantum-otp", "--tol-a=1e-8"], "--tol-a"),
    (["verify", PROTOCOL_FILE, "--n", "3"], "--n"),
    (["verify", PROTOCOL_FILE, "--n=-7"], "--n"),
    (["audit", PROTOCOL_FILE, "--n", "3"], "--n"),
    (["audit", PROTOCOL_FILE, "--n=-7"], "--n"),
])
def test_argv_fault_refused_with_usage(argv, token, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    first, *rest = err.splitlines()
    assert first.startswith("error:") and token in first
    assert rest[0].startswith("usage: pqclab")


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_usage_to_stdout(flag, capsys):
    assert main(["verify", flag]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: pqclab") and "--tol-entropy" in out
    assert err == ""


@pytest.mark.parametrize("argv,same", [
    (["verify", "quantum-otp", "--seed=3"], ["verify", "quantum-otp", "--seed", "3"]),
    (["audit", "classical-otp", "--n", "2", "--seed", "3"],
     ["--n=2", "--seed", "3", "audit", "classical-otp"]),
    (["inequalities", "--samples", "9", "--seed", "5"],
     ["--seed", "4", "--samples=9", "inequalities", "--seed=5"]),
])
def test_equivalent_argv_spellings_give_one_report(argv, same, capsys):
    def report(argv):
        code = main(argv)
        out = json.loads(capsys.readouterr().out)
        out.pop("timestamp")
        return code, json.dumps(out, sort_keys=True)

    assert report(argv) == report(same)


def test_cli_imports_no_argument_parser():
    # building argparse parsers cost about 4 ms a process, most of it its
    # locale import, against 0.1 ms for a refused row's real work
    script = ("import contextlib, io, sys; from pqclab import cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    codes = (cli.main(['audit', 'classical-otp', '--n', '5']),\n"
              "             cli.main(['verify', 'quantum-otp', '--n', '1']))\n"
              "print(codes, 'argparse' in sys.modules, 'locale' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "(2, 0) False False"


@pytest.mark.parametrize("n", ["-1", "0", "13"])
def test_verify_identity_leaky_bad_size_refused(n, capsys):
    code = main(["verify", "identity-leaky", "--n", n])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    # "-1" is read as the value of --n and refused by admission, not by argv
    assert err.startswith("error:") and "usage:" not in err


@pytest.mark.parametrize("argv,message", [
    (["verify", "quantum-otp", "--samples", "-1"], "--samples must be >= 1"),
    (["inequalities", "--seed", "-3"], "seed must be nonnegative"),
    (["inequalities", "--samples", "0"], "--samples must be >= 1"),
    (["verify", "quantum-otp", "--samples", "0"], "--samples must be >= 1"),
    (["audit", "quantum-otp", "--samples", "0"], "--samples must be >= 1")])
def test_config_value_refused_without_usage(argv, message, capsys):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {message}\n"


def _descriptor(tmp_path, edit, build=build_quantum_otp):
    path = tmp_path / "protocol.json"
    save_protocol(build(1), str(path))
    data = json.loads(path.read_text())
    path.write_text(json.dumps(edit(data)))
    return path


#: schema-1 files, each key's operators as dense matrices, as a builder of
#: the dense format wrote them
SCHEMA_1 = os.path.join(os.path.dirname(__file__), "schema1")


def _schema_1(data):
    """A schema-1 descriptor of the fields of ``data``, its operators
    given as dense matrices in place of gate references."""
    return {**{k: v for k, v in data.items() if k != "gates"}, "schema": 1}


def _schema_1_descriptor(tmp_path, edit, name="quantum-otp-1"):
    path = tmp_path / "protocol.json"
    with open(os.path.join(SCHEMA_1, f"{name}.json"), encoding="utf-8") as fh:
        path.write_text(json.dumps(edit(json.load(fh))))
    return path


def _set(key, value):
    return lambda data: {**data, key: value}


def _strings(key, *path):
    """Write every number under data[key][path...] as a string."""
    def edit(data):
        parent, name = data, key
        for step in path:
            parent, name = parent[name], step

        def text(node):
            return [text(x) for x in node] if isinstance(node, list) else str(node)
        parent[name] = text(parent[name])
        return data
    return edit


def _kind(kind):
    return lambda data: {**data, "resource": {**data["resource"], "kind": kind}}


def _first_prob_true(data):
    probs = [False] * len(data["resource"]["key_probs"])
    data["resource"]["key_probs"] = [True] + probs[1:]
    return data


@pytest.mark.parametrize("build,edit", [(build_quantum_otp, edit) for edit in [
    lambda data: [],
    _set("input_qubits", None),
    _set("resource", 5),
    lambda data: {**data, "gates": [
        [x for row in g for pair in row for x in pair] for g in data["gates"]]},
    # counts and wires are never coerced: int() would read each as another protocol
    _set("message_subsystems", [0.5]),
    _set("input_qubits", 1.7),
    _set("input_qubits", True),
    _set("input_qubits", "1"),
    # nor are labels: str() would read each as the file it is not
    lambda data: {**data, "resource": {**data["resource"],
                                       "key_outcomes": [0, 1.5, [2], None]}},
    _set("name", ["quantum-otp"]),
    # nor are numbers: numpy would parse a string and read a bool as 0 or 1
    _strings("resource", "key_probs"),
    _first_prob_true,
    _strings("gates"),
    # nor are gate references
    _strings("alice_ops"),
    lambda data: {**data, "alice_ops": [[[0, 0]] for _ in data["alice_ops"]]},
    lambda data: {**data, "bob_ops": [[[0]] for _ in data["bob_ops"]]},
    lambda data: {**data, "alice_ops": [[[len(data["gates"]), [0]]]
                                        for _ in data["alice_ops"]]},
    lambda data: {k: v for k, v in data.items() if k != "gates"},
    # a channel states one of the two kinds of its input and of its message
    _set("input_kind", "basis"),
    _set("message_kind", "bogus"),
    # the resource kind is read off the payloads, and the file must state it
    _kind("bogus"),
    _kind("entangled_state"),
]] + [(build_teleportation, _strings("resource", "state_amplitudes")),
      (build_teleportation, _kind("hybrid"))],
    ids=["list", "null-input-qubits", "int-resource", "flat-op", "float-wire",
         "float-count", "bool-count", "string-count", "non-string-key-outcomes",
         "list-name", "string-key-probs", "bool-key-probs", "string-op-entries",
         "string-gate-refs", "int-wires", "short-ref", "ref-past-table", "no-gates",
         "basis-input-kind", "bogus-message-kind", "unknown-kind", "state-kind-of-a-key",
         "string-state-amplitudes", "hybrid-kind-of-a-state"])
def test_verify_malformed_descriptor_refused(tmp_path, capsys, build, edit):
    code = main(["verify", str(_descriptor(tmp_path, edit, build))])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "error:" in err


@pytest.mark.parametrize("labels,reason", [
    ("0123", "key_outcomes must be an array"),
    ({"0": 1, "1": 1, "2": 1, "3": 1}, "key_outcomes must be an array"),
    (["0"] * 4, "outcome labels must be distinct")], ids=["string", "object", "repeated"])
def test_verify_key_labels_not_distinct_strings_in_an_array_refused(tmp_path, capsys, labels,
                                                                     reason):
    # tuple() reads the string as its four characters and the object as its
    # four keys; the repeated label reported 2 bits of key entropy for one label
    def edit(data):
        return {**data, "resource": {**data["resource"], "key_outcomes": labels}}
    code = main(["verify", str(_descriptor(tmp_path, edit))])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert "error: malformed protocol file" in err and reason in err


@pytest.mark.parametrize("edit", [lambda data: {k: v for k, v in data.items() if k != "schema"},
                                  _set("schema", 99)], ids=["missing", "unknown"])
def test_verify_descriptor_of_missing_or_unknown_schema_refused(tmp_path, capsys, edit):
    code = main(["verify", str(_descriptor(tmp_path, edit))])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert "error: malformed protocol file" in err and "schema" in err


@pytest.mark.parametrize("name", ["quantum-otp-1", "superdense-2", "teleportation-1",
                                  "epr-otp-1"])
def test_schema_1_file_verifies_as_its_builder(name):
    # a schema-1 file is read as the schema-2 structure, each dense operator
    # one gate on every wire; its hash is that of its canonical schema-2 text
    path = os.path.join(SCHEMA_1, f"{name}.json")
    builder, n = name.rsplit("-", 1)
    reports = []
    for argv in (["verify", path], ["verify", builder, "--n", n]):
        code, out, err = run_main(*argv)
        assert (code, err) == (0, "")
        reports.append(json.loads(out))
    got, want = reports
    for key in ("pass", "security_deviation", "security_parts", "correctness_deviation",
                "resources"):
        assert got[key] == want[key], key
    text = json.dumps(protocol_to_dict(load_protocol(path)), sort_keys=True,
                      separators=(",", ":"))
    assert got["protocol"]["hash"] == hashlib.sha256(text.encode()).hexdigest()
    assert json.loads(text)["schema"] == 2


def test_verify_deeply_nested_descriptor_refused(tmp_path, capsys):
    # 400 KB, far under the byte limit, but deeper than the JSON parser recurses
    path = tmp_path / "nested.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code = main(["verify", str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "nests too deeply" in err


def _set_first(value, key, *path):
    """Set the real part of the first [re, im] pair under data[key][path...] to ``value``."""
    def edit(data):
        entry = data[key]
        for step in path:
            entry = entry[step]
        while isinstance(entry[0], list):
            entry = entry[0]
        entry[0] = value
        return data
    return edit


@pytest.mark.parametrize("build,edit", [
    (build_quantum_otp, _set_first(math.nan, "resource", "key_probs")),
    (build_quantum_otp, _set_first(math.nan, "gates")),
    (build_teleportation, _set_first(math.nan, "resource", "state_amplitudes")),
], ids=["nan-key-prob", "nan-op-entry", "nan-state-amplitude"])
def test_verify_non_finite_descriptor_refused(tmp_path, capsys, build, edit):
    code = main(["verify", str(_descriptor(tmp_path, edit, build))])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "error: malformed protocol file" in err


@pytest.mark.parametrize("build,edit,message", [
    (build_quantum_otp, lambda data: {**data, "resource": {
        **data["resource"], "key_probs": [1.7e308, 1.7e308, 0, 0]}},
     "probabilities sum to inf, expected 1"),
    (build_quantum_otp, _set_first(1e308, "gates"), "matrix is not unitary"),
    (build_teleportation, _set_first(1e308, "resource", "state_amplitudes"),
     "ket is not normalized (norm inf)"),
    *((build, _set_first(sign * 10 ** 400, *where), "entries must be finite numbers")
      for sign in (1, -1) for build, where in (
          (build_quantum_otp, ("resource", "key_probs")), (build_quantum_otp, ("gates",)),
          (build_teleportation, ("resource", "state_amplitudes")))),
], ids=["huge-key-probs", "huge-op-entry", "huge-state-amplitude",
        *(f"{sign}int-past-float-{where}" for sign in ("", "minus-")
          for where in ("key-prob", "op-entry", "state-amplitude"))])
def test_verify_huge_finite_entry_refused_with_one_line(tmp_path, capsys, build, edit, message):
    # numpy overflows on the way to inf, or an integer does not fit a float;
    # verify and audit each refuse the file, and no RuntimeWarning reaches stderr
    path = _descriptor(tmp_path, edit, build)
    for command in ("verify", "audit"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main([command, str(path)])
        out, err = capsys.readouterr()
        assert (code, out, caught) == (2, "", [])
        assert err == f"error: malformed protocol file '{path}': {message}\n"


# ---------------------------------------------------------------------------
# descriptor files: the canonical text, and mutations of it


def _small_zoo():
    """Every builder at every n <= 2 it accepts."""
    for name in sorted(PROTOCOL_BUILDERS):
        for n in (1, 2):
            try:
                yield name, n, build_named(name, n)
            except ValueError:
                pass


def _schema_1_texts():
    texts = []
    for name in sorted(os.listdir(SCHEMA_1)):
        with open(os.path.join(SCHEMA_1, name), encoding="utf-8") as fh:
            texts.append(fh.read())
    return texts


@pytest.fixture(scope="module")
def saved_descriptors(tmp_path_factory):
    """(name, n) -> the path and text of that builder's saved descriptor."""
    saved = {}
    for name, n, p in _small_zoo():
        path = tmp_path_factory.mktemp("descriptors") / f"{name}-{n}.json"
        save_protocol(p, str(path))
        saved[name, n] = path, path.read_text()
    return saved


def run_main(*argv):
    """``main(argv)`` in-process: exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_verify_report_hash_is_the_sha256_of_the_file(saved_descriptors, tmp_path):
    # a file in the spaced, unsorted form that save_protocol wrote before
    # loads to the same protocol, and its report names the canonical text
    spaced = tmp_path / "spaced.json"
    for (name, n), (path, text) in saved_descriptors.items():
        spaced.write_text(json.dumps(dict(reversed(json.loads(text).items()))))
        for file in (path, spaced):
            code, out, _ = run_main("verify", str(file))
            assert code in (0, 1), (name, n)
            assert json.loads(out)["protocol"]["hash"] == hashlib.sha256(text.encode()).hexdigest()


#: a value of another type than the one it replaces
OTHER_TYPES = (None, True, 0, 1.5, "x", [], {}, {"kind": 0})


def _mutate(data, draw):
    """One mutation of the parsed descriptor ``data[0]``, in place, at a node
    below the root: each step down is taken with probability 3/4."""
    parent, key = data, 0
    while isinstance(parent[key], (dict, list)) and parent[key] and (
            parent is data or draw(st.sampled_from((True, True, True, False)))):
        node = parent[key]
        parent, key = node, draw(st.sampled_from(sorted(node)) if isinstance(node, dict)
                                  else st.integers(0, len(node) - 1))
    value = parent[key]
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    kind = draw(st.sampled_from(("delete", "retype", "float", "negative", "huge",
                                 "non-finite", "string", "wrap")))
    if kind == "delete":
        del parent[key]
    elif kind == "retype":
        parent[key] = draw(st.sampled_from([v for v in OTHER_TYPES if type(v) is not type(value)]))
    elif kind == "float":
        parent[key] = value + 0.5 if number else 0.5
    elif kind == "negative":
        parent[key] = -value - 1 if number else -1
    elif kind == "huge":
        parent[key] = draw(st.sampled_from([10 ** 30, 2 ** 63, 1e300, 10 ** 400]))
    elif kind == "non-finite":
        parent[key] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif kind == "string":
        parent[key] = str(value)
    elif kind == "wrap":
        parent[key] = [value] if draw(st.booleans()) else [[value]]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_descriptor_gets_a_report_or_a_usage_error(saved_descriptors, tmp_path_factory,
                                                          data):
    # mutation fuzzing of every builder's saved (schema-2) descriptor and of
    # the schema-1 files: whatever the file says, verify either reports
    # (exit 0 or 1) or refuses it (exit 2, no report), and no exception escapes
    texts = [saved_descriptors[key][1] for key in sorted(saved_descriptors)]
    text = data.draw(st.sampled_from(texts + _schema_1_texts()))
    doc = [json.loads(text)]
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(doc, data.draw)
    text = json.dumps(doc[0])
    if data.draw(st.sampled_from((False, False, False, False, True))):
        text = text[:data.draw(st.integers(0, len(text) - 1))]
    path = tmp_path_factory.getbasetemp() / "mutated.json"
    path.write_text(text)
    code, out, err = run_main("verify", str(path))
    if code == 2:
        assert out == "" and err.startswith("error:")
    else:
        assert code in (0, 1)
        assert json.loads(out)["pass"] is (code == 0)


def test_json_path_unwritable_refused(tmp_path, capsys):
    path = tmp_path / "missing" / "report.json"
    code = main(["verify", "classical-otp", "--n", "1", "--json", str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "error:" in err and "report.json" in err
    assert not path.exists()


def test_empty_json_path_refused(capsys):
    code = main(["verify", "classical-otp", "--n", "1", "--json", ""])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_verify_directory_refused(tmp_path, capsys):
    code = main(["verify", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "error:" in err and f"Is a directory: {str(tmp_path)!r}" in err


def test_descriptor_pipe_without_writer_refused(tmp_path):
    # a named pipe that no one writes to opens without waiting and reads as
    # an empty, malformed file
    pipe = tmp_path / "pipe.json"
    os.mkfifo(pipe)
    proc = subprocess.run([sys.executable, "-m", "pqclab.cli", "verify", str(pipe)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: malformed protocol file")


def test_audit_of_a_hybrid_resource_is_aborted(tmp_path, capsys):
    # a lift's hybrid resource has no audited bounds: the verified channel
    # gets a report whose log says why it has no audits
    path = tmp_path / "hybrid.json"
    save_protocol(lift_extra_epr(build_quantum_otp(1)), str(path))
    assert main(["audit", str(path)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["security_deviation"] <= ALGEBRA_TOL
    assert report["correctness_deviation"] <= ALGEBRA_TOL
    assert report["audits"] == [] and report["pass"] is False
    assert report["audit_log"][-1] == ("audit aborted: no audited bounds for resource kind "
                                      "'hybrid'")


@pytest.mark.parametrize("argv", [
    ["verify", "broken-otp"], ["verify", "quantum-otp"], ["inequalities", "--samples", "5"]])
@pytest.mark.parametrize("flag", ["--tol-algebra", "--tol-entropy"])
@pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
def test_non_finite_tolerance_refused(argv, flag, value, capsys):
    code = main([*argv, f"{flag}={value}"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "error:" in err and "finite" in err


def test_audit_lift_beyond_desk_scale_refused(capsys):
    # quantum-otp 4: 256 keys x 2^16 lifted register x 2^8 inputs = 2^32 > 4096^2
    code = main(["audit", "quantum-otp", "--n", "4"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == "error: quantum-otp audit lift: load 2^32 exceeds 4096^2\n"


@pytest.mark.parametrize("builder,n", [("quantum-otp", 3), ("teleportation", 2),
                                       ("broken-teleportation", 2)])
def test_audit_lift_at_desk_scale_admitted(builder, n):
    require_lift_scale(build_named(builder, n))  # 2^24, 2^20 and 2^20 amplitudes


@pytest.mark.parametrize("builder,n", [("classical-otp", 4), ("superdense", 6), ("epr-otp", 3),
                                       ("identity-leaky", 6)])
def test_lift_scale_admits_classical_input_at_once(builder, n):
    # audited without a lift: counted as a quantum input, each would be refused
    p = build_named(builder, n)
    require_lift_scale(p)
    with pytest.raises(ValueError, match="audit lift: load"):
        require_lift_scale(dataclasses.replace(p, input_kind="quantum"))


def test_name_that_is_no_builder_nor_file_refused(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert main(["verify", missing]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: {missing!r} is neither a known protocol name nor a file; "
                   f"known names: {sorted(PROTOCOL_BUILDERS)}\n")


def test_non_finite_report_values_are_written_as_null(capsys):
    _emit({"a": math.inf, "b": [-math.inf, 1.5], "c": {"d": math.nan}}, None)
    assert json.loads(capsys.readouterr().out) == {"a": None, "b": [None, 1.5], "c": {"d": None}}


def _as_json_dumps_reads_it(value):
    """``value`` with non-finite floats as None and tuples as lists."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _as_json_dumps_reads_it(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_as_json_dumps_reads_it(v) for v in value]
    return value


REPORT_SCALARS = st.one_of(
    st.text(), st.sampled_from(["", "\x00\x1f\x7f\n\t", "é∀😀", '"\\/']),
    st.integers(), st.booleans(), st.none(), st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, 1e300, math.inf, -math.inf, math.nan]))
REPORT_VALUES = st.recursive(
    REPORT_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(REPORT_VALUES)
def test_report_writer_writes_the_text_of_indented_sorted_json_dumps(value):
    expected = json.dumps(_as_json_dumps_reads_it(value), sort_keys=True, indent=2)
    assert _json_text(value) == expected


@pytest.mark.parametrize("value", [object(), {1, 2}, np.int64(1), b"bytes", 1j])
def test_report_writer_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(value)
    with pytest.raises(TypeError, match="is not JSON serializable"):
        _json_text({"a": [value]})


def test_closed_stdout_is_an_output_error_in_process(monkeypatch, capsys):
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w", encoding="utf-8") as closed:
        monkeypatch.setattr(sys, "stdout", closed)
        code = main(["verify", "quantum-otp", "--n", "1"])
        monkeypatch.undo()
        assert code == 2
        assert capsys.readouterr().err == (
            "error: cannot write report to stdout: [Errno 32] Broken pipe\n")
        closed.write("x")
        closed.flush()  # the file's descriptor now leads to os.devnull


@pytest.mark.parametrize("argv", [("inequalities", "--samples", "500"),
                                  ("verify", "quantum-otp", "--n", "1")])
def test_closed_stdout_is_an_output_error(argv):
    # the reading end is closed before the child starts, so its report meets
    # a broken pipe; with stdout block-buffered, as it is by default on a pipe,
    # a report left in the buffer would fail again at interpreter exit
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    try:
        proc = subprocess.run([sys.executable, "-m", "pqclab.cli", *argv], stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: cannot write report to stdout: [Errno 32] Broken pipe"]


# caps its own address space at 1 GiB, then runs the CLI
CAPPED_CLI = """import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from pqclab.cli import main
sys.exit(main(sys.argv[1:]))
"""


def run_capped(script, *argv):
    """Run ``script`` with ``argv`` in a child with one BLAS thread, so that
    per-thread BLAS buffers do not count against its cap on many-core hosts."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-c", script, *argv],
                          capture_output=True, text=True, env=env)


@pytest.mark.parametrize("argv", [
    ("verify", "teleportation", "4"), ("audit", "teleportation", "4"),
    ("verify", "broken-teleportation", "4"), ("verify", "teleportation", "1000000000"),
    ("verify", "quantum-otp", "1000000000"), ("verify", "classical-otp", "1000000000")])
def test_builder_refuses_beyond_desk_scale_under_1gib_address_space(argv):
    # teleportation: 1 key on 5n wires; refused in the builder, before its
    # 2^(3n)-dimensional receiver operator is allocated, and without computing
    # 2^(5n); the pads are refused without computing their 4^n or 2^n keys
    command, builder, n = argv
    proc = run_capped(CAPPED_CLI, command, builder, "--n", n)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "error:" in proc.stderr and "4096" in proc.stderr


@pytest.mark.parametrize("command", ["verify", "audit"])
def test_broken_teleportation_is_refused_under_its_own_name(command, capsys):
    # refused in its own builder, not in the teleportation builder it wraps
    assert main([command, "broken-teleportation", "--n", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: broken-teleportation: load 2^15 exceeds 4096\n"


@pytest.mark.parametrize("field", ["input_qubits", "alice_ancillas", "bob_ancillas"])
def test_descriptor_with_huge_register_refused_under_1gib_address_space(tmp_path, field):
    # the register size of a schema-1 file is compared with each dense
    # operator's without building 2^size
    path = _schema_1_descriptor(tmp_path, _set(field, 10 ** 10))
    proc = run_capped(CAPPED_CLI, "verify", str(path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "error: malformed protocol file" in proc.stderr


@pytest.mark.parametrize("count", [10 ** 10, 10 ** 30])
@pytest.mark.parametrize("field", ["input_qubits", "alice_ancillas", "bob_ancillas"])
def test_gate_list_descriptor_with_huge_register_refused_under_1gib_address_space(
        tmp_path, field, count):
    # a gate list fits a register of any size, and no count is raised to a
    # power: a huge input count is malformed, as the output wires must
    # match it, and admission refuses the huge ancilla counts
    path = _descriptor(tmp_path, _set(field, count))
    proc = run_capped(CAPPED_CLI, "verify", str(path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    if field == "input_qubits":
        assert "error: malformed protocol file" in proc.stderr
        assert f"need {count} distinct output subsystems" in proc.stderr
    else:
        assert f"error: quantum-otp: load 2^{float(count):g} exceeds 4096" in proc.stderr


# registers identities kept as gate lists with no gates (a descriptor file at
# n = 12 would hold a dense 4096 x 4096 operator): wide-identity and
# wide-classical send all n wires of a quantum or a classical input as a
# quantum message, wide-message sends 1 input bit on --n message wires, and
# narrow-1 and narrow-2 send the first 1 or 2 of --n input qubits.  Then
# runs the CLI under the 1 GiB cap and reports on stderr how long main took
CAPPED_WIDE_CLI = """import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from pqclab import protocols
from pqclab.cli import main

def wide(name, input_kind, n, message):
    register = max(n, message)
    return protocols.ChannelProtocol(
        name=name, input_kind=input_kind, input_qubits=n,
        message_kind=protocols.INPUT_QUANTUM, resource=protocols.SharedResource(),
        alice_ancillas=register - n, bob_ancillas=register - message,
        alice_ops=(protocols.GateList(register, ()),),
        bob_ops=(protocols.GateList(register, ()),), message_subsystems=tuple(range(message)),
        output_subsystems=tuple(range(n)))

protocols.PROTOCOL_BUILDERS.update({
    "wide-identity": lambda n: wide("wide-identity", protocols.INPUT_QUANTUM, n, n),
    "wide-classical": lambda n: wide("wide-classical", protocols.INPUT_CLASSICAL, n, n),
    "wide-message": lambda m: wide("wide-message", protocols.INPUT_CLASSICAL, 1, m),
    "narrow-1": lambda n: wide("narrow-1", protocols.INPUT_QUANTUM, n, 1),
    "narrow-2": lambda n: wide("narrow-2", protocols.INPUT_QUANTUM, n, 2)})
start = time.perf_counter()
code = main(sys.argv[1:])
print(f"main took {time.perf_counter() - start:.3f} s", file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("n", [5, 6, 8, 12])
def test_wide_quantum_input_refused_under_1gib_address_space(n):
    # the engine load is 2^n <= 4096, but the eigensolve of the
    # 2^(2n)-dimensional Choi matrix is not desk scale
    proc = run_capped(CAPPED_WIDE_CLI, "verify", "wide-identity", "--n", str(n))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "error: wide-identity channel table: load" in proc.stderr
    assert float(proc.stderr.split("main took ")[1].split(" s")[0]) < 1.0


@pytest.mark.parametrize("builder", ["narrow-1", "narrow-2"])
@pytest.mark.parametrize("n", [5, 6])
def test_narrow_message_quantum_input_finishes_under_1gib_address_space(builder, n):
    # 5 or 6 input qubits, 1 or 2 of them sent: a Choi matrix of side at most
    # 2^8 and a table of 2^16 entries; the rest of the input is lost, so the
    # channel is neither correct nor secure
    proc = run_capped(CAPPED_WIDE_CLI, "verify", builder, "--n", str(n))
    assert proc.returncode == 1, proc.stderr
    report = json.loads(proc.stdout)
    assert report["protocol"]["n"] == n
    assert report["security_deviation"] > 0.1 and report["correctness_deviation"] > 0.1
    assert float(proc.stderr.split("main took ")[1].split(" s")[0]) < 1.0


@pytest.mark.parametrize("builder,n", [("wide-classical", 8), ("wide-classical", 9),
                                       ("wide-classical", 10), ("wide-classical", 12),
                                       ("wide-message", 11), ("wide-message", 12)])
def test_wide_classical_input_refused_under_1gib_address_space(builder, n):
    # the engine load is at most 4096, but the basis wire states (d x dm^2
    # amplitudes) and d^3, for the basis pass's d columns, are beyond 4096^1.5
    proc = run_capped(CAPPED_WIDE_CLI, "verify", builder, "--n", str(n))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert f"error: {builder} basis wire states: load" in proc.stderr
    assert float(proc.stderr.split("main took ")[1].split(" s")[0]) < 1.0


@pytest.mark.parametrize("builder,n", [("wide-classical", 6), ("wide-message", 8)])
def test_wide_classical_input_within_the_limit_finishes_under_1gib_address_space(builder, n):
    # 2^18 and 2^17 amplitudes of basis wire states; the identities are correct
    # and send their input in the clear
    proc = run_capped(CAPPED_WIDE_CLI, "verify", builder, "--n", str(n))
    assert proc.returncode == 1, proc.stderr
    report = json.loads(proc.stdout)
    assert report["correctness_deviation"] <= 1e-9 < report["security_deviation"]


def _wide_classical(data):
    eye = matrix_to_json(np.eye(256, dtype=complex))
    return {**_schema_1(data), "name": "wide-classical", "input_qubits": 8,
            "message_kind": "quantum", "alice_ops": [eye], "bob_ops": [eye],
            "message_subsystems": list(range(8)), "output_subsystems": list(range(8))}


def test_wide_classical_input_descriptor_refused_under_1gib_address_space(tmp_path):
    # the 8-wire classical-input identity as a file of two dense 256 x 256 operators
    path = _descriptor(tmp_path, _wide_classical, build=build_identity_protocol)
    proc = run_capped(CAPPED_CLI, "verify", str(path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "error: wide-classical basis wire states: load 2^24 exceeds 4096^1.5" in proc.stderr


def test_descriptor_over_the_byte_limit_refused_before_parsing(tmp_path):
    # a sparse file one byte over the limit: refused from its size, never read
    path = tmp_path / "huge.json"
    with open(path, "wb") as fh:
        fh.truncate(DESCRIPTOR_BYTE_LIMIT + 1)
    proc = run_capped(CAPPED_CLI, "verify", str(path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert f"{DESCRIPTOR_BYTE_LIMIT + 1} bytes exceeds the descriptor limit" in proc.stderr


@pytest.mark.parametrize("device", ["/dev/zero", "/dev/urandom"])
def test_descriptor_device_without_end_refused_at_the_byte_limit(device, capsys):
    # a device states size 0: its read stops one byte over the limit
    assert main(["verify", device]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:")
    assert f"{DESCRIPTOR_BYTE_LIMIT + 1} bytes exceeds the descriptor limit" in err


def test_descriptor_at_the_byte_limit_parses_under_1gib_address_space(tmp_path):
    # a 10-bit classical-input identity, two dense 1024 x 1024 operators of
    # [re, im] pairs, padded with whitespace to exactly the limit: parsed, then
    # refused by the load rule (10 wires and 10 environment copies)
    eye = matrix_to_json(np.eye(1024, dtype=complex))
    path = _descriptor(tmp_path, lambda data: {
        **_schema_1(data), "name": "wide-classical", "input_qubits": 10, "alice_ops": [eye],
        "bob_ops": [eye], "message_subsystems": list(range(10)),
        "output_subsystems": list(range(10))}, build=build_identity_protocol)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(" " * (DESCRIPTOR_BYTE_LIMIT - path.stat().st_size))
    assert path.stat().st_size == DESCRIPTOR_BYTE_LIMIT
    proc = run_capped(CAPPED_CLI, "verify", str(path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "error: wide-classical: load 2^20 exceeds 4096" in proc.stderr


def test_gate_references_at_the_byte_limit_refused_under_1gib_address_space(tmp_path):
    # quantum-otp 1 whose first key holds 4 million one-wire references [0,[0]],
    # filling the file to the limit: as parsed lists they would take over
    # 800 MB, so the file is refused from its count of arrays before parsing
    path = _descriptor(tmp_path, lambda data: {
        **data, "alice_ops": [["REFS"]] + data["alice_ops"][1:]})
    text = path.read_text()
    refs = (DESCRIPTOR_BYTE_LIMIT - len(text)) // len("[0,[0]],")
    path.write_text(text.replace('["REFS"]', "[" + ",".join(["[0,[0]]"] * refs) + "]"))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(" " * (DESCRIPTOR_BYTE_LIMIT - path.stat().st_size))
    assert path.stat().st_size == DESCRIPTOR_BYTE_LIMIT
    proc = run_capped(CAPPED_CLI, "verify", str(path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert f"arrays exceed the descriptor limit of {DESCRIPTOR_BYTE_LIMIT // 8}" in proc.stderr


def test_descriptor_arrays_over_the_limit_refused_in_process(tmp_path, monkeypatch):
    # the test above at a limit of 64 bytes, so of 8 arrays
    monkeypatch.setattr(protocols, "DESCRIPTOR_BYTE_LIMIT", 64)
    path = tmp_path / "nested.json"
    path.write_text("[" * 9 + "]" * 9)
    with pytest.raises(ValueError, match="^9 arrays exceed the descriptor limit of 8$"):
        load_protocol(str(path))


def test_schema_1_operator_narrower_than_its_register_refused(tmp_path, capsys):
    # teleportation 1's sender register has 2 wires; a 2 x 2 operator acts on 1
    path = _schema_1_descriptor(tmp_path, _set("alice_ops", [matrix_to_json(np.eye(2))]),
                                name="teleportation-1")
    assert main(["verify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: malformed protocol file {str(path)!r}: "
                   "operation dimension does not match its register\n")


@pytest.mark.parametrize("build", [build_quantum_otp, build_classical_otp])
@pytest.mark.parametrize("command", ["verify", "audit"])
def test_narrow_output_descriptor_refused_under_1gib_address_space(tmp_path, build, command):
    # two input qubits, one output wire: refused as malformed, not a traceback
    path = _descriptor(tmp_path, _set("output_subsystems", [0]), build=lambda n: build(2))
    proc = run_capped(CAPPED_CLI, command, str(path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "error: malformed protocol file" in proc.stderr
    assert "need 2 distinct output subsystems" in proc.stderr


@pytest.mark.parametrize("builder,n,resources", [
    ("quantum-otp", 3, {"comm": 3.0, "key_entropy": 6.0, "entanglement": None}),
    ("teleportation", 2, {"comm": 4.0, "key_entropy": None, "entanglement": 2.0}),
])
def test_audit_finishes_under_1gib_address_space(builder, n, resources):
    proc = run_capped(CAPPED_CLI, "audit", builder, "--n", str(n))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["pass"] is True
    assert report["audits"]
    for audit in report["audits"]:
        assert audit["satisfied"] and abs(audit["slack"]) <= 1e-7, audit
    for key, value in resources.items():
        want = None if value is None else pytest.approx(value, abs=1e-7)
        assert report["resources"][key] == want


# the lifted audit rows as the pass that folds no wire reports them: exit
# code, pass, resources and audits
LIFT_AUDIT_ROWS = {
    ("quantum-otp", 3): (0, True, {"comm": 3.0, "entanglement": None, "key_entropy": 6.0}, [
        {"bound": 6.0, "measured": 6.0, "quantity": "key_entropy", "satisfied": True,
         "slack": 0.0},
        {"bound": 3.0, "measured": 3.0, "quantity": "comm_entropy", "satisfied": True,
         "slack": 0.0}]),
    ("teleportation", 2): (0, True, {"comm": 4.0, "entanglement": 2.0, "key_entropy": None}, [
        {"bound": 2.0, "measured": 2.0, "quantity": "entanglement", "satisfied": True,
         "slack": 0.0},
        {"bound": 4.0, "measured": 4.0, "quantity": "comm_entropy", "satisfied": True,
         "slack": 0.0}]),
    ("broken-teleportation", 2): (
        1, False, {"comm": 4.0, "entanglement": 2.0, "key_entropy": None}, []),
}


@pytest.mark.parametrize("builder,n", list(LIFT_AUDIT_ROWS))
def test_lift_audit_rows_keep_their_verdicts(builder, n, capsys):
    code = main(["audit", builder, "--n", str(n)])
    report = json.loads(capsys.readouterr().out)
    assert (code, report["pass"], report["resources"], report["audits"]) == \
        LIFT_AUDIT_ROWS[(builder, n)]


def _bench_module(name: str):
    """A module of the benchmark under ``bench/``, loaded by path."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


WORKLOADS = _bench_module("workloads")
# every builder at every n the admission check accepts and at the first it refuses
ADMISSION_ROWS = [(command, builder, n) for command in ("verify", "audit")
                  for builder, ns in WORKLOADS.ACCEPTED.items()
                  for n in (*ns, WORKLOADS.FIRST_REFUSED[builder])]


@pytest.mark.parametrize("command,builder,n", ADMISSION_ROWS)
def test_admission_table_exit_codes(command, builder, n, capsys):
    # audit quantum-otp 4 is admitted to verify, but its lifts are refused
    refused = (n == WORKLOADS.FIRST_REFUSED[builder]
               or (command, builder, n) == ("audit", "quantum-otp", 4))
    expected = 2 if refused else 1 if builder in WORKLOADS.NEGATIVE else 0
    code = main([command, builder, "--n", str(n)])
    out, err = capsys.readouterr()
    assert code == expected
    assert (out == "") == refused and ("error:" in err) == refused


def test_admission_rows_never_compose_a_gate(monkeypatch):
    # the engine applies each gate on its own: no verify or audit row
    # composes gates into a dense matrix, through any module's binding
    qmath = importlib.import_module("pqclab.qmath")
    composed, real = [], qmath.compose_circuit

    def compose(*args):
        composed.append(args)
        return real(*args)

    for module in [m for name, m in sys.modules.items() if name.startswith("pqclab")]:
        for attr, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, attr, compose)
    for command, builder, n in ADMISSION_ROWS:
        main([command, builder, "--n", str(n)])
    assert composed == []


@pytest.mark.parametrize("builder", sorted(WORKLOADS.ACCEPTED))
def test_builders_state_the_load_of_the_protocol_they_return(builder, monkeypatch):
    # each builder refuses before it builds through require_load(name, 1, k n),
    # its k worked out by hand: that load must be the engine's, log2 keys + wires
    real, calls = protocols.require_load, []

    def record(context, keys, qubits, scale=1):
        calls.append(math.log2(keys) + qubits)
        return real(context, keys, qubits, scale)

    monkeypatch.setattr(protocols, "require_load", record)
    for n in WORKLOADS.ACCEPTED[builder]:
        calls.clear()
        p = PROTOCOL_BUILDERS[builder](n)
        if builder == "broken-otp":  # its n is fixed at 1: nothing to refuse
            assert calls == []
            continue
        assert calls, n
        assert set(calls) == {math.log2(p.key_count) + p.engine_qubits}, (n, calls)


@pytest.mark.parametrize("builder", WORKLOADS.QUANTUM_INPUT)
def test_lift_scale_states_the_load_of_the_lifts(builder, monkeypatch):
    # require_lift_scale counts the engine register plus 5n wires: that must be
    # each lift's log2 keys + engine wires + 2n input bits (its 2^(2n) inputs)
    calls = []
    monkeypatch.setattr(reductions, "require_load",
                        lambda context, keys, qubits, scale=1: calls.append(
                            math.log2(keys) + qubits))
    for n in WORKLOADS.ACCEPTED[builder]:
        p = PROTOCOL_BUILDERS[builder](n)
        calls.clear()
        require_lift_scale(p)
        for lift in (lift_extra_comm, lift_extra_epr):
            lifted = lift(p)
            assert calls == [math.log2(lifted.key_count) + lifted.engine_qubits
                             + lifted.input_qubits], (n, lift.__name__, calls)
