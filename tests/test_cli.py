import json
import subprocess
import sys

import pytest

from pqclab.cli import main
from pqclab.protocols import build_quantum_otp, save_protocol


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "pqclab.cli", *args],
                          capture_output=True, text=True)
    report = json.loads(proc.stdout) if proc.stdout.strip().startswith("{") else None
    return proc.returncode, report, proc.stderr


def test_verify_quantum_otp(capsys):
    code = main(["verify", "quantum-otp", "--n", "1", "--probes", "10"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["pass"] is True
    assert report["schema"] == 1
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
    code = main(["verify", str(path), "--probes", "5"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["pass"]


def test_verify_broken_fixture_exit_code(capsys):
    code = main(["verify", "broken-otp", "--probes", "5"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["pass"] is False
    assert report["security_deviation"] > 0.2


def test_audit_quantum_otp(capsys):
    code = main(["audit", "quantum-otp", "--n", "1", "--probes", "10"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    audits = {a["quantity"]: a for a in report["audits"]}
    assert audits["key_entropy"]["measured"] == pytest.approx(2.0)
    assert audits["key_entropy"]["bound"] == 2.0
    assert audits["key_entropy"]["slack"] == pytest.approx(0.0, abs=1e-9)
    assert report["audit_log"]


def test_audit_teleportation(capsys):
    code = main(["audit", "teleportation", "--n", "1", "--probes", "10"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    audits = {a["quantity"]: a for a in report["audits"]}
    assert audits["comm_entropy"]["measured"] == pytest.approx(2.0)
    assert audits["entanglement"]["measured"] == pytest.approx(1.0)


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


def test_reports_deterministic_modulo_timestamp(capsys):
    def run():
        main(["verify", "quantum-otp", "--n", "1", "--probes", "5", "--seed", "4"])
        report = json.loads(capsys.readouterr().out)
        report.pop("timestamp")
        return json.dumps(report, sort_keys=True)

    assert run() == run()


def test_json_output_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "classical-otp", "--n", "2", "--json", str(out)])
    capsys.readouterr()
    assert code == 0
    on_disk = json.loads(out.read_text())
    assert on_disk["pass"] is True


def test_config_echo_and_flags(capsys):
    main(["verify", "quantum-otp", "--n", "1", "--seed", "3", "--probes", "7",
          "--tol-algebra", "1e-8", "--tol-entropy", "1e-6", "--samples", "10"])
    report = json.loads(capsys.readouterr().out)
    assert report["config"] == {"seed": 3, "algebra_tol": 1e-8, "entropy_tol": 1e-6,
                                "random_probes": 7, "samples": 10}


@pytest.mark.parametrize("n", ["-1", "0", "13"])
def test_verify_identity_leaky_bad_size_refused(n, capsys):
    code = main(["verify", "identity-leaky", "--n", n])
    assert code == 2
    assert capsys.readouterr().out == ""


def _descriptor(tmp_path, edit):
    path = tmp_path / "qotp.json"
    save_protocol(build_quantum_otp(1), str(path))
    data = json.loads(path.read_text())
    path.write_text(json.dumps(edit(data)))
    return path


def _set(key, value):
    return lambda data: {**data, key: value}


@pytest.mark.parametrize("edit", [
    lambda data: [],
    _set("input_qubits", None),
    _set("resource", 5),
    lambda data: {**data, "alice_ops": [
        [x for row in op for pair in row for x in pair] for op in data["alice_ops"]]},
], ids=["list", "null-input-qubits", "int-resource", "flat-op"])
def test_verify_malformed_descriptor_refused(tmp_path, capsys, edit):
    code = main(["verify", str(_descriptor(tmp_path, edit))])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_verify_directory_refused(tmp_path, capsys):
    code = main(["verify", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "error:" in err


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
