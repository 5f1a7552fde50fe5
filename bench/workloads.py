"""The benchmark's workloads: generated pqclab argv rows, each with the
outcome it must have, and the checks its report must pass.

Every row's ``--seed`` comes from the workload seed; the program only ever
sees the generated argv.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

# the CLI's documented default tolerances; the rows never override them
ALGEBRA_TOL = 1e-9
ENTROPY_TOL = 1e-7

# README zoo table: builder -> n -> (comm, key entropy, ebits); None is "-"
ZOO = {
    "classical-otp": lambda n: (n, n, None),
    "quantum-otp": lambda n: (n, 2 * n, None),
    "superdense": lambda n: (n / 2, None, n / 2),
    "teleportation": lambda n: (2 * n, None, n),
    "epr-otp": lambda n: (n, None, n),
}
NEGATIVE = ("identity-leaky", "broken-otp", "broken-teleportation")

# every n the admission check accepts, and the first n above them it refuses
ACCEPTED = {
    "classical-otp": (1, 2, 3, 4),
    "quantum-otp": (1, 2, 3, 4),
    "superdense": (2, 4, 6),
    "teleportation": (1, 2),
    "epr-otp": (1, 2, 3),
    "identity-leaky": (1, 2, 3, 4, 5, 6),
    "broken-otp": (1,),
    "broken-teleportation": (1, 2),
}
FIRST_REFUSED = {"classical-otp": 5, "quantum-otp": 5, "superdense": 8, "teleportation": 3,
                 "epr-otp": 4, "identity-leaky": 7, "broken-otp": 2,
                 "broken-teleportation": 3}
QUANTUM_INPUT = ("quantum-otp", "teleportation", "broken-otp", "broken-teleportation")
# `audit quantum-otp --n 4` costs ~47 s, 43 s of it the verification that
# verify-quantum already times, and its lift fails at the same dense identity
# as n = 3; it is the one accepted input no workload audits
AUDIT_SKIPPED = {("quantum-otp", 4)}
INEQUALITY_COMMANDS = 5
INEQUALITY_SAMPLES = 500


@dataclass(frozen=True)
class Row:
    command: str
    builder: str | None
    n: int | None
    seed: int
    expect: int  # exit code: 0 pass, 1 property failure, 2 refused

    @property
    def argv(self) -> list[str]:
        if self.command == "inequalities":
            return ["inequalities", "--samples", str(INEQUALITY_SAMPLES), "--seed", str(self.seed)]
        return [self.command, self.builder, "--n", str(self.n), "--seed", str(self.seed)]

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _expect(builder: str) -> int:
    return 1 if builder in NEGATIVE else 0


def verify_quantum(seed: int) -> list[Row]:
    return [Row("verify", b, n, seed, _expect(b))
            for b in QUANTUM_INPUT for n in ACCEPTED[b]]


def audit_zoo(seed: int) -> list[Row]:
    rows = []
    for b, ns in ACCEPTED.items():
        rows += [Row("audit", b, n, seed, _expect(b)) for n in ns if (b, n) not in AUDIT_SKIPPED]
        rows.append(Row("audit", b, FIRST_REFUSED[b], seed, 2))
    return rows


def inequalities(seed: int) -> list[Row]:
    rng = random.Random(seed)
    return [Row("inequalities", None, None, rng.randrange(2 ** 31), 0)
            for _ in range(INEQUALITY_COMMANDS)]


WORKLOADS = {"verify-quantum": verify_quantum, "audit-zoo": audit_zoo,
             "inequalities": inequalities}


def _close(measured, expected) -> bool:
    if expected is None or measured is None:
        return measured is expected
    return abs(measured - expected) <= ENTROPY_TOL


def check_report(row: Row, exit_code: int, stdout: str) -> list[str]:
    """Problems with one row's outcome; empty when it is what the row expects."""
    if exit_code != row.expect:
        return [f"exit {exit_code}, expected {row.expect}"]
    if row.expect == 2:
        return [] if stdout == "" else ["refused row wrote to stdout"]
    try:
        report = json.loads(stdout)
    except ValueError:
        return ["stdout is not one JSON report"]
    if report.get("pass") is not (row.expect == 0):
        return [f"pass is {report.get('pass')!r} with exit {exit_code}"]
    if row.expect == 1:
        return []
    problems = []
    if row.command in ("verify", "audit"):
        for key in ("security_deviation", "correctness_deviation"):
            if not report[key] <= ALGEBRA_TOL:
                problems.append(f"{key} {report[key]} > {ALGEBRA_TOL}")
        res = report["resources"]
        measured = (res["comm"], res["key_entropy"], res["entanglement"])
        if not all(map(_close, measured, ZOO[row.builder](row.n))):
            problems.append(f"resources {measured} differ from the zoo table")
    if row.command == "audit":
        audits = report["audits"]
        if not audits:
            problems.append("no audits")
        for a in audits:
            if not (a["satisfied"] and abs(a["slack"]) <= ENTROPY_TOL):
                problems.append(f"audit {a['quantity']} not on its bound: {a}")
    return problems
