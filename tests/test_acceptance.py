"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v`` (or ``-s`` to see the
criterion lines even on success).
"""

import math

import numpy as np
import pytest

from pqclab.entropy import (
    check_correlation_bounds,
    check_entropy_inequalities,
    mutual_information,
    relative_entropy,
    shannon_entropy,
)
from pqclab.protocols import (
    build_broken_otp,
    build_broken_teleportation,
    build_classical_otp,
    build_epr_keyed_otp,
    build_named,
    build_quantum_otp,
    build_superdense,
    build_teleportation,
    channel_on_units,
    encode,
    resource_report,
    verify_correctness,
    verify_security,
    factorization_deviation,
)
from pqclab.qmath import (
    DensityOp,
    Ket,
    SystemLayout,
    local_transition,
    max_abs,
    partial_trace,
    purify,
    random_density,
    trace_distance,
)
from pqclab.reductions import (
    ObliviousnessError,
    audit_classical_input,
    audit_quantum_input,
    lift_extra_comm,
    lift_extra_epr,
    rsp_to_pqc,
)

from oracles import (
    apply_to_ket,
    canonical_probes,
    haar_unitary,
    message_distribution,
    non_oblivious_rsp,
    ray_deviation,
)


def record(num: int, description: str, ok: bool):
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_01_quantum_otp():
    ok = True
    for n in (1, 2):
        p = build_quantum_otp(n)
        rep = resource_report(p)
        ok &= verify_security(p) <= 1e-9
        ok &= verify_correctness(p) <= 1e-9
        ok &= abs(rep.key_entropy - 2 * n) <= 1e-9
        ok &= abs(rep.comm - n) <= 1e-9
    record(1, "quantum one-time pad: secure, correct, key 2n, comm n", ok)


def test_criterion_02_classical_otp():
    ok = True
    for n in (1, 2, 3):
        rep = resource_report(build_classical_otp(n))
        ok &= abs(rep.comm - n) <= 1e-9
        ok &= abs(rep.key_entropy - n) <= 1e-9
    record(2, "classical one-time pad: comm n, key n", ok)


def test_criterion_03_superdense():
    ok = True
    for n_bits in (2, 4):
        p = build_superdense(n_bits)
        rep = resource_report(p)
        ok &= abs(rep.comm - n_bits / 2) <= 1e-9
        ok &= abs(rep.entanglement - n_bits / 2) <= 1e-9
        d = 2 ** (n_bits // 2)
        layout = SystemLayout.qubits(n_bits)
        for i in range(2 ** n_bits):
            msg = encode(p, Ket.basis(layout, i))
            ok &= trace_distance(msg.matrix, np.eye(d) / d) <= 1e-9
    record(3, "superdense coding: comm n/2, entanglement n/2, wire maximally mixed", ok)


def test_criterion_04_teleportation():
    ok = True
    for n in (1, 2):
        p = build_teleportation(n)
        rep = resource_report(p)
        ok &= abs(rep.comm - 2 * n) <= 1e-9
        ok &= abs(rep.entanglement - n) <= 1e-9
        uniform = 1.0 / 4 ** n
        for probe in canonical_probes(p, random_probes=20, seed=1):
            dist = message_distribution(p, probe)
            total_variation = 0.5 * float(np.sum(np.abs(dist.probs - uniform)))
            ok &= total_variation <= 1e-9
        ref = message_distribution(p, Ket.basis(SystemLayout.qubits(n), 0))
        ok &= abs(shannon_entropy(ref) - 2 * n) <= 1e-9
    record(4, "teleportation: uniform message over 4^n, entropy 2n, entanglement n", ok)


def test_criterion_05_epr_keyed_otp():
    ok = True
    for n in (1, 2):
        p = build_epr_keyed_otp(n)
        rep = resource_report(p)
        ok &= p.message_kind == "classical"
        ok &= abs(rep.comm - n) <= 1e-9
        ok &= abs(rep.entanglement - n) <= 1e-9
    record(5, "EPR-keyed pad: comm n classical bits, entanglement n", ok)


def test_criterion_06_lift_extra_comm():
    lifted = lift_extra_comm(build_quantum_otp(1))
    ok = verify_security(lifted) <= 1e-9
    ok &= verify_correctness(lifted) <= 1e-9
    layout = SystemLayout.qubits(2)
    for i in range(4):
        msg = encode(lifted, Ket.basis(layout, i))
        ok &= trace_distance(msg.matrix, np.kron(np.eye(2) / 2, np.eye(2) / 2)) <= 1e-9
    ok &= abs(resource_report(lifted).key_entropy - 2.0) <= 1e-9
    record(6, "extra-communication lift of the quantum pad: verified, wire "
              "(I/2)x(I/2), key entropy unchanged", ok)


def test_criterion_07_lift_extra_epr():
    base = build_quantum_otp(1)
    lifted = lift_extra_epr(base)
    ok = verify_security(lifted) <= 1e-9
    ok &= verify_correctness(lifted) <= 1e-9
    rep, base_rep = resource_report(lifted), resource_report(base)
    ok &= abs(rep.comm - 1.0) <= 1e-9
    gained = rep.entanglement - (base_rep.entanglement or 0.0)
    ok &= abs(gained - 1.0) <= 1e-9
    record(7, "extra-entanglement lift of the quantum pad: comm unchanged, "
              "exactly one ebit gained, verified", ok)


def test_criterion_08_audit_chain():
    ok = True
    quantum_input = [(build_quantum_otp, 1), (build_teleportation, 1)]
    classical_input = [(build_classical_otp, 1), (build_superdense, 2),
                       (build_epr_keyed_otp, 1)]
    for builder, n in quantum_input:
        for audit in audit_quantum_input(builder(n)):
            ok &= -1e-7 <= audit.slack <= 1e-7
    for builder, n in classical_input:
        for audit in audit_classical_input(builder(n)):
            ok &= -1e-7 <= audit.slack <= 1e-7
    record(8, "audit chain: all five protocols saturate their declared-optimal "
              "bounds within 1e-7", ok)


def test_criterion_09_inequality_fuzzing():
    rng = np.random.default_rng(2024)
    layout = SystemLayout.qubits(3)
    groups = {"A": (0,), "B": (1,), "C": (2,)}
    mins: dict[str, float] = {}
    for _ in range(500):
        rho = random_density(layout, rng)
        reports = check_entropy_inequalities(rho, groups)
        reports += check_correlation_bounds(rho, (0,), (1,), (2,))
        for item in reports:
            mins[item.name] = min(mins.get(item.name, math.inf), item.slack)
    # the chain rule's slack is -|residual|: >= -1e-8 bounds the residual by 1e-8
    ok = all(mins[name] >= -1e-8 for name in
             ("subadditivity", "strong_subadditivity", "araki_lieb", "chain_rule",
              "cond_mutual_info_vs_marginals", "mutual_info_vs_marginals"))

    pair = SystemLayout.qubits(2)
    cross = 0.0
    for _ in range(200):
        rho = random_density(pair, rng)
        product = np.kron(partial_trace(rho, [0]).matrix,
                          partial_trace(rho, [1]).matrix)
        cross = max(cross, abs(mutual_information(rho, (0,), (1,))
                               - relative_entropy(rho, DensityOp(pair, product))))
    ok &= cross <= 1e-7
    record(9, "500-state inequality fuzz: min slack >= -1e-8, chain residual "
              "<= 1e-8, mutual-information cross-check <= 1e-7", ok)


def test_criterion_10_channel_algebra():
    p = build_quantum_otp(1)
    units = channel_on_units(p)
    ok = factorization_deviation(p, samples=20, seed=5, units=units) <= 1e-8
    ok &= max_abs(units[np.triu_indices(len(units), 1)]) <= 1e-9
    record(10, "pad encoder: bipartite factorization <= 1e-8 on 20 states, "
               "cross terms <= 1e-9 on all basis pairs", ok)


def test_criterion_11_negative_controls():
    ok = verify_security(build_broken_otp()) > 0.2
    ok &= verify_correctness(build_broken_teleportation()) > 0.4
    rejected = False
    try:
        rsp_to_pqc(non_oblivious_rsp(1))
    except ObliviousnessError:
        rejected = True
    ok &= rejected
    record(11, "negative controls: truncated-key pad and correction-skipping "
               "teleportation fail, non-oblivious RSP rejected", ok)


def test_criterion_12_local_transition():
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(100):
        d = int(rng.integers(2, 5))
        rho = random_density(SystemLayout((d,)), rng)
        base = purify(rho)
        phi1 = apply_to_ket(base, haar_unitary(d, rng).matrix, [0])
        phi2 = apply_to_ket(base, haar_unitary(d, rng).matrix, [0])
        u = local_transition(phi1, phi2, cut=[0])
        ok &= ray_deviation(apply_to_ket(phi1, u.matrix, [0]), phi2) <= 1e-8
    record(12, "local transition: 100 random purification pairs mapped within 1e-8", ok)
