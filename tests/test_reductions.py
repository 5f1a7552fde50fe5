import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqclab import protocols, reductions
from pqclab.entropy import ProbabilityDist, entanglement_measure, shannon_entropy
from pqclab.protocols import (
    HADAMARD,
    INPUT_CLASSICAL,
    INPUT_QUANTUM,
    PROTOCOL_BUILDERS,
    GateList,
    ProtocolVerificationError,
    build_classical_otp,
    build_named,
    build_quantum_otp,
    build_superdense,
    build_teleportation,
    decode_per_key,
    encode,
    require_desk_scale,
    resource_report,
    security_deviations,
    verify_correctness,
    verify_security,
)
from pqclab.qmath import (
    Ket,
    SystemLayout,
    UnitaryOp,
    reduced_from_vector,
    reduced_matrix,
    trace_distance,
)
from pqclab.reductions import (
    RSP_PROB_FLOOR,
    BoundAudit,
    ObliviousnessError,
    ObliviousRsp,
    audit_classical_input,
    audit_quantum_input,
    check_obliviousness,
    lift_extra_comm,
    lift_extra_epr,
    rsp_to_pqc,
    _receiver_blocks,
    teleportation_rsp,
)

from oracles import (
    dense,
    haar_ket,
    haar_unitary,
    non_oblivious_rsp,
    per_key_bound,
    probes,
    rsp_message_probs,
    validated_comm,
)

Q1 = SystemLayout.qubits(1)


def audits_by_name(audits):
    return {a.quantity: a for a in audits}


# ---------------------------------------------------------------------------
# extra-communication lift


def test_lift_extra_comm_of_quantum_otp():
    lifted = lift_extra_comm(build_quantum_otp(1))
    assert lifted.input_qubits == 2
    assert verify_security(lifted) <= 1e-9
    assert verify_correctness(lifted) <= 1e-9
    # the wire state is (I/2) x (I/2) for all four inputs
    for i in range(4):
        msg = encode(lifted, Ket.basis(SystemLayout.qubits(2), i))
        assert trace_distance(msg.matrix, np.eye(4) / 4) <= 1e-9
    rep = resource_report(lifted)
    assert rep.key_entropy == pytest.approx(2.0, abs=1e-9)
    assert rep.comm == pytest.approx(2.0, abs=1e-9)


def test_lift_extra_comm_of_teleportation():
    lifted = lift_extra_comm(build_teleportation(1))
    assert verify_security(lifted) <= 1e-9
    assert verify_correctness(lifted) <= 1e-9
    rep = resource_report(lifted)
    assert rep.entanglement == pytest.approx(1.0, abs=1e-9)


def _quantum_identity_protocol():
    # sends the qubit in the clear: correct, insecure
    template = build_quantum_otp(1)
    eye = template.alice_ops[0]  # pauli "0"
    return type(template)(
        name="identity-quantum", input_kind="quantum", input_qubits=1,
        message_kind="quantum", resource=build_named("identity-leaky", 1).resource,
        alice_ancillas=0, bob_ancillas=0,
        alice_ops=(eye,), bob_ops=(eye,),
        message_subsystems=(0,), output_subsystems=(0,))


def _spy_passes(monkeypatch):
    """The names of the protocols whose verification pass runs from now on."""
    passes = []
    real = protocols._verification_pass
    monkeypatch.setattr(protocols, "_verification_pass",
                        lambda p: passes.append(p.name) or real(p))
    return passes


def test_lift_of_insecure_protocol_is_flagged(monkeypatch):
    # the audit refuses the insecure input before it builds any lift; the
    # lift itself only builds, and the protocol it builds fails its own check
    insecure = _quantum_identity_protocol()
    built = []
    monkeypatch.setattr(reductions, "lift_extra_comm",
                        lambda p: built.append(p) or lift_extra_comm(p))
    with pytest.raises(ProtocolVerificationError):
        audit_quantum_input(insecure)
    assert built == []
    lifted = lift_extra_comm(insecure)
    assert verify_security(lifted) > 0.2
    assert verify_correctness(lifted) <= 1e-9


@pytest.mark.parametrize("lift", [lift_extra_comm, lift_extra_epr])
@pytest.mark.parametrize("name", ["quantum-otp", "broken-otp"])
def test_lifts_only_build(monkeypatch, lift, name):
    # a lift runs no verification pass, on its input or on its output, so it
    # builds from a broken protocol as from a verified one
    passes = _spy_passes(monkeypatch)
    assert lift(build_named(name, 1)).input_qubits == 2
    assert passes == []


def test_audit_runs_one_pass_per_lift_after_verification(monkeypatch):
    # the audit's input check reads the pass that verify_security left in
    # the memo; each lift it builds then runs its own pass, once
    p = build_teleportation(1)
    verify_security(p)
    passes = _spy_passes(monkeypatch)
    audit_quantum_input(p)
    assert passes == ["teleportation-lift-extra-comm", "teleportation-lift-extra-epr"]


# ---------------------------------------------------------------------------
# extra-entanglement lift


def test_lift_extra_epr_of_quantum_otp():
    base = build_quantum_otp(1)
    lifted = lift_extra_epr(base)
    assert verify_security(lifted) <= 1e-9
    assert verify_correctness(lifted) <= 1e-9
    rep = resource_report(lifted)
    base_rep = resource_report(base)
    assert rep.comm == pytest.approx(base_rep.comm, abs=1e-9)  # still one qubit
    assert rep.entanglement == pytest.approx(1.0, abs=1e-9)    # gained one ebit
    assert rep.key_entropy == pytest.approx(base_rep.key_entropy, abs=1e-9)
    for i in range(4):
        msg = encode(lifted, Ket.basis(SystemLayout.qubits(2), i))
        assert trace_distance(msg.matrix, np.eye(2) / 2) <= 1e-9


def test_lift_extra_epr_of_teleportation():
    base = build_teleportation(1)
    lifted = lift_extra_epr(base)
    assert verify_security(lifted) <= 1e-9
    assert verify_correctness(lifted) <= 1e-9
    rep = resource_report(lifted)
    assert rep.comm == pytest.approx(2.0, abs=1e-9)
    # entanglement grows by exactly n over the original resource
    assert rep.entanglement == pytest.approx(2.0, abs=1e-9)
    assert lifted.message_kind == "classical"


def test_lifts_need_quantum_input():
    with pytest.raises(ValueError):
        lift_extra_comm(build_classical_otp(1))
    with pytest.raises(ValueError):
        lift_extra_epr(build_classical_otp(1))


def test_hybrid_resource_round_trip_and_audit_guard():
    from pqclab.protocols import protocol_from_dict, protocol_to_dict
    lifted = lift_extra_epr(build_quantum_otp(1))
    assert lifted.resource.kind == "hybrid"
    clone = protocol_from_dict(protocol_to_dict(lifted))
    assert verify_security(clone) <= 1e-9
    assert verify_correctness(clone) <= 1e-9
    with pytest.raises(ValueError, match="hybrid"):
        audit_classical_input(clone)


# ---------------------------------------------------------------------------
# audits


def test_audit_classical_protocols_saturate():
    for builder, n in ((build_classical_otp, 2), (build_superdense, 2)):
        audits = audits_by_name(audit_classical_input(builder(n)))
        for a in audits.values():
            assert a.satisfied
            assert abs(a.slack) <= 1e-7


def test_audit_classical_input_on_teleportation_restriction():
    # one classical bit through the quantum channel: communication entropy 2
    # against a bound of 1, entanglement 1 against a bound of 1
    basis = dataclasses.replace(build_teleportation(1), input_kind=INPUT_CLASSICAL)
    audits = audits_by_name(audit_classical_input(basis))
    assert audits["comm_entropy"].measured == pytest.approx(2.0, abs=1e-9)
    assert audits["comm_entropy"].bound == 1.0
    assert audits["entanglement"].measured == pytest.approx(1.0, abs=1e-9)
    assert audits["entanglement"].bound == 1.0
    assert all(a.satisfied for a in audits.values())


def test_audit_quantum_otp():
    audits = audits_by_name(audit_quantum_input(build_quantum_otp(1)))
    assert audits["key_entropy"].measured == pytest.approx(2.0, abs=1e-9)
    assert audits["key_entropy"].bound == 2.0
    assert audits["comm_entropy"].measured == pytest.approx(1.0, abs=1e-9)
    assert audits["comm_entropy"].bound == 1.0
    assert all(abs(a.slack) <= 1e-7 for a in audits.values())


def test_audit_teleportation():
    log = []
    audits = audits_by_name(audit_quantum_input(build_teleportation(1), log=log))
    assert audits["comm_entropy"].measured == pytest.approx(2.0, abs=1e-9)
    assert audits["comm_entropy"].bound == 2.0
    assert audits["entanglement"].measured == pytest.approx(1.0, abs=1e-9)
    assert audits["entanglement"].bound == 1.0
    assert len(log) == 2 and all("constructed" in line for line in log)


def test_audit_rejects_unverified_protocol():
    with pytest.raises(ProtocolVerificationError):
        audit_classical_input(build_named("identity-leaky", 1))
    with pytest.raises(ProtocolVerificationError):
        audit_quantum_input(build_named("broken-otp", 1))


def test_audit_wrong_input_kind(monkeypatch):
    # each audit refuses the other input kind before it runs any pass
    passes = _spy_passes(monkeypatch)
    with pytest.raises(ValueError, match="quantum-input audit"):
        audit_quantum_input(build_classical_otp(1))
    with pytest.raises(ValueError, match="classical-input audit"):
        audit_classical_input(build_quantum_otp(1))
    assert passes == []


def test_audit_classical_input_accepts_quantum_restriction():
    # restricting a quantum-input pad to basis states gives the weaker bounds
    basis = dataclasses.replace(build_quantum_otp(1), input_kind=INPUT_CLASSICAL)
    audits = audits_by_name(audit_classical_input(basis))
    assert audits["key_entropy"].bound == 1.0
    assert audits["key_entropy"].measured == pytest.approx(2.0, abs=1e-9)
    assert all(a.satisfied for a in audits.values())


@pytest.mark.parametrize("kind", [bool, float])
@pytest.mark.parametrize("field", ["n", "alice_subsystems", "bob_ancillas"])
def test_oblivious_rsp_counts_are_integers(field, kind):
    rsp = teleportation_rsp(1)
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        dataclasses.replace(rsp, **{field: kind(getattr(rsp, field))})


def _admitted(up_to: int):
    """Every builder and n <= ``up_to`` that the admission check accepts."""
    for name in PROTOCOL_BUILDERS:
        for n in range(1, up_to + 1):
            try:
                require_desk_scale(build_named(name, n))
            except ValueError:
                continue
            yield name, n


REPORTED = {
    **{f"{name}-{n}": (lambda name=name, n=n: build_named(name, n))
       for name, n in _admitted(3)},
    "lift-comm-quantum-otp-1": lambda: lift_extra_comm(build_quantum_otp(1)),
    "lift-epr-quantum-otp-1": lambda: lift_extra_epr(build_quantum_otp(1)),
    "lift-comm-teleportation-1": lambda: lift_extra_comm(build_teleportation(1)),
    "lift-epr-teleportation-1": lambda: lift_extra_epr(build_teleportation(1)),
    "rsp-derived-teleportation-1": lambda: rsp_to_pqc(teleportation_rsp(1)),
}


@pytest.mark.parametrize("label", list(REPORTED))
def test_resource_report_comm_is_the_validated_route_bit_for_bit(label):
    p = REPORTED[label]()
    comm = resource_report(p).comm
    # float.hex, so that the sign of a zero counts
    assert comm.hex() == validated_comm(p).hex()
    if p.name == "identity-leaky":
        assert comm.hex() == (-0.0).hex()  # the report's "comm": -0.0


def test_bound_audit_fields():
    audit = BoundAudit.check("comm_entropy", 2.0, 1.0)
    assert audit.slack == 1.0 and audit.satisfied
    data = dataclasses.asdict(audit)
    assert data["quantity"] == "comm_entropy" and data["measured"] == 2.0


# ---------------------------------------------------------------------------
# oblivious remote state preparation


def test_teleportation_rsp_message_statistics():
    rsp = teleportation_rsp(1)
    probs = rsp_message_probs(rsp, Ket.from_bits("0"))
    assert np.max(np.abs(probs - 0.25)) <= 1e-10
    assert shannon_entropy(ProbabilityDist(tuple("0123"), probs)) == pytest.approx(2.0)


def test_teleportation_rsp_obliviousness():
    checks = check_obliviousness(teleportation_rsp(1))
    for name, (deviation, _) in checks.items():
        assert deviation <= 1e-9, name


def test_rsp_to_pqc_is_secure_and_correct():
    pqc = rsp_to_pqc(teleportation_rsp(1))
    assert verify_security(pqc) <= 1e-9
    assert verify_correctness(pqc) <= 1e-9
    assert shannon_entropy(pqc.resource.key_source) == pytest.approx(2.0)


def test_rsp_to_pqc_message_matches_receiver_reduction():
    rsp = teleportation_rsp(1)
    pqc = rsp_to_pqc(rsp)
    # the receiver half of the shared pair reduces to I/2
    rng = np.random.default_rng(3)
    for probe in (Ket.from_bits("0"), haar_ket(Q1, rng), haar_ket(Q1, rng)):
        msg = encode(pqc, probe)
        assert trace_distance(msg.matrix, np.eye(2) / 2) <= 1e-9


def test_rsp_to_pqc_audit_chain():
    audits = audits_by_name(audit_quantum_input(rsp_to_pqc(teleportation_rsp(1))))
    assert audits["comm_entropy"].measured == pytest.approx(1.0, abs=1e-9)
    assert audits["comm_entropy"].bound == 1.0


def test_teleportation_rsp_size_rule():
    # one key on 3n wires: n = 4 is the largest size within 4096
    with pytest.raises(ValueError, match="exceeds 4096"):
        teleportation_rsp(5)
    with pytest.raises(ValueError, match=">= 1"):
        teleportation_rsp(0)


def test_non_oblivious_rsp_rejected():
    with pytest.raises(ObliviousnessError) as err:
        rsp_to_pqc(non_oblivious_rsp(1))
    assert err.value.invariant == "output_state"
    assert err.value.deviation > 0.2


def test_rsp_completeness_enforced():
    # a 2-wire readout has 4 values, so 3 corrections leave one message uncorrected
    good = teleportation_rsp(1)
    with pytest.raises(ValueError, match="one correction per readout value"):
        type(good)(n=1, psi_ab=good.psi_ab, alice_subsystems=1,
                   measurement=good.measurement,
                   corrections=good.corrections[:3],
                   bob_ancillas=0, output_subsystems=(0,))


@pytest.mark.parametrize("wire", [0.0, 0.7, False])
def test_rsp_output_wires_are_integers(wire):
    # int() would read each as wire 0, an RSP the fields do not describe
    with pytest.raises(ValueError, match="output_subsystems must be an integer"):
        dataclasses.replace(teleportation_rsp(1), output_subsystems=(wire,))


def test_teleportation_rsp_two_qubits():
    rsp = teleportation_rsp(2)
    probs = rsp_message_probs(rsp, Ket.from_bits("00"))
    assert np.max(np.abs(probs - 1 / 16)) <= 1e-10
    checks = check_obliviousness(rsp)
    for name, (deviation, _) in checks.items():
        assert deviation <= 1e-9, name


def computational_readout_rsp(bob_ancillas: int = 1) -> ObliviousRsp:
    """Negative fixture: (input, A) read out in the computational basis, no
    correction.  Messages with input bit 1 are impossible on |0> but not on
    |1>, and the receiver's ancilla is a residue wire."""
    good = teleportation_rsp(1)
    eye = UnitaryOp(np.eye(2 ** (1 + bob_ancillas), dtype=complex))
    return ObliviousRsp(
        n=1, psi_ab=good.psi_ab, alice_subsystems=1, measurement=GateList(2, ()),
        corrections=(eye,) * 4, bob_ancillas=bob_ancillas, output_subsystems=(0,))


def test_message_impossible_on_the_reference_is_a_probability_violation():
    checks = check_obliviousness(computational_readout_rsp())
    # message 0, readout (0, 0), has probability 1/2 on |0> and 0 on |1>
    assert checks["message_probs"][0] == pytest.approx(0.5)
    assert checks["message_probs"][1] == 0
    with pytest.raises(ObliviousnessError) as err:
        rsp_to_pqc(computational_readout_rsp())
    assert err.value.invariant == "message_probs"
    assert err.value.message == 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_rsp_derived_channel_meets_the_paper_bounds(n):
    # oblivious RSP of n qubits: communication 2n bits, entanglement n ebits
    rsp = teleportation_rsp(n)
    pqc = rsp_to_pqc(rsp)
    audits = audit_quantum_input(pqc)
    assert audits and all(a.satisfied for a in audits)
    assert audits_by_name(audits)["key_entropy"].measured == pytest.approx(2 * n, abs=1e-9)
    assert shannon_entropy(pqc.resource.key_source) == pytest.approx(2 * n, abs=1e-9)
    assert entanglement_measure(rsp.psi_ab, range(n)) == pytest.approx(n, abs=1e-9)


def residue_rsp(theta: float, superposed: bool = False) -> ObliviousRsp:
    """teleportation_rsp(1) with a second shared pair cos θ|00> + sin θ|11>:
    the sender reads her half out with the rest, and the receiver's half is
    a residue wire holding the bit she read.  ``superposed``: she applies a
    Hadamard to her half first, so the residue is cos θ|0> ± sin θ|1>."""
    good = teleportation_rsp(1)
    pair = Ket(SystemLayout.qubits(2), np.array([math.cos(theta), 0, 0, math.sin(theta)]))
    readout = [*good.measurement.gates, *([(HADAMARD, (2,))] if superposed else [])]
    return ObliviousRsp(
        n=1, psi_ab=good.psi_ab.tensor(pair).permute((0, 2, 1, 3)), alice_subsystems=2,
        measurement=GateList(3, readout),
        corrections=tuple(UnitaryOp(np.kron(c.matrix, np.eye(2)))
                          for c in good.corrections for _ in range(2)),
        bob_ancillas=0, output_subsystems=(0,))


def test_rsp_with_a_residue_wire_gives_a_verified_channel():
    # the sender prepares each key's pure residue; the key
    # is the 3-bit readout, and its entropy 2 + h(cos^2 θ) is the pad's 2
    # bits plus the residue's readout bit
    theta = 0.3
    c2 = math.cos(theta) ** 2
    h = -c2 * math.log2(c2) - (1 - c2) * math.log2(1 - c2)
    rsp = residue_rsp(theta)
    assert all(deviation <= 1e-9 for deviation, _ in check_obliviousness(rsp).values())
    pqc = rsp_to_pqc(rsp)
    assert pqc.key_count == 8
    assert max(security_deviations(pqc).values()) <= 1e-9
    assert verify_correctness(pqc) <= 1e-9
    report = resource_report(pqc)
    assert report.key_entropy == pytest.approx(2 + h, abs=1e-9)
    assert report.comm == pytest.approx(1 + h, abs=1e-9)
    audits = audits_by_name(audit_quantum_input(pqc))
    assert sorted(audits) == ["comm_entropy", "key_entropy"]
    for a in audits.values():
        assert a.satisfied and a.measured - a.bound == pytest.approx(h, abs=1e-9)


def test_rsp_residue_is_prepared_on_its_own_wires():
    # the residue is pure, so the sender prepares it on its one wire, with
    # no purification reference beside it
    assert rsp_to_pqc(residue_rsp(0.3)).alice_ancillas == 1


def test_rsp_with_a_superposed_residue_prepares_it():
    # the one residue that is not a basis state: on readout bit a of the
    # pair, cos θ|0> + (-1)^a sin θ|1>, each a with probability 1/2, so the
    # key is 3 uniform bits and the message carries 1 + h(cos^2 θ)
    theta = 0.4
    c2 = math.cos(theta) ** 2
    h = -c2 * math.log2(c2) - (1 - c2) * math.log2(1 - c2)
    rsp = residue_rsp(theta, superposed=True)
    assert [deviation for deviation, _ in check_obliviousness(rsp).values()] == [0.0] * 4
    pqc = rsp_to_pqc(rsp)
    assert (pqc.key_count, pqc.alice_ancillas) == (8, 1)
    assert max(security_deviations(pqc).values()) <= 1e-12
    assert verify_correctness(pqc) <= 1e-12
    report = resource_report(pqc)
    assert report.key_entropy == pytest.approx(3.0, abs=1e-12)
    assert report.comm == pytest.approx(1 + h, abs=1e-12) and report.comm == pytest.approx(1.6139457)
    for label, ops in zip(pqc.resource.key_source.outcomes, pqc.alice_ops):
        prep, wires = ops.gates[0]
        residue = np.array([math.cos(theta), (-1) ** (int(label) % 2) * math.sin(theta)])
        # the prep gate's first column is the residue up to a global phase
        assert wires == (1,) and abs(abs(np.vdot(residue, prep.matrix[:, 0])) - 1) <= 1e-12


def test_rsp_output_wires_are_distinct():
    # two outputs on one wire would crash the receiver-block transpose
    with pytest.raises(ValueError, match="distinct receiver wires"):
        dataclasses.replace(teleportation_rsp(2), output_subsystems=(0, 0))


def test_oblivious_rsp_needs_a_shared_state():
    with pytest.raises(ValueError, match="needs a shared state"):
        dataclasses.replace(teleportation_rsp(1), psi_ab=None, alice_subsystems=0)


def test_rsp_to_pqc_at_four_qubits_stays_small():
    tracemalloc.start()
    try:
        pqc = rsp_to_pqc(teleportation_rsp(4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pqc.key_count == 256
    assert peak < 64 << 20


def test_rsp_to_pqc_builds_the_receiver_blocks_once(monkeypatch):
    # the obliviousness checks and the reference input's residues read the
    # same blocks
    calls = []
    real = reductions._receiver_blocks
    monkeypatch.setattr(reductions, "_receiver_blocks",
                        lambda rsp: calls.append(rsp) or real(rsp))
    rsp = teleportation_rsp(2)
    rsp_to_pqc(rsp)
    assert calls == [rsp]


def test_rsp_to_pqc_at_four_qubits_is_admitted():
    # 256 keys on 4 wires, 4 input qubits, a 4-qubit message: every load at its limit
    require_desk_scale(rsp_to_pqc(teleportation_rsp(4)))


# ---------------------------------------------------------------------------
# dense-projector oracle: the measurement as rank-1 projectors onto the rows
# of its unitary, applied to one probe and one message at a time


def dense_branches(rsp, probe):
    """Every message's probability, the messages whose probability reaches
    1e-14, and their post-correction receiver density matrices, stacked."""
    u = dense(rsp.measurement)
    ra, rb = rsp.alice_subsystems, rsp.bob_qubits
    # rows: the input and sender wires; columns: the receiver's half
    vec = np.kron(probe.amplitudes, rsp.psi_ab.amplitudes).reshape(len(u), 2 ** rb)
    # message m's branch: the projector onto row m of u, applied to vec
    w = np.einsum("mi,mk->mik", u.conj(), u) @ vec
    probs = np.sum(np.abs(w) ** 2, axis=(1, 2))
    live = np.flatnonzero(probs >= 1e-14)
    states = (w[live] / np.sqrt(probs[live])[:, None, None]).reshape(len(live), -1).T
    bob = reduced_from_vector(states, [2] * (rsp.n + ra + rb),
                              list(range(rsp.n + ra, rsp.n + ra + rb)))
    anc = np.zeros((2 ** rsp.bob_ancillas,) * 2)
    anc[0, 0] = 1.0
    c = np.stack([rsp.corrections[m].matrix for m in live])
    prepared = np.einsum("lij,ab->liajb", bob, anc).reshape(c.shape)
    return probs, live, c @ prepared @ c.conj().swapaxes(-1, -2)


def dense_obliviousness(rsp, random_probes):
    bob_dims = [2] * (rsp.bob_qubits + rsp.bob_ancillas)
    out = list(rsp.output_subsystems)
    residue = [i for i in range(len(bob_dims)) if i not in out]
    worst = dict.fromkeys(("message_probs", "output_state", "residue_drift", "factorization"), 0.0)
    ref_probs, ref_residues = None, {}
    for idx, probe in enumerate(probes(rsp.n, INPUT_QUANTUM, random_probes, 0)):
        target = probe.density().matrix
        probs, live, posts = dense_branches(rsp, probe)
        worst["output_state"] = max(worst["output_state"], float(np.max(trace_distance(
            reduced_matrix(posts, bob_dims, out), target))))
        if residue:
            res = reduced_matrix(posts, bob_dims, residue)
            if idx == 0:
                ref_residues = dict(zip(live, res))
            drifting = [i for i, m in enumerate(live) if idx and m in ref_residues]
            if drifting:
                worst["residue_drift"] = max(worst["residue_drift"], float(np.max(trace_distance(
                    res[drifting], np.stack([ref_residues[live[i]] for i in drifting])))))
            joint = np.einsum("ab,lij->laibj", target, res).reshape(posts.shape)
            worst["factorization"] = max(worst["factorization"], float(np.max(trace_distance(
                reduced_matrix(posts, bob_dims, out + residue), joint))))
        if ref_probs is None:
            ref_probs = probs
        worst["message_probs"] = max(worst["message_probs"], np.max(np.abs(probs - ref_probs)))
    return worst


def assert_certificate_bounds_oracle(rsp, random_probes=5):
    checks = check_obliviousness(rsp)
    for name, value in dense_obliviousness(rsp, random_probes).items():
        assert checks[name][0] >= value - 1e-12, name


@pytest.mark.parametrize("build,n", [
    (teleportation_rsp, 1), (teleportation_rsp, 2), (non_oblivious_rsp, 1),
    (non_oblivious_rsp, 2), (lambda n: computational_readout_rsp(), 1)],
    ids=["teleportation-1", "teleportation-2", "non-oblivious-1", "non-oblivious-2",
         "computational-readout"])
def test_obliviousness_matches_dense_projector_oracle(build, n):
    assert_certificate_bounds_oracle(build(n))


@pytest.mark.parametrize("n", [1, 2])
def test_message_probs_and_key_match_dense_projector_oracle(n):
    rsp = teleportation_rsp(n)
    rng = np.random.default_rng(n)
    for probe in (Ket.basis(SystemLayout.qubits(n), 0), haar_ket(SystemLayout.qubits(n), rng)):
        dense = dense_branches(rsp, probe)[0]
        assert np.allclose(rsp_message_probs(rsp, probe), dense, atol=1e-12)
    ref = dense_branches(rsp, Ket.basis(SystemLayout.qubits(n), 0))[0]
    assert np.allclose(rsp_to_pqc(rsp).key_probs, ref, atol=1e-12)


def test_obliviousness_with_a_message_never_possible_matches_oracle():
    # A holds |0>, so every readout (x, 1) has probability 0 on every probe:
    # those messages reach check_obliviousness as blocks with no live column
    eye = UnitaryOp(np.eye(4, dtype=complex))
    rsp = ObliviousRsp(
        n=1, psi_ab=Ket.from_bits("00"), alice_subsystems=1, measurement=GateList(2, ()),
        corrections=(eye,) * 4, bob_ancillas=1, output_subsystems=(0,))
    assert not rsp_message_probs(rsp, haar_ket(Q1, np.random.default_rng(3)))[1::2].any()
    assert_certificate_bounds_oracle(rsp)


def wire_permutation(perm):
    """The unitary that moves qubit wire i to wire perm[i]."""
    q = len(perm)
    eye = np.eye(2 ** q).reshape([2] * q + [2 ** q])
    return eye.transpose(list(np.argsort(perm)) + [q]).reshape(2 ** q, 2 ** q)


def near_identity(dim, scale, rng):
    """exp(i scale H) for a random Hermitian H of unit operator norm."""
    h = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    vals, vecs = np.linalg.eigh(h + h.conj().T)
    return (vecs * np.exp(1j * scale * vals / np.abs(vals).max())) @ vecs.conj().T


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.integers(1, 2), haar_shared=st.booleans(), extra_gates=st.integers(0, 2),
       haar_corrections=st.booleans(), ancillas=st.integers(0, 1),
       scale=st.sampled_from([0.0, 1e-6, 1e-2, 0.3]), seed=st.integers(0, 2 ** 32 - 1))
def test_obliviousness_certificate_bounds_oracle_on_random_rsps(
        n, haar_shared, extra_gates, haar_corrections, ancillas, scale, seed):
    # teleportation RSP with its shared state, measurement and corrections
    # each optionally replaced or perturbed, and its output wires permuted
    rng = np.random.default_rng(seed)
    good = teleportation_rsp(n)
    psi = haar_ket(SystemLayout.qubits(2 * n), rng) if haar_shared else good.psi_ab
    gates = list(good.measurement.gates)
    for _ in range(extra_gates):
        wires = tuple(int(w) for w in rng.choice(2 * n, size=2, replace=False))
        gates.append((haar_unitary(4, rng), wires))
    reg = n + ancillas
    perm = rng.permutation(reg)
    move = wire_permutation(perm)
    corrections = tuple(
        haar_unitary(2 ** reg, rng) if haar_corrections else UnitaryOp(
            near_identity(2 ** reg, scale, rng) @ move
            @ np.kron(c.matrix, np.eye(2 ** ancillas)))
        for c in good.corrections)
    rsp = ObliviousRsp(
        n=n, psi_ab=psi, alice_subsystems=n, measurement=GateList(2 * n, gates),
        corrections=corrections, bob_ancillas=ancillas,
        output_subsystems=tuple(int(w) for w in perm[:n]))
    assert_certificate_bounds_oracle(rsp, random_probes=0)


def perturbed_rsp(n):
    """teleportation_rsp(n) with each correction followed by exp(i 0.01 H)."""
    rng = np.random.default_rng(n)
    good = teleportation_rsp(n)
    return dataclasses.replace(good, corrections=tuple(
        UnitaryOp(near_identity(2 ** n, 1e-2, rng) @ c.matrix) for c in good.corrections))


@pytest.mark.parametrize("build,n", [(teleportation_rsp, n) for n in (1, 2, 3, 4)]
                         + [(non_oblivious_rsp, 1), (non_oblivious_rsp, 2),
                            (perturbed_rsp, 1), (perturbed_rsp, 2)])
def test_certificate_bounds_every_live_message_as_the_per_key_form(build, n):
    # the batched bound over the live messages, bit for bit one per-key bound
    # of W_m/√λ_max per message; the teleportation RSPs' values stay exact 0
    rsp = build(n)
    blocks = _receiver_blocks(rsp)
    top = np.linalg.eigvalsh(np.einsum("mri,mrj->mij", blocks.conj(), blocks))[:, -1]
    dims = [2] * (rsp.bob_qubits + rsp.bob_ancillas)
    eps = np.array([per_key_bound(w / np.sqrt(lam), dims, list(rsp.output_subsystems), False)
                    if lam >= RSP_PROB_FLOOR else 0.0 for w, lam in zip(blocks, top)])
    checks = check_obliviousness(rsp)
    output_state = np.minimum(1.0, 2 * eps)
    assert checks["output_state"] == (float(output_state.max()), int(np.argmax(output_state)))
    if build is teleportation_rsp:
        assert all(value == (0.0, 0) for value in checks.values())
    if build is perturbed_rsp:
        assert 0.0 < checks["output_state"][0] < 1.0
