import dataclasses
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from pqclab.entropy import check_correlation_bounds, shannon_entropy
from pqclab.protocols import (
    INPUT_CLASSICAL,
    INPUT_QUANTUM,
    PROTOCOL_BUILDERS,
    ChannelProtocol,
    GateList,
    ProbabilityDist,
    SharedResource,
    _verified,
    build_broken_otp,
    build_broken_teleportation,
    build_classical_otp,
    build_epr_keyed_otp,
    build_named,
    build_quantum_otp,
    build_superdense,
    build_teleportation,
    channel_on_units,
    decode_per_key,
    encode,
    epr_block,
    protocol_digest,
    protocol_from_dict,
    protocol_to_dict,
    require_desk_scale,
    require_load,
    resource_report,
    save_protocol,
    load_protocol,
    security_deviations,
    verify_correctness,
    verify_security,
)
from pqclab.qmath import (
    Ket,
    SystemLayout,
    max_abs,
    partial_trace,
    trace_distance,
)
from pqclab.reductions import teleportation_rsp

from oracles import (
    alice_stage,
    dense,
    canonical_probes,
    decode,
    encode_cross_term,
    haar_ket,
    haar_unitary,
    message_distribution,
    probe_columns,
    probes,
)

Q1 = SystemLayout.qubits(1)
Q2 = SystemLayout.qubits(2)

ZOO = [
    ("classical-otp", 2),
    ("quantum-otp", 1),
    ("superdense", 2),
    ("teleportation", 1),
    ("epr-otp", 2),
]


# ---------------------------------------------------------------------------
# builders pass their own verification


@pytest.mark.parametrize("name,n", ZOO)
def test_zoo_verifies(name, n):
    p = build_named(name, n)
    assert verify_security(p) <= 1e-9
    assert verify_correctness(p) <= 1e-9


@pytest.mark.parametrize("name,n", ZOO)
def test_zoo_operations_unitary(name, n):
    p = build_named(name, n)
    for op in p.alice_ops + p.bob_ops:
        u = dense(op)
        assert max_abs(u.conj().T @ u - np.eye(len(u))) <= 1e-10


# ---------------------------------------------------------------------------
# encode


def test_quantum_otp_encode_is_maximally_mixed():
    p = build_quantum_otp(1)
    rng = np.random.default_rng(0)
    probes = [Ket.from_bits("0"), Ket(Q1, np.array([1, 1]) / math.sqrt(2)),
              haar_ket(Q1, rng)]
    for probe in probes:
        assert trace_distance(encode(p, probe).matrix, np.eye(2) / 2) <= 1e-10


def test_classical_otp_encode_uniform_diagonal():
    p = build_classical_otp(2)
    rho = encode(p, Ket.from_bits("01"))
    assert trace_distance(rho.matrix, np.eye(4) / 4) <= 1e-10


def test_superdense_encode_maximally_mixed():
    p = build_superdense(2)
    for bits in ("00", "01", "10", "11"):
        rho = encode(p, Ket.from_bits(bits))
        assert trace_distance(rho.matrix, np.eye(2) / 2) <= 1e-10


# ---------------------------------------------------------------------------
# decode


def test_teleportation_decodes_plus_state():
    p = build_teleportation(1)
    plus = Ket(Q1, np.array([1, 1]) / math.sqrt(2))
    assert trace_distance(decode(p, plus), plus.density()) <= 1e-9


def test_quantum_otp_decodes_basis_state():
    p = build_quantum_otp(1)
    zero = Ket.from_bits("0")
    assert trace_distance(decode(p, zero), zero.density()) <= 1e-9


@pytest.mark.parametrize("name,n", ZOO)
def test_zoo_decodes_every_probe(name, n):
    p = build_named(name, n)
    for probe in canonical_probes(p, random_probes=8):
        target = probe.density().matrix
        for k in range(p.key_count):
            assert trace_distance(decode_per_key(p, probe, k).matrix, target) <= 1e-9


def test_identity_protocol_correct_but_leaky():
    p = build_named("identity-leaky", 1)
    assert verify_correctness(p) == pytest.approx(0.0, abs=1e-12)
    assert verify_security(p) > 0.9


# ---------------------------------------------------------------------------
# resource accounting


def test_resource_reports_match_the_table():
    expected = {
        ("classical-otp", 3): (3.0, 3.0, None),
        ("quantum-otp", 2): (2.0, 4.0, None),
        ("superdense", 2): (1.0, None, 1.0),
        ("teleportation", 1): (2.0, None, 1.0),
        ("epr-otp", 2): (2.0, None, 2.0),
    }
    for (name, n), (comm, key, ent) in expected.items():
        rep = resource_report(build_named(name, n))
        assert rep.comm == pytest.approx(comm, abs=1e-9)
        if key is None:
            assert rep.key_entropy is None
        else:
            assert rep.key_entropy == pytest.approx(key, abs=1e-9)
        if ent is None:
            assert rep.entanglement is None
        else:
            assert rep.entanglement == pytest.approx(ent, abs=1e-9)


# ---------------------------------------------------------------------------
# security sweeps


def _probe_state_deviation(p, random_probes, seed):
    """The largest trace distance from a probe's wire state to |0...0>'s."""
    states = [encode(p, probe) for probe in probes(p.input_qubits, INPUT_QUANTUM,
                                                   random_probes, seed)]
    return max(trace_distance(rho, states[0]) for rho in states)


def test_security_random_probes_no_worse_than_structured():
    # random probes find nothing the basis and pair probes miss, and neither
    # strays beyond the certificate the report carries
    for name, n in (("quantum-otp", 1), ("teleportation", 1)):
        p = build_named(name, n)
        dev_structured = _probe_state_deviation(p, 0, 0)
        dev_full = _probe_state_deviation(p, 50, 3)
        assert dev_full <= dev_structured + 1e-9
        assert dev_full <= security_deviations(p)["factorization"] + 1e-12


def test_classical_message_states_are_diagonal():
    # over every input, the classical wire state read off the channel table
    # has no coherence; over the basis, the table holds only its diagonals,
    # one real, read-only row [a, x] per basis input
    p = build_named("teleportation", 1)
    dm = 2 ** p.message_qubits
    assert max_abs(_verified(p)[0][..., ~np.eye(dm, dtype=bool)]) <= 1e-10
    for name, n in (("classical-otp", 2), ("epr-otp", 2)):
        p = build_named(name, n)
        table = _verified(p)[0]
        assert table.shape == (2 ** p.input_qubits, 2 ** p.message_qubits), name
        assert table.dtype == np.float64 and not table.flags.writeable, name


def test_teleportation_message_distribution_uniform():
    p = build_teleportation(1)
    rng = np.random.default_rng(5)
    for probe in (Ket.from_bits("0"), haar_ket(Q1, rng), haar_ket(Q1, rng)):
        dist = message_distribution(p, probe)
        assert max_abs(dist.probs - 0.25) <= 1e-10
        assert shannon_entropy(dist) == pytest.approx(2.0)


def test_encode_extends_linearly():
    # the channel evaluated through its matrix-unit table must agree with a
    # direct encode on fresh superposition probes
    p = build_quantum_otp(1)
    units = channel_on_units(p)
    rng = np.random.default_rng(11)
    for _ in range(10):
        psi = haar_ket(Q1, rng)
        direct = encode(p, psi).matrix
        via_units = np.einsum("a,b,abxy->xy", psi.amplitudes,
                              psi.amplitudes.conj(), units)
        assert max_abs(direct - via_units) <= 1e-9


def test_superposition_identity_with_cross_terms():
    p = build_quantum_otp(1)
    e0 = encode(p, Ket.from_bits("0")).matrix
    e1 = encode(p, Ket.from_bits("1")).matrix
    cross = encode_cross_term(p, 0, 1)
    plus = Ket(Q1, np.array([1, 1]) / math.sqrt(2))
    lhs = encode(p, plus).matrix
    rhs = (e0 + e1 + cross + cross.conj().T) / 2
    assert max_abs(lhs - rhs) <= 1e-9


def test_superdense_joint_state_correlation_bound_is_tight():
    # at message time, the (message qubit, receiver half) state saturates
    # I(A:B) <= 2 S(B): a maximally entangled pair gives 2 = 2
    p = build_superdense(2)
    joint = alice_stage(p, Ket.from_bits("00"))
    pair = partial_trace(joint.density(), [2, 3])  # message qubit, receiver half
    slacks = {r.name: r.slack for r in check_correlation_bounds(pair, (0,), (1,))}
    assert slacks["mutual_info_vs_marginals"] == pytest.approx(0.0, abs=1e-9)


# ---------------------------------------------------------------------------
# negative fixtures


def test_broken_otp_fails_security():
    p = build_broken_otp()
    dev = verify_security(p)
    assert dev > 0.2
    # two-Pauli average: |+> is fixed by the pad, |0> is flattened to I/2
    plus = Ket(Q1, np.array([1, 1]) / math.sqrt(2))
    assert trace_distance(encode(p, plus).matrix, np.eye(2) / 2) == pytest.approx(0.5)


def test_broken_teleportation_fails_correctness():
    p = build_broken_teleportation()
    dev = verify_correctness(p)
    assert dev > 0.4


# ---------------------------------------------------------------------------
# the reference's probe inputs


def test_classical_basis_enumerates_all_states():
    basis = probes(2, INPUT_CLASSICAL)
    assert len(basis) == 4
    assert max_abs(basis[1].amplitudes - Ket.from_bits("01").amplitudes) == 0


def test_quantum_full_probe_inventory():
    quantum = probes(1, INPUT_QUANTUM, random_probes=5, seed=0)
    # 2 basis + 2 pair probes + 5 random
    assert len(quantum) == 9
    assert len(quantum) == 2 ** (2 * 1) + 5
    for n in (1, 2, 3):
        assert probe_columns(n, INPUT_QUANTUM, 7).shape == (2 ** n, 4 ** n + 7)


def test_quantum_full_probes_reproducible():
    a = [k.amplitudes for k in probes(1, INPUT_QUANTUM, 5, 42)]
    b = [k.amplitudes for k in probes(1, INPUT_QUANTUM, 5, 42)]
    for x, y in zip(a, b):
        assert max_abs(x - y) == 0


# ---------------------------------------------------------------------------
# validation and guards


def test_dimension_guard_on_builders():
    with pytest.raises(ValueError, match="exceeds"):
        build_quantum_otp(12)
    with pytest.raises(ValueError, match="exceeds"):
        build_teleportation(8)


def test_load_rule_matches_its_formula():
    for scale in (1, 2):
        for qubits in range(1, 12 * scale + 3):
            for keys in (1, 2, 3, 5, 255, 256, 257, 4095, 4096, 4097):
                if keys * 2 ** qubits > 4096 ** scale:
                    with pytest.raises(ValueError, match="exceeds 4096"):
                        require_load("rule", keys, qubits, scale)
                else:
                    require_load("rule", keys, qubits, scale)
    for qubits in (0, -3):
        with pytest.raises(ValueError, match=">= 1"):
            require_load("rule", 1, qubits)


def _quantum_identity(n, message):
    # the first min(n, message) wires of an n + ancilla sender register, as a
    # gate list with no gates, sent out as a quantum message of ``message`` wires
    sender = max(n, message)
    return ChannelProtocol(
        name="wide", input_kind=INPUT_QUANTUM, input_qubits=n, message_kind=INPUT_QUANTUM,
        resource=SharedResource(), alice_ancillas=sender - n,
        bob_ancillas=max(0, n - message), alice_ops=(GateList(sender, ()),),
        bob_ops=(GateList(max(n, message), ()),), message_subsystems=tuple(range(message)),
        output_subsystems=tuple(range(n)))


def test_quantum_input_admission_counts_the_channel_table():
    # the Choi matrix's eigensolve: (d x message dim)^3 <= 4096^2
    require_desk_scale(_quantum_identity(4, 4))
    with pytest.raises(ValueError, match="wide channel table: load 2\\^30 exceeds 4096\\^2"):
        require_desk_scale(_quantum_identity(5, 5))
    require_desk_scale(_quantum_identity(1, 7))
    with pytest.raises(ValueError, match="wide channel table: load 2\\^27 exceeds 4096\\^2"):
        require_desk_scale(_quantum_identity(1, 8))
    # no probe set is simulated: 5 and 6 input qubits on a narrow message pass
    for n, message in ((5, 1), (5, 2), (6, 1), (6, 2)):
        require_desk_scale(_quantum_identity(n, message))
    with pytest.raises(ValueError, match="wide channel table: load 2\\^27"):
        require_desk_scale(_quantum_identity(6, 3))


def test_classical_input_admission_counts_basis_wire_states_and_outputs():
    # d basis wire states of dm^2 amplitudes, and d^3 for the basis pass's d
    # columns, each within 4096^1.5 = 2^18, where identity-leaky 6 sits
    def classical(n, message):
        return dataclasses.replace(_quantum_identity(n, message), input_kind=INPUT_CLASSICAL)
    require_desk_scale(build_named("identity-leaky", 6))
    require_desk_scale(classical(6, 6))
    require_desk_scale(classical(1, 8))
    for n, message, load in ((7, 7, 21), (1, 9, 19), (1, 11, 23)):
        with pytest.raises(ValueError, match=f"wide basis wire states: load 2\\^{load} exceeds "
                                             "4096\\^1.5"):
            require_desk_scale(classical(n, message))
    with pytest.raises(ValueError, match="wide basis outputs: load 2\\^21 exceeds 4096\\^1.5"):
        require_desk_scale(classical(7, 5))


# every n each builder admits: its load (keys x 2^engine register) is at most 4096
ADMITTED = {
    "classical-otp": (1, 2, 3, 4),
    "quantum-otp": (1, 2, 3, 4),
    "superdense": (2, 4, 6),
    "teleportation": (1, 2),
    "epr-otp": (1, 2, 3),
    "identity-leaky": (1, 2, 3, 4, 5, 6),
    "broken-otp": (1,),
    "broken-teleportation": (1, 2),
}


@pytest.mark.parametrize("name", sorted(ADMITTED))
def test_builders_refuse_by_the_engine_load_before_allocating(name):
    """Up to two sizes past the first refused one, a builder returns a
    protocol that require_desk_scale admits or refuses the size itself,
    without allocating: nothing is built and then refused."""
    assert sorted(ADMITTED) == sorted(PROTOCOL_BUILDERS)
    admitted = []
    for n in range(1, max(ADMITTED[name]) + 4):
        tracemalloc.start()
        try:
            protocol = build_named(name, n)
        except ValueError:
            assert tracemalloc.get_traced_memory()[1] < 1 << 20, n
            continue
        finally:
            tracemalloc.stop()
        require_desk_scale(protocol)
        admitted.append(n)
    assert tuple(admitted) == ADMITTED[name]


def test_superdense_requires_even_bits():
    with pytest.raises(ValueError):
        build_superdense(3)


def test_unknown_builder_name():
    with pytest.raises(KeyError):
        build_named("nonsense", 1)


def test_shared_resource_payload_consistency():
    # the kind is read off the payloads, with the tags descriptors carry
    key = ProbabilityDist.uniform(["0", "1"])
    assert SharedResource().kind == "none"
    assert SharedResource(key).kind == "classical_key"
    assert SharedResource(psi_ab=epr_block(1), alice_subsystems=1).kind == "entangled_state"
    assert SharedResource(key, epr_block(1), 1).kind == "hybrid"
    with pytest.raises(dataclasses.FrozenInstanceError):
        SharedResource().kind = "hybrid"
    with pytest.raises(ValueError, match="must split the shared state"):
        SharedResource(psi_ab=epr_block(1), alice_subsystems=0)
    with pytest.raises(ValueError, match="must split the shared state"):
        SharedResource(psi_ab=epr_block(1), alice_subsystems=2)
    with pytest.raises(ValueError, match="must be 0 without a shared state"):
        SharedResource(key, alice_subsystems=1)
    with pytest.raises(TypeError):
        SharedResource("classical_key", key_source=key)


@pytest.mark.parametrize("name,kind", [
    ("classical-otp", "classical_key"), ("quantum-otp", "classical_key"),
    ("superdense", "entangled_state"), ("teleportation", "entangled_state"),
    ("epr-otp", "entangled_state"), ("identity-leaky", "none"),
    ("broken-otp", "classical_key"), ("broken-teleportation", "entangled_state")])
def test_builders_hold_the_resource_kind_of_their_scheme(name, kind):
    p = _smallest_protocol(PROTOCOL_BUILDERS[name])
    assert p.resource.kind == protocol_to_dict(p)["resource"]["kind"] == kind


def test_encode_input_dimension_mismatch():
    with pytest.raises(ValueError):
        encode(build_quantum_otp(1), Ket.from_bits("00"))


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize("name,n", ZOO)
def test_descriptor_round_trip(name, n, tmp_path):
    p = build_named(name, n)
    clone = protocol_from_dict(protocol_to_dict(p))
    for a, b in zip(p.alice_ops + p.bob_ops, clone.alice_ops + clone.bob_ops):
        assert max_abs(dense(a) - dense(b)) <= 1e-12
    if p.resource.psi_ab is not None:
        assert max_abs(p.resource.psi_ab.amplitudes
                       - clone.resource.psi_ab.amplitudes) <= 1e-12
    assert protocol_digest(p) == protocol_digest(clone)

    path = tmp_path / "protocol.json"
    save_protocol(p, str(path))
    loaded = load_protocol(str(path))
    assert verify_security(loaded) <= 1e-9
    assert verify_correctness(loaded) <= 1e-9
    rep_orig, rep_loaded = resource_report(p), resource_report(loaded)
    assert rep_orig.comm == pytest.approx(rep_loaded.comm, abs=1e-12)


def test_malformed_descriptor_rejected():
    with pytest.raises(ValueError):
        protocol_from_dict({"format": "something-else"})


@pytest.mark.parametrize("schema", [None, 0, 3, 99, "2", 2.0, True])
def test_descriptor_of_missing_or_unknown_schema_refused(schema):
    data = protocol_to_dict(build_quantum_otp(1))
    if schema is None:
        del data["schema"]
    else:
        data["schema"] = schema
    with pytest.raises(ValueError, match="schema"):
        protocol_from_dict(data)


@pytest.mark.parametrize("index", [-1, 4, 1.0, True, "0"])
def test_gate_reference_outside_the_table_refused(index):
    # quantum-otp 1 holds the four Paulis; a negative index would wrap around
    data = protocol_to_dict(build_quantum_otp(1))
    assert len(data["gates"]) == 4
    data["alice_ops"][0] = [[index, [0]]]
    with pytest.raises(ValueError, match="gate index"):
        protocol_from_dict(data)


def _smallest_protocol(builder):
    for n in range(1, 5):
        try:
            return builder(n)
        except ValueError:
            continue
    raise AssertionError(f"{builder.__name__} accepts no n in 1..4")


def per_entry(m):
    """[re, im] pairs of Python floats, one entry at a time."""
    m = np.asarray(m, dtype=complex)
    if m.ndim == 1:
        return [[float(x.real), float(x.imag)] for x in m]
    return [[[float(x.real), float(x.imag)] for x in row] for row in m]


@pytest.mark.parametrize("name", sorted(PROTOCOL_BUILDERS))
def test_digest_matches_per_entry_serialization(name):
    # the descriptor rebuilt here field by field, independently of the writer:
    # each distinct gate object once, in the order alice_ops then bob_ops
    # first use it, and each operator as its [table index, wires] pairs
    p = _smallest_protocol(PROTOCOL_BUILDERS[name])
    resource = {"kind": p.resource.kind}
    if p.resource.keyed:
        resource["key_outcomes"] = list(p.resource.key_source.outcomes)
        resource["key_probs"] = [float(x) for x in p.resource.key_source.probs]
    if p.resource.psi_ab is not None:
        resource["state_dims"] = list(p.resource.psi_ab.layout.dims)
        resource["state_amplitudes"] = per_entry(p.resource.psi_ab.amplitudes)
        resource["alice_subsystems"] = p.resource.alice_subsystems
    gates = []
    for op in p.alice_ops + p.bob_ops:
        for g, _ in op.gates:
            if not any(g is known for known in gates):
                gates.append(g)

    def refs(op):
        return [[next(i for i, known in enumerate(gates) if known is g), list(targets)]
                for g, targets in op.gates]
    descriptor = {
        "format": "pqclab-protocol", "schema": 2, "name": p.name,
        "input_kind": p.input_kind, "input_qubits": p.input_qubits,
        "message_kind": p.message_kind, "alice_ancillas": p.alice_ancillas,
        "bob_ancillas": p.bob_ancillas, "resource": resource,
        "gates": [per_entry(g.matrix) for g in gates],
        "alice_ops": [refs(op) for op in p.alice_ops],
        "bob_ops": [refs(op) for op in p.bob_ops],
        "message_subsystems": list(p.message_subsystems),
        "output_subsystems": list(p.output_subsystems)}
    text = json.dumps(descriptor, sort_keys=True, separators=(",", ":"))
    assert protocol_digest(p) == hashlib.sha256(text.encode()).hexdigest()


def _accepted(name, n):
    try:
        build_named(name, n)
    except ValueError:
        return False
    return True


#: every builder at every n <= 2 it accepts
SMALL_ZOO = [(name, n) for name in sorted(PROTOCOL_BUILDERS) for n in (1, 2)
             if _accepted(name, n)]


@pytest.mark.parametrize("name,n", SMALL_ZOO)
def test_saved_descriptor_is_the_canonical_text_of_the_digest(name, n, tmp_path):
    p = build_named(name, n)
    path = tmp_path / "protocol.json"
    save_protocol(p, str(path))
    saved = path.read_bytes()
    assert hashlib.sha256(saved).hexdigest() == protocol_digest(p)
    assert saved.decode() == json.dumps(protocol_to_dict(p), sort_keys=True,
                                        separators=(",", ":"))


@pytest.mark.parametrize("name,n,limit", [("quantum-otp", 4, 4e6), ("superdense", 6, 16e6)])
def test_digest_never_holds_the_descriptor(name, n, limit):
    # the dense schema-1 text of either was 1.4 and 2.7 MB; the gate-list text is
    # 22 and 2 KB, held whole with its dict while it is hashed
    p = build_named(name, n)
    tracemalloc.start()
    try:
        protocol_digest(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit


def test_digest_of_a_dense_gate_peaks_near_its_load(tmp_path):
    # only a dense gate from a file makes the digest's dict and text large,
    # and the loader already parses that file whole: a 2.9 MB file of one
    # 8-qubit gate peaks at about 14 MB in either
    p = ChannelProtocol(
        name="dense", input_kind=INPUT_QUANTUM, input_qubits=8, message_kind=INPUT_QUANTUM,
        resource=SharedResource(), alice_ops=(haar_unitary(256, np.random.default_rng(0)),),
        bob_ops=((),), message_subsystems=tuple(range(8)), output_subsystems=tuple(range(8)))
    path = tmp_path / "dense.json"
    save_protocol(p, str(path))
    assert path.stat().st_size > 2.5e6

    def peak(call):
        tracemalloc.start()
        try:
            return call(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    loaded, load_peak = peak(lambda: load_protocol(str(path)))
    digest, digest_peak = peak(lambda: protocol_digest(loaded))
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest_peak <= 1.25 * load_peak


@pytest.mark.parametrize("wire", [0.0, 0.7, False, True])
def test_gate_list_wires_are_integers(wire):
    # int() would read each of these as wire 0 or 1
    with pytest.raises(ValueError, match="gate targets must be an integer"):
        GateList(2, [(np.eye(2), (wire,))])
    with pytest.raises(ValueError, match="qubits must be an integer"):
        GateList(float(2), [(np.eye(2), (0,))])


@pytest.mark.parametrize("field,value", [
    ("message_subsystems", (0.7,)), ("message_subsystems", (False,)),
    ("output_subsystems", (0.0,)), ("output_subsystems", (True,)),
    ("input_qubits", 1.0), ("input_qubits", True), ("bob_ancillas", 0.0)])
def test_channel_protocol_wires_and_counts_are_integers(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        dataclasses.replace(build_quantum_otp(1), **{field: value})


@pytest.mark.parametrize("value", [1.0, True])
def test_shared_resource_split_is_an_integer(value):
    with pytest.raises(ValueError, match="alice_subsystems must be an integer"):
        SharedResource(psi_ab=epr_block(1), alice_subsystems=value)


@pytest.mark.parametrize("value", [1.5, 2.0, True])
@pytest.mark.parametrize("build", [*PROTOCOL_BUILDERS.values(), teleportation_rsp],
                         ids=[*PROTOCOL_BUILDERS, "teleportation-rsp"])
def test_builders_refuse_a_non_integer_size(build, value):
    # a float would reach the load rule's shift, and True would read as 1
    with pytest.raises(ValueError, match="must be an integer"):
        build(value)
