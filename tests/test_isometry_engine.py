"""The isometry-block checks against a per-probe, per-key reference loop.

``security_deviations`` reads every part off the channel table of one shared
pass, one sender stage per run of keys, and ``verify_correctness`` is a
bound read off each key's receiver block in the same pass.  The reference here
re-simulates the protocol for each probe of ``oracles.probe_columns`` (basis,
pair and Haar-random inputs) and each key through ``oracles.per_key_encode``
and ``decode_per_key``, rebuilds the matrix-unit table by polarization, and
computes the factorization certificate from that table with |C| formed in
full.  The probes' wire-state deviation and the sampled factorization check
must never exceed the certificate, and the probed correctness never the
correctness bound.  The pass's key-stacked table is also checked against
the same pass summed one key at a time, ``oracles.per_key_pass``, with its
keys cut into runs of one, two and three keys and uncut.
"""

import contextlib
import dataclasses
import inspect
import io
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqclab import cli, protocols
from pqclab.entropy import ProbabilityDist
from pqclab.protocols import (
    CNOT,
    HADAMARD,
    INPUT_CLASSICAL,
    INPUT_QUANTUM,
    ChannelProtocol,
    GateList,
    SharedResource,
    build_classical_otp,
    build_identity_protocol,
    build_named,
    build_quantum_otp,
    build_teleportation,
    channel_on_units,
    controlled_by_value,
    decode_per_key,
    encode,
    epr_block,
    resource_report,
    security_deviations,
    verify_correctness,
)
from pqclab.qmath import (
    Ket,
    SystemLayout,
    UnitaryOp,
    max_abs,
    partial_trace,
    pauli_string,
    random_density,
    random_density_matrix,
    trace_distance,
)
from pqclab.reductions import lift_extra_comm, lift_extra_epr

from oracles import (
    haar_unitary,
    per_key_encode,
    per_key_pass,
    probes,
    run_cut,
    stage_runs,
    unmasked_bound,
    verification_pass,
)

TOL = 1e-12

BUILDERS = [
    ("classical-otp", 2),
    ("quantum-otp", 1),
    ("quantum-otp", 2),
    ("superdense", 2),
    ("teleportation", 1),
    ("epr-otp", 2),
    ("identity-leaky", 2),
    ("broken-otp", 1),
    ("broken-teleportation", 1),
]
# many random probes
LONG = 515


def reference_units(p):
    """E(|a><b|) by polarization from the encodings of four pure probes."""
    layout = SystemLayout.qubits(p.input_qubits)
    d = layout.dim
    basis = np.eye(d, dtype=complex)

    def enc(v):
        return per_key_encode(p, Ket(layout, v)).matrix

    dm = 2 ** p.message_qubits
    units = np.zeros((d, d, dm, dm), dtype=complex)
    for a in range(d):
        units[a, a] = enc(basis[a])
    for a, b in itertools.permutations(range(d), 2):
        plus = enc((basis[a] + basis[b]) / math.sqrt(2))
        phase = enc((basis[a] + 1j * basis[b]) / math.sqrt(2))
        units[a, b] = plus + 1j * phase - (1 + 1j) / 2 * (units[a, a] + units[b, b])
    return units


def reference_factorization(units, samples, seed):
    d, dm = units.shape[0], units.shape[-1]
    rng = np.random.default_rng(seed)
    layout = SystemLayout((d, d))
    worst = 0.0
    for _ in range(samples):
        sigma = random_density(layout, rng)
        blocks = sigma.matrix.reshape(d, d, d, d)
        mapped = np.zeros((d, dm, d, dm), dtype=complex)
        for c in range(d):
            for e in range(d):
                mapped[c, :, e, :] = np.einsum("ab,abxy->xy", blocks[c, :, e, :], units)
        product = np.kron(partial_trace(sigma, [0]).matrix, units[0, 0])
        worst = max(worst, trace_distance(mapped.reshape(d * dm, d * dm), product))
    return worst


def reference_certificate(units):
    """½‖Tr_out |C|‖_∞, C the Choi matrix of E minus X ↦ Tr(X) E(|0><0|),
    with |C| built as a full matrix and its output traced out by einsum."""
    d, dm = units.shape[0], units.shape[-1]
    choi = np.zeros((d, dm, d, dm), dtype=complex)
    for a, b in itertools.product(range(d), repeat=2):
        choi[a, :, b, :] = units[a, b] - (a == b) * units[0, 0]
    w, v = np.linalg.eigh(choi.reshape(d * dm, d * dm))
    abs_choi = (v * np.abs(w)) @ v.conj().T
    reduced = np.einsum("axbx->ab", abs_choi.reshape(d, dm, d, dm))
    return 0.5 * np.linalg.eigvalsh(reduced)[-1]


def reference_security(p, input_kind, random_probes=0, seed=0):
    """Every part from the encodings of the probes of ``input_kind``; with
    quantum input, ``state`` included, which the report does not carry."""
    ref = per_key_encode(p, Ket.basis(SystemLayout.qubits(p.input_qubits), 0))
    states = [per_key_encode(p, probe)
              for probe in probes(p.input_qubits, input_kind, random_probes, seed)]
    parts = {"state": max(trace_distance(rho, ref) for rho in states)}
    if input_kind == INPUT_QUANTUM:
        units = reference_units(p)
        d = units.shape[0]
        parts["cross_term"] = max(max_abs(units[a, b])
                                  for a in range(d) for b in range(a + 1, d))
        # the trace distance it bounds is at most 1
        parts["factorization"] = min(1.0, reference_certificate(units))
    return parts


def reference_correctness(p, input_kind, random_probes=0, seed=0):
    return max(trace_distance(decode_per_key(p, probe, k).matrix, probe.density().matrix)
               for probe in probes(p.input_qubits, input_kind, random_probes, seed)
               for k in range(p.key_count))


def reference_basis_bound(p):
    """√(max over keys k and basis inputs a of Σ_{x≠a} <x|ρ_k(a)|x>), with
    ρ_k(a) key k's decoded output on |a>."""
    layout = SystemLayout.qubits(p.input_qubits)
    worst = 0.0
    for a, k in itertools.product(range(layout.dim), range(p.key_count)):
        diag = np.real(np.diag(decode_per_key(p, Ket.basis(layout, a), k).matrix))
        worst = max(worst, sum(diag[x] for x in range(layout.dim) if x != a))
    return math.sqrt(worst)


def assert_matches_reference(p, random_probes=0, seed=0):
    """The reported parts and correctness bound of ``p`` over its own inputs
    against the reference's on its probes."""
    kind = p.input_kind
    parts = security_deviations(p)
    expected = reference_security(p, kind, random_probes, seed)
    if kind == INPUT_QUANTUM:
        # no probe's wire state strays further than the certificate allows
        state = expected.pop("state")
        assert state <= parts["factorization"] + TOL, (state, parts["factorization"])
    assert parts.keys() == expected.keys()
    for name, value in expected.items():
        assert abs(parts[name] - value) <= TOL, (name, parts[name], value)
    bound = verify_correctness(p)
    probed = reference_correctness(p, kind, random_probes, seed)
    assert bound >= probed - TOL, (bound, probed)
    assert (bound <= 1e-9) == (probed <= 1e-9), (bound, probed)
    if kind == INPUT_CLASSICAL:
        assert abs(bound - reference_basis_bound(p)) <= TOL, (bound, reference_basis_bound(p))


@st.composite
def pauli_keyed(draw):
    """Keyed Pauli encoder on a random key subset with random probabilities;
    the receiver's Paulis are either the sender's or drawn independently."""
    n = draw(st.integers(1, 2))
    strings = ["".join(t) for t in itertools.product("0123", repeat=n)]
    keys = draw(st.lists(st.sampled_from(strings), min_size=1, max_size=len(strings),
                         unique=True))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(keys), max_size=len(keys)))
    undo = draw(st.one_of(st.just(keys), st.lists(st.sampled_from(strings),
                                                  min_size=len(keys), max_size=len(keys))))
    kinds = st.sampled_from((INPUT_QUANTUM, INPUT_CLASSICAL))
    wires = tuple(range(n))
    return ChannelProtocol(
        name="pauli-subset", input_kind=draw(kinds), input_qubits=n,
        message_kind=draw(kinds),
        resource=SharedResource(
            ProbabilityDist(tuple(keys), np.array(weights) / sum(weights))),
        alice_ancillas=0, bob_ancillas=0,
        alice_ops=tuple(pauli_string(k) for k in keys),
        bob_ops=tuple(pauli_string(k) for k in undo),
        message_subsystems=wires, output_subsystems=wires)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(BUILDERS), st.integers(0, 12), st.integers(0, 2 ** 16))
@example(("quantum-otp", 1), LONG, 0)
@example(("broken-otp", 1), LONG, 1)
@example(("broken-teleportation", 1), LONG, 2)
def test_builders_match_reference(builder, random_probes, seed):
    p = build_named(*builder)
    if p.input_kind == INPUT_CLASSICAL:
        random_probes = 0
    assert_matches_reference(p, random_probes, seed)


@settings(max_examples=30, deadline=None)
@given(pauli_keyed(), st.integers(0, 12), st.integers(0, 2 ** 16))
def test_pauli_keyed_encoders_match_reference(p, random_probes, seed):
    if p.input_kind == INPUT_CLASSICAL:
        random_probes = 0
    assert_matches_reference(p, random_probes, seed)


@st.composite
def haar_keyed(draw):
    """Keyed encoder whose per-key sender unitaries are Haar-random on the
    input and up to two ancillas, with a message of any nonempty subset of
    those wires; the receiver is padded with ancillas to hold the output."""
    n = draw(st.integers(1, 2))
    sender = n + draw(st.integers(0, 2 if n == 1 else 1))
    message = draw(st.lists(st.integers(0, sender - 1), min_size=1, max_size=sender,
                            unique=True))
    keys = draw(st.integers(1, 3))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=keys, max_size=keys))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    bob_ancillas = max(0, n - len(message))
    receiver = len(message) + bob_ancillas
    return ChannelProtocol(
        name="haar-keyed", input_kind=INPUT_QUANTUM, input_qubits=n,
        message_kind=draw(st.sampled_from((INPUT_QUANTUM, INPUT_CLASSICAL))),
        resource=SharedResource(ProbabilityDist(
            tuple(str(k) for k in range(keys)), np.array(weights) / sum(weights))),
        alice_ancillas=sender - n, bob_ancillas=bob_ancillas,
        alice_ops=tuple(haar_unitary(2 ** sender, rng) for _ in range(keys)),
        bob_ops=tuple(haar_unitary(2 ** receiver, rng) for _ in range(keys)),
        message_subsystems=tuple(message), output_subsystems=tuple(range(n)))


@settings(max_examples=30, deadline=None)
@given(haar_keyed(), st.integers(0, 2 ** 16))
def test_haar_keyed_encoders_match_reference(p, seed):
    assert_matches_reference(p, 3, seed)


def test_correctness_bound_covers_an_error_only_superpositions_show():
    # a phase e^{iθ} on one Hadamard-basis state of two qubits: the pair probe
    # (|00> + |11>)/√2 errs by sin(θ/2), more than the norm of any column of
    # W − I ⊗ j (about 0.43 θ), so only the operator norm bounds it
    h2 = np.kron(*[np.array([[1, 1], [1, -1]]) / math.sqrt(2)] * 2)
    phase = UnitaryOp(h2 @ np.diag([1, 1, 1, np.exp(0.1j)]) @ h2)
    p = ChannelProtocol(
        name="phase", input_kind=INPUT_QUANTUM, input_qubits=2, message_kind=INPUT_QUANTUM,
        resource=SharedResource(), alice_ancillas=0, bob_ancillas=0,
        alice_ops=(phase,), bob_ops=(UnitaryOp(np.eye(4)),), message_subsystems=(0, 1),
        output_subsystems=(0, 1))
    assert reference_correctness(p, INPUT_QUANTUM) == pytest.approx(math.sin(0.05), rel=1e-9)
    assert_matches_reference(p)


def assert_certificate_bounds_samples(p, seed, samples=50):
    units = reference_units(p)
    certificate = security_deviations(p)["factorization"]
    assert reference_factorization(units, samples, seed) <= certificate + TOL


@pytest.mark.parametrize("builder", [b for b in BUILDERS
                                     if build_named(*b).input_kind == INPUT_QUANTUM])
def test_builder_certificates_bound_sampled_factorization(builder):
    assert_certificate_bounds_samples(build_named(*builder), seed=3)


@settings(max_examples=30, deadline=None)
@given(haar_keyed(), st.integers(0, 2 ** 16))
def test_haar_keyed_certificates_bound_sampled_factorization(p, seed):
    assert_certificate_bounds_samples(p, seed)


def test_classical_message_ensembles_match_reference():
    # a classical message against many reference probes, and a classical-input
    # protocol over every input (its own kind is the basis)
    assert_matches_reference(build_named("teleportation", 1), LONG, 4)
    assert_matches_reference(
        dataclasses.replace(build_named("epr-otp", 1), input_kind=INPUT_QUANTUM), 5, 4)


def _quantum_identity(n):
    """The n-qubit quantum-input channel that sends its input in the clear."""
    return ChannelProtocol(
        name="identity", input_kind=INPUT_QUANTUM, input_qubits=n, message_kind=INPUT_QUANTUM,
        resource=SharedResource(), alice_ancillas=0, bob_ancillas=0,
        alice_ops=(GateList(n, ()),), bob_ops=(GateList(n, ()),),
        message_subsystems=tuple(range(n)), output_subsystems=tuple(range(n)))


def test_factorization_is_capped_at_one():
    # the certificate reads 1.17 on the 1-qubit identity, but the trace
    # distance it bounds is at most 1; a builder's is left as it was
    p = _quantum_identity(1)
    assert reference_certificate(channel_on_units(p)) > 1.1
    assert security_deviations(p)["factorization"] == 1.0
    for builder in BUILDERS:
        p = build_named(*builder)
        if p.input_kind == INPUT_QUANTUM:
            raw = reference_certificate(channel_on_units(p))
            assert raw < 1
            assert abs(security_deviations(p)["factorization"] - raw) <= TOL, builder


def _peak_bytes(p):
    """Traced peak of reading the security parts and the correctness bound
    off a pass already run, and the bytes of that pass's table."""
    table = channel_on_units(p)
    tracemalloc.start()
    try:
        security_deviations(p)
        verify_correctness(p)
        return tracemalloc.get_traced_memory()[1], table.nbytes
    finally:
        tracemalloc.stop()


def test_peak_memory_flat_in_probe_count():
    # no probe count is left: every part is read off the table, so reading
    # them costs a fixed multiple of the table's bytes, whatever the size
    for n in (2, 3, 4):
        peak, table = _peak_bytes(_quantum_identity(n))
        assert peak <= 8 * table + (1 << 16), (n, peak, table)


# ---------------------------------------------------------------------------
# the one verification pass behind security and correctness


def test_security_and_correctness_run_one_sender_stage_per_run(monkeypatch):
    # one sender stage per run of keys for every reader of the quantum-input
    # table: the security parts, the correctness bound and the resource
    # report; runs cut at three keys partition the 16 keys in order
    p = build_quantum_otp(2)
    monkeypatch.setattr(protocols, "STACK_BYTES",
                        run_cut(p, 3, lambda: protocols._verification_pass(p)))
    stages = []
    real = protocols._stage
    monkeypatch.setattr(protocols, "_stage",
                        lambda *args, **kwargs: stages.append(args[2]) or real(*args, **kwargs))
    security_deviations(p)
    verify_correctness(p)
    channel_on_units(p)
    resource_report(p)
    assert stages == [range(k, min(k + 3, 16)) for k in range(0, 16, 3)]


def _haar_protocol():
    """One key, a Haar-random sender on input and one ancilla, a Haar-random
    receiver: incorrect, and insecure, by amounts that differ between its
    basis pass and its pass over every input."""
    rng = np.random.default_rng(3)
    return ChannelProtocol(
        name="haar", input_kind=INPUT_QUANTUM, input_qubits=1, message_kind=INPUT_QUANTUM,
        resource=SharedResource(), alice_ancillas=1, bob_ancillas=0,
        alice_ops=(haar_unitary(4, rng),), bob_ops=(haar_unitary(2, rng),),
        message_subsystems=(0,), output_subsystems=(0,))


def _restricted(p, input_kind):
    """``p`` itself (None), or its restriction to the inputs of ``input_kind``."""
    return p if input_kind is None else dataclasses.replace(p, input_kind=input_kind)


def _values(p):
    return security_deviations(p), verify_correctness(p), protocols._verified(p)[0].tobytes()


def test_interleaved_protocols_and_seeds_never_read_a_stale_pass():
    # interleaved protocols and input kinds; each kind is a kept object, the
    # protocol itself or a restriction that shares its gates, so a memo keyed
    # by the object must still tell the basis pass from the full one; each
    # object's table is that of its own kind's pass
    builders = {"haar": _haar_protocol, "broken-otp": lambda: build_named("broken-otp", 1)}
    kinds = {"own": None, "quantum": INPUT_QUANTUM, "basis": INPUT_CLASSICAL}
    # each value from a fresh protocol object, which no earlier pass holds
    fresh = {(b, k): _values(_restricted(builders[b](), kinds[k]))
             for b in builders for k in kinds}
    assert fresh[("haar", "quantum")][1] != fresh[("haar", "basis")][1]
    assert fresh[("haar", "quantum")][:2] != fresh[("broken-otp", "quantum")][:2]
    assert fresh[("haar", "own")] == fresh[("haar", "quantum")]
    built = {b: build() for b, build in builders.items()}
    kept = {(b, k): _restricted(built[b], kinds[k]) for b in builders for k in kinds}
    order = [("haar", "quantum"), ("haar", "quantum"), ("broken-otp", "quantum"),
             ("haar", "basis"), ("haar", "own"), ("haar", "basis"),
             ("broken-otp", "basis"), ("broken-otp", "basis"), ("broken-otp", "own"),
             ("haar", "basis")]
    for b, k in order:
        p = kept[(b, k)]
        assert security_deviations(p) == fresh[(b, k)][0], (b, k)
        assert verify_correctness(p) == fresh[(b, k)][1], (b, k)
    for (b, k), p in kept.items():
        assert protocols._verified(p)[0].tobytes() == fresh[(b, k)][2], (b, k)


def test_pass_tables_are_read_only():
    table = channel_on_units(build_quantum_otp(1))
    with pytest.raises(ValueError):
        table[0, 0, 0, 0] = 1.0


def _held_then_peak(first, second):
    """Traced bytes held after verifying ``first``, and the traced peak of
    verifying ``second`` after it."""
    tracemalloc.start()
    try:
        verify_correctness(first)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        verify_correctness(second)
        return held, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_new_pass_frees_the_last_one_before_it_allocates():
    # the comm lift of quantum-otp 3 holds a 64 x 64 x 64 complex table
    # (4 MiB) after its pass; a pass that kept it while the next one ran
    # would add it to that pass's peak
    held_small, after_small = _held_then_peak(build_identity_protocol(1),
                                              lift_extra_comm(build_quantum_otp(3)))
    held_big, after_big = _held_then_peak(lift_extra_comm(build_quantum_otp(3)),
                                          lift_extra_comm(build_quantum_otp(3)))
    assert held_big - held_small > 2 ** 21
    assert after_big - after_small < (held_big - held_small) / 2


def test_audit_reads_the_input_check_from_the_cli_pass(monkeypatch):
    passes = []
    real = protocols._verification_pass
    monkeypatch.setattr(protocols, "_verification_pass",
                        lambda p: passes.append(p.name) or real(p))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["audit", "quantum-otp", "--n", "1"]) == 0
    assert passes.count("quantum-otp") == 1
    assert passes == ["quantum-otp", "quantum-otp-lift-extra-comm"]


# ---------------------------------------------------------------------------
# the key-stacked channel table


def _factor_bytes(run):
    """Bytes of the kept-wire factor each key adds to the key average in
    ``run``: the run factors the pass, or ``encode``, actually adds, by
    ``_add_keys`` or (a classical message's basis table) ``_add_diagonals``,
    over their keys."""
    sizes = []
    with contextlib.ExitStack() as stack:
        for name in ("_add_keys", "_add_diagonals"):
            stack.enter_context(mock.patch.object(
                protocols, name, lambda total, probs, m, add=getattr(protocols, name): (
                    sizes.append(m.nbytes // len(probs)) or add(total, probs, m))))
        run()
    assert len(set(sizes)) == 1, sizes
    return sizes[0]


def assert_runs_cut(runs, keys, per_run):
    """The runs partition the keys in order, none longer than ``per_run``."""
    assert [k for run in runs for k in run] == list(range(keys)), runs
    assert max(map(len, runs)) <= per_run, (runs, per_run)


def assert_pass_equals_the_per_key_sum(p, basis):
    """Runs cut at one key (each key's own product), two and three keys
    (which divide no key count from 4 keys on, or not both), and every key:
    table and correctness within TOL of ``per_key_pass``, which folds no
    wire and runs one key at a time."""
    keys = p.key_count
    reference, ref_correctness = per_key_pass(p, basis)
    for per_run in sorted({1, 2, 3, keys}):
        cut = run_cut(p, per_run, lambda: verification_pass(p, basis))
        with mock.patch.object(protocols, "STACK_BYTES", cut):
            (table, correctness), runs, _ = stage_runs(
                lambda: verification_pass(p, basis))
        assert_runs_cut(runs, keys, per_run)
        assert max_abs(table - reference) <= TOL, (per_run, basis)
        assert abs(correctness - ref_correctness) <= TOL, (per_run, basis)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.one_of(pauli_keyed(), haar_keyed()), st.integers(0, 2 ** 16))
def test_stacked_table_equals_the_per_key_sum(p, seed):
    for basis in (True, False):
        assert_pass_equals_the_per_key_sum(p, basis)
    ket = probes(p.input_qubits, INPUT_QUANTUM, 1, seed)[-1]
    for per_run in sorted({1, 2, 3, p.key_count}):
        with mock.patch.object(protocols, "STACK_BYTES",
                               run_cut(p, per_run, lambda: encode(p, ket))):
            rho, runs, _ = stage_runs(lambda: encode(p, ket).matrix)
        assert_runs_cut(runs, p.key_count, per_run)
        assert max_abs(rho - per_key_encode(p, ket).matrix) <= TOL, per_run


def assert_bound_equals_the_per_key_form(p):
    """Over every input, runs of one key, of keys − 1 keys and of every key,
    each run's receiver stack bounded at once: the pass's correctness bound
    is bit for bit the worst per-key bound of ``per_key_pass``, and the
    stacks are the runs asked for, four receiver blocks per key fitting in
    STACK_BYTES."""
    keys, block_bytes = p.key_count, 16 * 2 ** (p.engine_qubits + p.input_qubits)
    reference = per_key_pass(p, False)[1]
    bound = protocols._correctness_bound
    for per_run in sorted({1, max(1, keys - 1), keys}):
        sizes = []
        with mock.patch.object(protocols, "STACK_BYTES", 4 * per_run * block_bytes), \
                mock.patch.object(protocols, "_correctness_bound", lambda block, *args: (
                    sizes.append(len(block)) or bound(block, *args))):
            correctness = verification_pass(p, False)[1]
        assert sizes == [per_run] * (keys // per_run) + [keys % per_run] * (
            keys % per_run > 0), (per_run, sizes)
        assert correctness == reference, (per_run, correctness, reference)


@pytest.mark.parametrize("builder", [("quantum-otp", n) for n in (1, 2, 3, 4)]
                         + [("teleportation", 1), ("broken-otp", 1)])
def test_stacked_correctness_bound_equals_the_per_key_form_on_builders(builder):
    assert_bound_equals_the_per_key_form(build_named(*builder))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.one_of(pauli_keyed(), haar_keyed()))
def test_stacked_correctness_bound_equals_the_per_key_form(p):
    assert_bound_equals_the_per_key_form(p)


# ---------------------------------------------------------------------------
# runs of keys: the keys whose gates sit on the same wires, as one stack


@st.composite
def wiring(draw, wires, rng, prefix=False):
    """Up to three gate lists on ``wires`` register wires, distinct in their
    wiring; each list may be empty and holds up to three gates on one or two
    wires in any order (two wires descending take the transposed path).
    Each gate position is one gate object, which every key wired by the
    list shares, or None, each key's own Haar gate (never in ``prefix``)."""
    gate = st.integers(1, min(2, wires)).flatmap(
        lambda w: st.permutations(range(wires)).map(lambda order: tuple(order[:w])))
    lists = draw(st.lists(st.lists(gate, max_size=1 if prefix else 3),
                          min_size=1, max_size=1 if prefix else 3, unique_by=tuple))
    return [[(haar_unitary(2 ** len(t), rng) if prefix or draw(st.booleans()) else None, t)
             for t in targets] for targets in lists]


@st.composite
def wired_keys(draw):
    """A keyed protocol whose keys each draw one sender and one receiver
    wiring (:func:`wiring`), after a shared prefix of at most one gate, so
    its runs break wherever a key's wiring pair differs from the last key's;
    with a quantum or classical message, receiver ancillas, and a classical
    key alone or with one EPR pair (the hybrid resource).  Returns the
    protocol and each key's pair of wiring indices."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n, alice_ancillas = draw(st.integers(1, 2)), draw(st.integers(0, 1))
    hybrid = draw(st.booleans())
    sender = n + alice_ancillas + hybrid
    message = draw(st.lists(st.integers(0, sender - 1), min_size=1, max_size=2, unique=True))
    bob_ancillas = draw(st.integers(max(0, n - len(message) - hybrid), 1))
    receiver = len(message) + bob_ancillas + hybrid
    prefix = draw(wiring(sender, rng, prefix=True))[0]
    alice, bob = draw(wiring(sender, rng)), draw(wiring(receiver, rng))
    keys = draw(st.lists(st.tuples(st.integers(0, len(alice) - 1), st.integers(0, len(bob) - 1)),
                         min_size=1, max_size=6))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=len(keys),
                                     max_size=len(keys))))
    dist = ProbabilityDist(tuple(map(str, range(len(keys)))), weights / weights.sum())

    def ops(gates, qubits, head=()):
        own = [(haar_unitary(2 ** len(t), rng) if g is None else g, t) for g, t in gates]
        return GateList(qubits, list(head) + own)
    return ChannelProtocol(
        name="wired-keys", input_kind=INPUT_QUANTUM, input_qubits=n,
        message_kind=draw(st.sampled_from((INPUT_QUANTUM, INPUT_CLASSICAL))),
        resource=SharedResource(dist, epr_block(1), 1) if hybrid else SharedResource(dist),
        alice_ancillas=alice_ancillas, bob_ancillas=bob_ancillas,
        alice_ops=tuple(ops(alice[a], sender, prefix) for a, _ in keys),
        bob_ops=tuple(ops(bob[b], receiver) for _, b in keys),
        message_subsystems=tuple(message), output_subsystems=tuple(range(n))), keys


@settings(max_examples=60, deadline=None, derandomize=True)
@given(wired_keys())
def test_run_stacked_pass_equals_the_per_key_pass(drawn):
    # uncut, the runs are the longest stretches of keys with one wiring pair;
    # cut at one, two and three keys, both passes still equal the per-key pass
    p, keys = drawn
    for basis in (True, False):
        runs = stage_runs(lambda: verification_pass(p, basis))[1]
        assert [[keys[k] for k in run] for run in runs] == [
            list(group) for _, group in itertools.groupby(keys)]
        assert_pass_equals_the_per_key_sum(p, basis)


# ---------------------------------------------------------------------------
# the basis pass with its control-only wires folded into the columns


@st.composite
def lifted(draw):
    """A lift of a random quantum-input protocol: 2n classical input wires
    that only the shared Pauli injection reads."""
    p = dataclasses.replace(draw(st.one_of(pauli_keyed(), haar_keyed())),
                            input_kind=INPUT_QUANTUM)
    return draw(st.sampled_from((lift_extra_comm, lift_extra_epr)))(p)


def _control_prefixed(n, targets, gates, keys, probs, message_kind, bob_ancillas, touch_last):
    """A classical-input protocol on n input wires and one ancilla per gate:
    the shared prefix applies each gate to its ancilla, controlled by input
    wire ``targets[i]``; then each key applies its Pauli string to the
    input wires, and with ``touch_last`` an X to the last ancilla too.  The
    input wires are the message; the receiver undoes the Pauli and copies
    each message wire into one of its ancillas, if it has one."""
    ancillas = len(gates)
    prefix = [(UnitaryOp(controlled_by_value([np.eye(2), g])), (t, n + i))
              for i, (t, g) in enumerate(zip(targets, gates))]
    tail = [(pauli_string("1"), (n + ancillas - 1,))] if touch_last else []
    copies = [(CNOT, (i, n + i)) for i in range(min(n, bob_ancillas))]
    return ChannelProtocol(
        name="control-prefixed", input_kind=INPUT_CLASSICAL, input_qubits=n,
        message_kind=message_kind,
        resource=SharedResource(ProbabilityDist(tuple(keys), probs)),
        alice_ancillas=ancillas, bob_ancillas=bob_ancillas,
        alice_ops=tuple(GateList(n + ancillas, prefix + [(pauli_string(k), range(n))] + tail)
                        for k in keys),
        bob_ops=tuple(GateList(n + bob_ancillas, [(pauli_string(k), range(n))] + copies)
                      for k in keys),
        message_subsystems=tuple(range(n)), output_subsystems=tuple(range(n)))


@st.composite
def control_prefixed(draw):
    """:func:`_control_prefixed` with controlled-H or Haar-random gates:
    an ancilla holds one value on the inputs whose control bit is 0 and two
    on the others."""
    n = draw(st.integers(1, 2))
    ancillas = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    gates = [HADAMARD.matrix if draw(st.booleans()) else haar_unitary(2, rng).matrix
             for _ in range(ancillas)]
    strings = ["".join(t) for t in itertools.product("0123", repeat=n)]
    keys = draw(st.lists(st.sampled_from(strings), min_size=1, max_size=4, unique=True))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=len(keys),
                                     max_size=len(keys))))
    return _control_prefixed(
        n, draw(st.lists(st.integers(0, n - 1), min_size=ancillas, max_size=ancillas)),
        gates, keys, weights / weights.sum(),
        draw(st.sampled_from((INPUT_QUANTUM, INPUT_CLASSICAL))), draw(st.integers(0, 1)),
        draw(st.booleans()) and ancillas > 1)


def _folded_columns(p):
    """How many input wires the basis pass of ``p`` folds into its columns
    before its shared prefix, as ``protocols._foldable`` names them, once
    per pass."""
    calls = []
    foldable = protocols._foldable
    with mock.patch.object(protocols, "_foldable",
                           lambda *args: calls.append(foldable(*args)) or calls[-1]):
        protocols._verification_pass(p)
    early, = calls
    return len(early)


@pytest.mark.parametrize("family", [lifted, control_prefixed])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_folded_basis_pass_equals_the_per_key_sum(family, data):
    # the control-only wires leave the rows of every key's block; the
    # reference keeps every wire in the rows.  A lift's input wires are only
    # controls of its prefix, so they fold before it; control_prefixed's
    # controls are message wires, which never fold
    p = data.draw(family())
    assert _folded_columns(p) == (0 if p.name == "control-prefixed" else p.input_qubits)
    assert_pass_equals_the_per_key_sum(p, basis=True)


def test_a_controlled_h_onto_an_ancilla_pass_equals_the_per_key_sum():
    # input 1 leaves the ancilla in |+>, input 0 in |0>; the control is the
    # message wire, so nothing folds
    p = _control_prefixed(1, [0], [HADAMARD.matrix], ["0", "3"], np.array([0.25, 0.75]),
                          INPUT_CLASSICAL, 1, False)
    assert _folded_columns(p) == 0
    assert_pass_equals_the_per_key_sum(p, basis=True)


def _lifts(builder, n):
    return [lambda lift=lift: lift(build_named(builder, n))
            for lift in (lift_extra_comm, lift_extra_epr)]


# each protocol of the benchmark that folds input wires before its prefix,
# with how many, and some that fold none: their inputs are message wires
EARLY_FOLDS = [(lambda n=n: build_named("superdense", n), n) for n in (2, 4, 6)] + [
    (lift, 2 * n) for n in (1, 3) for lift in _lifts("quantum-otp", n)] + [
    (lift, 4) for builder in ("teleportation", "broken-teleportation")
    for lift in _lifts(builder, 2)] + [
    (lambda: build_named("classical-otp", 4), 0), (lambda: build_named("epr-otp", 3), 0),
    (lambda: build_named("identity-leaky", 6), 0)]


@pytest.mark.parametrize("build, early", EARLY_FOLDS, ids=[
    "superdense-2", "superdense-4", "superdense-6", "lift-comm-quantum-otp-1",
    "lift-epr-quantum-otp-1", "lift-comm-quantum-otp-3", "lift-epr-quantum-otp-3",
    "lift-comm-teleportation-2", "lift-epr-teleportation-2",
    "lift-comm-broken-teleportation-2", "lift-epr-broken-teleportation-2",
    "classical-otp-4", "epr-otp-3", "identity-leaky-6"])
def test_builders_fold_their_control_only_inputs_before_the_prefix(build, early):
    p = build()
    assert _folded_columns(p) == early
    assert_pass_equals_the_per_key_sum(p, basis=True)


#: what the shared prefix does with an input wire: only "controlled" leaves
#: it a control that every prefix gate is exactly block-diagonal in
PREFIX_KINDS = ("controlled", "local", "cnot-target", "tiny", "tail-control")


def _input_gated(kinds, gates, keys, probs, message_kind):
    """A classical-input protocol on one input wire per entry of ``kinds``
    and as many ancillas, the message.  For input wire i the shared prefix
    applies ``gates[i]`` to ancilla i controlled by wire i, and before it,
    by ``kinds[i]``: with "local", ``gates[i]`` to wire i itself; with
    "cnot-target", H to ancilla i and a CNOT from it onto wire i instead of
    the controlled gate; with "tiny", nothing, but the controlled gate has
    one 1e-17 entry that couples wire i's two values.  With "tail-control",
    each key then applies its own CNOT from wire i onto ancilla i, after the
    prefix.  Each key ends with its Pauli string on the ancillas, which the
    receiver undoes."""
    n = len(kinds)
    prefix, tail = [], []
    for i, (kind, g) in enumerate(zip(kinds, gates)):
        controlled = controlled_by_value([np.eye(2), g])
        if kind == "tiny":
            controlled[0, 2] = 1e-17
        if kind == "local":
            prefix.append((UnitaryOp(g), (i,)))
        if kind == "cnot-target":
            prefix += [(HADAMARD, (n + i,)), (CNOT, (n + i, i))]
        else:
            prefix.append((UnitaryOp(controlled), (i, n + i)))
        if kind == "tail-control":
            tail.append(i)
    ancillas = tuple(range(n, 2 * n))

    def own_tail():  # new gate objects for each key, so no two keys share them
        return [(UnitaryOp(CNOT.matrix), (i, n + i)) for i in tail]
    return ChannelProtocol(
        name="input-gated", input_kind=INPUT_CLASSICAL, input_qubits=n,
        message_kind=message_kind,
        resource=SharedResource(ProbabilityDist(tuple(keys), probs)),
        alice_ancillas=n, bob_ancillas=0,
        alice_ops=tuple(GateList(2 * n, prefix + own_tail() + [(pauli_string(k), ancillas)])
                        for k in keys),
        bob_ops=tuple(GateList(n, [(pauli_string(k), range(n))]) for k in keys),
        message_subsystems=ancillas, output_subsystems=tuple(range(n)))


@st.composite
def input_gated(draw):
    """The kinds drawn and :func:`_input_gated` on one or two input wires,
    each with a prefix kind, and H or Haar-random gates; "tail-control"
    needs two keys, or the tail would be part of the prefix."""
    kinds = draw(st.lists(st.sampled_from(PREFIX_KINDS), min_size=1, max_size=2))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    gates = [HADAMARD.matrix if draw(st.booleans()) else haar_unitary(2, rng).matrix
             for _ in kinds]
    strings = ["".join(t) for t in itertools.product("0123", repeat=len(kinds))]
    keys = draw(st.lists(st.sampled_from(strings), max_size=4, unique=True,
                         min_size=2 if "tail-control" in kinds else 1))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=len(keys),
                                     max_size=len(keys))))
    return kinds, _input_gated(kinds, gates, keys, weights / weights.sum(),
                               draw(st.sampled_from((INPUT_QUANTUM, INPUT_CLASSICAL))))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(input_gated())
def test_only_exactly_block_diagonal_controls_fold_before_the_prefix(drawn):
    # a wire folds before the prefix only if it is a control there and in no
    # later gate; the others stay in the rows
    kinds, p = drawn
    assert _folded_columns(p) == kinds.count("controlled"), kinds
    assert_pass_equals_the_per_key_sum(p, basis=True)


def test_the_shared_head_is_read_only(monkeypatch):
    # every run's stage starts from the one head block, so a stage that
    # wrote into it would change the runs after it; runs of one key here
    p = lift_extra_comm(build_quantum_otp(1))
    cuts = {basis: run_cut(p, 1, lambda: verification_pass(p, basis))
            for basis in (True, False)}
    heads = []
    real = protocols._stage
    monkeypatch.setattr(protocols, "_stage",
                        lambda p, head, *args: heads.append(head) or real(p, head, *args))
    for basis in (True, False):
        monkeypatch.setattr(protocols, "STACK_BYTES", cuts[basis])
        verification_pass(p, basis)
    assert len(heads) == 2 * p.key_count
    assert heads[0] is heads[p.key_count - 1] and heads[p.key_count] is heads[-1]
    assert not any(head.flags.writeable for head in heads)
    with pytest.raises(ValueError):
        heads[0][0, 0] = 1.0
    block = np.ones((4, 2), dtype=complex)
    assert protocols._zero_tail(block, 0) is block


def _traced_peak(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("build", [
    lambda: lift_extra_comm(build_named("teleportation", 2)),
    lambda: build_named("superdense", 6),
], ids=["lift-comm-teleportation-2", "superdense-6"])
def test_control_only_inputs_fold_before_the_prefix_allocates(build):
    # their prefix runs on the head without its input wires: 4096 x 16 for
    # the lift and 64 x 64 for superdense 6, not 65,536 x 16 and 4096 x 64
    p = build()
    assert _traced_peak(lambda: protocols._verification_pass(p)) <= 8 * 2 ** 20


@pytest.mark.parametrize("build, basis, stacked", [
    (lambda: lift_extra_comm(build_quantum_otp(3)), True, True),
    (lambda: lift_extra_comm(build_named("teleportation", 2)), True, False),
    (lambda: lift_extra_epr(build_named("teleportation", 2)), True, False),
    (lambda: lift_extra_comm(build_quantum_otp(2)), True, True),
    (lambda: build_quantum_otp(4), False, True),
], ids=["lift-comm-quantum-otp-3", "lift-comm-teleportation-2",
        "lift-epr-teleportation-2", "lift-comm-quantum-otp-2", "quantum-otp-4"])
def test_stacked_pass_peak_is_the_per_key_sums_plus_two_stacks(build, basis, stacked):
    # a key whose factor takes over half of STACK_BYTES, or the only key (the
    # teleportation-2 lifts), runs alone; smaller factors of several keys
    # stack (the quantum-otp 3 lift's, 64 x 64 x 1 once its input wires are
    # folded), and a run's factor and its weighted conjugate (for the
    # teleportation-2 EPR lift's classical message, its squared moduli) are
    # the only extra arrays
    p = build()
    reference = _traced_peak(lambda: per_key_pass(p, basis))
    peak = _traced_peak(lambda: verification_pass(p, basis))
    assert peak <= reference + 2 * protocols.STACK_BYTES, (peak, reference)
    factor = _factor_bytes(lambda: verification_pass(p, basis))
    assert (2 * factor <= protocols.STACK_BYTES and p.key_count > 1) == stacked, factor


@pytest.mark.parametrize("build, basis, mib", [
    (lambda: build_quantum_otp(4), False, 5.25),
    (lambda: lift_extra_comm(build_quantum_otp(3)), True, 7.25),
    (lambda: lift_extra_epr(build_quantum_otp(3)), True, 3.5),
    (lambda: build_identity_protocol(6), True, 6.25),
], ids=["quantum-otp-4", "lift-comm-quantum-otp-3", "lift-epr-quantum-otp-3",
        "identity-leaky-6"])
def test_pass_peaks_of_the_benchmark_peak_rows(build, basis, mib):
    # the passes of the rows with the largest traced peaks: quantum-otp 4's
    # (verify), the two lifts of quantum-otp 3 (audit) and identity-leaky 6's
    # (verify and audit), at traced peaks of 5.02, 7.14, 3.26 and 6.16 MiB
    # (the bounds are those rounded up).  A run's gates share the two
    # buffers of one apply_gates call.  Runs are
    # cut so that the stage's arrays fit in STACK_BYTES, each run's product
    # is added in slices no larger than its factor, and a classical
    # message's basis table holds only its diagonals, added in slices whose
    # squared moduli take at most 1 MiB, so that identity-leaky 6's peak is
    # its correctness bound's
    p = build()
    assert _traced_peak(lambda: verification_pass(p, basis)) <= mib * 2 ** 20


def test_add_keys_holds_the_weighted_factor_and_one_product_slice():
    # a comm-lift run factor of quantum-otp 3 is (64, 64, 16), a quarter of
    # its (64, 64, 64) table: above its entry, _add_keys holds the weighted
    # copy and one slice's product, each a factor's size, and the weight
    # vector (16 KiB of slack), where the whole product took the table's size
    calls = []
    with mock.patch.object(protocols, "_add_keys",
                           lambda total, probs, m: calls.append((total, probs, m))):
        verification_pass(lift_extra_comm(build_quantum_otp(3)), True)
    total, probs, m = calls[0]
    total = np.zeros_like(total)  # the pass leaves its table read-only
    assert total.nbytes == 4 * m.nbytes
    peak = _traced_peak(lambda: protocols._add_keys(total, probs, m))
    assert peak <= 2 * m.nbytes + 2 ** 14, (peak, m.nbytes)


def _one_product(total, probs, m):
    """``total`` plus the run's whole Gram product m (conj(m)·p)ᵀ in one
    matmul: the sum :func:`protocols._add_keys` adds in slices."""
    weighted = m.conj()
    weighted *= np.repeat(probs, m.shape[-1] // len(probs))
    return total + m @ weighted.swapaxes(-1, -2)


def _three_key_haar_pad():
    """A one-qubit pad of three Haar-random keys: its every-input run factor
    is (4, 3), narrower than its 4 x 4 table, so the table's rows are sliced."""
    rng = np.random.default_rng(35)
    return ChannelProtocol(
        name="haar-keyed", input_kind=INPUT_QUANTUM, input_qubits=1,
        message_kind=INPUT_QUANTUM,
        resource=SharedResource(ProbabilityDist(("0", "1", "2"), np.array([0.5, 0.3, 0.2]))),
        alice_ancillas=0, bob_ancillas=0,
        alice_ops=tuple(haar_unitary(2, rng) for _ in range(3)),
        bob_ops=tuple(haar_unitary(2, rng) for _ in range(3)),
        message_subsystems=(0,), output_subsystems=(0,))


@pytest.mark.parametrize("build, basis, shapes", [
    (lambda: lift_extra_comm(build_quantum_otp(3)), True, [((64, 64, 64), (64, 64, 16))] * 4),
    (lambda: build_quantum_otp(4), False, [((256, 256), (256, 256))]),
    (_three_key_haar_pad, False, [((4, 4), (4, 3))]),
], ids=["lift-comm-quantum-otp-3", "quantum-otp-4", "three-key-haar-pad"])
def test_sliced_gram_product_equals_the_one_product(build, basis, shapes):
    # each slice's entries come from the same gemm on the same operands as
    # the one product's, so the table is the one product's bit for bit: the
    # comm lift's four run factors, each a quarter of the table, add four
    # slices each, the quantum-otp 4 factor one, and the Haar pad's 4 rows
    # two slices of 2; a one-row slice (after one of 3) would be a gemv,
    # which rounds otherwise
    seen = []

    def checked(total, probs, m, add=protocols._add_keys):
        seen.append((total.shape, m.shape))
        expected = _one_product(total, probs, m)
        add(total, probs, m)
        assert np.array_equal(total, expected)

    with mock.patch.object(protocols, "_add_keys", checked):
        verification_pass(build(), basis)
    assert seen == shapes


@pytest.mark.parametrize("table, factor, keys", [
    ((5, 5, 5), (5, 5, 2), 2),  # 5 basis inputs in slices of 2, 2 and 1
    ((10, 10), (10, 4), 4),  # 10 rows in slices of 4, 4 and 2
    ((16, 16), (16, 3), 3),  # 16 rows in slices of 2, no one-row slice after slices of 3
], ids=["basis-remainder", "rows-remainder", "rows-odd-factor"])
def test_sliced_gram_product_on_drawn_factors_equals_the_one_product(table, factor, keys):
    rng = np.random.default_rng(35)
    total, m = (rng.normal(size=s) + 1j * rng.normal(size=s) for s in (table, factor))
    probs = rng.dirichlet(np.ones(keys))
    assert 1 < m.nbytes // total[0].nbytes < len(total)
    expected = _one_product(total, probs, m)
    protocols._add_keys(total, probs, m)
    assert np.array_equal(total, expected)


#: the builders and audit lifts with classical input and a classical message,
#: at every n the admission check accepts (``bench/workloads.py``): the basis
#: passes whose table holds only its diagonals
DIAGONAL_PASSES = [build_named(b, n) for b, top in (
    ("classical-otp", 4), ("epr-otp", 3), ("identity-leaky", 6)) for n in range(1, top + 1)] + [
    lift_extra_epr(build_named(b, n))
    for b in ("teleportation", "broken-teleportation") for n in (1, 2)]


def _with_diagonal_passes(test):
    """``test`` with one explicit example per protocol of DIAGONAL_PASSES."""
    for p in DIAGONAL_PASSES:
        test = example(p, None)(test)
    return test


@settings(max_examples=20, deadline=None, derandomize=True)
@given(st.one_of(pauli_keyed(), haar_keyed()),
       st.sampled_from((None, INPUT_CLASSICAL, INPUT_QUANTUM)))
@_with_diagonal_passes
def test_classical_offdiag_is_exactly_zero(p, input_kind):
    # every classical message wire is copied into an environment wire, so
    # each off-diagonal message entry of a key's wire state sums products
    # with an exact 0.0 amplitude, and a Gram product keeps them exact: the
    # reason no security part checks a classical message's coherences, and
    # the basis table holds only the diagonals.  Over the basis, they are
    # checked on the per-key sum, which still forms every dm x dm state;
    # over every input, on the pass's own table.  The state part read off
    # the diagonals is the eigensolve's on those states as diagonal
    # matrices: bit for bit on the builders, within 1e-15 on the drawn
    # protocols
    tol = 1e-15 if p.name in ("pauli-subset", "haar-keyed") else 0.0
    p = dataclasses.replace(p, message_kind=INPUT_CLASSICAL,
                            input_kind=input_kind or p.input_kind)
    table = protocols._verified(p)[0]
    dm = 2 ** p.message_qubits
    offdiag = ~np.eye(dm, dtype=bool)
    deviations = security_deviations(p)
    assert "classical_offdiag" not in deviations
    if p.input_kind == INPUT_CLASSICAL:
        full = per_key_pass(p, True, full=True)[0]
        assert full.shape[-2:] == (dm, dm)
        assert not full[..., offdiag].any()
        assert table.shape == (2 ** p.input_qubits, dm)
        states = np.zeros(table.shape + (dm,), complex)
        states[..., range(dm), range(dm)] = table
        eigensolved = float(trace_distance(states, states[0]).max())
        assert abs(deviations["state"] - eigensolved) <= tol, (deviations, eigensolved)
    else:
        assert table.shape[-2:] == (dm, dm)
        assert not table[..., offdiag].any()


@pytest.mark.parametrize("build", [
    lambda: build_named("identity-leaky", 6),
    lambda: lift_extra_epr(build_teleportation(2)),
], ids=["identity-leaky-6", "lift-epr-teleportation-2"])
def test_a_classical_message_state_takes_no_eigensolve(build, monkeypatch):
    # the basis table of a classical message is exactly diagonal, so its
    # trace distances are read off the diagonals: no eigvalsh call
    p = build()
    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: calls.append(1) or real(*a, **k))
    security_deviations(p)
    assert calls == []


def test_channel_on_units_refuses_a_classical_input_protocol(monkeypatch):
    # the table of every input is a quantum-input protocol's own pass; a
    # classical-input protocol is refused before any pass runs, and its
    # quantum twin reads its own pass through the memo
    p = build_classical_otp(2)
    passes = []
    real = protocols._verification_pass
    monkeypatch.setattr(protocols, "_verification_pass",
                        lambda p: passes.append(p.input_kind) or real(p))
    with pytest.raises(ValueError, match=r'replace\(p, input_kind="quantum"\)'):
        channel_on_units(p)
    assert passes == []
    twin = dataclasses.replace(p, input_kind=INPUT_QUANTUM)
    assert channel_on_units(twin) is channel_on_units(twin)
    assert channel_on_units(twin).tobytes() == verification_pass(p, False)[0].tobytes()
    assert passes == [INPUT_QUANTUM, INPUT_QUANTUM]


# ---------------------------------------------------------------------------
# a quantum message's state read eigensolves only the pairs that can be the largest


@st.composite
def state_stacks(draw):
    # Hermitian stacks (count, d, d), d from 2 to 64, against their first
    # matrix: all equal, or exactly equal to it, apart from it by noise of
    # about 1e-17, random states, one dominant difference, ties, and flat
    # spectra (‖X‖₁ = √d‖X‖_F, here f) among rank-one differences (‖X‖₁ =
    # ‖X‖_F, here between f/√d and f), which the Frobenius norm alone ranks
    # above the flat ones, as many as 12 of them
    d = draw(st.integers(2, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    ref, f = random_density_matrix(d, rng), rng.uniform(0.5, 1.0)
    mode = draw(st.sampled_from(["equal", "mixed", "ranked"]))
    if mode == "equal":
        kinds = ["equal"] * draw(st.integers(1, 4))
    elif mode == "ranked":
        kinds = draw(st.permutations(["flat"] + ["spike"] * draw(st.integers(1, 12))))
    else:
        kinds = draw(st.lists(st.sampled_from(
            ["equal", "noise", "random", "dominant", "tie", "flat", "spike"]), min_size=1, max_size=12))
    stack = [ref]
    for kind in kinds:
        h = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        if kind == "equal":
            stack.append(ref.copy())
        elif kind == "noise":
            stack.append(ref + 1e-17 * (h + h.conj().T))
        elif kind == "random":
            stack.append(random_density_matrix(d, rng))
        elif kind == "dominant":
            stack.append(ref + 100 * (h + h.conj().T))
        elif kind == "flat":
            stack.append(ref + np.diag(rng.choice([-1.0, 1.0], d)) * f / d)
        elif kind == "spike":
            v = h[0] / np.linalg.norm(h[0])
            c = f * (1 + rng.uniform(0.1, 0.9) * (math.sqrt(d) - 1)) / math.sqrt(d)
            stack.append(ref + c * np.outer(v, v.conj()))
        else:
            stack.append(stack[rng.integers(len(stack))].copy())
    return np.array(stack)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(state_stacks())
def test_pruned_state_read_equals_every_pair_eigensolved(stack):
    expected = float(trace_distance(stack, stack[0]).max())
    assert protocols._largest_distance(stack).hex() == expected.hex()


def test_the_quantum_otp_3_comm_lift_state_read_eigensolves_at_most_8_matrices(monkeypatch):
    # 60 of its 64 basis states differ from the first by rounding noise only
    p = lift_extra_comm(build_quantum_otp(3))
    table = protocols._verified(p)[0]
    expected = float(trace_distance(table, table[0]).max())
    solved, real = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a, *r, **k: solved.append(math.prod(a.shape[:-2])) or real(a, *r, **k))
    assert security_deviations(p)["state"] == expected
    assert 0 < sum(solved) <= 8, solved


def test_the_state_read_peaks_under_2_25_mib_above_its_table():
    # the quantum-otp 3 comm lift's (64, 64, 64) table: 3.88 MiB traced when
    # every differing pair was copied at once, now bound slices of 1 MiB and
    # groups of 8 eigensolved pairs
    p = lift_extra_comm(build_quantum_otp(3))
    protocols._verified(p)
    assert _traced_peak(lambda: security_deviations(p)) <= 2.25 * 2 ** 20


# ---------------------------------------------------------------------------
# an exactly zero operand takes no LAPACK solve


def _raise(*args, **kwargs):
    raise AssertionError("a LAPACK solve ran")


def _without_svd(monkeypatch):
    """np.linalg.svd patched to raise, also where np.linalg.norm looks it up."""
    monkeypatch.setattr(np.linalg, "svd", _raise)
    monkeypatch.setitem(inspect.unwrap(np.linalg.norm).__globals__, "svd", _raise)


EXACT = [("quantum-otp", n) for n in (1, 2, 3, 4)] + [("teleportation", n) for n in (1, 2)]


@pytest.mark.parametrize("builder", EXACT)
def test_an_exactly_zero_choi_difference_takes_no_eigensolve(builder, monkeypatch):
    # a fresh protocol, so the pass runs under the patch too
    monkeypatch.setattr(np.linalg, "eigh", _raise)
    assert security_deviations(build_named(*builder))["factorization"] == 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_exact_pad_keys_take_no_svd(n, monkeypatch):
    _without_svd(monkeypatch)
    assert verify_correctness(build_quantum_otp(n)) == 0.0


def test_nonzero_operands_still_take_their_solve(monkeypatch):
    # the patches bite: broken-otp's C and teleportation's residuals of
    # rounding noise are not exactly zero
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigh", _raise)
        with pytest.raises(AssertionError, match="LAPACK"):
            security_deviations(build_named("broken-otp", 1))
    _without_svd(monkeypatch)
    with pytest.raises(AssertionError, match="LAPACK"):
        verify_correctness(build_teleportation(1))


def test_a_choi_difference_of_rounding_noise_is_still_eigensolved(monkeypatch):
    # the 1-qubit pad conjugated by one fixed Haar unitary is the same
    # channel, but its C holds rounding noise, not exact zeros
    u = haar_unitary(2, np.random.default_rng(11)).matrix
    pad = build_quantum_otp(1)
    ops = tuple(UnitaryOp(u @ pauli_string(k).matrix @ u.conj().T) for k in "0123")
    p = dataclasses.replace(pad, alice_ops=ops, bob_ops=ops)
    units = channel_on_units(p)
    choi = units.transpose(0, 2, 1, 3).reshape(4, 4) - np.kron(np.eye(2), units[0, 0])
    assert choi.any() and max_abs(choi) < 1e-15
    calls, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
    value = security_deviations(p)["factorization"]
    assert calls == [1]
    assert abs(value - reference_certificate(units)) <= TOL, value


@pytest.mark.parametrize("builder, factorization, correctness", [
    (("broken-otp", 1), 0.5, 0.0),
    (("broken-teleportation", 1), 0.0, 1.0),
    (("broken-teleportation", 2), 0.0, 1.0),
])
def test_negative_fixtures_keep_their_figures(builder, factorization, correctness):
    p = build_named(*builder)
    assert security_deviations(p)["factorization"] == factorization
    assert verify_correctness(p) == correctness
    assert abs(reference_certificate(channel_on_units(p)) - factorization) <= TOL


def _receiver_stacks(p):
    """The (block, dims, outputs) of each receiver stack that the pass over
    every input bounds, copied."""
    stacks, bound = [], protocols._correctness_bound

    def spy(block, dims, outputs, basis):
        stacks.append((block.copy(), dims, outputs))
        return bound(block, dims, outputs, basis)
    with mock.patch.object(protocols, "_correctness_bound", spy):
        verification_pass(p, False)
    return stacks


def assert_masked_bound_is_the_unmasked_one(p):
    """On each receiver stack of ``p``, the bound that norms only the
    nonzero residuals is bit for bit the one that norms every block."""
    bounds = []
    for block, dims, outputs in _receiver_stacks(p):
        masked = protocols._correctness_bound(block, dims, outputs, False)
        assert masked.tobytes() == unmasked_bound(block, dims, outputs).tobytes()
        bounds.append(masked)
    return np.concatenate(bounds)


def test_masked_correctness_norm_on_a_pad_with_one_key_undone_wrong():
    # key 5 undone by key 6's Pauli: one nonzero residual among exact ones
    p = build_quantum_otp(2)
    bob = list(p.bob_ops)
    bob[5] = bob[6]
    bounds = assert_masked_bound_is_the_unmasked_one(dataclasses.replace(p, bob_ops=tuple(bob)))
    assert bounds[5] == 1.0 and not np.delete(bounds, 5).any(), bounds


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.one_of(pauli_keyed(), haar_keyed()))
def test_masked_correctness_norm_equals_the_unmasked_one(p):
    assert_masked_bound_is_the_unmasked_one(p)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_stack_of_exact_residuals_bounds_to_zeros(n, monkeypatch):
    stacks = _receiver_stacks(build_quantum_otp(n))
    _without_svd(monkeypatch)
    for block, dims, outputs in stacks:
        bound = protocols._correctness_bound(block, dims, outputs, False)
        assert bound.shape == (len(block),) and not bound.any(), bound
