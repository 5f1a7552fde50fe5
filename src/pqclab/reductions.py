"""Constructive protocol conversions, lower-bound audits, and the bridge
from oblivious remote state preparation to private channels.

The audits never cite a bound symbolically: every certified figure is
measured on a protocol that was actually constructed and re-verified.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import qmath
from .entropy import ProbabilityDist
from .qmath import (
    ALGEBRA_TOL,
    ENTROPY_TOL,
    Ket,
    UnitaryOp,
    _integer,
    kept_factor,
)
from .protocols import (
    CNOT,
    HADAMARD,
    INPUT_CLASSICAL,
    INPUT_QUANTUM,
    PAULI_BY_PAIR,
    RESOURCE_CLASSICAL_KEY,
    RESOURCE_ENTANGLED,
    ChannelProtocol,
    GateList,
    ProtocolVerificationError,
    SharedResource,
    _apply_run,
    _correctness_bound,
    _zero_tail,
    epr_block,
    require_load,
    resource_report,
    verify_correctness,
    verify_security,
)


@dataclass(frozen=True)
class BoundAudit:
    """One measured quantity against one lower bound."""

    quantity: str
    measured: float
    bound: float
    slack: float
    satisfied: bool

    @classmethod
    def check(cls, quantity: str, measured: float, bound: float,
              tol: float = ENTROPY_TOL) -> "BoundAudit":
        slack = measured - bound
        return cls(quantity, measured, bound, slack, slack >= -tol)


class ObliviousnessError(ValueError):
    """A remote-state-preparation protocol violated an obliviousness invariant."""

    def __init__(self, invariant: str, deviation: float, message: int | None = None):
        super().__init__(
            f"obliviousness invariant {invariant!r} violated "
            f"(deviation {deviation:.3e}"
            + (f", message {message}" if message is not None else "") + ")")
        self.invariant = invariant
        self.deviation = deviation
        self.message = message


# ---------------------------------------------------------------------------
# verified lifts


def _verify_or_raise(p: ChannelProtocol, tol: float, context: str) -> tuple[float, float]:
    sec = verify_security(p)
    corr = verify_correctness(p)
    if sec > tol or corr > tol:
        raise ProtocolVerificationError(
            f"{context}: protocol {p.name!r} fails verification "
            f"(security {sec:.3e}, correctness {corr:.3e})",
            security=sec, correctness=corr)
    return sec, corr


# two-qubit gates on a (first, second) pair: the preparation (H on the first
# wire, then CNOT) turns |00> into a Bell state, and the readout (CNOT, H on
# the first wire, CNOT) turns Bell state s into the bits of s
_BELL_PREP = UnitaryOp(CNOT.matrix @ np.kron(HADAMARD.matrix, np.eye(2)))
_BELL_READOUT = UnitaryOp(CNOT.matrix @ np.kron(HADAMARD.matrix, np.eye(2)) @ CNOT.matrix)


def _pauli_injection(input_offset: int, targets: Sequence[int]) -> list:
    """One controlled Pauli per pair of input bits, on the matching target wire."""
    return [(PAULI_BY_PAIR, (input_offset + 2 * i, input_offset + 2 * i + 1, t))
            for i, t in enumerate(targets)]


def _retarget(op: GateList, wires: Sequence[int]) -> list:
    """The gates of ``op`` with its wire i moved to ``wires[i]``."""
    return [(g, tuple(wires[t] for t in targets)) for g, targets in op.gates]


def lift_extra_comm(p: ChannelProtocol) -> ChannelProtocol:
    """Convert a quantum-input channel into one for twice as many classical
    bits, spending n extra qubits of communication; it verifies nothing.

    The sender locally prepares n EPR pairs, writes the input into them as a
    Pauli string on the first halves, encrypts the second halves with the
    original encoder and ships all of it; the receiver decrypts, then reads
    the pairs out in the Bell basis.  The shared resource is untouched, and
    the wire state factors as (I/2^n) ⊗ rho for every input.
    """
    if p.input_kind != INPUT_QUANTUM:
        raise ValueError("extra-communication lift needs a quantum-input protocol")
    n = p.input_qubits
    a = p.alice_ancillas
    m_inner = p.message_qubits
    # the sender keeps one environment copy per inner classical-message wire:
    # shipping those wires unmeasured would leak the input through branch
    # coherences, and the inner channel's output really is a measured value
    n_env = m_inner if p.message_kind == INPUT_CLASSICAL else 0
    f0, g0, anc0 = 2 * n, 3 * n, 4 * n
    env0 = 4 * n + a
    res0 = env0 + n_env
    a_reg = res0 + p.resource.alice_subsystems

    # every key's operation starts with these same gate objects, which lets
    # the engine run them once for all keys
    prep = [(_BELL_PREP, (f0 + i, g0 + i)) for i in range(n)]
    prep += _pauli_injection(0, [f0 + i for i in range(n)])
    inner_alice_targets = tuple(
        list(range(g0, g0 + n)) + list(range(anc0, anc0 + a))
        + list(range(res0, res0 + p.resource.alice_subsystems)))
    inner_msg_map = [inner_alice_targets[i] for i in p.message_subsystems]
    measure = [(CNOT, (inner_msg_map[i], env0 + i)) for i in range(n_env)]
    alice_ops = tuple(GateList(a_reg, prep + _retarget(op, inner_alice_targets) + measure)
                      for op in p.alice_ops)

    message = tuple(range(f0, f0 + n)) + tuple(inner_msg_map)

    # the inner receiver register follows the n first halves of the pairs
    b_reg = n + p.receiver_qubits
    inner_bob_targets = tuple(range(n, b_reg))
    decoded = [inner_bob_targets[o] for o in p.output_subsystems]
    readout = [(_BELL_READOUT, (i, decoded[i])) for i in range(n)]
    bob_ops = tuple(GateList(b_reg, _retarget(op, inner_bob_targets) + readout)
                    for op in p.bob_ops)
    out = tuple(x for i in range(n) for x in (i, decoded[i]))

    return ChannelProtocol(
        name=f"{p.name}-lift-extra-comm", input_kind=INPUT_CLASSICAL,
        input_qubits=2 * n, message_kind=INPUT_QUANTUM, resource=p.resource,
        alice_ancillas=2 * n + a + n_env, bob_ancillas=p.bob_ancillas,
        alice_ops=alice_ops, bob_ops=bob_ops,
        message_subsystems=message, output_subsystems=out)


def lift_extra_epr(p: ChannelProtocol) -> ChannelProtocol:
    """Convert a quantum-input channel into one for twice as many classical
    bits, spending n extra EPR pairs and no extra communication; it verifies nothing.

    The sender writes the input as a Pauli string on her halves of the new
    pairs, encrypts those halves with the original encoder, and sends only
    the original message; the receiver decrypts and reads the pairs out in
    the Bell basis against his halves.
    """
    if p.input_kind != INPUT_QUANTUM:
        raise ValueError("extra-entanglement lift needs a quantum-input protocol")
    n = p.input_qubits
    ra, rb = p.resource.alice_subsystems, p.resource.bob_qubits
    extra = epr_block(n)
    if p.resource.psi_ab is None:
        psi = extra
    else:
        joint = p.resource.psi_ab.tensor(extra)
        # [A, B, e, h] -> [A, e, B, h]
        order = (list(range(ra)) + list(range(ra + rb, ra + rb + n))
                 + list(range(ra, ra + rb)) + list(range(ra + rb + n, ra + rb + 2 * n)))
        psi = joint.permute(order)
    resource = SharedResource(p.resource.key_source, psi, ra + n)

    a = p.alice_ancillas
    e0 = 2 * n + a + ra
    a_reg = e0 + n
    prep = _pauli_injection(0, [e0 + i for i in range(n)])
    # the inner input moves to the new halves; its ancillas and resource half stay
    inner_alice_targets = tuple(range(e0, e0 + n)) + tuple(range(2 * n, e0))
    alice_ops = tuple(GateList(a_reg, prep + _retarget(op, inner_alice_targets))
                      for op in p.alice_ops)

    message = tuple(inner_alice_targets[i] for i in p.message_subsystems)

    # the inner receiver register keeps its wires; the new halves follow it
    h0 = p.receiver_qubits
    decoded = p.output_subsystems
    readout = [(_BELL_READOUT, (decoded[i], h0 + i)) for i in range(n)]
    bob_ops = tuple(GateList(h0 + n, list(op.gates) + readout) for op in p.bob_ops)
    out = tuple(x for i in range(n) for x in (decoded[i], h0 + i))

    return ChannelProtocol(
        name=f"{p.name}-lift-extra-epr", input_kind=INPUT_CLASSICAL,
        input_qubits=2 * n, message_kind=p.message_kind, resource=resource,
        alice_ancillas=a, bob_ancillas=p.bob_ancillas,
        alice_ops=alice_ops, bob_ops=bob_ops,
        message_subsystems=message, output_subsystems=out)


# ---------------------------------------------------------------------------
# bound audits


#: per resource kind and message kind, the resource quantity audited next to
#: comm_entropy and the share of the input bits that bounds each of them
_BOUND_TABLE = {(RESOURCE_CLASSICAL_KEY, INPUT_CLASSICAL): ("key_entropy", 1.0),
                (RESOURCE_CLASSICAL_KEY, INPUT_QUANTUM): ("key_entropy", 1.0),
                (RESOURCE_ENTANGLED, INPUT_CLASSICAL): ("entanglement", 1.0),
                (RESOURCE_ENTANGLED, INPUT_QUANTUM): ("entanglement", 0.5)}
#: each audited quantity as a lift's log line names it
_MEASURED = {"key_entropy": "key entropy", "entanglement": "entanglement",
             "comm_entropy": "communication"}


def _bounds(p: ChannelProtocol, bits: int, tol: float) -> list[BoundAudit]:
    """The classical-input lower bounds for ``bits`` bits, checked against
    the resource figures of ``p``.  Classical key: key and communication
    entropies are each at least ``bits``.  Entangled resource: at least
    ``bits`` ebits and bits for a classical message, at least half of each
    for a quantum message."""
    kind = p.resource.kind
    if (kind, p.message_kind) not in _BOUND_TABLE:
        raise ValueError(f"no audited bounds for resource kind {kind!r}")
    quantity, share = _BOUND_TABLE[kind, p.message_kind]
    rep = resource_report(p)
    return [BoundAudit.check(quantity, getattr(rep, quantity), share * bits, tol),
            BoundAudit.check("comm_entropy", rep.comm, share * bits, tol)]


def audit_classical_input(p: ChannelProtocol, verify_tol: float = ALGEBRA_TOL,
                          bound_tol: float = ENTROPY_TOL,
                          log: list[str] | None = None) -> list[BoundAudit]:
    """Audit the resource lower bounds (:func:`_bounds`) of a verified
    classical-input channel; a quantum-input one is refused, not restricted."""
    if p.input_kind != INPUT_CLASSICAL:
        raise ValueError("classical-input audit needs a classical-input protocol")
    n = p.input_qubits
    sec, corr = _verify_or_raise(p, verify_tol, "audit_classical_input")
    if log is not None:
        log.append(f"verified {p.name} on the {2 ** n}-state classical basis "
                   f"(security {sec:.2e}, correctness {corr:.2e})")
    return _bounds(p, n, bound_tol)


def audit_quantum_input(p: ChannelProtocol, verify_tol: float = ALGEBRA_TOL,
                        bound_tol: float = ENTROPY_TOL,
                        log: list[str] | None = None) -> list[BoundAudit]:
    """Audit the resource lower bounds of a verified quantum-input channel.

    Each bound is certified by construction: the quantum bound is the
    classical bound of a lift.  Bound i of :func:`_bounds` for n bits is
    replaced by bound i of lift i for 2n bits, once the lifted channel is
    itself verified on its full classical basis: :func:`lift_extra_comm`
    gives the key or entanglement bound, :func:`lift_extra_epr` the
    communication bound of an entangled resource.
    """
    if p.input_kind != INPUT_QUANTUM:
        raise ValueError("quantum-input audit needs a quantum-input protocol")
    n = p.input_qubits
    _verify_or_raise(p, verify_tol, "audit_quantum_input")
    audits = _bounds(p, n, bound_tol)
    lifts = [lift_extra_comm] + [lift_extra_epr] * (p.resource.kind == RESOURCE_ENTANGLED)
    for i, lift in enumerate(lifts):
        lifted = lift(p)
        sec, corr = _verify_or_raise(lifted, verify_tol, "audit_quantum_input")
        audits[i] = _bounds(lifted, 2 * n, bound_tol)[i]
        if log is not None:
            bits = f" for {2 * n} classical bits" if p.resource.keyed else ""
            log.append(f"constructed {lifted.name}{bits}; verified (security {sec:.2e}, "
                       f"correctness {corr:.2e}); measured {_MEASURED[audits[i].quantity]} "
                       f"{audits[i].measured:.6f}")
    return audits


# ---------------------------------------------------------------------------
# oblivious remote state preparation


#: messages below this probability on an input carry no receiver state
RSP_PROB_FLOOR = 1e-14


@dataclass(frozen=True, eq=False)
class ObliviousRsp:
    """One-way remote state preparation with verified obliviousness.

    The sender applies the gate list ``measurement`` to input ⊗ her half of
    the shared state (input wires first), then reads those wires out in the
    computational basis: the readout value m is the message, so a unitary
    followed by the full readout is a complete rank-1 measurement by
    construction.  On message m the receiver attaches ancillas and applies
    ``corrections[m]`` to his half ⊗ ancilla, after which the wires in
    ``output_subsystems`` hold the input and the rest is an input-independent
    residue.
    """

    n: int
    psi_ab: Ket
    alice_subsystems: int
    measurement: GateList
    corrections: tuple[UnitaryOp, ...]
    bob_ancillas: int
    output_subsystems: tuple[int, ...]

    def __post_init__(self):
        if SharedResource(None, self.psi_ab, self.alice_subsystems).kind != RESOURCE_ENTANGLED:
            raise ValueError("remote state preparation needs a shared state")
        for field in ("n", "bob_ancillas"):
            object.__setattr__(self, field, _integer(getattr(self, field), field))
        if self.measurement.qubits != self.n + self.alice_subsystems:
            raise ValueError("measurement must act on the input and sender wires")
        if len(self.corrections) != self.message_count:
            raise ValueError("need one correction per readout value")
        bob_reg = self.bob_qubits + self.bob_ancillas
        for u in self.corrections:
            if u.dim != 2 ** bob_reg:
                raise ValueError("correction dimension does not match the receiver register")
        out = tuple(_integer(i, "output_subsystems") for i in self.output_subsystems)
        if not len(set(out)) == len(out) == self.n or any(not 0 <= i < bob_reg for i in out):
            raise ValueError("output subsystems must name n distinct receiver wires")
        object.__setattr__(self, "output_subsystems", out)

    @property
    def bob_qubits(self) -> int:
        return len(self.psi_ab.layout) - self.alice_subsystems

    @property
    def message_count(self) -> int:
        return 2 ** self.measurement.qubits


def teleportation_rsp(n: int) -> ObliviousRsp:
    """Teleportation as remote state preparation: Bell readout of each
    (input_i, A_i) pair, Pauli corrections, uniform message statistics."""
    n = _integer(n, "n")
    require_load("teleportation RSP", 1, 3 * n)
    measurement = GateList(2 * n, [(_BELL_READOUT, (i, n + i)) for i in range(n)])
    # readout bits (x, a) of the input and sender wires: pair i read Bell state 2 x_i + a_i
    corrections = tuple(
        qmath.pauli_string("".join(str(2 * x + a) for x, a in zip(bits[:n], bits[n:])))
        for bits in itertools.product((0, 1), repeat=2 * n))
    return ObliviousRsp(
        n=n, psi_ab=epr_block(n), alice_subsystems=n, measurement=measurement,
        corrections=corrections, bob_ancillas=0, output_subsystems=tuple(range(n)))


def _receiver_blocks(rsp: ObliviousRsp) -> np.ndarray:
    """Every message's receiver isometry block W_m, indexed [m, receiver
    register, input].  The measurement runs once on the basis block
    I ⊗ psi_ab and the readout value is read as the leading block axis; the
    receiver's ancillas and ``corrections[m]`` follow.  On a probe, message
    m's unnormalized receiver state is W_m @ probe."""
    d = 2 ** rsp.n
    block = np.kron(np.eye(d, dtype=complex), rsp.psi_ab.amplitudes[:, None])
    dims = [2] * (rsp.n + len(rsp.psi_ab.layout))
    block = _apply_run((rsp.measurement,), block, dims, range(rsp.measurement.qubits))
    block = _zero_tail(block.reshape(rsp.message_count, 2 ** rsp.bob_qubits, d),
                       rsp.bob_ancillas)
    return np.stack([u.matrix for u in rsp.corrections]) @ block


def check_obliviousness(rsp: ObliviousRsp) -> dict[str, tuple[float, int]]:
    """Per obliviousness invariant, a bound on its deviation over every
    input and the first message m that reaches it, read off the receiver
    blocks W_m (:func:`_receiver_blocks`).  |0...0> is the reference.

    ``message_probs``, the drift of m's probability, is exact: with
    G_m = W_m†W_m, the widest |<ψ|G_m|ψ> − G_m[0,0]| over unit ψ is
    max(λ_max − G_m[0,0], G_m[0,0] − λ_min).  The other three are bounded on
    the messages with λ_max ≥ RSP_PROB_FLOOR; no other reaches the floor on
    any input.  For those, ε = :func:`_correctness_bound` of W_m/√λ_max, with
    r̂ its fitted residue, gives ‖(W_m/√λ_max)ψ − ψ⊗r̂‖ ≤ ε for unit ψ.
    Normalising costs at most another ε, so the post-message state is within
    2ε of ψ⊗r̂ in norm, hence in trace distance on any wires.  So
    ``output_state`` (output wires against ψ) ≤ 2ε; ``residue_drift`` (residue
    against the reference's, both within 2ε of r̂) ≤ 4ε; ``factorization``
    (joint state against ψ ⊗ residue) ≤ 2ε + 2ε.  Each is capped at 1, and
    the last two are 0 without residue wires.
    """
    return _obliviousness(rsp, _receiver_blocks(rsp))


def _obliviousness(rsp: ObliviousRsp, blocks: np.ndarray) -> dict[str, tuple[float, int]]:
    """:func:`check_obliviousness` read off the given receiver blocks."""
    gram = np.einsum("mri,mrj->mij", blocks.conj(), blocks)
    eig = np.linalg.eigvalsh(gram)
    ref = gram[:, 0, 0].real
    dims = [2] * (rsp.bob_qubits + rsp.bob_ancillas)
    eps, live = np.zeros(len(blocks)), eig[:, -1] >= RSP_PROB_FLOOR
    eps[live] = _correctness_bound(blocks[live] / np.sqrt(eig[live, -1])[:, None, None], dims,
                                   list(rsp.output_subsystems), basis=False)
    residue_bound = np.minimum(1.0, 4 * eps) if len(dims) > rsp.n else np.zeros_like(eps)
    values = {"message_probs": np.maximum(eig[:, -1] - ref, ref - eig[:, 0]),
              "output_state": np.minimum(1.0, 2 * eps),
              "residue_drift": residue_bound, "factorization": residue_bound}
    return {name: (float(v.max()), int(np.argmax(v))) for name, v in values.items()}


def rsp_to_pqc(rsp: ObliviousRsp) -> ChannelProtocol:
    """Turn a verified oblivious RSP into a keyed private channel.

    The message label m becomes the shared key with its (input-independent)
    probability; on key m the sender prepares the pure residue r_m on q_r
    wires, applies the inverse correction and ships the receiver-half wires;
    the receiver re-applies the correction and keeps the output wires.
    """
    blocks = _receiver_blocks(rsp)
    for invariant, (deviation, message) in _obliviousness(rsp, blocks).items():
        if deviation > ALGEBRA_TOL:
            raise ObliviousnessError(invariant, deviation, message)

    n = rsp.n
    rb = rsp.bob_qubits
    bob_reg = rb + rsp.bob_ancillas
    residue_positions = [i for i in range(bob_reg) if i not in rsp.output_subsystems]
    q_r = len(residue_positions)

    # message probabilities and residues on the reference input |0...0>
    # (input-independent by the checks): the complete rank-1 readout leaves
    # the receiver a pure ψ ⊗ r_m, r_m the factor beside the outputs' |0...0>
    states = blocks[:, :, 0].T
    probs = np.sum(np.abs(states) ** 2, axis=0)
    live = probs >= RSP_PROB_FLOOR
    keep_keys = np.flatnonzero(live)
    residues = kept_factor(states[:, live], [2] * bob_reg, rsp.output_subsystems)[:, 0]

    a_reg = n + q_r
    # the output positions become wires 0..n-1, the residue positions the next q_r
    pos_to_wire = {pos: i for i, pos in enumerate([*rsp.output_subsystems, *residue_positions])}

    alice_ops, bob_ops, outcomes = [], [], []
    for r, m in zip(residues, keep_keys):
        gates = []
        if q_r:
            # Q's first column is the normalised residue up to a sign
            prep = np.linalg.qr(np.column_stack([r / np.linalg.norm(r), np.eye(r.size)]))[0]
            gates.append((prep, tuple(range(n, a_reg))))
        correction_wires = tuple(pos_to_wire[pos] for pos in range(bob_reg))
        gates.append((rsp.corrections[m].matrix.conj().T, correction_wires))
        alice_ops.append(GateList(a_reg, gates))
        bob_ops.append(rsp.corrections[m])
        outcomes.append(str(m))

    message = tuple(pos_to_wire[pos] for pos in range(rb))
    dist = ProbabilityDist(tuple(outcomes), probs[live] / probs[live].sum())
    return ChannelProtocol(
        name="rsp-derived-pqc", input_kind=INPUT_QUANTUM, input_qubits=n,
        message_kind=INPUT_QUANTUM,
        resource=SharedResource(dist),
        alice_ancillas=q_r, bob_ancillas=rsp.bob_ancillas,
        alice_ops=tuple(alice_ops), bob_ops=tuple(bob_ops),
        message_subsystems=message,
        output_subsystems=rsp.output_subsystems)
