"""Private-channel protocol model: shared resources, encoders and decoders,
verification sweeps, resource accounting, and the builder zoo.

Simulation model: classical registers are qubit registers constrained to
computational-basis states (classicality is verified, never assumed), and
measurements are deferred, so every pipeline is attach-ancilla / unitary /
partial-trace on a global pure state.  Keyed protocols are simulated per
key: security uses the key-averaged message (the eavesdropper does not know
the key), correctness is enforced per key (the receiver does).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import qmath
from .entropy import (
    ProbabilityDist,
    _entropy_of_probs,
    entanglement_measure,
    shannon_entropy,
)
from .qmath import (
    SIGMA,
    DensityOp,
    Ket,
    SystemLayout,
    UnitaryOp,
    _integer,
    apply_gates,
    kept_factor,
    matrix_from_json,
    matrix_to_json,
    max_abs,
    reduced_from_vector,
    trace_distance,
)

#: largest simulation load, key count times engine register dimension
DESK_SCALE_LIMIT = 4096
#: largest descriptor file read, in bytes: small enough to parse under 1 GiB
#: with at most one JSON array per 8 bytes of it (see :func:`load_protocol`)
DESCRIPTOR_BYTE_LIMIT = 1 << 25
#: bytes of four of a run's largest blocks, an :func:`_add_keys` slice among them
STACK_BYTES = 1 << 22

RESOURCE_NONE = "none"
RESOURCE_CLASSICAL_KEY = "classical_key"
RESOURCE_ENTANGLED = "entangled_state"
RESOURCE_HYBRID = "hybrid"

INPUT_CLASSICAL = "classical"
INPUT_QUANTUM = "quantum"


def controlled_by_value(gates: Sequence[np.ndarray]) -> np.ndarray:
    """Block-diagonal controlled gate: control wires outermost, one block per
    control value."""
    d = gates[0].shape[0]
    out = np.zeros((len(gates) * d,) * 2, dtype=complex)
    for v, g in enumerate(gates):
        out[v * d:(v + 1) * d, v * d:(v + 1) * d] = g
    return out


# the builders' gates, one object each, which every key, protocol and lift
# that applies the gate shares: the Paulis of SIGMA, H, CNOT, CZ, and the
# controlled Pauli whose control bit pair (b1, b2) selects sigma 2*b1 + b2
PAULI = tuple(map(UnitaryOp, SIGMA))
HADAMARD = UnitaryOp(np.array([[1, 1], [1, -1]]) / math.sqrt(2))
CNOT = UnitaryOp(np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]))
CZ = UnitaryOp(np.diag([1, 1, 1, -1]))
PAULI_BY_PAIR = UnitaryOp(controlled_by_value(SIGMA))


def _numbers(data, field: str):
    """``data`` once every entry of it is a JSON number, an int or a float:
    never a bool or a string, which numpy would read as 0 or 1 or parse."""
    if not set(map(type, np.asarray(data, dtype=object).ravel())) <= {int, float}:
        raise ValueError(f"{field} must hold numbers only")
    return data


class ProtocolVerificationError(RuntimeError):
    """A protocol failed its security or correctness requirement."""

    def __init__(self, message: str, security: float | None = None,
                 correctness: float | None = None):
        super().__init__(message)
        self.security = security
        self.correctness = correctness


@dataclass(frozen=True, eq=False)
class SharedResource:
    """The pre-shared resource: a key distribution, an entangled pure state
    whose first ``alice_subsystems`` qubits are the sender's, both (hybrid,
    produced by resource-augmenting conversions), or nothing.  Its ``kind``
    is read off which of the two payloads it holds."""

    key_source: ProbabilityDist | None = None
    psi_ab: Ket | None = None
    alice_subsystems: int = 0

    def __post_init__(self):
        object.__setattr__(self, "alice_subsystems",
                           _integer(self.alice_subsystems, "alice_subsystems"))
        if self.psi_ab is None:
            if self.alice_subsystems:
                raise ValueError("alice_subsystems must be 0 without a shared state")
        elif any(d != 2 for d in self.psi_ab.layout.dims):
            raise ValueError("shared states must be qubit registers")
        elif not 0 < self.alice_subsystems < len(self.psi_ab.layout):
            raise ValueError("alice_subsystems must split the shared state")

    @property
    def keyed(self) -> bool:
        return self.key_source is not None

    @property
    def kind(self) -> str:
        if self.psi_ab is None:
            return RESOURCE_CLASSICAL_KEY if self.keyed else RESOURCE_NONE
        return RESOURCE_HYBRID if self.keyed else RESOURCE_ENTANGLED

    @property
    def bob_qubits(self) -> int:
        if self.psi_ab is None:
            return 0
        return len(self.psi_ab.layout) - self.alice_subsystems


@dataclass(frozen=True)
class ResourceReport:
    """Communication entropy plus whatever shared-resource measures apply."""

    comm: float
    key_entropy: float | None = None
    entanglement: float | None = None


@dataclass(frozen=True, eq=False)
class GateList:
    """A unitary on ``qubits`` wires kept as its gates, the first listed acting
    first; each gate acts on its listed wires in the given order.  A gate
    given as a raw matrix is validated into a :class:`UnitaryOp`.  Builders,
    the engine and descriptor files all hold operators in this one form."""

    qubits: int
    gates: tuple[tuple[UnitaryOp, tuple[int, ...]], ...]

    def __post_init__(self):
        object.__setattr__(self, "qubits", qubits := _integer(self.qubits, "qubits"))
        gates, misfit = [], None
        for g, targets in self.gates:  # a fitting UnitaryOp on plain ints: one pass
            if (type(g) is UnitaryOp and type(targets) in (tuple, list)
                    and len(g.matrix) == 1 << len(targets)):
                for t in targets:
                    if type(t) is not int or not 0 <= t < qubits:
                        break
                else:
                    if len(targets) < 2 or len(set(targets)) == len(targets):
                        gates.append((g, tuple(targets)))
                        continue
            # any other gate is normalised; the first misfit is raised once all are
            g = g if isinstance(g, UnitaryOp) else UnitaryOp(g)
            targets = tuple(_integer(t, "gate targets") for t in targets)
            if misfit is None and (g.dim != 2 ** len(targets) or len(set(targets)) != len(targets)
                                   or any(not 0 <= t < qubits for t in targets)):
                misfit = g, targets
            gates.append((g, targets))
        if misfit is not None:
            raise ValueError(f"gate of dimension {misfit[0].dim} does not fit wires {misfit[1]} "
                             f"of a {qubits}-qubit register")
        object.__setattr__(self, "gates", tuple(gates))


def _apply_run(ops: Sequence[GateList], block: np.ndarray, dims: Sequence[int],
               wires: Sequence[int], start: int = 0, stop: int | None = None) -> np.ndarray:
    """Apply gates ``start:stop`` of each of ``ops``, a run of gate lists
    whose gates sit on the same wires at every position: list k to matrix k
    of a stack (K, rows, cols), or to the one block given, which then becomes
    a stack.  At each position the gates act as one stack (K, g, g), or as
    one matrix where every list holds the same gate object, on their own
    mapped wires; every position runs in one :func:`apply_gates` call."""
    return apply_gates(block, dims, (
        (g.matrix if all(op.gates[i][0] is g for op in ops)
         else np.array([op.gates[i][0].matrix for op in ops]), [wires[t] for t in targets])
        for i, (g, targets) in enumerate(ops[0].gates[start:stop], start)))


def _shared_prefix(ops: Sequence[GateList]) -> int:
    """How many leading gates (the same gate object on the same wires) every
    operator in ``ops`` has in common."""
    first = ops[0].gates
    count = 0
    for i, (g, targets) in enumerate(first):
        if not all(len(op.gates) > i and op.gates[i][0] is g and op.gates[i][1] == targets
                   for op in ops[1:]):
            break
        count += 1
    return count


@dataclass(frozen=True, eq=False)
class ChannelProtocol:
    """One-way private channel: per-key (or global) unitaries for the sender
    and receiver plus the wiring of message and output registers.  Each
    unitary is a :class:`GateList`; a dense :class:`UnitaryOp` given in its
    place becomes the one-gate list on every wire, and (gate, wires) pairs
    the gate list on the unitary's register.

    Register conventions: the sender's unitaries act on
    input ⊗ ancilla ⊗ sender-resource-half, the receiver's on
    message ⊗ ancilla ⊗ receiver-resource-half; ancillas start in |0...0>.
    ``message_subsystems`` index the sender register, ``output_subsystems``
    the receiver register, both in wire order; the output has as many wires
    as the input.  The ancilla counts default to 0.
    """

    name: str
    input_kind: str
    input_qubits: int
    message_kind: str
    resource: SharedResource
    alice_ops: tuple[GateList, ...]
    bob_ops: tuple[GateList, ...]
    message_subsystems: tuple[int, ...]
    output_subsystems: tuple[int, ...]
    alice_ancillas: int = 0
    bob_ancillas: int = 0

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ValueError(f"name must be a string, not {type(self.name).__name__}")
        if self.input_kind not in (INPUT_CLASSICAL, INPUT_QUANTUM):
            raise ValueError(f"bad input_kind {self.input_kind!r}")
        if self.message_kind not in (INPUT_CLASSICAL, INPUT_QUANTUM):
            raise ValueError(f"bad message_kind {self.message_kind!r}")
        for field in ("input_qubits", "alice_ancillas", "bob_ancillas"):
            object.__setattr__(self, field, _integer(getattr(self, field), field))
        for field in ("message_subsystems", "output_subsystems"):
            object.__setattr__(self, field, tuple(_integer(i, field) for i in getattr(self, field)))
        if self.input_qubits < 1 or self.alice_ancillas < 0 or self.bob_ancillas < 0:
            raise ValueError("bad register sizes")

        keys = self.key_count
        if len(self.alice_ops) != keys or len(self.bob_ops) != keys:
            raise ValueError(f"need exactly {keys} sender and receiver operations")

        for attr, reg, who in (("alice_ops", self.sender_qubits, "sender"),
                               ("bob_ops", self.receiver_qubits, "receiver")):
            ops = tuple(op if isinstance(op, GateList) else GateList(
                reg, [(op, range(reg))] if isinstance(op, UnitaryOp) else op)
                for op in getattr(self, attr))
            if any(op.qubits != reg for op in ops):
                raise ValueError(f"{who} operation dimension does not match its register")
            object.__setattr__(self, attr, ops)
        if not self.message_subsystems:
            raise ValueError("protocol sends no message")
        if len(set(self.message_subsystems)) != len(self.message_subsystems):
            raise ValueError("duplicate message subsystems")
        if any(not 0 <= i < self.sender_qubits for i in self.message_subsystems):
            raise ValueError("message subsystems outside the sender register")
        if not len(set(self.output_subsystems)) == len(self.output_subsystems) == self.input_qubits:
            raise ValueError(f"need {self.input_qubits} distinct output subsystems")
        if any(not 0 <= i < self.receiver_qubits for i in self.output_subsystems):
            raise ValueError("output subsystems outside the receiver register")

    @property
    def key_count(self) -> int:
        return len(self.resource.key_source) if self.resource.keyed else 1

    @property
    def key_probs(self) -> np.ndarray:
        if self.resource.keyed:
            return self.resource.key_source.probs
        return np.array([1.0])

    @property
    def message_qubits(self) -> int:
        return len(self.message_subsystems)

    @property
    def sender_qubits(self) -> int:
        """Wires of the sender register: input, ancillas, resource half."""
        return self.input_qubits + self.alice_ancillas + self.resource.alice_subsystems

    @property
    def receiver_qubits(self) -> int:
        """Wires of the receiver register: message, ancillas, resource half."""
        return self.message_qubits + self.bob_ancillas + self.resource.bob_qubits

    @property
    def engine_qubits(self) -> int:
        """Wires of the global register the simulation engine runs on: the
        sender register, the receiver's resource half, one environment copy
        per wire of a classical message, then the receiver's ancillas."""
        copies = self.message_qubits if self.message_kind == INPUT_CLASSICAL else 0
        return self.sender_qubits + self.resource.bob_qubits + copies + self.bob_ancillas


# ---------------------------------------------------------------------------
# simulation engine
#
# Every check reads one verification pass (:func:`_verification_pass`).  The
# keys run in runs (:func:`_runs`): consecutive keys whose gates sit on the
# same wires, simulated as one stack (K, rows, columns) of their blocks on all
# input basis columns.  A run's sender stage runs once, its messages add to
# the channel table, and its receiver stage continues from the same stack,
# the keys' isometry blocks, whose correctness bounds are read off it.  Every
# security part is read off the table.  Over the basis, the input wires that
# are only controls of the shared prefix fold out before it runs
# (:func:`_foldable`).


def _zero_tail(block: np.ndarray, qubits: int) -> np.ndarray:
    return np.kron(block, np.eye(2 ** qubits, 1, dtype=complex)) if qubits else block


def _sender_head(p: ChannelProtocol, inputs: np.ndarray, gates: int = 0,
                 early: Sequence[int] = ()) -> np.ndarray:
    """Every column of ``inputs`` (input dim x columns) with the sender's
    ancillas and the shared state attached, then the first ``gates`` gates of
    the sender's operation applied (those every key shares).  The input
    wires ``early`` (:func:`_foldable`) are summed out of the rows of the
    basis ``inputs``: in column a each is its bit of a, so the gates act on
    it as on a column axis, which gates block-diagonal in it never mix."""
    n = p.input_qubits
    if inputs.shape[0] != 2 ** n:
        raise ValueError(f"input dimension {inputs.shape[0]} does not match {n} qubits")
    block = inputs.reshape([2] * n + [-1]).sum(axis=tuple(early)).reshape(-1, inputs.shape[1])
    block = _zero_tail(block, p.alice_ancillas)
    if p.resource.psi_ab is not None:
        block = np.kron(block, p.resource.psi_ab.amplitudes[:, None])
    rows = p.sender_qubits + p.resource.bob_qubits - len(early)
    wires = [rows + w if w in early else w - sum(e < w for e in early)
             for w in range(p.sender_qubits)]
    return _apply_run(p.alice_ops[:1], block, [2] * (rows + n * bool(early)), wires, stop=gates)


def _stage(p: ChannelProtocol, head: np.ndarray, keys: range, start: int = 0,
           wires: Sequence[int] | None = None) -> tuple[np.ndarray, list[int], list[int]]:
    """Run the sender gates from gate ``start`` on of the run ``keys``
    (:func:`_runs`) on a block from :func:`_sender_head`.

    Returns the keys' global blocks as a stack (K, rows, one column per
    input), their qubit dims, and the message wires.  The blocks run on the
    engine register (:attr:`ChannelProtocol.engine_qubits`), wire w on row
    ``wires[w]`` (by default w).  Their environment copies of a classical
    message record the sent value: the deferred measurement.
    """
    wires = range(p.engine_qubits) if wires is None else wires
    dims = [2] * (head.shape[0].bit_length() - 1)
    block = _apply_run([p.alice_ops[k] for k in keys], head, dims, wires, start)
    # a read-only view where every key's gates are the head's: no copy
    block = np.broadcast_to(block, (len(keys), *block.shape[-2:]))
    keep = [wires[w] for w in p.message_subsystems]
    if p.message_kind == INPUT_CLASSICAL:
        # the copies, appended in |0...0>, each take the value of its message
        # wire, as CNOTs from the message wires would: one write per row
        sent = np.ravel_multi_index(np.indices(dims)[keep], [2] * len(keep)).ravel()
        copied = np.zeros((len(keys), len(head), 2 ** len(keep), block.shape[-1]), complex)
        copied[:, range(len(head)), sent] = block
        block, dims = copied.reshape(len(keys), -1, block.shape[-1]), dims + [2] * len(keep)
    return block, dims, keep


def _receiver_stage(p: ChannelProtocol, block: np.ndarray, dims: list[int], keys: range,
                    wires: Sequence[int] | None = None) -> tuple[np.ndarray, list[int], list[int]]:
    """The run ``keys``'s receiver stage on a stack and wire map from
    :func:`_stage`; returns the stack, its dims and the output wires."""
    wires = range(p.engine_qubits) if wires is None else wires
    block = _zero_tail(block, p.bob_ancillas)
    dims = dims + [2] * p.bob_ancillas
    receiver_wires = [wires[w] for w in itertools.chain(
        p.message_subsystems, range(p.engine_qubits - p.bob_ancillas, p.engine_qubits),
        range(p.sender_qubits, p.sender_qubits + p.resource.bob_qubits))]
    block = _apply_run([p.bob_ops[k] for k in keys], block, dims, receiver_wires)
    return block, dims, [receiver_wires[o] for o in p.output_subsystems]


def _correctness_bound(block: np.ndarray, dims: list[int], outputs: list[int],
                       basis: bool) -> float | np.ndarray:
    """How far one key's channel is from the identity, in trace-distance
    units, read off its receiver block W, indexed [output, rest, input a].

    With ``basis``, max_a ‖(I − |a><a| ⊗ I) W|a>‖: the root of the output's
    weight off |a>, summed as such, never as 1 − <a|Φ(|a><a|)|a>.  It is at
    least the trace distance (Fuchs and van de Graaf, 1999), and equal for a
    pure output; the largest over a stack of blocks (..., rows, d).
    Otherwise min(1, ‖W − I ⊗ j‖_op), j the normalized Σ_a (<a| ⊗ I) W|a>
    (1.0 if that is 0), which bounds ½‖Φ − id‖_⋄ over every input
    (Kretschmann, Schlingemann and Werner, 2008); for each block of a stack,
    by one batched norm of the blocks whose W − I ⊗ j is not exactly zero
    (an exactly zero one is exactly 0.0, as in :func:`qmath.trace_distance`).
    """
    d, shape = block.shape[-1], block.shape[:-2]
    rest = [i for i in range(len(dims)) if i not in outputs]
    axes = list(range(len(shape))) + [len(shape) + i for i in outputs + rest + [len(dims)]]
    w = block.reshape(shape + (*dims, d)).transpose(axes).reshape(shape + (d, -1, d))
    if basis:
        weight = np.sum(np.abs(w) ** 2, axis=-2)
        weight[..., range(d), range(d)] = 0.0
        return math.sqrt(float(weight.sum(axis=-2).max()))
    j = np.einsum("...ara->...r", w)
    live = j.any(axis=-1)
    re, im = j.real[..., None, :], j.imag[..., None, :]  # np.linalg.norm's dot products:
    norm = np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0]
    w = w - np.einsum("xa,...r->...xra", np.eye(d), j / np.where(live[..., None], norm, 1.0))
    w = w.reshape(shape + (-1, d))
    nonzero, bound = w.any(axis=(-2, -1)), np.zeros(shape)
    if nonzero.any():
        bound[nonzero] = np.minimum(1.0, np.linalg.norm(w[nonzero], 2, axis=(-2, -1)))
    return np.where(live, bound, 1.0)


def _add_keys(total: np.ndarray, probs: np.ndarray, m: np.ndarray) -> None:
    """Add Σ_k p_k m_k m_k† to ``total``, over the keys' kept-wire factors
    m_k (..., dk, dr) of a run, given as its factor m (..., dk, K·dr), the
    keys' side by side, with p_k for each of a key's dr columns.  It adds the
    product in slices along ``total``'s leading axis (a basis table's inputs,
    a 2-D table's rows), each at most m's size and a power of two long, so a
    2-D table's 2^k rows get no one-row slice (a gemv, rounded unlike gemm)."""
    weighted = m.conj()
    weighted *= np.repeat(probs, m.shape[-1] // len(probs))
    step = 1 << max(1, m.nbytes // total[0].nbytes).bit_length() - 1
    for s in (slice(i, i + step) for i in range(0, len(total), step)):
        total[s] += m[s] @ (weighted[s] if m.ndim > 2 else weighted).swapaxes(-1, -2)


def _add_diagonals(total: np.ndarray, probs: np.ndarray, m: np.ndarray) -> None:
    """:func:`_add_keys`' diagonal alone: Σ_k p_k Σ_r |m_k[..., x, r]|² to total[..., x],
    in slices along ``total``'s leading axis whose squared moduli take at most 1 MiB."""
    weights = np.repeat(probs, m.shape[-1] // len(probs))
    step = max(1, (1 << 20) // (m[0].size * 8))
    for s in (slice(i, i + step) for i in range(0, len(total), step)):
        total[s] += np.einsum("...r,r->...", m[s].real ** 2 + m[s].imag ** 2, weights)


def _block_diagonal(gate: np.ndarray, i: int) -> bool:
    """Whether every entry of ``gate`` coupling two values of its wire i is 0.0."""
    k = gate.shape[0].bit_length() - 1
    g = gate.reshape(2 ** i, 2, 2 ** (k - i - 1), 2 ** i, 2, 2 ** (k - i - 1))
    return not (g[:, 0, :, :, 1].any() or g[:, 1, :, :, 0].any())


def _foldable(p: ChannelProtocol, shared: int) -> list[int]:
    """The input wires that are no message wire, that no gate after the
    ``shared`` prefix (nor the receiver) touches, and that every prefix gate
    on them is exactly block-diagonal in (:func:`_block_diagonal`), so in
    basis column a they hold their bit of a."""
    touched = set(p.message_subsystems).union(*(t for op in p.alice_ops
                                                for _, t in op.gates[shared:]))
    return [w for w in range(p.input_qubits) if w not in touched and all(
        _block_diagonal(g.matrix, t.index(w)) for g, t in p.alice_ops[0].gates[:shared]
        if w in t)]


def _runs(p: ChannelProtocol, shared: int, head: np.ndarray) -> list[range]:
    """The keys in order, cut into runs: consecutive keys whose sender gates
    after the ``shared`` prefix, and whose receiver gates, sit on the same
    wires at every position, at most as many as fit four of their largest
    blocks (the run's input, its :func:`apply_gates` call's two buffers and
    the kept factor) in STACK_BYTES: ``head`` with the environment copies and
    the receiver's ancillas attached."""
    grown = p.engine_qubits - p.sender_qubits - p.resource.bob_qubits
    size = max(1, STACK_BYTES // (4 * head.nbytes << grown))
    wiring = [([t for _, t in a.gates[shared:]], [t for _, t in b.gates])
              for a, b in zip(p.alice_ops, p.bob_ops)]
    runs, start = [], 0
    for k in range(1, p.key_count + 1):
        if k == p.key_count or k - start == size or wiring[k] != wiring[start]:
            runs.append(range(start, k))
            start = k
    return runs


def _verification_pass(p: ChannelProtocol) -> tuple[np.ndarray, float]:
    """The channel table and the worst per-key :func:`_correctness_bound`
    over the protocol's own inputs, from one sender stage and one receiver
    stage per run of keys (:func:`_runs`) on the stack of their blocks of all
    input basis columns.  For quantum input the table is the key-averaged
    E(|a><b|), indexed [a, b, x, y] and read off the Choi vectors Σ_a V|a>|a>;
    for classical input only E(|a><a|), read off the columns V|a> with the
    :func:`_foldable` wires summed out: [a, x, y], or for a classical message
    only the diagonals, real and indexed [a, x].  Each run adds its keys by
    :func:`_add_keys` (or :func:`_add_diagonals`), the run axis a rest wire
    of their factor, and bounds its receiver stack at once; runs share a read-only head."""
    d, dm = 2 ** p.input_qubits, 2 ** p.message_qubits
    basis = p.input_kind == INPUT_CLASSICAL
    shared = _shared_prefix(p.alice_ops)
    early = _foldable(p, shared) if basis else []
    head = _sender_head(p, np.eye(d, dtype=complex), shared, early)
    head.flags.writeable = False
    wires = [w - sum(e < w for e in early) for w in range(p.engine_qubits)]
    add = _add_diagonals if basis and p.message_kind == INPUT_CLASSICAL else _add_keys
    shape = (d, dm) if add is _add_diagonals else (d, dm, dm) if basis else (d * dm, d * dm)
    table, correctness = np.zeros(shape, float if add is _add_diagonals else complex), 0.0
    for keys in _runs(p, shared, head):
        block, dims, keep = _stage(p, head, keys, shared, wires)
        run, keep = [len(keys), *dims], [w + 1 for w in keep]
        add(table, p.key_probs[keys.start:keys.stop], kept_factor(
            block.reshape(-1, d), run, keep) if basis else kept_factor(
            block.reshape(-1), run + [d], [len(run)] + keep))
        block, dims, outputs = _receiver_stage(p, block, dims, keys, wires)
        bound = _correctness_bound(block.reshape(len(keys), -1, d), dims, outputs, basis)
        correctness = max(correctness, float(np.max(bound)))
    table = table if basis else table.reshape(d, dm, d, dm).transpose(0, 2, 1, 3)
    table.flags.writeable = False
    return table, correctness


#: the last verification pass, as [protocol, pass result]
_last_pass: list = []


def _verified(p: ChannelProtocol) -> tuple[np.ndarray, float]:
    """:func:`_verification_pass` through a one-slot memo keyed by the
    protocol object.  The slot is emptied before a new pass runs, so two
    passes' arrays are never held at once."""
    if _last_pass and _last_pass[0] is p:
        return _last_pass[1]
    _last_pass.clear()
    result = _verification_pass(p)
    _last_pass.extend((p, result))
    return result


def encode(p: ChannelProtocol, input_ket: Ket) -> DensityOp:
    """Message state seen on the wire, averaged over the key distribution."""
    shared = _shared_prefix(p.alice_ops)
    head = _sender_head(p, input_ket.amplitudes[:, None], shared)
    total = np.zeros((2 ** p.message_qubits,) * 2, dtype=complex)
    for keys in _runs(p, shared, head):
        block, dims, keep = _stage(p, head, keys, shared)
        _add_keys(total, p.key_probs[keys.start:keys.stop],
                  kept_factor(block.reshape(-1), [len(keys), *dims], [w + 1 for w in keep]))
    return DensityOp(SystemLayout.qubits(p.message_qubits), total)


def decode_per_key(p: ChannelProtocol, input_ket: Ket, key_index: int) -> DensityOp:
    key = range(key_index, key_index + 1)
    block, dims, _ = _stage(p, _sender_head(p, input_ket.amplitudes[:, None]), key)
    block, dims, outputs = _receiver_stage(p, block, dims, key)
    reduced = reduced_from_vector(block[0], dims, outputs)[0]
    return DensityOp(SystemLayout.qubits(len(p.output_subsystems)), reduced)


# ---------------------------------------------------------------------------
# the channel as a linear map (for cross-term and factorization checks)


def channel_on_units(p: ChannelProtocol) -> np.ndarray:
    """Table E(|a><b|) over all matrix units of the input space (read-only)."""
    if p.input_kind != INPUT_QUANTUM:
        raise ValueError(f"{p.name} declares classical input; its table of every input "
                         "is that of dataclasses.replace(p, input_kind=\"quantum\")")
    return _verified(p)[0]


def factorization_certificate(units: np.ndarray) -> float:
    """½‖Tr_out |C|‖_∞ for C = Σ_ab |a><b| ⊗ (E(|a><b|) − δ_ab E(|0><0|)), the
    Choi matrix of E minus the replacement channel X ↦ Tr(X) E(|0><0|).

    It bounds their diamond distance from above (Watrous, *The Theory of
    Quantum Information*, ch. 3), so it bounds the trace distance between
    (I ⊗ E) sigma and (Tr_input sigma) ⊗ E(|0><0|) for every bipartite sigma.
    A trace distance is at most 1, and so is the value returned.  A C with no
    nonzero entry, found reading the table in place one input row at a time,
    gives exactly 0.0 with no eigensolve; a C of rounding noise is still eigensolved.
    """
    d, dm = units.shape[0], units.shape[-1]
    ref = units[0, 0]
    if not any(units[a, :a].any() or units[a, a + 1:].any() or (units[a, a] != ref).any()
               for a in range(d)):
        return 0.0
    choi = units.transpose(0, 2, 1, 3).reshape(d * dm, d * dm) - np.kron(np.eye(d), ref)
    w, v = np.linalg.eigh(choi)
    # Tr_out |C| = Σ_i |w_i| Tr_out(v_i v_i†), without forming |C|
    half = (v * np.sqrt(np.abs(w))).reshape(d, -1)
    return min(1.0, 0.5 * float(np.linalg.eigvalsh(half @ half.conj().T)[-1]))


def factorization_deviation(p: ChannelProtocol, samples: int = 20, seed: int = 0,
                            units: np.ndarray | None = None) -> float:
    """How far (I ⊗ E) sigma strays from (Tr_input sigma) ⊗ rho_ref on random
    bipartite inputs; a sampled lower estimate of factorization_certificate."""
    if units is None:
        units = channel_on_units(p)
    d_in, dm = units.shape[0], units.shape[-1]
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        sigma = qmath.random_density_matrix(d_in * d_in, rng).reshape(d_in, d_in, d_in, d_in)
        mapped = np.einsum("caeb,abxy->cxey", sigma, units, optimize=True)
        reduced = np.einsum("caea->ce", sigma)
        worst = max(worst, trace_distance(mapped.reshape(d_in * dm, d_in * dm),
                                          np.kron(reduced, units[0, 0])))
    return worst


# ---------------------------------------------------------------------------
# verification


def _largest_distance(stack: np.ndarray) -> float:
    """``float(trace_distance(stack, stack[0]).max())``, bit for bit: a pair is
    eigensolved, up to 8 at a time and largest bound first, only while its
    bound, ½√d‖X‖_F of its d × d difference X (in 1 MiB slices, widened by a
    relative 1e-6 for rounding), exceeds the largest distance found."""
    flat = stack.reshape(len(stack), -1)
    bound, step = np.empty(len(flat)), max(1, (1 << 20) // flat[0].nbytes)
    for i in range(0, len(flat), step):
        diff = (flat[i:i + step] - flat[0]).view(float)
        bound[i:i + step] = np.einsum("ij,ij->i", diff, diff)
    bound = 0.5 * math.sqrt(stack.shape[-1]) * (1 + 1e-6) * np.sqrt(bound)
    order, best = np.argsort(-bound, kind="stable"), 0.0
    while len(order) and bound[order[0]] > best:
        group, order = order[:8][bound[order[:8]] > best], order[8:]
        best = max(best, float(trace_distance(stack[group], stack[0]).max()))
    return best


def security_deviations(p: ChannelProtocol) -> dict[str, float]:
    """All components of the security check, keyed by name, read off the
    channel table of the protocol's own inputs (see :func:`_verified`).

    Over the basis, ``state`` is the largest trace distance from a basis input's
    wire state to |0...0>'s (:func:`_largest_distance`).  Over every input,
    ``cross_term`` is the largest |entry| of E(|a><b|) over a < b, and
    ``factorization`` bounds that distance for every input, reference-entangled ones included.
    A classical message's wire state is diagonal by construction: the engine copies each of
    its wires into the environment (:func:`_stage`).  So its basis table holds the diagonals,
    and ``state`` is half their L1 distance, summed sorted: the eigensolve's, bit for bit."""
    table = _verified(p)[0]
    if table.ndim == 2:  # a classical message's basis table, [a, x]
        return {"state": 0.5 * float(np.abs(np.sort(table - table[0])).sum(axis=-1).max())}
    if table.ndim == 3:  # a quantum message's basis table, [a, x, y]
        return {"state": _largest_distance(table)}
    return {"cross_term": max_abs(table[np.triu_indices(len(table), 1)]),
            "factorization": factorization_certificate(table)}


def verify_security(p: ChannelProtocol) -> float:
    """Worst deviation of the wire state from input independence."""
    return max(security_deviations(p).values())


def verify_correctness(p: ChannelProtocol) -> float:
    """A bound on every key's trace distance from the identity channel, over
    the basis inputs or over every input (:func:`_correctness_bound`)."""
    return _verified(p)[1]


def resource_report(p: ChannelProtocol) -> ResourceReport:
    """Communication entropy of the reference message, read off the channel
    table of the pass over the protocol's own input kind (a classical
    message's diagonal, over the basis the table's row 0 itself, clipped at
    0 and normalised), plus key/entanglement entropies of the shared resource."""
    table = _verified(p)[0]
    ref = table[0] if p.input_kind == INPUT_CLASSICAL else table[0, 0]
    if p.message_kind == INPUT_CLASSICAL:
        probs = np.clip(ref if ref.ndim == 1 else np.real(np.diag(ref)), 0.0, None)
        comm = _entropy_of_probs(probs / probs.sum())
    else:
        comm = _entropy_of_probs(np.linalg.eigvalsh(ref))
    key_entropy = None
    if p.resource.keyed:
        key_entropy = shannon_entropy(p.resource.key_source)
    entanglement = None
    if p.resource.psi_ab is not None:
        entanglement = entanglement_measure(
            p.resource.psi_ab, range(p.resource.alice_subsystems))
    return ResourceReport(comm, key_entropy, entanglement)


# ---------------------------------------------------------------------------
# builders


def require_load(context: str, keys: int, qubits: int, scale: float = 1):
    """The one admission rule: simulating ``keys`` keys on a ``qubits``-wire
    register is a load of keys x 2^qubits, which must stay within
    DESK_SCALE_LIMIT^scale; a register needs at least one wire."""
    if qubits < 1:
        raise ValueError(f"{context}: size must be >= 1")
    # keys x 2^qubits > limit, without building 2^qubits for a huge register
    if keys > int(DESK_SCALE_LIMIT ** scale) >> qubits:
        limit = f"{DESK_SCALE_LIMIT}^{scale:g}" if scale != 1 else f"{DESK_SCALE_LIMIT}"
        raise ValueError(f"{context}: load 2^{math.log2(keys) + qubits:g} exceeds {limit}")


def require_desk_scale(p: ChannelProtocol):
    """Reject protocols whose load on the engine register is beyond desk scale;
    for quantum input, also the eigensolve of its Choi matrix, of side
    N = d x message dimension (d = 2^input); for classical input, its d basis
    wire states of dm^2 amplitudes (dm the message dimension), and d^3, which
    caps d, the basis pass's column count, at 64: the engine load counts one
    column per key, so it does not bound d."""
    require_load(p.name, p.key_count, p.engine_qubits)
    n, m = p.input_qubits, p.message_qubits
    if p.input_kind == INPUT_QUANTUM:
        require_load(f"{p.name} channel table", 1, 3 * (n + m), scale=2)
    else:
        require_load(f"{p.name} basis wire states", 1, n + 2 * m, scale=1.5)
        require_load(f"{p.name} basis outputs", 1, 3 * n, scale=1.5)


def require_lift_scale(p: ChannelProtocol):
    """Reject quantum-input protocols whose audit lifts are beyond desk scale:
    each carries 2n classical bits on 3n more wires than ``p``, on its 2^(2n)
    basis inputs, keys x 2^(engine register + 5n) amplitudes, which must stay
    within DESK_SCALE_LIMIT^2.  That load counts the 2n input wires, which
    the basis pass folds out before the shared prefix (:func:`_foldable`)."""
    require_load(f"{p.name} audit lift", p.key_count,
                 p.engine_qubits + 5 * p.input_qubits, scale=2)


def epr_block(n: int) -> Ket:
    """n EPR pairs grouped side by side: sum_x |x>|x> / 2^(n/2) on [A | B]."""
    d = 2 ** n
    return Ket(SystemLayout.qubits(2 * n), np.eye(d, dtype=complex).reshape(-1) / math.sqrt(d))


def _pauli_key_table(n: int, alphabet: str) -> tuple[list[str], list[GateList]]:
    """Every key over ``alphabet`` (indices into PAULI), one gate per wire."""
    keys = ["".join(t) for t in itertools.product(alphabet, repeat=n)]
    pairs = [{c: (PAULI[int(c)], (i,)) for c in alphabet} for i in range(n)]
    return keys, [GateList(n, [pair[c] for pair, c in zip(pairs, k)]) for k in keys]


def _pad(name: str, kind: str, n: int, alphabet: str) -> ChannelProtocol:
    """A pad on n wires of ``kind``: a uniform key over ``alphabet``, whose
    Pauli string the sender applies and the receiver undoes."""
    n = _integer(n, "n")
    # 2^n keys on 2n wires or 4^n on n: stated as one key on 3n, unbuilt
    require_load(name, 1, 3 * n)
    keys, ops = _pauli_key_table(n, alphabet)
    wires = tuple(range(n))
    return ChannelProtocol(
        name=name, input_kind=kind, input_qubits=n, message_kind=kind,
        resource=SharedResource(ProbabilityDist.uniform(keys)),
        alice_ops=tuple(ops), bob_ops=tuple(ops),
        message_subsystems=wires, output_subsystems=wires)


def build_classical_otp(n: int) -> ChannelProtocol:
    """Bitwise XOR pad: n classical bits under a uniform n-bit key."""
    return _pad("classical-otp", INPUT_CLASSICAL, n, "01")


def build_quantum_otp(n: int) -> ChannelProtocol:
    """Uniform Pauli twirl on n qubits: key alphabet {0,1,2,3}^n, per-key
    conjugation by the matching Pauli string."""
    return _pad("quantum-otp", INPUT_QUANTUM, n, "0123")


def build_superdense(n_bits: int) -> ChannelProtocol:
    """Dense coding: n_bits classical bits through n_bits/2 message qubits and
    n_bits/2 EPR pairs; the wire state is maximally mixed for every input."""
    n_bits = _integer(n_bits, "n_bits")
    if n_bits < 2 or n_bits % 2:
        raise ValueError("n_bits must be even and >= 2")
    require_load("superdense", 1, 2 * n_bits)
    m = n_bits // 2
    alice_gates = [(PAULI_BY_PAIR, (2 * i, 2 * i + 1, n_bits + i)) for i in range(m)]
    bob_gates = []
    for i in range(m):
        bob_gates += [(CNOT, (i, m + i)), (HADAMARD, (i,)), (CNOT, (i, m + i))]
    out = tuple(x for i in range(m) for x in (i, m + i))
    return ChannelProtocol(
        name="superdense", input_kind=INPUT_CLASSICAL, input_qubits=n_bits,
        message_kind=INPUT_QUANTUM,
        resource=SharedResource(psi_ab=epr_block(m), alice_subsystems=m),
        alice_ops=(alice_gates,), bob_ops=(bob_gates,),
        message_subsystems=tuple(n_bits + i for i in range(m)),
        output_subsystems=out)


def build_teleportation(n: int) -> ChannelProtocol:
    """Teleport n qubits: Bell readout on (input_i, A_i) produces 2n uniformly
    distributed classical bits; the receiver applies the matching Pauli."""
    n = _integer(n, "n")
    require_load("teleportation", 1, 5 * n)
    alice_gates, bob_gates = [], []
    for i in range(n):
        alice_gates += [(CNOT, (i, n + i)), (HADAMARD, (i,))]
        bob_gates += [(CNOT, (n + i, 2 * n + i)), (CZ, (i, 2 * n + i))]
    return ChannelProtocol(
        name="teleportation", input_kind=INPUT_QUANTUM, input_qubits=n,
        message_kind=INPUT_CLASSICAL,
        resource=SharedResource(psi_ab=epr_block(n), alice_subsystems=n),
        alice_ops=(alice_gates,), bob_ops=(bob_gates,),
        message_subsystems=tuple(range(2 * n)),
        output_subsystems=tuple(2 * n + i for i in range(n)))


def build_epr_keyed_otp(n: int) -> ChannelProtocol:
    """Classical pad whose key is drawn from EPR halves, realized unitarily:
    CNOTs from the sender's halves into the message register, undone by the
    receiver from the matching halves."""
    n = _integer(n, "n")
    require_load("epr-otp", 1, 4 * n)
    pad = [(CNOT, (n + i, i)) for i in range(n)]
    wires = tuple(range(n))
    return ChannelProtocol(
        name="epr-otp", input_kind=INPUT_CLASSICAL, input_qubits=n,
        message_kind=INPUT_CLASSICAL,
        resource=SharedResource(psi_ab=epr_block(n), alice_subsystems=n),
        alice_ops=(pad,), bob_ops=(pad,),
        message_subsystems=wires, output_subsystems=wires)


def build_identity_protocol(n: int = 1) -> ChannelProtocol:
    """Negative fixture: send the input in the clear (correct, insecure)."""
    n = _integer(n, "n")
    require_load("identity-leaky", 1, 2 * n)
    wires = tuple(range(n))
    return ChannelProtocol(
        name="identity-leaky", input_kind=INPUT_CLASSICAL, input_qubits=n,
        message_kind=INPUT_CLASSICAL, resource=SharedResource(),
        alice_ops=((),), bob_ops=((),),
        message_subsystems=wires, output_subsystems=wires)


def build_broken_otp(n: int = 1) -> ChannelProtocol:
    """Negative fixture: pad truncated to the keys {00, 01} (identity, bit flip)."""
    if _integer(n, "n") != 1:
        raise ValueError("the truncated-key fixture is defined for n = 1")
    ops = tuple(_pauli_key_table(1, "01")[1])
    return ChannelProtocol(
        name="broken-otp", input_kind=INPUT_QUANTUM, input_qubits=1,
        message_kind=INPUT_QUANTUM,
        resource=SharedResource(ProbabilityDist.uniform(["00", "01"])),
        alice_ops=ops, bob_ops=ops,
        message_subsystems=(0,), output_subsystems=(0,))


def build_broken_teleportation(n: int = 1) -> ChannelProtocol:
    """Negative fixture: teleportation whose receiver skips the Pauli correction."""
    require_load("broken-teleportation", 1, 5 * _integer(n, "n"))
    return replace(build_teleportation(n), name="broken-teleportation", bob_ops=((),))


PROTOCOL_BUILDERS = {
    "classical-otp": build_classical_otp,
    "quantum-otp": build_quantum_otp,
    "superdense": build_superdense,
    "teleportation": build_teleportation,
    "epr-otp": build_epr_keyed_otp,
    "identity-leaky": build_identity_protocol,
    "broken-otp": build_broken_otp,
    "broken-teleportation": build_broken_teleportation,
}


def build_named(name: str, n: int) -> ChannelProtocol:
    if name not in PROTOCOL_BUILDERS:
        raise KeyError(f"unknown protocol {name!r}; known: {sorted(PROTOCOL_BUILDERS)}")
    return PROTOCOL_BUILDERS[name](n)


# ---------------------------------------------------------------------------
# serialization


def protocol_to_dict(p: ChannelProtocol) -> dict:
    """The schema-2 descriptor of a protocol.  Its gate table lists each
    distinct gate object once, in first-use order over ``alice_ops`` then
    ``bob_ops``, whose keys each hold their operator's gates as
    [table index, wires]; keys that share one operator object share its list."""
    table: dict[UnitaryOp, int] = {}  # each gate's first-use index
    refs = {op: [[table.setdefault(g, len(table)), list(targets)] for g, targets in op.gates]
            for op in dict.fromkeys(p.alice_ops + p.bob_ops)}

    res = p.resource
    resource = {"kind": res.kind}
    if res.keyed:
        resource.update(key_outcomes=list(res.key_source.outcomes),
                        key_probs=res.key_source.probs.tolist())
    if res.psi_ab is not None:
        resource.update(state_dims=list(res.psi_ab.layout.dims),
                        state_amplitudes=matrix_to_json(res.psi_ab.amplitudes),
                        alice_subsystems=res.alice_subsystems)
    data = {
        "format": "pqclab-protocol", "schema": 2, "name": p.name, "input_kind": p.input_kind,
        "input_qubits": p.input_qubits, "message_kind": p.message_kind,
        "alice_ancillas": p.alice_ancillas, "bob_ancillas": p.bob_ancillas,
        "resource": resource, "message_subsystems": list(p.message_subsystems),
        "output_subsystems": list(p.output_subsystems),
        "alice_ops": [refs[op] for op in p.alice_ops],
        "bob_ops": [refs[op] for op in p.bob_ops]}
    data["gates"] = [matrix_to_json(g.matrix) for g in table]
    return data


def _descriptor_text(p: ChannelProtocol) -> str:
    """The canonical descriptor text, whose sha256 is :func:`protocol_digest`."""
    return json.dumps(protocol_to_dict(p), sort_keys=True, separators=(",", ":"))


def _schema_1_as_2(data: dict) -> dict:
    """A schema-1 descriptor, each key's operators dense matrices, as schema
    2: each matrix its own gate on every wire it has."""
    alice, gates = data["alice_ops"], [*data["alice_ops"], *data["bob_ops"]]
    ops = [[[i, list(range(len(m).bit_length() - 1))]] for i, m in enumerate(gates)]
    return {**data, "gates": gates, "alice_ops": ops[:len(alice)], "bob_ops": ops[len(alice):]}


def protocol_from_dict(data: dict) -> ChannelProtocol:
    """The protocol a descriptor holds, of schema 2, or of schema 1 read
    through :func:`_schema_1_as_2`; no register count is ever raised to a
    power, so admission can refuse any count the file states."""
    if not isinstance(data, dict) or data.get("format") != "pqclab-protocol":
        raise ValueError("not a protocol descriptor")
    schema = data.get("schema")
    if schema is None or _integer(schema, "schema") not in (1, 2):
        raise ValueError(f"unknown descriptor schema {schema!r}")
    if schema == 1:
        data = _schema_1_as_2(data)
    res = data["resource"]
    dist = psi = None
    if "key_outcomes" in res:
        if not isinstance(res["key_outcomes"], list):
            raise ValueError("key_outcomes must be an array of strings")
        dist = ProbabilityDist(tuple(res["key_outcomes"]),
                               np.asarray(_numbers(res["key_probs"], "key_probs")))
    if "state_amplitudes" in res:
        layout = SystemLayout(tuple(_integer(d, "state_dims") for d in res["state_dims"]))
        psi = Ket(layout, matrix_from_json(_numbers(res["state_amplitudes"],
                                                    "state_amplitudes")))
    resource = SharedResource(dist, psi, 0 if psi is None else res["alice_subsystems"])
    if res["kind"] != resource.kind:
        raise ValueError(f"resource kind {res['kind']!r} does not match its payloads")
    table = [UnitaryOp(matrix_from_json(_numbers(m, "gates"))) for m in data["gates"]]

    def gate(index) -> UnitaryOp:  # for an index that is no plain int in range
        if not 0 <= _integer(index, "gate index") < len(table):
            raise ValueError(f"gate index {index} outside the table of {len(table)}")
        return table[index]

    def ops(side: str) -> tuple:
        return tuple(((table[i] if type(i) is int and 0 <= i < len(table) else gate(i), wires)
                      for i, wires in op) for op in data[side])

    p = ChannelProtocol(
        name=data["name"], input_kind=data["input_kind"], input_qubits=data["input_qubits"],
        message_kind=data["message_kind"], resource=resource,
        alice_ancillas=data["alice_ancillas"], bob_ancillas=data["bob_ancillas"],
        alice_ops=ops("alice_ops"), bob_ops=ops("bob_ops"),
        message_subsystems=tuple(data["message_subsystems"]),
        output_subsystems=tuple(data["output_subsystems"]))
    if schema == 1 and any(len(op.gates[0][1]) != op.qubits for op in p.alice_ops + p.bob_ops):
        raise ValueError("operation dimension does not match its register")
    return p


def save_protocol(p: ChannelProtocol, path: str):
    """Write the canonical descriptor text, whose sha256 is :func:`protocol_digest`."""
    text = _descriptor_text(p)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_protocol(path: str) -> ChannelProtocol:
    """Read a descriptor file, refusing before it is parsed one above
    DESCRIPTOR_BYTE_LIMIT bytes or with more arrays than one per 8 bytes of
    it (each a list of ~100 bytes once parsed), and one nested too deeply."""
    # O_NONBLOCK: a pipe without a writer opens, and reads as empty
    with open(path, "rb", opener=lambda p, flags: os.open(p, flags | os.O_NONBLOCK)) as fh:
        os.set_blocking(fh.fileno(), True)
        size = os.fstat(fh.fileno()).st_size  # 0 for a device or a pipe
        text = b"" if size > DESCRIPTOR_BYTE_LIMIT else fh.read(DESCRIPTOR_BYTE_LIMIT + 1)
    size = max(size, len(text))
    if size > DESCRIPTOR_BYTE_LIMIT:
        raise ValueError(f"{size} bytes exceeds the descriptor limit of "
                         f"{DESCRIPTOR_BYTE_LIMIT} bytes")
    text = text.decode("utf-8")
    if text.count("[") > DESCRIPTOR_BYTE_LIMIT // 8:
        raise ValueError(f"{text.count('[')} arrays exceed the descriptor limit of "
                         f"{DESCRIPTOR_BYTE_LIMIT // 8}")
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("descriptor nests too deeply") from None
    del text
    return protocol_from_dict(data)


def protocol_digest(p: ChannelProtocol) -> str:
    """Stable sha256 of the canonical descriptor text."""
    return hashlib.sha256(_descriptor_text(p).encode()).hexdigest()
