"""Reference helpers that only the tests use: gates on kets and on the full
product space, a gate list's dense matrix and its checks as first written,
ray comparison, the probe inputs
of the per-probe reference, Haar-random kets and unitaries and random
density matrices one draw at a time,
per-probe views of a protocol's sender stage, channel table and key-averaged
output, the resource report's communication entropy through validated
states, the verification pass over either kind of input, its key average
and correctness bound one key at a time, the correctness bound of a stack
with every block normed, the runs of keys the engine's
sender stages take, the EPR-keyed quantum pad and its leaking twin, and the
RSP negative fixture and message probabilities."""

import dataclasses
import math
from typing import Callable, Sequence
from unittest import mock

import numpy as np

from pqclab import protocols

from pqclab.entropy import ProbabilityDist, shannon_entropy, von_neumann
from pqclab.protocols import (
    CNOT,
    CZ,
    INPUT_CLASSICAL,
    INPUT_QUANTUM,
    ChannelProtocol,
    GateList,
    SharedResource,
    _correctness_bound,
    _receiver_stage,
    _sender_head,
    _shared_prefix,
    _stage,
    _verified,
    channel_on_units,
    decode_per_key,
    encode,
    epr_block,
)
from pqclab.qmath import (
    DensityOp,
    Ket,
    SystemLayout,
    UnitaryOp,
    _integer,
    apply_gate,
    as_complex,
    compose_circuit,
    reduced_from_vector,
    trace_distance,
)
from pqclab.reductions import ObliviousRsp, _receiver_blocks, teleportation_rsp


def apply_to_ket(psi: Ket, gate: np.ndarray, targets: Sequence[int]) -> Ket:
    targets = psi.layout.check_subsystems(targets)
    return Ket(psi.layout, apply_gate(psi.amplitudes, psi.layout.dims, as_complex(gate), targets))


def embed_operator(gate: np.ndarray, targets: Sequence[int], dims: Sequence[int]) -> np.ndarray:
    """Expand a gate on selected subsystems to the full product space."""
    d = int(np.prod(list(dims)))
    return apply_gate(np.eye(d, dtype=complex), dims, as_complex(gate), targets)


def dense(op: GateList) -> np.ndarray:
    """The matrix of a gate list, its gates composed one at a time."""
    return compose_circuit([2] * op.qubits, ((g.matrix, t) for g, t in op.gates))


def gate_list_pairs(qubits, gates) -> tuple[int, tuple]:
    """The register size and the normalised (UnitaryOp, wires) pairs of a
    :class:`GateList`, or its ValueError: its checks as first written, every
    gate normalised before any is fitted to the register."""
    qubits = _integer(qubits, "qubits")
    gates = tuple((g if isinstance(g, UnitaryOp) else UnitaryOp(g),
                   tuple(_integer(t, "gate targets") for t in targets))
                  for g, targets in gates)
    for g, targets in gates:
        if (g.dim != 2 ** len(targets) or len(set(targets)) != len(targets)
                or any(not 0 <= t < qubits for t in targets)):
            raise ValueError(f"gate of dimension {g.dim} does not fit wires {targets} "
                             f"of a {qubits}-qubit register")
    return qubits, gates


def ray_deviation(a: Ket, b: Ket) -> float:
    """Trace distance between the induced projectors (0 iff equal up to phase).

    Computed from the projector difference, not from 1 - |<a|b>|^2, which
    would square away half the floating-point precision.
    """
    pa = np.outer(a.amplitudes, a.amplitudes.conj())
    pb = np.outer(b.amplitudes, b.amplitudes.conj())
    return trace_distance(pa, pb)


def alice_stage(p: ChannelProtocol, input_ket: Ket, key_index: int = 0) -> Ket:
    """Joint state right after the sender's operation (message not yet split off)."""
    key = range(key_index, key_index + 1)
    block, dims, _ = _stage(p, _sender_head(p, input_ket.amplitudes[:, None]), key)
    return Ket(SystemLayout(tuple(dims)), block[0, :, 0])


def _diagonal_distribution(p: ChannelProtocol, rho: np.ndarray) -> ProbabilityDist:
    """The classical message's distribution on the diagonal of its wire
    state ``rho``, or on ``rho`` itself if it is that diagonal (1-D)."""
    probs = np.clip(rho if rho.ndim == 1 else np.real(np.diag(rho)), 0.0, None)
    probs = probs / probs.sum()
    m = p.message_qubits
    outcomes = tuple(format(i, f"0{m}b") for i in range(2 ** m))
    return ProbabilityDist(outcomes, probs)


def message_distribution(p: ChannelProtocol, input_ket: Ket) -> ProbabilityDist:
    """Distribution of a classical message, read off the diagonal."""
    if p.message_kind != INPUT_CLASSICAL:
        raise ValueError("message is not classical")
    return _diagonal_distribution(p, encode(p, input_ket).matrix)


def validated_comm(p: ChannelProtocol) -> float:
    """``resource_report``'s communication entropy through validated states:
    the reference message's wire state, off the same channel table, as a
    :class:`DensityOp` for a quantum message or through
    :func:`_diagonal_distribution` for a classical one (whose basis table
    holds only the diagonals)."""
    table = _verified(p)[0]
    ref = table[0] if p.input_kind == INPUT_CLASSICAL else table[0, 0]
    if p.message_kind == INPUT_CLASSICAL:
        return shannon_entropy(_diagonal_distribution(p, ref))
    return von_neumann(DensityOp(SystemLayout.qubits(p.message_qubits), ref))


def decode(p: ChannelProtocol, input_ket: Ket) -> DensityOp:
    """Receiver output averaged over keys (correctness checks stay per key)."""
    acc = sum(prob * decode_per_key(p, input_ket, k).matrix
              for k, prob in enumerate(p.key_probs))
    return DensityOp(SystemLayout.qubits(len(p.output_subsystems)), acc)


def encode_cross_term(p: ChannelProtocol, i: int, j: int) -> np.ndarray:
    """E(|i><j|) for basis states i != j."""
    if i == j:
        raise ValueError("cross terms need two distinct basis states")
    return channel_on_units(p)[i, j]


def probe_columns(n: int, input_kind: str = INPUT_QUANTUM, random_probes: int = 0,
                  seed: int = 0) -> np.ndarray:
    """The reference's probe inputs on n qubits, as columns.

    For classical input, every computational-basis state.  For quantum input,
    those, then for each basis pair (i, j) the probes (|i> + |j>)/sqrt(2) and
    (|i> + i|j>)/sqrt(2), enough to pin the channel on every matrix unit,
    then ``random_probes`` Haar-random states drawn from ``seed``.
    """
    d = 2 ** n
    det = np.eye(d, dtype=complex)
    if input_kind == INPUT_CLASSICAL:
        if random_probes:
            raise ValueError("classical input is probed on the basis only")
        return det
    i, j = np.triu_indices(d, 1)
    # per pair, the phase-1 probe then the phase-i probe
    pairs = np.stack([det[:, i] + det[:, j], det[:, i] + 1j * det[:, j]], axis=2)
    # per probe d real parts, then d imaginary parts, as haar_ket draws them
    v = np.random.default_rng(seed).standard_normal((random_probes, 2, d))
    haar = (v[:, 0] + 1j * v[:, 1]).T
    return np.hstack([det, pairs.reshape(d, -1) / math.sqrt(2),
                      haar / np.linalg.norm(haar, axis=0)])


def probes(n: int, input_kind: str = INPUT_QUANTUM, random_probes: int = 0,
           seed: int = 0) -> list[Ket]:
    """:func:`probe_columns` as kets."""
    layout = SystemLayout.qubits(n)
    return [Ket(layout, c) for c in probe_columns(n, input_kind, random_probes, seed).T]


def canonical_probes(p: ChannelProtocol, random_probes: int = 0, seed: int = 0) -> list[Ket]:
    """:func:`probes` for the inputs of ``p``'s own kind; a classical-input
    protocol gets the basis, whatever ``random_probes`` says."""
    if p.input_kind == INPUT_CLASSICAL:
        random_probes = 0
    return probes(p.input_qubits, p.input_kind, random_probes, seed)


# ---------------------------------------------------------------------------
# random states and unitaries, one draw per call


def haar_ket(layout: SystemLayout, rng: np.random.Generator) -> Ket:
    """Haar-random pure state: normalized iid standard complex Gaussians."""
    v = rng.standard_normal(layout.dim) + 1j * rng.standard_normal(layout.dim)
    return Ket(layout, v / np.linalg.norm(v))


def haar_unitary(dim: int, rng: np.random.Generator) -> UnitaryOp:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return UnitaryOp(q * (np.diag(r) / np.abs(np.diag(r))))


def per_sample_density_matrix(dim: int, rng: np.random.Generator,
                              rank: int | None = None) -> np.ndarray:
    """One random mixed-state matrix, the reference for random_density_matrix
    and its stacked draw: the partial trace of a Haar pure state on a doubled
    system, its real then its imaginary parts drawn by two calls."""
    r = dim if rank is None else int(rank)
    if not 1 <= r <= dim:
        raise ValueError(f"rank must be in [1, {dim}]")
    v = rng.standard_normal(dim * r) + 1j * rng.standard_normal(dim * r)
    m = (v / np.linalg.norm(v)).reshape(dim, r)
    return m @ m.conj().T


# ---------------------------------------------------------------------------
# the key average, one reduced state per key


def per_key_encode(p: ChannelProtocol, input_ket: Ket) -> DensityOp:
    """``encode`` as a sum over keys: each key's whole sender stage, its
    wire state from ``reduced_from_vector``, weighted and added on."""
    head = _sender_head(p, input_ket.amplitudes[:, None])
    acc = 0.0
    for k, prob in enumerate(p.key_probs):
        block, dims, keep = _stage(p, head, range(k, k + 1))
        acc = acc + prob * reduced_from_vector(block[0], dims, keep)[0]
    return DensityOp(SystemLayout.qubits(p.message_qubits), acc)


def per_key_bound(block: np.ndarray, dims: list[int], outputs: list[int],
                  basis: bool) -> float:
    """``_correctness_bound`` of one key's receiver block, over every input
    with one operator norm per key: min(1, ‖W − I ⊗ j‖_op), j the normalized
    Σ_a (<a| ⊗ I) W|a>, 1.0 if that is 0.  Over the basis, the engine's own."""
    if basis:
        return _correctness_bound(block, dims, outputs, True)
    d = block.shape[1]
    rest = [i for i in range(len(dims)) if i not in outputs]
    w = block.reshape(dims + [d]).transpose(outputs + rest + [len(dims)]).reshape(d, -1, d)
    j = np.einsum("ara->r", w)
    if not j.any():
        return 1.0
    w = w - np.einsum("xa,r->xra", np.eye(d), j / np.linalg.norm(j))
    return min(1.0, float(np.linalg.norm(w.reshape(-1, d), 2)))


def unmasked_bound(block: np.ndarray, dims: list[int], outputs: list[int]) -> np.ndarray:
    """``_correctness_bound`` over every input of a stack of receiver blocks,
    with one batched operator norm over every block of the stack, exactly
    zero residuals W − I ⊗ j included."""
    d, shape = block.shape[-1], block.shape[:-2]
    rest = [i for i in range(len(dims)) if i not in outputs]
    axes = list(range(len(shape))) + [len(shape) + i for i in outputs + rest + [len(dims)]]
    w = block.reshape(shape + (*dims, d)).transpose(axes).reshape(shape + (d, -1, d))
    j = np.einsum("...ara->...r", w)
    live = j.any(axis=-1)
    re, im = j.real[..., None, :], j.imag[..., None, :]
    norm = np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0]
    w = w - np.einsum("xa,...r->...xra", np.eye(d), j / np.where(live[..., None], norm, 1.0))
    bound = np.minimum(1.0, np.linalg.norm(w.reshape(shape + (-1, d)), 2, axis=(-2, -1)))
    return np.where(live, bound, 1.0)


def verification_pass(p: ChannelProtocol, basis: bool) -> tuple[np.ndarray, float]:
    """The verification pass over the basis inputs (``basis``) or over every
    input: that of ``p`` if it declares those inputs, else that of its twin
    ``dataclasses.replace(p, input_kind=...)``, which shares its gates."""
    kind = INPUT_CLASSICAL if basis else INPUT_QUANTUM
    if p.input_kind != kind:
        p = dataclasses.replace(p, input_kind=kind)
    return protocols._verification_pass(p)


def per_key_pass(p: ChannelProtocol, basis: bool,
                 full: bool = False) -> tuple[np.ndarray, float]:
    """The channel table and correctness bound of the verification pass,
    with each key's reduced state from ``reduced_from_vector`` weighted and
    added to the table one key at a time, each key its own run of one, never
    stacked with other keys, and every wire kept in the block's rows: no wire
    is folded into its columns.  A classical message's basis table is then,
    in the pass's layout, its diagonals [a, x] (complex, so their imaginary
    parts are compared too), or with ``full`` every dm x dm sum [a, x, y]."""
    d, dm = 2 ** p.input_qubits, 2 ** p.message_qubits
    shared = _shared_prefix(p.alice_ops)
    head = _sender_head(p, np.eye(d, dtype=complex), shared)
    acc, correctness = 0.0, 0.0
    for k, prob in enumerate(p.key_probs):
        key = range(k, k + 1)
        block, dims, keep = _stage(p, head, key, shared)
        block = block[0]
        columns = (block, dims, keep) if basis else (
            block.reshape(-1), dims + [d], [len(dims)] + keep)
        acc = acc + prob * reduced_from_vector(*columns)
        block, dims, outputs = _receiver_stage(p, block[None], dims, key)
        correctness = max(correctness, per_key_bound(block[0], dims, outputs, basis))
    if not basis:
        acc = acc.reshape(d, dm, d, dm).transpose(0, 2, 1, 3)
    elif p.message_kind == INPUT_CLASSICAL and not full:
        acc = np.diagonal(acc, axis1=-2, axis2=-1)
    return acc, correctness


# ---------------------------------------------------------------------------
# the engine's runs of keys


def stage_runs(run: Callable) -> tuple[object, list[range], int]:
    """What ``run()`` returns, the key runs of the sender stages it runs, in
    order, and the bytes of one key's block out of the first stage."""
    runs, sizes, stage = [], [], protocols._stage

    def spy(p, head, keys, *args):
        out = stage(p, head, keys, *args)
        runs.append(keys)
        sizes.append(out[0][0].nbytes)
        return out
    with mock.patch.object(protocols, "_stage", spy):
        result = run()
    return result, runs, sizes[0]


def run_cut(p: ChannelProtocol, keys: int, run: Callable) -> int:
    """A STACK_BYTES that cuts the runs of ``run()`` on ``p`` at ``keys``
    keys: four of a key's largest blocks, its sender block with the
    receiver's ancillas attached, per key."""
    return 4 * keys * (stage_runs(run)[2] << p.bob_ancillas)


# ---------------------------------------------------------------------------
# a quantum pad keyed by shared EPR pairs


def epr_keyed_quantum_otp(n: int, leaky: bool = False) -> ChannelProtocol:
    """The quantum one-time pad whose key bits are the sender's halves of 2n
    shared EPR pairs: input wire i gets a CNOT from sender half 2i and a CZ
    from half 2i + 1, which the receiver undoes from the matching halves of
    his own.  Its audit runs the quantum-input cell of an entangled resource
    and a quantum message.  With ``leaky``, both sides skip the CZ, so only
    bit flips pad the input and its phases reach the wire."""
    halves = range(n, 3 * n)
    alice = [(CNOT, (halves[2 * i], i)) for i in range(n)]
    bob = list(alice)
    if not leaky:
        alice += [(CZ, (halves[2 * i + 1], i)) for i in range(n)]
        bob = [(CZ, (halves[2 * i + 1], i)) for i in range(n)] + bob
    wires = tuple(range(n))
    return ChannelProtocol(
        name="epr-quantum-otp-leaky" if leaky else "epr-quantum-otp", input_kind=INPUT_QUANTUM,
        input_qubits=n, message_kind=INPUT_QUANTUM,
        resource=SharedResource(psi_ab=epr_block(2 * n), alice_subsystems=2 * n),
        alice_ops=(GateList(3 * n, alice),), bob_ops=(GateList(3 * n, bob),),
        message_subsystems=wires, output_subsystems=wires)


# ---------------------------------------------------------------------------
# oblivious remote state preparation


def rsp_message_probs(rsp: ObliviousRsp, probe: Ket) -> np.ndarray:
    """Every message's probability on ``probe``."""
    return np.sum(np.abs(_receiver_blocks(rsp) @ probe.amplitudes) ** 2, axis=1)


def non_oblivious_rsp(n: int = 1) -> ObliviousRsp:
    """Negative fixture: teleportation RSP whose receiver never corrects, so
    his final state leaks the measurement outcome's Pauli frame."""
    good = teleportation_rsp(n)
    eye = UnitaryOp(np.eye(2 ** n, dtype=complex))
    return ObliviousRsp(
        n=good.n, psi_ab=good.psi_ab, alice_subsystems=good.alice_subsystems,
        measurement=good.measurement,
        corrections=tuple(eye for _ in good.corrections),
        bob_ancillas=good.bob_ancillas, output_subsystems=good.output_subsystems)
