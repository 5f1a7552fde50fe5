"""Reference helpers that only the tests use: gates on kets and on the full
product space, ray comparison, and per-probe views of a protocol's sender
stage and channel table."""

from typing import Sequence

import numpy as np

from pqclab.entropy import ProbabilityDist
from pqclab.protocols import (
    INPUT_CLASSICAL,
    ChannelProtocol,
    _diagonal_distribution,
    _sender_head,
    _stage,
    channel_on_units,
    encode,
)
from pqclab.qmath import Ket, SystemLayout, apply_gate, as_complex, trace_distance


def apply_to_ket(psi: Ket, gate: np.ndarray, targets: Sequence[int]) -> Ket:
    targets = psi.layout.check_subsystems(targets)
    return Ket(psi.layout, apply_gate(psi.amplitudes, psi.layout.dims, as_complex(gate), targets))


def embed_operator(gate: np.ndarray, targets: Sequence[int], dims: Sequence[int]) -> np.ndarray:
    """Expand a gate on selected subsystems to the full product space."""
    d = int(np.prod(list(dims)))
    return apply_gate(np.eye(d, dtype=complex), dims, as_complex(gate), targets)


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
    block, dims, _ = _stage(p, _sender_head(p, input_ket.amplitudes[:, None]), key_index)
    return Ket(SystemLayout(tuple(dims)), block[:, 0])


def message_distribution(p: ChannelProtocol, input_ket: Ket) -> ProbabilityDist:
    """Distribution of a classical message, read off the diagonal."""
    if p.message_kind != INPUT_CLASSICAL:
        raise ValueError("message is not classical")
    return _diagonal_distribution(p, encode(p, input_ket).matrix)


def encode_cross_term(p: ChannelProtocol, i: int, j: int) -> np.ndarray:
    """E(|i><j|) for basis states i != j."""
    if i == j:
        raise ValueError("cross terms need two distinct basis states")
    return channel_on_units(p)[i, j]
