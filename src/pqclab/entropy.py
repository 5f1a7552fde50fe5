"""Entropy functionals and multipartite entropy-inequality checkers.

All entropies are base 2, so resources come out in bits/qubits/ebits.
Eigenvalues at or below :data:`pqclab.qmath.EIGENVALUE_CLIP` count as exact
zeros, both in entropy sums and in support tests.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .qmath import (
    EIGENVALUE_CLIP,
    DensityOp,
    Ket,
    _number_array,
    _schmidt_svd,
    reduced_matrix,
)


@dataclass(frozen=True, eq=False)
class ProbabilityDist:
    """Finite distribution over labelled outcomes."""

    outcomes: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self):
        outcomes = tuple(self.outcomes)
        if not all(isinstance(o, str) for o in outcomes):
            raise ValueError("outcome labels must be strings")
        if len(set(outcomes)) != len(outcomes):
            raise ValueError("outcome labels must be distinct")
        probs = _number_array(self.probs, float)
        if probs.ndim != 1 or probs.size != len(outcomes):
            raise ValueError("need one probability per outcome")
        if probs.min(initial=0.0) < -1e-12:
            raise ValueError("probabilities must be nonnegative")
        with np.errstate(over="ignore"):  # huge finite entries sum to inf
            total = float(probs.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total}, expected 1")
        probs = np.clip(probs, 0.0, None)
        probs.setflags(write=False)
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def uniform(cls, outcomes: Sequence[str]) -> "ProbabilityDist":
        k = len(outcomes)
        return cls(tuple(outcomes), np.full(k, 1.0) / k)  # k = 0: weights summing to 0, refused

    def __len__(self) -> int:
        return len(self.outcomes)


def _entropy_of_probs(p: np.ndarray) -> float | np.ndarray:
    """-Σ p log2 p over the last axis: a float for one spectrum, the same value
    per row for a stack.  A clipped entry counts as 1, adding an exact 0.0."""
    q = np.where(np.asarray(p, dtype=float) > EIGENVALUE_CLIP, p, 1.0)
    h = -np.add.reduce(q * np.log2(q), axis=-1)
    return float(h) if h.ndim == 0 else h


def shannon_entropy(dist: ProbabilityDist) -> float:
    """-Σ p log2 p with 0 log 0 = 0."""
    return _entropy_of_probs(dist.probs)


def von_neumann(rho: DensityOp) -> float:
    """Base-2 entropy of the eigenvalue spectrum."""
    return _entropy_of_probs(np.linalg.eigvalsh(rho.matrix))


def _relative_entropy(rho: np.ndarray, sigma: np.ndarray, rho_entropy=None) -> np.ndarray:
    """Tr rho (log2 rho - log2 sigma) of raw matrices, or of each pair of rows
    of stacks (..., d, d): +inf where rho leaves sigma's support.  Both sums
    are masked, a kernel term of the cross sum being diag · log2 1 = 0, so a
    row sums exact zeros in place of the terms it leaves out.  A caller that
    holds S(rho) passes it as ``rho_entropy`` and saves its eigensolve."""
    svals, svecs = np.linalg.eigh(sigma)
    diag = np.real(np.einsum("...ji,...jk,...ki->...i", svecs.conj(), rho, svecs))
    support = svals > EIGENVALUE_CLIP
    kernel_weight = np.sum(np.where(support, 0.0, diag), axis=-1)
    cross = np.sum(diag * np.log2(np.where(support, svals, 1.0)), axis=-1)
    if rho_entropy is None:
        rho_entropy = _entropy_of_probs(np.linalg.eigvalsh(rho))
    return np.where(kernel_weight > EIGENVALUE_CLIP, math.inf, -rho_entropy - cross)


def relative_entropy(rho: DensityOp, sigma: DensityOp) -> float:
    """Tr rho (log2 rho - log2 sigma); +inf iff rho leaves sigma's support."""
    if rho.layout.dim != sigma.layout.dim:
        raise ValueError(f"dimension mismatch: {rho.layout.dim} vs {sigma.layout.dim}")
    return float(_relative_entropy(rho.matrix, sigma.matrix))


def _set_entropy(matrix: np.ndarray, dims: Sequence[int],
                 group: Sequence[int]) -> float | np.ndarray:
    """Entropy of the reduction to ``group`` of a matrix, or of each matrix
    of a stack (k, d, d) by one batched eigensolve."""
    if not group:
        return 0.0
    reduced = matrix if len(group) == len(dims) else reduced_matrix(matrix, dims, sorted(group))
    return _entropy_of_probs(np.linalg.eigvalsh(reduced))


def entropy_of_group(rho: DensityOp, group: Sequence[int]) -> float:
    """Entropy of the reduction to ``group``; the empty group has entropy 0."""
    return _set_entropy(rho.matrix, rho.layout.dims, rho.layout.check_subsystems(group))


def _group_entropies(matrix: np.ndarray, dims: Sequence[int]):
    """``s(*groups)``: entropy of the union of the groups, computed once per set."""
    entropy = functools.cache(lambda group: _set_entropy(matrix, dims, group))
    return lambda *groups: entropy(tuple(sorted(i for g in groups for i in g)))


def _disjoint_groups(rho: DensityOp, *groups: Sequence[int]) -> list[tuple[int, ...]]:
    """The groups checked against the state's layout and for overlap."""
    checked = [rho.layout.check_subsystems(g) for g in groups]
    if len({i for g in checked for i in g}) != sum(map(len, checked)):
        raise ValueError(f"groups must be disjoint, got {checked}")
    return checked


def mutual_information(rho: DensityOp, group_a: Sequence[int],
                       group_b: Sequence[int]) -> float:
    """S(A) + S(B) - S(AB), each read from the state's own reduction."""
    a, b = _disjoint_groups(rho, group_a, group_b)
    s = _group_entropies(rho.matrix, rho.layout.dims)
    return s(a) + s(b) - s(a, b)


def entanglement_measure(psi: Ket, cut: Iterable[int]) -> float:
    """Entropy of the squared Schmidt coefficients across the cut, in ebits."""
    return _entropy_of_probs(_schmidt_svd(psi, cut)[0] ** 2)


def classicality_deviation(rho: DensityOp, group: Sequence[int]) -> float:
    """Largest matrix entry that couples different basis states of ``group``.

    Zero iff the state is block-diagonal in the computational basis of the
    designated factors, the operational meaning of "group is classical".
    """
    group = rho.layout.check_subsystems(group)
    if not group:
        return 0.0
    digits = np.unravel_index(np.arange(rho.layout.dim), rho.layout.dims)
    sub = np.ravel_multi_index([digits[g] for g in group], [rho.layout.dims[g] for g in group])
    mask = sub[:, None] != sub[None, :]
    return 0.0 if not mask.any() else float(np.max(np.abs(rho.matrix[mask])))


def is_classical_on(rho: DensityOp, group: Sequence[int]) -> bool:
    return classicality_deviation(rho, group) <= 1e-10


def _entropy_slacks(s, a, b, c, a_classical: bool) -> dict:
    """The slacks of :func:`check_entropy_inequalities`, floats or arrays."""
    other = b + c  # B, or BC when present
    slacks = {"subadditivity": s(a) + s(other) - s(a, other),
              "araki_lieb": s(a, other) - abs(s(a) - s(other))}
    if c:
        slacks["strong_subadditivity"] = s(a, b) + s(a, c) - s(a, b, c) - s(a)
        i_a_bc = s(a) + s(b, c) - s(a, b, c)
        i_a_b = s(a) + s(b) - s(a, b)
        i_ab_c = s(a, b) + s(c) - s(a, b, c)
        i_b_c = s(b) + s(c) - s(b, c)
        slacks["chain_rule"] = -abs(i_a_bc - i_a_b - i_ab_c + i_b_c)
    if a_classical:
        slacks["classical_marginal"] = s(a, other) - np.maximum(s(a), s(other))
    return slacks


def _correlation_slacks(s, a, b, x, ax_classical: bool) -> dict:
    """The slacks of :func:`check_correlation_bounds`, floats or arrays."""
    cond_mi = s(a, x) + s(b, x) - s(a, b, x) - s(x)
    cap = np.minimum(2 * s(a), 2 * s(b))
    slacks = {"cond_mutual_info_vs_marginals": cap - cond_mi,
              "mutual_info_vs_marginals": cap - (s(a) + s(b) - s(a, b))}
    if ax_classical:
        slacks["cond_mutual_info_vs_marginals_classical"] = np.minimum(s(a), s(b)) - cond_mi
    return slacks


def stack_slacks(matrices: np.ndarray, dims: Sequence[int], a: Sequence[int],
                 b: Sequence[int], c: Sequence[int]) -> dict[str, np.ndarray]:
    """Every slack of ``check_entropy_inequalities`` on groups A, B, C and of
    ``check_correlation_bounds`` on A, B given X = C, for each matrix of a
    stack (k, d, d) of states on ``dims``, which are taken as valid."""
    s = _group_entropies(matrices, dims)
    return {**_entropy_slacks(s, a, b, c, False), **_correlation_slacks(s, a, b, c, False)}


def stack_cross_check(matrices: np.ndarray) -> np.ndarray:
    """|I(A:B) − S(ρ ‖ ρ_A ⊗ ρ_B)| for each two-qubit state of a stack
    (k, 4, 4), taken as valid; the relative entropy reads the eigensolve of
    the product itself, never the additivity of its logarithm.  Each state
    and marginal is eigensolved once, S(AB) serving both terms."""
    rho_a, rho_b = (reduced_matrix(matrices, [2, 2], [i]) for i in (0, 1))
    s_a, s_b, s_ab = (_entropy_of_probs(np.linalg.eigvalsh(m)) for m in (rho_a, rho_b, matrices))
    product = rho_a[..., :, None, :, None] * rho_b[..., None, :, None, :]
    return np.abs(s_a + s_b - s_ab
                  - _relative_entropy(matrices, product.reshape(matrices.shape), s_ab))


def _slacks(rho: DensityOp, slacks, *args) -> dict[str, float]:
    """``slacks(s, *args)`` on the state ``rho``, by name.  A slack >= 0 means
    the inequality holds; an identity is two inequalities, so its slack is the
    smaller of theirs: -|residual|."""
    s = _group_entropies(rho.matrix, rho.layout.dims)
    return {name: float(v) for name, v in slacks(s, *args).items()}


def check_entropy_inequalities(rho: DensityOp, group_a: Sequence[int], group_b: Sequence[int],
                               group_c: Sequence[int] = ()) -> dict[str, float]:
    """The slack of each standard entropy inequality on groups A, B and C, by name.

    With C empty: subadditivity and Araki-Lieb on (A, B).  With groups
    A, B, C: subadditivity and Araki-Lieb on the cut A | BC, plus strong
    subadditivity and the mutual-information chain-rule identity.  The
    classical-marginal bound S(AB) >= max(S(A), S(B)) is checked when the
    state is classical on A (:func:`is_classical_on`).
    """
    a, b, c = _disjoint_groups(rho, group_a, group_b, group_c)
    return _slacks(rho, _entropy_slacks, a, b, c, is_classical_on(rho, a))


def check_correlation_bounds(rho: DensityOp, group_a: Sequence[int],
                             group_b: Sequence[int],
                             group_x: Sequence[int] = ()) -> dict[str, float]:
    """The slack of each bound of mutual information by marginal entropies, by name.

    Checks I(A:B|X) <= min(2 S(A), 2 S(B)) and I(A:B) <= min(2 S(A), 2 S(B));
    when the state is classical on A and X (:func:`is_classical_on`) also the
    tighter I(A:B|X) <= min(S(A), S(B)).  ``group_x`` may be empty, in which
    case X is the trivial system.
    """
    a, b, x = _disjoint_groups(rho, group_a, group_b, group_x)
    return _slacks(rho, _correlation_slacks, a, b, x, is_classical_on(rho, a + x))
