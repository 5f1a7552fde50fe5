"""Entropy functionals and multipartite entropy-inequality checkers.

All entropies are base 2, so resources come out in bits/qubits/ebits.
Eigenvalues at or below :data:`pqclab.qmath.EIGENVALUE_CLIP` count as exact
zeros, both in entropy sums and in support tests.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .qmath import (
    EIGENVALUE_CLIP,
    DensityOp,
    Ket,
    matrix_to_json,
    max_abs,
    reduced_matrix,
    schmidt_decompose,
)


@dataclass(frozen=True, eq=False)
class ProbabilityDist:
    """Finite distribution over labelled outcomes."""

    outcomes: tuple[str, ...]
    probs: np.ndarray

    def __post_init__(self):
        outcomes = tuple(str(o) for o in self.outcomes)
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1 or probs.size != len(outcomes):
            raise ValueError("need one probability per outcome")
        if not np.isfinite(probs).all():
            raise ValueError("probabilities must be finite")
        if probs.min(initial=0.0) < -1e-12:
            raise ValueError("probabilities must be nonnegative")
        if abs(float(probs.sum()) - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {probs.sum()}, expected 1")
        probs = np.clip(probs, 0.0, None)
        probs.setflags(write=False)
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "probs", probs)

    @classmethod
    def uniform(cls, outcomes: Sequence[str]) -> "ProbabilityDist":
        k = len(outcomes)
        return cls(tuple(outcomes), np.full(k, 1.0 / k))

    @classmethod
    def point(cls, outcome: str) -> "ProbabilityDist":
        return cls((outcome,), np.array([1.0]))

    def __len__(self) -> int:
        return len(self.outcomes)


@dataclass(frozen=True)
class InequalityReport:
    """One checked inequality: slack >= 0 means it holds.

    The chain-rule report is the exception: its ``slack`` field holds the
    absolute residual of an identity, expected to be ~0.
    """

    name: str
    slack: float
    witness: dict | None = None

    def to_dict(self) -> dict:
        return {"name": self.name, "slack": self.slack, "witness": self.witness}


def _entropy_of_probs(p: np.ndarray, clip: float = EIGENVALUE_CLIP) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > clip]
    return 0.0 if p.size == 0 else float(-np.sum(p * np.log2(p)))


def shannon_entropy(dist: ProbabilityDist) -> float:
    """-Σ p log2 p with 0 log 0 = 0."""
    return _entropy_of_probs(dist.probs)


def von_neumann(rho: DensityOp, clip: float = EIGENVALUE_CLIP) -> float:
    """Base-2 entropy of the eigenvalue spectrum."""
    return _entropy_of_probs(np.linalg.eigvalsh(rho.matrix), clip)


def relative_entropy(rho: DensityOp, sigma: DensityOp,
                     clip: float = EIGENVALUE_CLIP) -> float:
    """Tr rho (log2 rho - log2 sigma); +inf iff rho leaves sigma's support."""
    if rho.dim != sigma.dim:
        raise ValueError(f"dimension mismatch: {rho.dim} vs {sigma.dim}")
    svals, svecs = np.linalg.eigh(sigma.matrix)
    diag = np.real(np.einsum("ij,jk,ki->i", svecs.conj().T, rho.matrix, svecs))
    kernel_weight = float(np.sum(diag[svals <= clip]))
    if kernel_weight > clip:
        return math.inf
    support = svals > clip
    cross = float(np.sum(diag[support] * np.log2(svals[support])))
    return -_entropy_of_probs(np.linalg.eigvalsh(rho.matrix), clip) - cross


def entropy_of_group(rho: DensityOp, group: Sequence[int],
                     clip: float = EIGENVALUE_CLIP) -> float:
    """Entropy of the reduction to ``group``; the empty group has entropy 0."""
    group = rho.layout.check_subsystems(group)
    if not group:
        return 0.0
    if len(group) == len(rho.layout):
        return von_neumann(rho, clip)
    reduced = reduced_matrix(rho.matrix, rho.layout.dims, sorted(group))
    return _entropy_of_probs(np.linalg.eigvalsh(reduced), clip)


def _group_entropies(rho: DensityOp):
    """``s(*groups)``: entropy of the union of the groups, computed once per set."""
    entropy = functools.cache(lambda group: entropy_of_group(rho, group))
    return lambda *groups: entropy(tuple(sorted(i for g in groups for i in g)))


def mutual_information(rho: DensityOp, group_a: Sequence[int],
                       group_b: Sequence[int]) -> float:
    """S(A) + S(B) - S(AB), each read from the state's own reduction."""
    a = rho.layout.check_subsystems(group_a)
    b = rho.layout.check_subsystems(group_b)
    if set(a) & set(b):
        raise ValueError(f"groups overlap: {a} and {b}")
    return (entropy_of_group(rho, a) + entropy_of_group(rho, b)
            - entropy_of_group(rho, a + b))


def entanglement_measure(psi: Ket, cut: Iterable[int]) -> float:
    """Entropy of the squared Schmidt coefficients across the cut, in ebits."""
    coeffs, _, _ = schmidt_decompose(psi, cut)
    return _entropy_of_probs(coeffs ** 2)


def classicality_deviation(rho: DensityOp, group: Sequence[int]) -> float:
    """Largest matrix entry that couples different basis states of ``group``.

    Zero iff the state is block-diagonal in the computational basis of the
    designated factors, the operational meaning of "group is classical".
    """
    group = rho.layout.check_subsystems(group)
    if not group:
        return 0.0
    dims = rho.layout.dims
    d = rho.dim
    idx = np.arange(d)
    sub = np.zeros(d, dtype=int)
    for g in group:
        stride = int(np.prod(dims[g + 1:])) if g + 1 < len(dims) else 1
        sub = sub * dims[g] + (idx // stride) % dims[g]
    mask = sub[:, None] != sub[None, :]
    return 0.0 if not mask.any() else float(np.max(np.abs(rho.matrix[mask])))


def is_classical_on(rho: DensityOp, group: Sequence[int], tol: float = 1e-10) -> bool:
    return classicality_deviation(rho, group) <= tol


def _witness(rho: DensityOp) -> dict:
    return {"dims": list(rho.layout.dims), "matrix": matrix_to_json(rho.matrix)}


def check_entropy_inequalities(rho: DensityOp, groups: Mapping[str, Sequence[int]],
                               a_classical: bool = False) -> list[InequalityReport]:
    """Check the standard entropy inequalities on 2 or 3 labelled groups.

    With groups A, B: subadditivity and Araki-Lieb on (A, B).  With groups
    A, B, C: subadditivity and Araki-Lieb on the cut A | BC, plus strong
    subadditivity and the mutual-information chain-rule identity.  The
    classical-marginal bound S(AB) >= max(S(A), S(B)) is checked only when
    ``a_classical`` is asserted, and the assertion itself is verified.
    """
    labels = set(groups)
    if labels not in ({"A", "B"}, {"A", "B", "C"}):
        raise ValueError(f"groups must be labelled A, B and optionally C, got {sorted(labels)}")
    a = rho.layout.check_subsystems(groups["A"])
    b = rho.layout.check_subsystems(groups["B"])
    c = rho.layout.check_subsystems(groups.get("C", ()))
    seen: set[int] = set()
    for g in (a, b, c):
        if seen & set(g):
            raise ValueError("groups must be disjoint")
        seen |= set(g)

    witness = _witness(rho)
    s = _group_entropies(rho)
    other = b + c  # B, or BC when present
    reports = [
        InequalityReport("subadditivity", s(a) + s(other) - s(a, other), witness),
        InequalityReport("araki_lieb", s(a, other) - abs(s(a) - s(other)), witness),
    ]
    if c:
        ssa = s(a, b) + s(a, c) - s(a, b, c) - s(a)
        reports.append(InequalityReport("strong_subadditivity", ssa, witness))
        i_a_bc = s(a) + s(b, c) - s(a, b, c)
        i_a_b = s(a) + s(b) - s(a, b)
        i_ab_c = s(a, b) + s(c) - s(a, b, c)
        i_b_c = s(b) + s(c) - s(b, c)
        residual = abs(i_a_bc - i_a_b - i_ab_c + i_b_c)
        reports.append(InequalityReport("chain_rule", residual, witness))
    if a_classical:
        if not is_classical_on(rho, a):
            raise ValueError(
                f"group A asserted classical but off-diagonal magnitude is "
                f"{classicality_deviation(rho, a):.3e}")
        bound = s(a, other) - max(s(a), s(other))
        reports.append(InequalityReport("classical_marginal", bound, witness))
    return reports


def check_correlation_bounds(rho: DensityOp, group_a: Sequence[int],
                             group_b: Sequence[int], group_x: Sequence[int] = (),
                             ax_classical: bool = False) -> list[InequalityReport]:
    """Bound conditional and plain mutual information by marginal entropies.

    Checks I(A:B|X) <= min(2 S(A), 2 S(B)) and I(A:B) <= min(2 S(A), 2 S(B));
    when ``ax_classical`` is asserted (and verified) also the tighter
    I(A:B|X) <= min(S(A), S(B)).  ``group_x`` may be empty, in which case X
    is the trivial system.
    """
    a = rho.layout.check_subsystems(group_a)
    b = rho.layout.check_subsystems(group_b)
    x = rho.layout.check_subsystems(group_x)
    if (set(a) & set(b)) or (set(a) & set(x)) or (set(b) & set(x)):
        raise ValueError("groups must be disjoint")

    witness = _witness(rho)
    s = _group_entropies(rho)
    cond_mi = s(a, x) + s(b, x) - s(a, b, x) - s(x)
    cap = min(2 * s(a), 2 * s(b))
    reports = [
        InequalityReport("cond_mutual_info_vs_marginals", cap - cond_mi, witness),
        InequalityReport("mutual_info_vs_marginals",
                         cap - (s(a) + s(b) - s(a, b)), witness),
    ]
    if ax_classical:
        if not is_classical_on(rho, a + x):
            raise ValueError(
                f"groups A,X asserted classical but off-diagonal magnitude is "
                f"{classicality_deviation(rho, a + x):.3e}")
        reports.append(InequalityReport(
            "cond_mutual_info_vs_marginals_classical",
            min(s(a), s(b)) - cond_mi, witness))
    return reports
