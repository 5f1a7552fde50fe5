"""Dense complex linear algebra over multi-qudit systems.

Conventions used throughout the package:

* subsystem index 0 is the leftmost (outermost) tensor factor;
* pure states are compared as rays (via the induced density operators),
  never amplitude-wise;
* every equality test is tolerance-parameterized, with the max-abs-entry
  metric for matrices and trace distance for states.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

#: default tolerance for algebraic identities
ALGEBRA_TOL = 1e-9
#: default tolerance for entropy-valued quantities (logs amplify eigenvalue noise)
ENTROPY_TOL = 1e-7
#: eigenvalues at or below this threshold are treated as exact zeros
EIGENVALUE_CLIP = 1e-12
#: tolerance for unitarity / isometry checks
UNITARY_TOL = 1e-10

# sigma_2 carries the (i, -i) sign convention rather than the more common
# (-i, i); it is Hermitian, unitary and an involution either way, and the
# uniform twirl it enters is convention-independent.
SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def max_abs(m) -> float:
    m = np.asarray(m)
    return 0.0 if m.size == 0 else float(np.max(np.abs(m)))


def _integer(value, field: str) -> int:
    """A count, a wire or a subsystem index: a Python or numpy integer, never a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{field} must be an integer, not {type(value).__name__}")
    return int(value)


@dataclass(frozen=True)
class SystemLayout:
    """Ordered list of subsystem dimensions; index 0 is the outermost factor."""

    dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(_integer(d, "subsystem dimension") for d in self.dims)
        if not dims:
            raise ValueError("layout needs at least one subsystem")
        if any(d < 2 for d in dims):
            raise ValueError(f"subsystem dimensions must be >= 2, got {dims}")
        object.__setattr__(self, "dims", dims)

    @classmethod
    def qubits(cls, n: int) -> "SystemLayout":
        return cls((2,) * _integer(n, "qubit count"))

    @property
    def dim(self) -> int:
        return int(np.prod(self.dims))

    def __len__(self) -> int:
        return len(self.dims)

    def check_subsystems(self, indices: Iterable[int]) -> tuple[int, ...]:
        idx = tuple(_integer(i, "subsystem index") for i in indices)
        for i in idx:
            if not 0 <= i < len(self.dims):
                raise ValueError(f"subsystem index {i} out of range for {self.dims}")
        if len(set(idx)) != len(idx):
            raise ValueError(f"duplicate subsystem indices in {idx}")
        return idx


def _number_array(values, dtype=complex, shape=None) -> np.ndarray:
    """A read-only copy of ``values``, an array or nested lists, as ``dtype``
    once every entry is a finite Python or numpy number, a real one for a real
    ``dtype``; a bool, a string or an integer past the float range is refused."""
    real = (int, float, np.integer, np.floating)  # not bool: numpy would read it as 0 or 1
    kinds = real + (complex, np.complexfloating) if dtype is complex else real
    if not (isinstance(values, np.ndarray) and issubclass(values.dtype.type, kinds)):
        types = set(map(type, np.asarray(values, dtype=object).ravel()))
        if bool in types or not all(issubclass(t, kinds) for t in types):
            raise ValueError("entries must be finite numbers")
    try:
        arr = np.array(values, dtype=dtype)
    except OverflowError:  # an integer past the float range
        raise ValueError("entries must be finite numbers") from None
    if shape is not None and arr.shape != shape:
        raise ValueError(f"expected shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("entries must be finite numbers")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Ket:
    """Unit-norm amplitude vector over a declared subsystem layout."""

    layout: SystemLayout
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _number_array(self.amplitudes, shape=(self.layout.dim,))
        with np.errstate(over="ignore"):  # a huge finite amplitude is refused as norm inf
            norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > 1e-8:
            raise ValueError(f"ket is not normalized (norm {norm})")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def basis(cls, layout: SystemLayout, index: int) -> "Ket":
        amps = np.zeros(layout.dim, dtype=complex)
        amps[index] = 1.0
        return cls(layout, amps)

    @classmethod
    def from_bits(cls, bits: str) -> "Ket":
        """Computational-basis qubit ket, e.g. ``"01"`` for the second 2-qubit state."""
        layout = SystemLayout.qubits(len(bits))
        return cls.basis(layout, int(bits, 2))

    def density(self) -> "DensityOp":
        return DensityOp(self.layout, np.outer(self.amplitudes, self.amplitudes.conj()))

    def tensor(self, other: "Ket") -> "Ket":
        layout = SystemLayout(self.layout.dims + other.layout.dims)
        return Ket(layout, np.kron(self.amplitudes, other.amplitudes))

    def permute(self, order: Sequence[int]) -> "Ket":
        """Reorder subsystems; new factor k is old factor ``order[k]``."""
        order = list(order)
        if sorted(order) != list(range(len(self.layout))):
            raise ValueError(f"{order} is not a permutation of the subsystems")
        dims = self.layout.dims
        amps = self.amplitudes.reshape(dims).transpose(order).reshape(-1)
        return Ket(SystemLayout(tuple(dims[i] for i in order)), amps)


@dataclass(frozen=True, eq=False)
class DensityOp:
    """Hermitian, positive semi-definite, unit-trace operator on a layout."""

    layout: SystemLayout
    matrix: np.ndarray

    def __post_init__(self):
        d = self.layout.dim
        mat = _number_array(self.matrix, shape=(d, d))
        if max_abs(mat - mat.conj().T) > 1e-8:
            raise ValueError("density operator is not Hermitian")
        eigmin = float(np.linalg.eigvalsh(mat)[0])
        if eigmin < -1e-8:
            raise ValueError(f"density operator has negative eigenvalue {eigmin}")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > 1e-8:
            raise ValueError(f"density operator trace is {tr}, expected 1")
        object.__setattr__(self, "matrix", mat)


@dataclass(frozen=True, eq=False)
class UnitaryOp:
    """Square matrix with U^dagger U = I within :data:`UNITARY_TOL`."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = _number_array(self.matrix)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"unitary must be square, got shape {mat.shape}")
        with np.errstate(over="ignore", invalid="ignore"):  # a huge finite entry reads inf
            deviation = max_abs(mat.conj().T @ mat - np.eye(mat.shape[0]))
        if deviation > UNITARY_TOL:
            raise ValueError("matrix is not unitary")
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


# ---------------------------------------------------------------------------
# composition and reduction


def apply_gates(block: np.ndarray, dims: Sequence[int],
                gates: Iterable[tuple[np.ndarray, Sequence[int]]]) -> np.ndarray:
    """Apply each (gate, targets) in turn to the listed subsystems (in the
    given order) of a vector, of the rows of a column block, or of each matrix
    of a stack (K, rows, cols); a stack of gates (K, g, g) acts matrix by
    matrix, making one block a stack.  The result is complex; ``block`` is
    only read.  The wire order drifts: a gate is one product where its targets
    and the wires after them sit in its own order (an ascending run in place,
    else the targets first, then every other wire in order), after one copy
    into that order if they do not: the gate's own BLAS call, bit for bit.
    Copies and products fill two buffers in turn; a last copy restores the order.
    ``dims`` must span each matrix's rows, or its rows and columns together."""
    dims, n, stack = list(dims), len(dims), block.shape[:block.ndim // 3]  # a stack's axis
    if math.prod(dims) not in (block.shape[len(stack)], math.prod(block.shape[len(stack):])):
        raise ValueError(f"dims {dims} span neither the rows nor the entries of {block.shape}")
    cur, order = block, list(range(n))  # the wire on each storage axis
    bufs = [np.empty(0, complex)] * 2  # ``cur``'s buffer, once written, first

    def take(shape):  # the buffer ``cur`` is not in, as an array of ``shape``
        bufs.reverse()
        if bufs[0].size != math.prod(shape):  # it grows once, if the block becomes a stack
            bufs[0] = np.empty(shape, complex)
        return bufs[0].reshape(shape)

    def move(new):  # one copy into the wire order ``new``
        s, src = len(stack), cur.reshape(*stack, *(dims[w] for w in order), -1)
        out = take(stack + tuple(dims[w] for w in new) + src.shape[-1:])
        np.copyto(out, src.transpose(*range(s), *(s + order.index(w) for w in new), s + n))
        return out

    for gate, targets in gates:
        targets, t0 = list(targets), targets[0] if len(targets) else 0
        own = (list(range(n)) if targets == list(range(t0, t0 + len(targets)))
               else targets + [w for w in range(n) if w not in targets])
        want = own[own.index(t0):]  # the targets and the wires after them
        if order[n - len(want):] != want:
            cur, order = move(own), own
        lead = math.prod(dims[w] for w in order[:n - len(want)])
        t = cur.reshape(*stack, lead, math.prod(dims[w] for w in targets), -1)
        gate = gate[:, None] if gate.ndim == 3 else gate
        cur = take(np.broadcast_shapes(gate.shape[:-2], t.shape[:-2]) + t.shape[-2:])
        np.matmul(gate, t, out=cur)
        stack = cur.shape[:-3]
    cur = move(list(range(n))) if order != list(range(n)) else cur
    return block if cur is block else cur.reshape(stack + block.shape[block.ndim // 3:])


def apply_gate(block: np.ndarray, dims: Sequence[int], gate: np.ndarray,
               targets: Sequence[int]) -> np.ndarray:
    """:func:`apply_gates` of the one gate."""
    return apply_gates(block, dims, [(gate, targets)])


def compose_circuit(dims: Sequence[int], gates: Iterable[tuple[np.ndarray, Sequence[int]]]) -> np.ndarray:
    """Product of embedded gates; the first listed gate acts first.  A stack
    of gates (K, g, g) among them makes the product a stack of K matrices."""
    d = int(np.prod(list(dims)))
    return apply_gates(np.eye(d, dtype=complex), dims,
                       ((np.asarray(gate, dtype=complex), targets) for gate, targets in gates))


def reduced_matrix(matrix: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Partial trace of a square matrix, or of each matrix of a stack
    (..., d, d), keeping subsystems in the order given."""
    dims = list(dims)
    n = len(dims)
    keep = list(keep)
    rest = [i for i in range(n) if i not in keep]
    lead = list(matrix.shape[:-2])
    perm = [len(lead) + i for i in keep + rest + [n + j for j in keep + rest]]
    t = np.transpose(matrix.reshape(lead + dims + dims), list(range(len(lead))) + perm)
    dk = int(np.prod([dims[i] for i in keep]))
    dr = int(np.prod([dims[i] for i in rest]))
    return np.einsum("...arbr->...ab", t.reshape(lead + [dk, dr, dk, dr]))


def kept_factor(vec: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """The pure state as a kept-wire factor m (..., dk, dr), kept subsystems in
    the order given, so that m m† is their reduced density matrix; for
    column axes (dim, ...), the factor of every column, column axes first."""
    dims, keep, cols = list(dims), list(keep), list(vec.shape[1:])
    n = len(dims)
    rest = [i for i in range(n) if i not in keep]
    t = vec.reshape(dims + cols).transpose(list(range(n, n + len(cols))) + keep + rest)
    return t.reshape(cols + [math.prod(dims[i] for i in keep), math.prod(dims[i] for i in rest)])


def reduced_from_vector(vec: np.ndarray, dims: Sequence[int], keep: Sequence[int]) -> np.ndarray:
    """Reduced density matrix m m† of each column's :func:`kept_factor` m."""
    m = kept_factor(vec, dims, keep)
    return m @ m.conj().swapaxes(-1, -2)


def partial_trace(state: DensityOp, keep: Iterable[int]) -> DensityOp:
    """Reduced state on the kept subsystems, in their original relative order."""
    keep = state.layout.check_subsystems(keep)
    if not keep:
        raise ValueError("must keep at least one subsystem")
    keep = tuple(sorted(keep))
    dims = state.layout.dims
    reduced = reduced_matrix(state.matrix, dims, list(keep))
    return DensityOp(SystemLayout(tuple(dims[i] for i in keep)), reduced)


# ---------------------------------------------------------------------------
# decomposition and comparison


def _schmidt_svd(psi: Ket, cut: Iterable[int]):
    """``(s, u, vh, left, right)``: the thin SVD of the state's factor across
    the cut, its zero coefficients dropped, and the left and right groups."""
    left = list(psi.layout.check_subsystems(cut))
    right = [i for i in range(len(psi.layout)) if i not in left]
    if not left or not right:
        raise ValueError("cut must split the layout into two nonempty groups")
    m = kept_factor(psi.amplitudes, psi.layout.dims, left)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    keep = s > math.sqrt(EIGENVALUE_CLIP)
    return s[keep], u[:, keep], vh[keep, :], left, right


def schmidt_decompose(psi: Ket, cut: Iterable[int]) -> tuple[np.ndarray, list[Ket], list[Ket]]:
    """Schmidt form of a bipartite pure state.

    ``cut`` names the subsystems of the left group; the right group is the
    complement in original order.  Returns descending coefficients and the
    matching orthonormal local bases, with all zero coefficients dropped.
    """
    s, u, vh, left, right = _schmidt_svd(psi, cut)
    dims = psi.layout.dims
    left_layout, right_layout = (SystemLayout(tuple(dims[i] for i in g)) for g in (left, right))
    return (s, [Ket(left_layout, u[:, k]) for k in range(s.size)],
            [Ket(right_layout, vh[k, :]) for k in range(s.size)])


def purify(rho: DensityOp) -> Ket:
    """Canonical purification on (reference ⊗ original).

    The reference is a single subsystem of the same dimension; its basis
    state i carries the i-th eigenvector of rho, eigenvalues descending, so
    the Schmidt coefficients are the square roots of the eigenvalues above
    :data:`EIGENVALUE_CLIP`.  No eigenvector phase is fixed.
    """
    vals, vecs = np.linalg.eigh(rho.matrix)
    weights = np.sqrt(np.where(vals > EIGENVALUE_CLIP, vals, 0.0))[::-1]
    amps = (vecs[:, ::-1] * weights).T.reshape(-1)
    layout = SystemLayout((rho.layout.dim,) + rho.layout.dims)
    return Ket(layout, amps / np.linalg.norm(amps))


def local_transition(phi1: Ket, phi2: Ket, cut: Iterable[int]) -> UnitaryOp:
    """Local unitary U on the first cut group with (U ⊗ I)|phi1> = |phi2>.

    Both states must reduce to the same operator on the second group, to
    1e-8 entrywise (be purifications of one state); else ValueError is raised.
    With M the state as a first-group × second-group matrix, U is the
    orthogonal Procrustes solution: the unitary polar factor W V† of the SVD
    M2 M1† = W Σ V†.  No Schmidt weight is cut, however small.
    """
    if phi1.layout.dims != phi2.layout.dims:
        raise ValueError("states must share a layout")
    left = list(phi1.layout.check_subsystems(cut))
    if not left or len(left) == len(phi1.layout):
        raise ValueError("cut must split the layout into two nonempty groups")
    m1, m2 = (kept_factor(phi.amplitudes, phi1.layout.dims, left) for phi in (phi1, phi2))
    if max_abs(m1.T @ m1.conj() - m2.T @ m2.conj()) > 1e-8:
        raise ValueError(
            "reductions over the first group differ; the states do not purify "
            "the same operator")
    w, _, vh = np.linalg.svd(m2 @ m1.conj().T)
    return UnitaryOp(w @ vh)


def pauli_string(symbols: str) -> UnitaryOp:
    """Tensor product of single-qubit Paulis named by a {0,1,2,3} string."""
    if not symbols or set(symbols) - set("0123"):
        raise ValueError(f"invalid pauli string {symbols!r}")
    return UnitaryOp(functools.reduce(np.kron, [SIGMA[int(c)] for c in symbols]))


def trace_distance(a, b) -> float | np.ndarray:
    """(1/2) Σ |eigenvalues of a - b|; accepts DensityOp or raw matrices.

    Stacks of matrices broadcast against each other and give one distance
    per stacked pair, from one batched eigensolve of the one difference
    stack; a pair with an exactly zero difference is exactly 0.0, since a
    zero matrix's eigenvalues are exactly zero.
    """
    am = a.matrix if isinstance(a, DensityOp) else np.asarray(a, dtype=complex)
    bm = b.matrix if isinstance(b, DensityOp) else np.asarray(b, dtype=complex)
    if am.shape[-2:] != bm.shape[-2:]:
        raise ValueError(f"dimension mismatch: {am.shape} vs {bm.shape}")
    dist = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(am - bm)), axis=-1)
    return float(dist) if dist.ndim == 0 else dist


# ---------------------------------------------------------------------------
# sampling and serialization


def random_density_matrix(dim: int, rng: np.random.Generator,
                          count: int | None = None) -> np.ndarray:
    """Random mixed-state matrix: partial trace of a Haar pure state on a
    doubled system.

    With ``count`` k, a (k, dim, dim) stack from one draw: bit for bit the k
    matrices that k calls without ``count`` return, leaving ``rng`` in the
    same state; without it, one (dim, dim) matrix.
    """
    z = rng.standard_normal((1 if count is None else count, 2, dim * dim))
    v = (z[:, 0] + 1j * z[:, 1])[:, None, :]
    re, im = v.real, v.imag  # np.linalg.norm's dot products, one per vector
    m = (v / np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))).reshape(-1, dim, dim)
    rho = m @ m.conj().swapaxes(-1, -2)
    return rho[0] if count is None else rho


def random_density(layout: SystemLayout, rng: np.random.Generator) -> DensityOp:
    """:func:`random_density_matrix` on the layout, as a validated state."""
    return DensityOp(layout, random_density_matrix(layout.dim, rng))


def matrix_to_json(m: np.ndarray) -> list:
    """Nested lists of [re, im] pairs: the encoding of matrices and vectors in
    protocol descriptors and of witnesses in reports."""
    m = np.asarray(m, dtype=complex)
    return np.stack([m.real, m.imag], axis=-1).tolist()


def matrix_from_json(data: list) -> np.ndarray:
    """Inverse of :func:`matrix_to_json` for a vector or a matrix, bit for bit
    (a -0.0 stays -0.0), of finite real entries only (see :func:`_number_array`)."""
    arr = _number_array(data, float)
    if arr.ndim not in (2, 3) or arr.shape[-1] != 2:
        raise ValueError(f"expected a vector or matrix of [re, im] pairs, got shape {arr.shape}")
    return np.ascontiguousarray(arr).view(complex)[..., 0]
