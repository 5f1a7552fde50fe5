import math
import tracemalloc

import numpy as np
import pytest

from pqclab.entropy import entropy_of_group
from pqclab.qmath import (
    SIGMA,
    DensityOp,
    Ket,
    SystemLayout,
    UnitaryOp,
    apply_gate,
    compose_circuit,
    local_transition,
    matrix_from_json,
    matrix_to_json,
    max_abs,
    partial_trace,
    pauli_string,
    purify,
    random_density,
    random_density_matrix,
    reduced_from_vector,
    reduced_matrix,
    schmidt_decompose,
    trace_distance,
)

from oracles import (
    apply_to_ket,
    embed_operator,
    haar_ket,
    haar_unitary,
    per_sample_density_matrix,
    ray_deviation,
)

EPR = Ket(SystemLayout.qubits(2), np.array([1, 0, 0, 1]) / math.sqrt(2))


def basis(n, bits):
    return Ket.from_bits(bits) if isinstance(bits, str) else Ket.basis(SystemLayout.qubits(n), bits)


# ---------------------------------------------------------------------------
# tensor products of kets


def test_ket_tensor_puts_the_first_factor_outermost():
    psi = Ket.from_bits("0").tensor(Ket.from_bits("1"))
    assert psi.layout.dims == (2, 2)
    assert np.array_equal(psi.amplitudes, Ket.from_bits("01").amplitudes)
    # a qubit before a qutrit: the qubit's index is the slower one, 1 * 3 + 2
    mixed = Ket.from_bits("1").tensor(Ket.basis(SystemLayout((3,)), 2))
    assert mixed.layout.dims == (2, 3)
    assert np.array_equal(mixed.amplitudes, Ket.basis(SystemLayout((2, 3)), 5).amplitudes)


# ---------------------------------------------------------------------------
# partial trace


def naive_partial_trace(mat, dims, keep):
    """Independent oracle: explicit index loops."""
    n = len(dims)
    rest = [i for i in range(n) if i not in keep]
    dk = int(np.prod([dims[i] for i in keep]))
    out = np.zeros((dk, dk), dtype=complex)

    def full_index(kept_digits, rest_digits):
        digits = [0] * n
        for pos, i in enumerate(keep):
            digits[i] = kept_digits[pos]
        for pos, i in enumerate(rest):
            digits[i] = rest_digits[pos]
        idx = 0
        for i in range(n):
            idx = idx * dims[i] + digits[i]
        return idx

    kept_shapes = [dims[i] for i in keep]
    rest_shapes = [dims[i] for i in rest]
    for a in range(dk):
        a_digits = list(np.unravel_index(a, kept_shapes)) if kept_shapes else []
        for b in range(dk):
            b_digits = list(np.unravel_index(b, kept_shapes)) if kept_shapes else []
            acc = 0.0
            for r in range(int(np.prod(rest_shapes)) if rest_shapes else 1):
                r_digits = list(np.unravel_index(r, rest_shapes)) if rest_shapes else []
                acc += mat[full_index(a_digits, r_digits), full_index(b_digits, r_digits)]
            out[a, b] = acc
    return out


def test_partial_trace_epr_is_maximally_mixed():
    reduced = partial_trace(EPR.density(), keep=[0])
    assert trace_distance(reduced.matrix, np.eye(2) / 2) < 1e-12


def test_partial_trace_product_state():
    rng = np.random.default_rng(1)
    rho_a = random_density(SystemLayout.qubits(1), rng)
    rho_b = random_density(SystemLayout.qubits(1), rng)
    joint = DensityOp(SystemLayout.qubits(2), np.kron(rho_a.matrix, rho_b.matrix))
    assert trace_distance(partial_trace(joint, [1]), rho_b) < 1e-12


def test_partial_trace_ghz_pair():
    ghz = Ket(SystemLayout.qubits(3), np.array([1, 0, 0, 0, 0, 0, 0, 1]) / math.sqrt(2))
    reduced = partial_trace(ghz.density(), keep=[0, 1])
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[3, 3] = 0.5
    assert trace_distance(reduced.matrix, expected) < 1e-12


def test_partial_trace_matches_naive_oracle():
    rng = np.random.default_rng(7)
    for dims in [(2, 2), (2, 3), (2, 2, 2), (3, 2, 2)]:
        layout = SystemLayout(dims)
        rho = random_density(layout, rng)
        for keep in ([0], [len(dims) - 1], [0, 1]):
            got = partial_trace(rho, keep).matrix
            want = naive_partial_trace(rho.matrix, list(dims), sorted(keep))
            assert max_abs(got - want) < 1e-12


@pytest.mark.parametrize("index", [0.7, 1.0, True, "1"])
def test_subsystem_indices_must_be_integers(index):
    # int() would read 0.7 as subsystem 0 and True as subsystem 1
    rho = EPR.density()
    with pytest.raises(ValueError, match="subsystem index must be an integer"):
        partial_trace(rho, [index])
    with pytest.raises(ValueError, match="subsystem index must be an integer"):
        entropy_of_group(rho, [index])


def test_numpy_integer_subsystem_index_is_accepted():
    rng = np.random.default_rng(2)
    rho = random_density(SystemLayout((2, 3)), rng)
    assert np.array_equal(partial_trace(rho, [np.int64(1)]).matrix,
                          partial_trace(rho, [1]).matrix)
    assert entropy_of_group(rho, [np.int64(1)]) == entropy_of_group(rho, [1])


@pytest.mark.parametrize("cols", [(), (3,), (0,), (2, 3), (0, 3), (2, 0)],
                         ids=["vector", "one-axis", "one-axis-empty", "two-axes",
                              "two-axes-empty-first", "two-axes-empty-last"])
def test_reduced_from_vector_matches_per_column_loop(cols):
    rng = np.random.default_rng(41)
    dims = [2, 3, 2]
    vec = rng.standard_normal((12,) + cols) + 1j * rng.standard_normal((12,) + cols)
    for keep in ([0], [2, 0], [1, 2], [0, 1, 2]):
        dk = int(np.prod([dims[i] for i in keep]))
        got = reduced_from_vector(vec, dims, keep)
        assert got.shape == cols + (dk, dk)
        for idx in np.ndindex(*cols):
            psi = vec[(slice(None),) + idx]
            want = naive_partial_trace(np.outer(psi, psi.conj()), dims, keep)
            assert max_abs(got[idx] - want) < 1e-12


def test_reduced_matrix_of_a_stack_is_each_matrix_reduced():
    rng = np.random.default_rng(43)
    dims = [2, 3, 2]
    stack = np.stack([random_density_matrix(12, rng) for _ in range(6)]).reshape(2, 3, 12, 12)
    for keep in ([0], [2, 0], [1, 2], [0, 1, 2]):
        got = reduced_matrix(stack, dims, keep)
        for idx in np.ndindex(2, 3):
            assert np.array_equal(got[idx], reduced_matrix(stack[idx], dims, keep))
            assert max_abs(got[idx] - naive_partial_trace(stack[idx], dims, keep)) < 1e-12


def test_partial_trace_preserves_trace_and_validity():
    rng = np.random.default_rng(3)
    rho = random_density(SystemLayout.qubits(3), rng)
    reduced = partial_trace(rho, [1, 2])
    assert abs(np.trace(reduced.matrix) - 1) < 1e-12


def test_partial_trace_index_out_of_range():
    with pytest.raises(ValueError):
        partial_trace(EPR.density(), [2])


def test_partial_trace_schmidt_symmetry():
    # both reductions of a pure state share their nonzero spectrum
    rng = np.random.default_rng(11)
    for _ in range(50):
        psi = haar_ket(SystemLayout((4, 3)), rng)
        left = np.linalg.eigvalsh(partial_trace(psi.density(), [0]).matrix)[::-1][:3]
        right = np.linalg.eigvalsh(partial_trace(psi.density(), [1]).matrix)[::-1][:3]
        assert max_abs(left - right) < 1e-9


# ---------------------------------------------------------------------------
# schmidt decomposition


def test_schmidt_epr():
    coeffs, left, right = schmidt_decompose(EPR, cut=[0])
    assert max_abs(coeffs - np.array([1, 1]) / math.sqrt(2)) < 1e-12
    assert abs(np.sum(coeffs ** 2) - 1) < 1e-12


def test_schmidt_product_state_rank_one():
    plus = Ket(SystemLayout.qubits(1), np.array([1, 1]) / math.sqrt(2))
    psi = Ket.from_bits("0").tensor(plus)
    coeffs, _, _ = schmidt_decompose(psi, cut=[0])
    assert coeffs.size == 1
    assert abs(coeffs[0] - 1) < 1e-12


def test_schmidt_already_in_schmidt_form():
    amps = np.array([math.sqrt(0.9), 0, 0, math.sqrt(0.1)])
    coeffs, _, _ = schmidt_decompose(Ket(SystemLayout.qubits(2), amps), cut=[0])
    assert max_abs(coeffs - [math.sqrt(0.9), math.sqrt(0.1)]) < 1e-12


def test_schmidt_reconstruction_random_sweep():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        da, db = rng.integers(2, 9), rng.integers(2, 9)
        psi = haar_ket(SystemLayout((int(da), int(db))), rng)
        coeffs, left, right = schmidt_decompose(psi, cut=[0])
        rebuilt = np.zeros(da * db, dtype=complex)
        for c, a, b in zip(coeffs, left, right):
            rebuilt += c * np.kron(a.amplitudes, b.amplitudes)
        worst = max(worst, max_abs(rebuilt - psi.amplitudes))
        gram_l = np.array([[np.vdot(x.amplitudes, y.amplitudes) for y in left] for x in left])
        assert max_abs(gram_l - np.eye(len(left))) < 1e-9
    assert worst <= 1e-9


def test_schmidt_noncontiguous_cut():
    rng = np.random.default_rng(9)
    psi = haar_ket(SystemLayout.qubits(3), rng)
    coeffs, left, right = schmidt_decompose(psi, cut=[0, 2])
    rebuilt = np.zeros(8, dtype=complex)
    for c, a, b in zip(coeffs, left, right):
        pair = np.kron(a.amplitudes, b.amplitudes)  # order [0, 2, 1]
        rebuilt += c * pair
    regrouped = Ket(SystemLayout.qubits(3), rebuilt).permute([0, 2, 1])
    assert max_abs(regrouped.amplitudes - psi.amplitudes) < 1e-9


def test_schmidt_single_subsystem_rejected():
    with pytest.raises(ValueError, match="cut must split"):
        schmidt_decompose(Ket.from_bits("0"), cut=[0])


# ---------------------------------------------------------------------------
# purification


def test_purify_maximally_mixed():
    phi = purify(DensityOp(SystemLayout.qubits(1), np.eye(2) / 2))
    coeffs, _, _ = schmidt_decompose(phi, cut=[0])
    assert max_abs(coeffs - np.array([1, 1]) / math.sqrt(2)) < 1e-12


def test_purify_pure_state_is_product():
    phi = purify(Ket.from_bits("0").density())
    coeffs, _, _ = schmidt_decompose(phi, cut=[0])
    assert coeffs.size == 1


def test_purify_round_trip_diagonal():
    rho = DensityOp(SystemLayout.qubits(1), np.diag([0.9, 0.1]).astype(complex))
    phi = purify(rho)
    back = partial_trace(phi.density(), keep=[1])
    assert max_abs(back.matrix - rho.matrix) < 1e-10


def test_purify_round_trip_random_sweep():
    rng = np.random.default_rng(13)
    for dims in [(2,), (2, 2), (3,), (2, 2, 2)]:
        rho = random_density(SystemLayout(dims), rng)
        phi = purify(rho)
        keep = list(range(1, 1 + len(dims)))
        back = partial_trace(phi.density(), keep=keep)
        assert max_abs(back.matrix - rho.matrix) <= 1e-10


# ---------------------------------------------------------------------------
# local transition


def test_local_transition_identity_case():
    rng = np.random.default_rng(17)
    phi = haar_ket(SystemLayout.qubits(2), rng)
    u = local_transition(phi, phi, cut=[0])
    assert ray_deviation(apply_to_ket(phi, u.matrix, [0]), phi) < 1e-10


def test_local_transition_product_purifications():
    u = local_transition(Ket.from_bits("00"), Ket.from_bits("10"), cut=[0])
    mapped = apply_to_ket(Ket.from_bits("0"), u.matrix, [0])
    assert ray_deviation(mapped, Ket.from_bits("1")) < 1e-10


def test_local_transition_epr_pauli():
    target = apply_to_ket(EPR, SIGMA[1], [0])
    u = local_transition(EPR, target, cut=[0])
    assert ray_deviation(apply_to_ket(EPR, u.matrix, [0]), target) < 1e-10


def test_local_transition_random_purifications():
    rng = np.random.default_rng(19)
    for d in (2, 3, 4):
        for _ in range(25):
            rho = random_density(SystemLayout((d,)), rng)
            base = purify(rho)
            phi1 = apply_to_ket(base, haar_unitary(d, rng).matrix, [0])
            phi2 = apply_to_ket(base, haar_unitary(d, rng).matrix, [0])
            u = local_transition(phi1, phi2, cut=[0])
            assert max_abs(u.matrix.conj().T @ u.matrix - np.eye(d)) < 1e-8
            assert ray_deviation(apply_to_ket(phi1, u.matrix, [0]), phi2) < 1e-8


@pytest.mark.parametrize("weight", [1e-12, 1e-13, 1e-14, 0.0])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_local_transition_keeps_near_zero_schmidt_weights(d, weight):
    """Purifications a·√Λ·bᵀ and c·√Λ·bᵀ (Haar a, b, c) with one Schmidt
    weight λ at or near 0: the unitary maps one onto the other within 1e-8.
    Cutting λ ≤ 1e-12 as zero would miss by up to 2e-6.  Weights near 1e-16
    are not tested: M2 M1† squares the weights, and the polar factor there
    reads up to about 2e-8."""
    rng = np.random.default_rng(d)
    for _ in range(20):
        lam = np.append(rng.dirichlet(np.ones(d - 1)) * (1 - weight), weight)
        a, b, c = (haar_unitary(d, rng).matrix for _ in range(3))
        phi1, phi2 = (Ket(SystemLayout((d, d)), ((x * np.sqrt(lam)) @ b.T).reshape(-1))
                      for x in (a, c))
        u = local_transition(phi1, phi2, cut=[0])
        assert ray_deviation(apply_to_ket(phi1, u.matrix, [0]), phi2) < 1e-8


def test_local_transition_rejects_different_reductions():
    rng = np.random.default_rng(23)
    phi1 = haar_ket(SystemLayout.qubits(2), rng)
    phi2 = haar_ket(SystemLayout.qubits(2), rng)
    with pytest.raises(ValueError, match="reductions"):
        local_transition(phi1, phi2, cut=[0])


# ---------------------------------------------------------------------------
# pauli strings


def test_pauli_string_basics():
    assert max_abs(pauli_string("0").matrix - np.eye(2)) == 0
    assert max_abs(pauli_string("13").matrix - np.kron(SIGMA[1], SIGMA[3])) == 0
    squared = pauli_string("2").matrix @ pauli_string("2").matrix
    assert max_abs(squared - np.eye(2)) < 1e-12
    # two-factor products, the first factor outermost
    assert max_abs(pauli_string("00").matrix - np.eye(4)) == 0
    flipped = pauli_string("11").matrix @ Ket.from_bits("00").amplitudes
    assert max_abs(flipped - Ket.from_bits("11").amplitudes) < 1e-12
    assert max_abs(pauli_string("33").matrix - np.diag([1, -1, -1, 1])) == 0


def test_pauli_string_invalid_symbol():
    with pytest.raises(ValueError):
        pauli_string("04x")


def test_pauli_sign_convention():
    # the (i, -i) variant: entry (0, 1) is +i
    assert SIGMA[2][0, 1] == 1j
    assert SIGMA[2][1, 0] == -1j


@pytest.mark.parametrize("n", [1, 2])
def test_pauli_strings_hermitian_unitary_orthogonal(n):
    import itertools
    strings = ["".join(t) for t in itertools.product("0123", repeat=n)]
    mats = [pauli_string(s).matrix for s in strings]
    for m in mats:
        assert max_abs(m - m.conj().T) < 1e-12
        assert max_abs(m.conj().T @ m - np.eye(2 ** n)) < 1e-12
    for i, a in enumerate(mats):
        for j, b in enumerate(mats):
            want = 2 ** n if i == j else 0.0
            assert abs(np.trace(a @ b) - want) < 1e-12


# ---------------------------------------------------------------------------
# trace distance and rays


def test_trace_distance_values():
    rho = Ket.from_bits("0").density()
    sigma = Ket.from_bits("1").density()
    assert trace_distance(rho, rho) == 0
    assert abs(trace_distance(rho, sigma) - 1) < 1e-12
    # eigenvalues of I/2 - |0><0| are +-1/2
    assert abs(trace_distance(np.eye(2) / 2, rho.matrix) - 0.5) < 1e-12


def _full_trace_distance(a, b):
    # every pair through the eigensolve, equal or not
    return 0.5 * np.sum(np.abs(np.linalg.eigvalsh(np.asarray(a) - np.asarray(b))), axis=-1)


def test_trace_distance_skips_only_exactly_equal_pairs():
    # every pair, equal or not, goes through the one eigensolve; an equal
    # pair reads exactly 0.0 because a zero matrix's eigenvalues are exactly 0
    rng = np.random.default_rng(41)
    rhos = np.stack([random_density_matrix(4, rng) for _ in range(7)])
    ref = rhos[2]
    others = np.stack([random_density_matrix(4, rng) for _ in range(7)])
    others[[1, 4]] = rhos[[1, 4]]
    for a, b in ((rhos, ref), (ref, rhos), (rhos, others), (rhos[:1], rhos[:1]),
                 (rhos[:, None], others[None])):
        got = trace_distance(a, b)
        assert got.shape == np.broadcast_shapes(np.shape(a), np.shape(b))[:-2]
        assert np.array_equal(got, _full_trace_distance(a, b))
    assert trace_distance(rhos[0], rhos[0]) == 0.0
    assert trace_distance(rhos[0], rhos[1]) == _full_trace_distance(rhos[0], rhos[1])
    for a, b in ((rhos[:0], ref), (rhos[:0], rhos[:0]), (np.zeros((3, 0, 4, 4)), ref)):
        got = trace_distance(a, b)
        assert got.shape == np.shape(a)[:-2] and got.dtype == np.float64


def test_trace_distance_copies_the_differing_pairs_once():
    # a basis table against its first row, as security_deviations reads it:
    # one difference stack is allocated, with no second copy of its pairs
    rng = np.random.default_rng(43)
    table = np.stack([random_density_matrix(32, rng) for _ in range(64)])
    tracemalloc.start()
    try:
        got = trace_distance(table, table[0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, _full_trace_distance(table, table[0]))
    assert got[0] == 0.0
    assert peak < 1.25 * table.nbytes, (peak, table.nbytes)


def test_trace_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        trace_distance(np.eye(2) / 2, np.eye(4) / 4)


def test_ray_deviation_phase_invariance():
    rng = np.random.default_rng(29)
    psi = haar_ket(SystemLayout.qubits(2), rng)
    rotated = Ket(psi.layout, np.exp(0.7j) * psi.amplitudes)
    assert ray_deviation(psi, rotated) < 1e-12


# ---------------------------------------------------------------------------
# gate application


def test_apply_to_ket_against_kron():
    psi = Ket.from_bits("00")
    out = apply_to_ket(psi, SIGMA[1], [1])
    assert max_abs(out.amplitudes - Ket.from_bits("01").amplitudes) < 1e-12


def test_apply_reversed_targets():
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    # control on wire 1, target wire 0
    out = apply_to_ket(Ket.from_bits("01"), cnot, [1, 0])
    assert max_abs(out.amplitudes - Ket.from_bits("11").amplitudes) < 1e-12


def test_embed_operator_matches_direct_kron():
    rng = np.random.default_rng(31)
    g = haar_unitary(2, rng).matrix
    assert max_abs(embed_operator(g, [1], [2, 2]) - np.kron(np.eye(2), g)) < 1e-12
    assert max_abs(embed_operator(g, [0], [2, 2]) - np.kron(g, np.eye(2))) < 1e-12


def test_compose_circuit_order():
    # first listed gate acts first
    u = compose_circuit([2], [(SIGMA[1], [0]), (SIGMA[3], [0])])
    assert max_abs(u - SIGMA[3] @ SIGMA[1]) < 1e-12


def test_apply_gate_refuses_a_block_its_dims_do_not_span():
    # a stack of I, X, Z on wire 0 of |00> is a (3, 4) array: three keys' vectors
    keys = np.array([SIGMA[0], SIGMA[1], SIGMA[3]])
    stacked = apply_gate(Ket.from_bits("00").amplitudes, [2, 2], keys, [0])
    assert stacked.shape == (3, 4)
    # read as a column block, its rows would mix the keys
    with pytest.raises(ValueError, match="span neither the rows nor the entries"):
        apply_gate(stacked, [2, 2], SIGMA[1], [1])
    # as a stack of one-column blocks, each key's vector gets its own X
    out = apply_gate(stacked.reshape(3, 4, 1), [2, 2], SIGMA[1], [1])[..., 0]
    want = [Ket.from_bits(bits).amplitudes for bits in ("01", "11", "01")]
    assert np.array_equal(out, np.array(want))


# ---------------------------------------------------------------------------
# validation and serialization


def test_ket_normalization_enforced():
    with pytest.raises(ValueError):
        Ket(SystemLayout.qubits(1), np.array([1.0, 1.0]))


def test_density_validation():
    with pytest.raises(ValueError):
        DensityOp(SystemLayout.qubits(1), np.array([[1.0, 0.5], [0.2, 0.0]]))
    with pytest.raises(ValueError):
        DensityOp(SystemLayout.qubits(1), np.diag([1.5, -0.5]).astype(complex))


def test_unitary_validation():
    with pytest.raises(ValueError):
        UnitaryOp(np.array([[1.0, 1.0], [0.0, 1.0]]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0, math.nan),
                                 True, "0.5", 10 ** 400],
                         ids=["nan", "inf", "-inf", "imag-nan", "bool", "string", "huge-int"])
def test_value_types_reject_non_finite_entries(bad):
    # as lists, and as numpy's array of them where numpy keeps the entry (it reads True as 1.0)
    for form in (list, np.array)[:1 if bad is True else 2]:
        with pytest.raises(ValueError, match="finite"):
            Ket(SystemLayout.qubits(1), form([1.0, bad]))
        with pytest.raises(ValueError, match="finite"):
            DensityOp(SystemLayout.qubits(1), form([[1.0, 0.0], [0.0, bad]]))
        with pytest.raises(ValueError, match="finite"):
            UnitaryOp(form([[1.0, 0.0], [0.0, bad]]))
        with pytest.raises(ValueError, match="finite"):
            matrix_from_json(form([[1.0, 0.0], [bad, 0.0]]))


def test_layout_validation():
    with pytest.raises(ValueError):
        SystemLayout((2, 1))


@pytest.mark.parametrize("build", [
    lambda: SystemLayout((2.9, 2)),
    lambda: SystemLayout(("3",)),
    lambda: SystemLayout((True, 2)),
    lambda: SystemLayout.qubits(2.0),
    lambda: SystemLayout.qubits("2"),
    lambda: SystemLayout.qubits(True),
], ids=["float-dim", "string-dim", "bool-dim", "float-n", "string-n", "bool-n"])
def test_layout_counts_are_integers(build):
    # int() would read 2.9 as 2 and "3" as 3
    with pytest.raises(ValueError, match="must be an integer"):
        build()
    assert SystemLayout((np.int64(2), 3)).dims == (2, 3)
    assert SystemLayout.qubits(np.int64(2)).dims == (2, 2)


@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: SystemLayout(()), "layout needs at least one subsystem", id="no-dims"),
    pytest.param(lambda: SystemLayout.qubits(0), "layout needs at least one subsystem",
                 id="no-qubits"),
    pytest.param(lambda: SystemLayout.qubits(2).check_subsystems([1, 1]),
                 r"duplicate subsystem indices in \(1, 1\)", id="duplicate-index"),
    pytest.param(lambda: Ket(SystemLayout.qubits(1), np.full(4, 0.5)),
                 r"expected shape \(2,\), got \(4,\)", id="ket-shape"),
    pytest.param(lambda: Ket.from_bits("01").permute([0, 0]),
                 r"\[0, 0\] is not a permutation", id="permute"),
    pytest.param(lambda: DensityOp(SystemLayout.qubits(1), np.eye(2)),
                 r"trace is \(2\+0j\), expected 1", id="trace"),
    pytest.param(lambda: partial_trace(EPR.density(), []), "must keep at least one subsystem",
                 id="keep-nothing"),
    pytest.param(lambda: schmidt_decompose(EPR, [0, 1]), "cut must split", id="schmidt-cut"),
    pytest.param(lambda: local_transition(EPR, EPR, [0, 1]), "cut must split",
                 id="transition-cut"),
    pytest.param(lambda: local_transition(EPR, Ket.from_bits("000"), [0]),
                 "states must share a layout", id="transition-layouts"),
])
def test_each_refusal_names_its_fault(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 8, 12])
def test_stacked_draw_is_the_per_sample_draws_bit_for_bit(dim, seed):
    for count in (None, 1, 127, 128, 129):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_density_matrix(dim, rng, count=count)
        want = [per_sample_density_matrix(dim, ref) for _ in range(count or 1)]
        want = want[0] if count is None else np.stack(want)
        # tobytes, so that a -0.0 for a 0.0 counts too
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


def test_matrix_json_round_trip():
    rng = np.random.default_rng(37)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert max_abs(matrix_from_json(matrix_to_json(m)) - m) == 0
    v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    assert max_abs(matrix_from_json(matrix_to_json(v)) - v) == 0
    # lists holding numpy scalars read as the numbers they hold
    assert matrix_from_json([[np.float64(1.0), np.int64(0)], [0, np.float32(0.5)]]).tolist() == [
        1, 0.5j]
