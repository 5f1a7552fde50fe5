import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqclab.entropy import (
    InequalityReport,
    _entropy_of_probs,
    _relative_entropy,
    ProbabilityDist,
    check_correlation_bounds,
    check_entropy_inequalities,
    classicality_deviation,
    entanglement_measure,
    is_classical_on,
    mutual_information,
    relative_entropy,
    shannon_entropy,
    stack_cross_check,
    stack_slacks,
    von_neumann,
)
from pqclab.qmath import (
    DensityOp,
    Ket,
    SystemLayout,
    partial_trace,
    random_density,
    random_density_matrix,
    reduced_matrix,
)

from oracles import haar_ket, haar_unitary

Q1 = SystemLayout.qubits(1)
Q2 = SystemLayout.qubits(2)
Q3 = SystemLayout.qubits(3)

EPR = Ket(Q2, np.array([1, 0, 0, 1]) / math.sqrt(2))
GHZ = Ket(Q3, np.array([1, 0, 0, 0, 0, 0, 0, 1]) / math.sqrt(2))


def mixed(matrix, layout=Q1):
    return DensityOp(layout, np.asarray(matrix, dtype=complex))


# ---------------------------------------------------------------------------
# shannon / von Neumann


def test_shannon_values():
    assert shannon_entropy(ProbabilityDist.uniform(["a", "b", "c", "d"])) == pytest.approx(2.0)
    assert shannon_entropy(ProbabilityDist.point("a")) == 0.0
    skew = ProbabilityDist(("a", "b", "c"), np.array([0.5, 0.25, 0.25]))
    assert shannon_entropy(skew) == pytest.approx(1.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_probability_dist_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        ProbabilityDist(("a", "b"), np.array([1.0, bad]))


def test_probability_dist_validation():
    with pytest.raises(ValueError):
        ProbabilityDist(("a", "b"), np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        ProbabilityDist(("a",), np.array([-0.2]))
    with pytest.raises(ValueError, match="sum to 0"):
        ProbabilityDist.uniform([])


def test_von_neumann_values():
    assert von_neumann(mixed(np.eye(2) / 2)) == pytest.approx(1.0)
    assert von_neumann(Ket.from_bits("0").density()) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann(mixed(np.eye(4) / 4, Q2)) == pytest.approx(2.0)


def test_von_neumann_unitary_invariance():
    rng = np.random.default_rng(41)
    for _ in range(30):
        rho = random_density(Q2, rng)
        u = haar_unitary(4, rng).matrix
        rotated = DensityOp(Q2, u @ rho.matrix @ u.conj().T)
        assert abs(von_neumann(rotated) - von_neumann(rho)) <= 1e-8


def test_von_neumann_matches_shannon_on_diagonal():
    rng = np.random.default_rng(43)
    for _ in range(20):
        p = rng.dirichlet(np.ones(4))
        rho = mixed(np.diag(p), Q2)
        dist = ProbabilityDist(tuple("abcd"), p)
        assert abs(von_neumann(rho) - shannon_entropy(dist)) <= 1e-10


# ---------------------------------------------------------------------------
# relative entropy


def test_relative_entropy_self_is_zero():
    rng = np.random.default_rng(47)
    rho = random_density(Q2, rng)
    assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)


def test_relative_entropy_disjoint_support():
    assert relative_entropy(Ket.from_bits("0").density(),
                            Ket.from_bits("1").density()) == math.inf


def test_relative_entropy_pure_vs_maximally_mixed():
    # Tr rho log rho = 0 and -Tr rho log(I/2) = 1
    value = relative_entropy(Ket.from_bits("0").density(), mixed(np.eye(2) / 2))
    assert value == pytest.approx(1.0)


def test_relative_entropy_dimension_mismatch():
    with pytest.raises(ValueError):
        relative_entropy(mixed(np.eye(2) / 2), mixed(np.eye(4) / 4, Q2))


# ---------------------------------------------------------------------------
# mutual information


def test_mutual_information_product_state():
    rng = np.random.default_rng(53)
    rho = random_density(Q1, rng)
    sigma = random_density(Q1, rng)
    joint = DensityOp(Q2, np.kron(rho.matrix, sigma.matrix))
    assert mutual_information(joint, (0,), (1,)) == pytest.approx(0.0, abs=1e-10)


def test_mutual_information_epr():
    assert mutual_information(EPR.density(), (0,), (1,)) == pytest.approx(2.0)


def test_mutual_information_classical_correlation():
    m = np.zeros((4, 4))
    m[0, 0] = m[3, 3] = 0.5
    assert mutual_information(mixed(m, Q2), (0,), (1,)) == pytest.approx(1.0)


def test_mutual_information_reduces_first():
    # groups inside a larger system: reduce, then apply the definition
    value = mutual_information(GHZ.density(), (0,), (1,))
    reduced = partial_trace(GHZ.density(), [0, 1])
    assert value == pytest.approx(mutual_information(reduced, (0,), (1,)))


def test_mutual_information_overlap_rejected():
    with pytest.raises(ValueError):
        mutual_information(EPR.density(), (0,), (0,))


def test_mutual_information_equals_relative_entropy_to_marginals():
    rng = np.random.default_rng(59)
    for _ in range(60):
        rho = random_density(Q2, rng)
        product = np.kron(partial_trace(rho, [0]).matrix, partial_trace(rho, [1]).matrix)
        lhs = mutual_information(rho, (0,), (1,))
        rhs = relative_entropy(rho, DensityOp(Q2, product))
        assert abs(lhs - rhs) <= 1e-7


# ---------------------------------------------------------------------------
# entanglement measure


def test_entanglement_measure_values():
    assert entanglement_measure(EPR, cut=[0]) == pytest.approx(1.0)
    product = Ket.from_bits("0").tensor(Ket.from_bits("1"))
    assert entanglement_measure(product, cut=[0]) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_entanglement_measure_epr_pairs(n):
    from pqclab.protocols import epr_block
    assert entanglement_measure(epr_block(n), cut=range(n)) == pytest.approx(float(n))


def test_entanglement_measure_matches_reduction_entropy():
    rng = np.random.default_rng(61)
    for _ in range(30):
        psi = haar_ket(Q3, rng)
        e = entanglement_measure(psi, cut=[0, 2])
        left = von_neumann(partial_trace(psi.density(), [0, 2]))
        right = von_neumann(partial_trace(psi.density(), [1]))
        assert abs(e - left) <= 1e-8
        assert abs(e - right) <= 1e-8


# ---------------------------------------------------------------------------
# classicality predicate


def test_classicality_on_diagonal_state():
    m = np.zeros((4, 4))
    m[0, 0] = m[3, 3] = 0.5
    rho = mixed(m, Q2)
    assert is_classical_on(rho, (0,))
    assert is_classical_on(rho, (0, 1))


def test_classicality_detects_coherence():
    # EPR marginals are diagonal but the joint is not classical on either wire
    assert classicality_deviation(EPR.density(), (0,)) == pytest.approx(0.5)
    assert not is_classical_on(EPR.density(), (0,))


# ---------------------------------------------------------------------------
# inequality checkers


def _slacks(reports):
    return {r.name: r.slack for r in reports}


def test_inequalities_product_of_three_pure():
    psi = Ket.from_bits("0").tensor(Ket.from_bits("1")).tensor(Ket.from_bits("0"))
    got = _slacks(check_entropy_inequalities(psi.density(), {"A": (0,), "B": (1,), "C": (2,)}))
    assert got["subadditivity"] == pytest.approx(0.0, abs=1e-10)
    assert got["araki_lieb"] == pytest.approx(0.0, abs=1e-10)
    assert got["strong_subadditivity"] == pytest.approx(0.0, abs=1e-10)
    assert got["chain_rule"] == pytest.approx(0.0, abs=1e-10)


def test_inequalities_ghz_ssa_slack():
    # S(AB) + S(AC) - S(ABC) - S(A) = 1 + 1 - 0 - 1 = 1
    got = _slacks(check_entropy_inequalities(GHZ.density(), {"A": (0,), "B": (1,), "C": (2,)}))
    assert got["strong_subadditivity"] == pytest.approx(1.0)


def test_inequalities_random_sweep():
    rng = np.random.default_rng(67)
    for _ in range(150):
        rho = random_density(Q3, rng)
        got = _slacks(check_entropy_inequalities(rho, {"A": (0,), "B": (1,), "C": (2,)}))
        assert got["subadditivity"] >= -1e-8
        assert got["araki_lieb"] >= -1e-8
        assert got["strong_subadditivity"] >= -1e-8
        assert got["chain_rule"] >= -1e-8


def test_classical_marginal_requires_verified_classical_group():
    # an EPR pair is coherent on A: the classical bound, which it breaks, is not checked
    rho = EPR.density()
    assert not is_classical_on(rho, (0,))
    got = _slacks(check_entropy_inequalities(rho, {"A": (0,), "B": (1,)}))
    assert "classical_marginal" not in got
    assert _reference_inequalities(rho, (0,), (1,), a_classical=True)["classical_marginal"] < 0


def test_classical_marginal_bound_holds():
    rng = np.random.default_rng(71)
    for _ in range(30):
        # classical-quantum state: diagonal blocks on wire 0
        p = rng.dirichlet(np.ones(2))
        blocks = [random_density(Q1, rng).matrix for _ in range(2)]
        m = np.zeros((4, 4), dtype=complex)
        m[:2, :2] = p[0] * blocks[0]
        m[2:, 2:] = p[1] * blocks[1]
        rho = mixed(m, Q2)
        got = _slacks(check_entropy_inequalities(rho, {"A": (0,), "B": (1,)}))
        assert got["classical_marginal"] >= -1e-8


def test_inequalities_bad_labels():
    with pytest.raises(ValueError):
        check_entropy_inequalities(EPR.density(), {"A": (0,), "X": (1,)})
    with pytest.raises(ValueError):
        check_entropy_inequalities(EPR.density(), {"A": (0,), "B": (0,)})


def test_correlation_bounds_product_pure():
    psi = Ket.from_bits("0").tensor(Ket.from_bits("0")).tensor(Ket.from_bits("0"))
    got = _slacks(check_correlation_bounds(psi.density(), (0,), (1,), (2,)))
    assert got["cond_mutual_info_vs_marginals"] == pytest.approx(0.0, abs=1e-10)
    assert got["mutual_info_vs_marginals"] == pytest.approx(0.0, abs=1e-10)


def test_correlation_bounds_random_sweep():
    rng = np.random.default_rng(73)
    for _ in range(200):
        rho = random_density(Q3, rng)
        got = _slacks(check_correlation_bounds(rho, (0,), (1,), (2,)))
        assert got["cond_mutual_info_vs_marginals"] >= -1e-8
        assert got["mutual_info_vs_marginals"] >= -1e-8


def test_correlation_bounds_empty_x():
    got = _slacks(check_correlation_bounds(EPR.density(), (0,), (1,)))
    # I(A:B) = 2 and min(2 S(A), 2 S(B)) = 2: tight
    assert got["mutual_info_vs_marginals"] == pytest.approx(0.0, abs=1e-10)
    assert got["cond_mutual_info_vs_marginals"] == pytest.approx(0.0, abs=1e-10)


def test_correlation_bounds_classical_part():
    rng = np.random.default_rng(79)
    # layout [A, X, B]: diagonal blocks over the (A, X) wires, arbitrary on B
    p = rng.dirichlet(np.ones(4))
    m = np.zeros((8, 8), dtype=complex)
    for i in range(4):
        block = random_density(Q1, rng).matrix
        m[i * 2:(i + 1) * 2, i * 2:(i + 1) * 2] = p[i] * block
    rho = DensityOp(Q3, m)
    got = _slacks(check_correlation_bounds(rho, (0,), (2,), (1,)))
    assert got["cond_mutual_info_vs_marginals_classical"] >= -1e-8


def test_report_serialization():
    report = InequalityReport("subadditivity", 0.25, {"dims": [2], "matrix": []})
    data = dataclasses.asdict(report)
    assert data["name"] == "subadditivity"
    assert data["slack"] == 0.25


# ---------------------------------------------------------------------------
# one entropy per subsystem set, read from the validated state


def _reference_entropy(rho, *groups):
    group = tuple(i for g in groups for i in g)
    return von_neumann(partial_trace(rho, group)) if group else 0.0


def _reference_inequalities(rho, a, b, c=(), a_classical=False):
    s = lambda *gs: _reference_entropy(rho, *gs)
    other = b + c
    ref = {"subadditivity": s(a) + s(other) - s(a, other),
           "araki_lieb": s(a, other) - abs(s(a) - s(other))}
    if c:
        ref["strong_subadditivity"] = s(a, b) + s(a, c) - s(a, b, c) - s(a)
        i_a_bc = s(a) + s(b, c) - s(a, b, c)
        i_a_b = s(a) + s(b) - s(a, b)
        i_ab_c = s(a, b) + s(c) - s(a, b, c)
        i_b_c = s(b) + s(c) - s(b, c)
        ref["chain_rule"] = -abs(i_a_bc - i_a_b - i_ab_c + i_b_c)
    if a_classical:
        ref["classical_marginal"] = s(a, other) - max(s(a), s(other))
    return ref


def _reference_correlations(rho, a, b, x=(), ax_classical=False):
    s = lambda *gs: _reference_entropy(rho, *gs)
    cond_mi = s(a, x) + s(b, x) - s(a, b, x) - s(x)
    cap = min(2 * s(a), 2 * s(b))
    ref = {"cond_mutual_info_vs_marginals": cap - cond_mi,
           "mutual_info_vs_marginals": cap - (s(a) + s(b) - s(a, b))}
    if ax_classical:
        ref["cond_mutual_info_vs_marginals_classical"] = min(s(a), s(b)) - cond_mi
    return ref


def _dephase(rho, group):
    """Zero every entry that couples different basis states of ``group``."""
    labels = np.indices(rho.layout.dims).reshape(len(rho.layout), -1)[list(group)].T
    same = (labels[:, None, :] == labels[None, :, :]).all(axis=-1)
    return DensityOp(rho.layout, np.where(same, rho.matrix, 0.0))


@pytest.mark.parametrize("seed", range(8))
def test_checker_slacks_equal_per_term_reference(seed):
    rho = random_density(Q3, np.random.default_rng(seed))
    three = _slacks(check_entropy_inequalities(rho, {"A": (0,), "B": (1,), "C": (2,)}))
    assert three == _reference_inequalities(rho, (0,), (1,), (2,))
    two = _slacks(check_entropy_inequalities(rho, {"A": (2,), "B": (0, 1)}))
    assert two == _reference_inequalities(rho, (2,), (0, 1))
    corr = _slacks(check_correlation_bounds(rho, (0,), (1,), (2,)))
    assert corr == _reference_correlations(rho, (0,), (1,), (2,))
    no_x = _slacks(check_correlation_bounds(rho, (1,), (2,)))
    assert no_x == _reference_correlations(rho, (1,), (2,))


@pytest.mark.parametrize("seed", range(4))
def test_classical_branch_slacks_equal_per_term_reference(seed):
    rho = random_density(Q3, np.random.default_rng(100 + seed))
    cq = _dephase(rho, (0,))
    got = _slacks(check_entropy_inequalities(cq, {"A": (0,), "B": (1,), "C": (2,)}))
    assert got == _reference_inequalities(cq, (0,), (1,), (2,), a_classical=True)
    cqc = _dephase(rho, (0, 2))
    got = _slacks(check_correlation_bounds(cqc, (0,), (1,), (2,)))
    assert got == _reference_correlations(cqc, (0,), (1,), (2,), ax_classical=True)


def test_checkers_and_mutual_information_build_no_density_op(monkeypatch):
    rng = np.random.default_rng(5)
    rho = random_density(Q3, rng)
    cq = _dephase(rho, (0, 2))
    built = []
    validate = DensityOp.__post_init__

    def counting(self):
        built.append(self.layout.dims)
        validate(self)

    monkeypatch.setattr(DensityOp, "__post_init__", counting)
    check_entropy_inequalities(cq, {"A": (0,), "B": (1,), "C": (2,)})
    check_entropy_inequalities(cq, {"A": (0,), "B": (1, 2)})
    check_correlation_bounds(cq, (0,), (1,), (2,))
    check_correlation_bounds(cq, (0,), (1,))
    mutual_information(rho, (0,), (2,))
    mutual_information(rho, (0, 1), (2,))
    assert built == []


@pytest.mark.parametrize("state", ["cq", "ghz", "epr", "random"])
def test_classical_bounds_appear_exactly_when_the_state_is_classical(state):
    rho = {"cq": _dephase(random_density(Q3, np.random.default_rng(3)), (0, 2)),
           "ghz": GHZ.density(), "epr": EPR.density(),
           "random": random_density(Q3, np.random.default_rng(4))}[state]
    a, b, x = (0,), (1,), (2,)[:len(rho.layout) - 2]
    assert is_classical_on(rho, a) == is_classical_on(rho, a + x) == (state == "cq")
    entropy = _slacks(check_entropy_inequalities(rho, {"A": a, "B": b + x}))
    assert ("classical_marginal" in entropy) == is_classical_on(rho, a)
    corr = _slacks(check_correlation_bounds(rho, a, b, x))
    assert ("cond_mutual_info_vs_marginals_classical" in corr) == is_classical_on(rho, a + x)


@pytest.mark.parametrize("seed", range(8))
def test_chain_rule_slack_is_the_smaller_one_sided_slack(seed):
    # an identity in real arithmetic: rounding leaves a residual on some seeds
    rho = random_density(Q3, np.random.default_rng(200 + seed))
    s = lambda *gs: _reference_entropy(rho, *gs)
    a, b, c = (0,), (1,), (2,)
    lhs = s(a) + s(b, c) - s(a, b, c)  # I(A:BC)
    rhs = (s(a) + s(b) - s(a, b)) + (s(a, b) + s(b, c) - s(a, b, c) - s(b))  # I(A:B) + I(A:C|B)
    got = _slacks(check_entropy_inequalities(rho, {"A": a, "B": b, "C": c}))["chain_rule"]
    assert got <= 0.0
    assert got == pytest.approx(-abs(lhs - rhs), abs=1e-12)
    assert got == pytest.approx(min(lhs - rhs, rhs - lhs), abs=1e-12)


@pytest.mark.parametrize("check, flag", [
    (lambda rho, **kw: check_entropy_inequalities(rho, {"A": (0,), "B": (1,)}, **kw),
     "a_classical"),
    (lambda rho, **kw: check_correlation_bounds(rho, (0,), (1,), **kw), "ax_classical"),
])
def test_checkers_take_no_classicality_flag(check, flag):
    with pytest.raises(TypeError, match=flag):
        check(EPR.density(), **{flag: True})


def test_mutual_information_on_subset_matches_reduce_first():
    rng = np.random.default_rng(11)
    for _ in range(20):
        rho = random_density(SystemLayout.qubits(4), rng)
        for a, b in (((0,), (2,)), ((3,), (1,)), ((0, 2), (3,))):
            joint = tuple(sorted(a + b))
            reduced = partial_trace(rho, joint)
            remap = {old: new for new, old in enumerate(joint)}
            expected = mutual_information(reduced, tuple(remap[i] for i in a),
                                          tuple(remap[i] for i in b))
            assert mutual_information(rho, a, b) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# stacks: one row of a stacked computation is the one-state computation


def test_stack_slack_rows_equal_the_one_state_checkers():
    rng = np.random.default_rng(21)
    stack = np.stack([random_density_matrix(8, rng) for _ in range(6)])
    slacks = stack_slacks(stack, Q3.dims, (0,), (1,), (2,))
    for k, matrix in enumerate(stack):
        rho = DensityOp(Q3, matrix)
        one = _slacks(check_entropy_inequalities(rho, {"A": (0,), "B": (1,), "C": (2,)}))
        one.update(_slacks(check_correlation_bounds(rho, (0,), (1,), (2,))))
        assert {name: float(values[k]) for name, values in slacks.items()} == one


def test_entropy_of_a_stack_row_equals_the_single_spectrum():
    spectra = np.array([[0.5, 0.0, 0.25, 0.25], [0.25] * 4, [1.0, 1e-13, -1e-17, 0.0],
                        [0.7, 0.2, 0.1, 1e-12]])
    stacked = _entropy_of_probs(spectra)
    assert stacked.shape == (4,)
    assert [_entropy_of_probs(row) for row in spectra] == stacked.tolist()
    assert stacked.tolist() == pytest.approx([1.5, 2.0, 0.0, _entropy_of_probs([0.7, 0.2, 0.1])])


# ---------------------------------------------------------------------------
# the stacked cross-check against the one-state identity


def one_state_cross_check(rho):
    product = np.kron(reduced_matrix(rho.matrix, Q2.dims, [0]),
                      reduced_matrix(rho.matrix, Q2.dims, [1]))
    return abs(mutual_information(rho, (0,), (1,))
               - relative_entropy(rho, DensityOp(Q2, product)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.integers(1, 4), min_size=1, max_size=8), st.integers(0, 2 ** 32 - 1))
def test_stacked_cross_check_equals_the_one_state_identity(ranks, seed):
    rng = np.random.default_rng(seed)
    states = [random_density(Q2, rng, rank) for rank in ranks]
    stacked = stack_cross_check(np.stack([rho.matrix for rho in states]))
    assert stacked.tolist() == [one_state_cross_check(rho) for rho in states]


def test_stacked_cross_check_on_singular_products():
    # |00>, |0> ⊗ I/2 and the classically correlated (|00><00| + |11><11|)/2:
    # products of rank 1, 2 and 4
    states = [np.diag(v).astype(complex) for v in ([1, 0, 0, 0], [0.5, 0.5, 0, 0],
                                                    [0.5, 0, 0, 0.5])]
    stacked = stack_cross_check(np.stack(states))
    assert stacked.tolist() == [one_state_cross_check(DensityOp(Q2, m)) for m in states]
    assert stacked.tolist() == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)


def test_stacked_relative_entropy_is_infinite_only_on_the_row_leaving_the_support():
    rng = np.random.default_rng(8)
    low = np.diag([0.5, 0.5, 0, 0]).astype(complex)  # support span{|00>, |01>}
    inside = np.zeros((4, 4), dtype=complex)
    inside[:2, :2] = random_density_matrix(2, rng)
    rhos = [random_density_matrix(4, rng), np.diag([1, 0, 0, 0]).astype(complex),
            np.diag([0.5, 0, 0.5, 0]).astype(complex), inside]
    sigmas = [random_density_matrix(4, rng), low, low, low]
    stacked = _relative_entropy(np.stack(rhos), np.stack(sigmas))
    assert np.isinf(stacked).tolist() == [False, False, True, False]
    assert stacked.tolist() == [relative_entropy(DensityOp(Q2, r), DensityOp(Q2, s))
                                for r, s in zip(rhos, sigmas)]
    assert stacked[1] == pytest.approx(1.0)
