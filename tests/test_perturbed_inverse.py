import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from rankone import discretize
from rankone.core import DenseOperator, Functional, RankOneForm, Vector, invert
from rankone.krein import ResolventDifference
from rankone.perturbed_inverse import (
    RegularInverse,
    SingularInverse,
    SingularPerturbationError,
    denominator,
    null_space_certificate,
    perturbed_inverse,
    solve_perturbed,
)
from rankone.verification import (
    random_functional,
    random_operator,
    random_vector,
    regular_instance,
    singular_instance,
)


def _identity_form(weight: float) -> tuple[DenseOperator, RankOneForm]:
    a_inv = DenseOperator(np.eye(2))
    return a_inv, RankOneForm(Vector([1, 0]), Functional([weight, 0]))


def test_denominator_vanishes_at_unit_pairing():
    a_inv, form = _identity_form(1.0)
    assert denominator(a_inv, form) == 0


def test_denominator_half():
    a_inv, form = _identity_form(0.5)
    assert denominator(a_inv, form) == 0.5


def test_denominator_zero_perturbation():
    a_inv = DenseOperator(np.eye(3))
    form = RankOneForm(Vector(np.zeros(3)), Functional([1, 1, 1]))
    assert denominator(a_inv, form) == 1


def test_regular_branch_two_by_two():
    # B = I - 0.5 e1 e1^T = diag(0.5, 1); direct inverse diag(2, 1) = I + e1 e1^T
    a_inv, form = _identity_form(0.5)
    result = perturbed_inverse(a_inv, form)
    assert isinstance(result, RegularInverse)
    b_inv = result.apply_to(a_inv)
    assert_allclose(b_inv.matrix, np.diag([2.0, 1.0]), atol=1e-14)
    assert_allclose(b_inv.matrix, np.eye(2) + np.outer([1, 0], [1, 0]), atol=1e-14)


def test_singular_branch_two_by_two():
    # B = diag(0, 1): kernel spanned by e1
    a_inv, form = _identity_form(1.0)
    result = perturbed_inverse(a_inv, form)
    assert isinstance(result, SingularInverse)
    assert_allclose(result.null_vector.entries, [1, 0])


def test_regular_branch_matches_brute_force_inverse():
    rng = np.random.default_rng(17)
    a, a_inv, form = regular_instance(rng, 8)
    result = perturbed_inverse(a_inv, form)
    assert isinstance(result, RegularInverse)
    oracle = invert(a - form.materialize())
    dev = np.max(np.abs(result.apply_to(a_inv).matrix - oracle.matrix))
    assert dev <= 1e-10 * np.max(np.abs(oracle.matrix))


def test_solve_one_dimensional():
    # A=[2], f=[1], l=(1), w=[1]: B=[1], so v=w; c = 0.5/0.5 = 1, v = 0.5*(1+1)
    a_inv = DenseOperator([[0.5]])
    form = RankOneForm(Vector([1]), Functional([1]))
    v = solve_perturbed(a_inv, form, Vector([1]))
    assert_allclose(v.entries, [1.0])


def test_solve_zero_rhs():
    rng = np.random.default_rng(5)
    _, a_inv, form = regular_instance(rng, 6)
    v = solve_perturbed(a_inv, form, Vector(np.zeros(6)))
    assert_allclose(v.entries, np.zeros(6), atol=1e-15)


def test_solve_residual_seeded():
    rng = np.random.default_rng(23)
    a, a_inv, form = regular_instance(rng, 8)
    w = random_vector(rng, 8)
    v = solve_perturbed(a_inv, form, w)
    b = a - form.materialize()
    assert np.max(np.abs((b @ v - w).entries)) <= 1e-10


def test_solve_rejects_singular_perturbation():
    rng = np.random.default_rng(29)
    _, a_inv, form = singular_instance(rng, 6)
    with pytest.raises(SingularPerturbationError):
        solve_perturbed(a_inv, form, random_vector(rng, 6))


def test_solve_with_tridiagonal_resolvent_matches_dense_solve():
    # A = z - T_dd is known only through the action of its factored inverse.
    pair_, z = discretize.build_pair(50), 3.0 + 1.0j
    rng = np.random.default_rng(53)
    form = RankOneForm(random_vector(rng, 50), random_functional(rng, 50))
    w = random_vector(rng, 50)
    v = solve_perturbed(discretize.resolvent(pair_.t_dd, z), form, w)
    b = z * np.eye(50) - pair_.t_dd.matrix - np.outer(form.f.entries, form.l.weights)
    direct = np.linalg.solve(b, w.entries)
    assert np.max(np.abs(v.entries - direct)) <= 1e-10 * np.max(np.abs(direct))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_update_raises_value_error():
    # A = 1e-200 I inverts without trouble, but A^-1 f = 1e400 overflows.
    a_inv = invert(DenseOperator(1e-200 * np.eye(2)))
    form = RankOneForm(Vector([1e200, 1e200]), Functional([1, -1]))
    with pytest.raises(ValueError):
        perturbed_inverse(a_inv, form)
    with pytest.raises(ValueError):
        solve_perturbed(a_inv, form, Vector([1, 1]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_pairing_raises_value_error():
    # B = I - |f><l| is invertible, but <l|A^-1 f> = 2e308 overflows; taken
    # as it is, it would widen the tolerance band to infinity and report B singular.
    a_inv = DenseOperator(np.eye(2))
    form = RankOneForm(Vector([1e154, 1e154]), Functional([1e154, 1e154]))
    with pytest.raises(ValueError, match="out of floating-point range"):
        perturbed_inverse(a_inv, form)
    with pytest.raises(ValueError, match="out of floating-point range"):
        solve_perturbed(a_inv, form, Vector([1, 1]))


def test_reading_an_overflowing_correction_raises_value_error():
    # A^-1 = diag(1, 1e308), f = (2, 0) and l = (0, 1): <l|A^-1 f> = 0, so the
    # update is regular, far outside the band 1e-10 (1 + ||l|| ||A^-1 f||), and
    # both factors, (2, 0) and (0, 1e308), are finite, but their product 2e308
    # overflows.
    a_inv = DenseOperator(np.diag([1.0, 1e308]))
    form = RankOneForm(Vector([2, 0]), Functional([0, 1]))
    result = perturbed_inverse(a_inv, form)
    assert isinstance(result, RegularInverse) and result.denominator == 1
    with pytest.raises(ValueError):
        result.correction
    with pytest.raises(ValueError):
        result.apply_to(a_inv)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("cls", [RegularInverse, ResolventDifference])
def test_materializing_an_overflowing_term_raises_without_a_warning(cls):
    # Finite factors whose outer product, 1e400, overflows: one ValueError, no numpy warning.
    term = cls(left=Vector([1e200, 0]), right=Functional([0, 1e200]), denominator=1.0)
    with pytest.raises(ValueError):
        term.materialize()


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 12),
    delta=st.floats(0.25, 4.0),
    phase=st.floats(0.0, 2.0 * np.pi),
)
def test_branch_flips_at_the_singular_band(seed, dim, delta, phase):
    # l is scaled so that 1 - <l|A^-1 f> = delta * band * e^(i phase), with
    # band = 1e-10 (1 + ||l|| ||A^-1 f||).  Both c = 1 callers take the same
    # branch, and it is the singular one exactly when delta < 1, up to the
    # rounding of the pairing (~eps / 1e-10 of the band).
    rng = np.random.default_rng(seed)
    a_inv = invert(random_operator(rng, dim))
    f, l0 = random_vector(rng, dim), random_functional(rng, dim)
    u = a_inv.apply(f.entries)
    q = complex(np.dot(l0.weights, u))
    assume(abs(q) > 1e-3 * l0.norm() * np.linalg.norm(u))
    band = 1e-10 * (1.0 + l0.norm() * np.linalg.norm(u) / abs(q))
    form = RankOneForm(f, l0 * ((1.0 - delta * band * np.exp(1j * phase)) / q))
    singular = isinstance(perturbed_inverse(a_inv, form), SingularInverse)
    try:
        solve_perturbed(a_inv, form, random_vector(rng, dim))
        raised = False
    except SingularPerturbationError:
        raised = True
    assert singular == raised
    if abs(delta - 1.0) > 1e-3:
        assert singular == (delta < 1.0)


def test_update_of_an_o_n_resolvent_allocates_no_dense_matrix():
    # A dense n x n complex correction would take 160 GB here.  A^-1 is the
    # O(n) resolvent (0 - T_dd)^-1, and f = -e_n / h^2, l = e_n make
    # B = -T_dd + e_n e_n^T / h^2 = -T_dn.  The bound is that of the discrete
    # commands at this n: 96 complex n-vectors.
    n = 100_000
    pair_ = discretize.build_pair(n)
    h = pair_.grid.h
    form = RankOneForm(Vector.basis(n - 1, n) * (-1.0 / h**2), Functional.basis(n - 1, n))
    w = Vector(np.random.default_rng(5).standard_normal(n))
    tracemalloc.start()
    try:
        a_inv = discretize.resolvent(pair_.t_dd, 0.0)
        result = perturbed_inverse(a_inv, form)
        v = solve_perturbed(a_inv, form, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 96 * n * 16
    assert isinstance(result, RegularInverse)
    # B v = w through the stencil: -T_dn v - w, relative to the sizes of its terms.
    residual = np.max(np.abs(-pair_.t_dn.apply(v.entries) - w.entries))
    scale = 4.0 / h**2 * np.max(np.abs(v.entries)) + np.max(np.abs(w.entries))
    assert residual <= 1e-12 * scale
    # B^-1 w from the kept factors agrees with the solve.
    factored = a_inv.apply(w.entries) + result.left.entries * (
        complex(np.dot(result.right.weights, w.entries)) / result.denominator
    )
    assert np.max(np.abs(factored - v.entries)) <= 1e-12 * np.max(np.abs(v.entries))


def test_certificate_accepts_kernel_vector():
    a_inv, form = _identity_form(1.0)
    assert null_space_certificate(a_inv, form, Vector([1, 0]))


def test_certificate_rejects_orthogonal_vector():
    a_inv, form = _identity_form(1.0)
    assert not null_space_certificate(a_inv, form, Vector([0, 1]))


def test_certificate_rejects_regular_perturbation():
    a_inv, form = _identity_form(0.5)
    assert not null_space_certificate(a_inv, form, Vector([1, 0]))
    assert not null_space_certificate(a_inv, form, Vector([1, 1]))


def test_certificate_requires_nonzero_vector():
    a_inv, form = _identity_form(1.0)
    with pytest.raises(ValueError):
        null_space_certificate(a_inv, form, Vector(np.zeros(2)))


def test_certificate_on_crafted_singular_instance():
    rng = np.random.default_rng(37)
    _, a_inv, form = singular_instance(rng, 7)
    v0 = a_inv @ form.f
    assert null_space_certificate(a_inv, form, v0)
    assert null_space_certificate(a_inv, form, (2.0 - 1.0j) * v0)


def test_certificate_accepts_own_null_vector():
    # Taking the sine as sqrt(1 - cos^2) left a rounding floor of ~1.5e-8,
    # above the default tol, and rejected about a third of these.
    for seed in range(40):
        rng = np.random.default_rng(seed)
        _, a_inv, form = singular_instance(rng, int(rng.integers(4, 65)))
        result = perturbed_inverse(a_inv, form)
        assert isinstance(result, SingularInverse)
        assert null_space_certificate(a_inv, form, result.null_vector), seed


@pytest.mark.parametrize("dim", [3, 8, 32])
def test_regular_residual_invariant(dim):
    rng = np.random.default_rng(100 + dim)
    a, a_inv, form = regular_instance(rng, dim)
    result = perturbed_inverse(a_inv, form)
    assert isinstance(result, RegularInverse)
    residual = (a - form.materialize()) @ result.apply_to(a_inv)
    assert np.max(np.abs(residual.matrix - np.eye(dim))) <= 1e-9


@pytest.mark.parametrize("alpha", [2.0, -0.5, 1.7 - 2.3j])
def test_gauge_invariance_of_update(alpha):
    rng = np.random.default_rng(43)
    _, a_inv, form = regular_instance(rng, 8)
    base = perturbed_inverse(a_inv, form)
    scaled = perturbed_inverse(a_inv, form.gauge(alpha))
    assert isinstance(base, RegularInverse) and isinstance(scaled, RegularInverse)
    assert abs(base.denominator - scaled.denominator) <= 1e-12
    assert np.max(np.abs(base.correction.matrix - scaled.correction.matrix)) <= 1e-12


def test_gauge_preserves_null_vector_direction():
    rng = np.random.default_rng(47)
    _, a_inv, form = singular_instance(rng, 6)
    base = perturbed_inverse(a_inv, form)
    scaled = perturbed_inverse(a_inv, form.gauge(3.0))
    assert isinstance(base, SingularInverse) and isinstance(scaled, SingularInverse)
    u = base.null_vector.entries
    w = scaled.null_vector.entries
    cos = abs(np.vdot(u, w)) / (np.linalg.norm(u) * np.linalg.norm(w))
    assert cos == pytest.approx(1.0, abs=1e-12)


def test_zero_factor_degenerates_to_original_inverse():
    # "rank-one or less": f = 0 leaves B = A
    a_inv = DenseOperator(np.diag([0.5, 0.25]))
    form = RankOneForm(Vector(np.zeros(2)), Functional([1, 1]))
    result = perturbed_inverse(a_inv, form)
    assert isinstance(result, RegularInverse)
    assert result.denominator == 1
    assert_allclose(result.apply_to(a_inv).matrix, a_inv.matrix)
