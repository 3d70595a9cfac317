import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import regular_instance, seeded_vector, singular_instance
from rankone.core import DenseOperator, Functional, RankOneForm, Vector, invert, outer, pair
from rankone.perturbed_inverse import (
    RegularInverse,
    SingularInverse,
    SingularPerturbationError,
    denominator,
    null_space_certificate,
    perturbed_inverse,
    solve_perturbed,
)


def _identity_form(weight: float) -> tuple[DenseOperator, RankOneForm]:
    a_inv = DenseOperator.identity(2)
    return a_inv, RankOneForm(Vector([1, 0]), Functional([weight, 0]))


def test_denominator_vanishes_at_unit_pairing():
    a_inv, form = _identity_form(1.0)
    assert denominator(a_inv, form) == 0


def test_denominator_half():
    a_inv, form = _identity_form(0.5)
    assert denominator(a_inv, form) == 0.5


def test_denominator_zero_perturbation():
    a_inv = DenseOperator.identity(3)
    form = RankOneForm(Vector.zero(3), Functional([1, 1, 1]))
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
    v = solve_perturbed(a_inv, form, Vector.zero(6))
    assert_allclose(v.entries, np.zeros(6), atol=1e-15)


def test_solve_residual_seeded():
    rng = np.random.default_rng(23)
    a, a_inv, form = regular_instance(rng, 8)
    w = seeded_vector(rng, 8)
    v = solve_perturbed(a_inv, form, w)
    b = a - form.materialize()
    assert np.max(np.abs((b @ v - w).entries)) <= 1e-10


def test_solve_rejects_singular_perturbation():
    rng = np.random.default_rng(29)
    _, a_inv, form = singular_instance(rng, 6)
    with pytest.raises(SingularPerturbationError):
        solve_perturbed(a_inv, form, seeded_vector(rng, 6))


def test_solve_matches_materialized_inverse():
    rng = np.random.default_rng(31)
    _, a_inv, form = regular_instance(rng, 10)
    result = perturbed_inverse(a_inv, form)
    assert isinstance(result, RegularInverse)
    w = seeded_vector(rng, 10)
    direct = result.apply_to(a_inv) @ w
    assert np.max(np.abs((solve_perturbed(a_inv, form, w) - direct).entries)) <= 1e-9


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
        null_space_certificate(a_inv, form, Vector.zero(2))


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


def test_singular_residual_invariant():
    rng = np.random.default_rng(41)
    a, a_inv, form = singular_instance(rng, 12)
    result = perturbed_inverse(a_inv, form)
    assert isinstance(result, SingularInverse)
    b = a - form.materialize()
    v = result.null_vector
    assert (b @ v).norm() <= 1e-9 * b.norm_max() * v.norm()


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
    form = RankOneForm(Vector.zero(2), Functional([1, 1]))
    result = perturbed_inverse(a_inv, form)
    assert isinstance(result, RegularInverse)
    assert result.denominator == 1
    assert_allclose(result.apply_to(a_inv).matrix, a_inv.matrix)
