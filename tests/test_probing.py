import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from rankone import discretize
from rankone.core import DenseOperator, Functional, Vector, invert, outer, pair
from rankone.krein import EigenvalueHitError, resolvent_difference
from rankone.probing import (
    ADMISSIBILITY_RTOL,
    InadmissibleProbeError,
    NotRankOneError,
    ZeroDifferenceError,
    bilinear_value,
    choose_probe,
    coordinate_probe,
    recover_factors,
    resolvent_difference_factor_free,
)
from rankone.verification import random_functional, random_operator, random_vector

D_EXAMPLE = DenseOperator([[3.0, 4.0], [6.0, 8.0]])  # outer((1,2),(3,4))


def test_choose_probe_picks_largest_entry():
    probe = choose_probe(D_EXAMPLE)
    assert_allclose(probe.f0.entries, [0, 1])
    assert_allclose(probe.l0.weights, [0, 1])
    assert probe.pairing == 8


def test_choose_probe_rejects_zero_difference():
    with pytest.raises(ZeroDifferenceError):
        choose_probe(DenseOperator(np.zeros((3, 3))))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_choose_probe_refuses_overflowed_action_as_out_of_range():
    # Every entry of D = |f><l| is 1e308, finite, but D g overflows.
    d = outer(Vector([1e154, 1e154]), Functional([1e154, 1e154]))
    with pytest.raises(ValueError, match="out of floating-point range") as info:
        choose_probe(d)
    assert not isinstance(info.value, ZeroDifferenceError)


def test_choose_probe_single_nonzero_entry():
    d = outer(Vector([1, 0]), Functional([0, 1]))  # only D[0,1] = 1
    probe = choose_probe(d)
    assert_allclose(probe.f0.entries, [0, 1])  # f0 = e2
    assert_allclose(probe.l0.weights, [1, 0])  # l0 = e1
    assert probe.pairing == 1


def test_choose_probe_tie_breaks_lexicographically():
    probe = choose_probe(DenseOperator(np.ones((3, 3))))
    assert_allclose(probe.f0.entries, [1, 0, 0])
    assert_allclose(probe.l0.weights, [1, 0, 0])


def test_recover_factors_hand_example():
    probe = coordinate_probe(D_EXAMPLE, 0, 0)
    assert probe.pairing == 3
    form = recover_factors(D_EXAMPLE, probe)
    assert_allclose(form.f.entries, [1, 2])
    assert_allclose(form.l.weights, [3, 4])
    assert_allclose(form.materialize().matrix, D_EXAMPLE.matrix)


def test_recover_factors_scalar_case():
    d = DenseOperator([[1.0]])
    form = recover_factors(d, choose_probe(d))
    assert_allclose(form.f.entries, [1])
    assert_allclose(form.l.weights, [1])


def test_recover_factors_seeded_reconstruction():
    rng = np.random.default_rng(13)
    d = outer(random_vector(rng, 9), random_functional(rng, 9))
    form = recover_factors(d, choose_probe(d))
    dev = np.max(np.abs(form.materialize().matrix - d.matrix))
    assert dev <= 1e-10 * d.norm_max()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("gauge", [1.0, 1.0 - 2.0j])
def test_recover_factors_of_a_subnormal_difference(gauge):
    # D's entries are ~1e-320, subnormal, and 1 / pairing overflows.
    f = np.array([1.0, 2.0, 3.0, 4.0]) * 1e-160 * gauge
    d = outer(Vector(f), Functional(np.array([1.0, 1.0, 1.0, 3.0]) * 1e-160))
    probe = choose_probe(d)
    assert 0 < abs(probe.pairing) < np.finfo(float).tiny
    form = recover_factors(d, probe)
    assert_allclose(form.f.entries, [0.25, 0.5, 0.75, 1.0], rtol=1e-3)
    assert np.array_equal(form.l.weights, d.matrix[3])
    assert np.max(np.abs(form.materialize().matrix - d.matrix)) <= 2 * np.finfo(float).smallest_subnormal


def test_recover_factors_refuses_higher_rank():
    with pytest.raises(NotRankOneError):
        recover_factors(DenseOperator(np.eye(3)), coordinate_probe(DenseOperator(np.eye(3)), 0, 0))


def test_recover_factors_refuses_small_second_rank():
    rng = np.random.default_rng(41)
    d = outer(random_vector(rng, 12), random_functional(rng, 12))
    d = DenseOperator(d.matrix + 1e-6 * outer(random_vector(rng, 12), random_functional(rng, 12)).matrix)
    with pytest.raises(NotRankOneError):
        recover_factors(d, choose_probe(d))


def test_recover_factors_accepts_large_testbed_difference():
    pair_ = discretize.build_pair(1200)
    d = discretize.inverse_difference(pair_)
    form = recover_factors(d, choose_probe(d))
    x = pair_.grid.nodes
    exact = pair_.grid.h * np.outer(x, x)
    assert np.max(np.abs(form.materialize().matrix - exact)) <= 1e-10 * np.max(exact)


@pytest.mark.parametrize("n", [2, 3, 50])
def test_choose_probe_same_on_actions_and_dense_matrix(n):
    d = discretize.inverse_difference(discretize.build_pair(n))
    from_actions = choose_probe(d)
    from_dense = choose_probe(DenseOperator(d.matrix))
    assert np.array_equal(from_actions.f0.entries, from_dense.f0.entries)
    assert np.array_equal(from_actions.l0.weights, from_dense.l0.weights)
    assert from_actions.pairing == pytest.approx(from_dense.pairing, rel=1e-13)


def test_recover_factors_refuses_rank_two_action_difference():
    # Two tridiagonals that differ in two diagonal entries: D has rank 2.
    t1 = discretize.build_pair(40).t_dd
    diag = t1.diag.copy()
    diag[[0, -1]] *= 1.5
    t2 = discretize.Tridiagonal(t1.lower, diag, t1.upper)
    d = discretize.resolvent(t1, 0.0) - discretize.resolvent(t2, 0.0)  # t2^-1 - t1^-1
    for op in (d, DenseOperator(d.matrix)):
        with pytest.raises(NotRankOneError):
            recover_factors(op, choose_probe(op))


def test_recover_factors_rejects_inadmissible_probe():
    d = outer(Vector([1, 0]), Functional([0, 1]))
    bad = coordinate_probe(d, 0, 0)  # D[0,0] = 0
    with pytest.raises(InadmissibleProbeError):
        recover_factors(d, bad)


def test_bilinear_value_identity_weight():
    # (D^2)[0,0]/3 = 33/3 = 11 = <l|f>
    probe = coordinate_probe(D_EXAMPLE, 0, 0)
    assert bilinear_value(D_EXAMPLE, DenseOperator(np.eye(2)), probe) == pytest.approx(11)


def test_bilinear_value_zero_weight():
    probe = coordinate_probe(D_EXAMPLE, 0, 0)
    assert bilinear_value(D_EXAMPLE, DenseOperator(np.zeros((2, 2))), probe) == 0


def test_bilinear_value_matches_direct_pairing():
    rng = np.random.default_rng(19)
    f = random_vector(rng, 8)
    l = random_functional(rng, 8)
    d = outer(f, l)
    s = random_operator(rng, 8)
    direct = pair(l, s @ f)
    quotient = bilinear_value(d, s, choose_probe(d))
    assert abs(quotient - direct) <= 1e-10 * abs(direct)


def test_probe_independence_of_recovered_outer_product():
    rng = np.random.default_rng(23)
    dim = 16
    d = outer(random_vector(rng, dim), random_functional(rng, dim))
    mats = []
    for i in range(dim):
        for j in range(dim):
            probe = coordinate_probe(d, i, j)
            if abs(probe.pairing) <= ADMISSIBILITY_RTOL * d.norm_max():
                continue
            mats.append(recover_factors(d, probe).materialize().matrix)
    reference = mats[0]
    for mat in mats[1:]:
        assert np.max(np.abs(mat - reference)) <= 1e-10 * d.norm_max()


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_recovery_residual_property(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 12))
    d = outer(random_vector(rng, dim), random_functional(rng, dim))
    form = recover_factors(d, choose_probe(d))
    assert np.max(np.abs(form.materialize().matrix - d.matrix)) <= 1e-10 * d.norm_max()


# ------------------------------------------------- factor-free resolvent path


def test_factor_free_at_zero_is_negated_difference():
    rng = np.random.default_rng(29)
    dim = 6
    t1 = discretize.Tridiagonal(np.zeros(dim - 1), np.arange(1.0, dim + 1), np.zeros(dim - 1))
    d = outer(random_vector(rng, dim), random_functional(rng, dim))
    r1 = discretize.resolvent(t1, 0.0)
    diff = resolvent_difference_factor_free(r1, 0.0, d, choose_probe(d))
    assert_allclose(diff.materialize().matrix, -d.matrix, atol=1e-12)


def test_factor_free_matches_factor_based_path():
    pair_ = discretize.build_pair(200)
    d = discretize.inverse_difference(pair_)
    probe = choose_probe(d)
    form = recover_factors(d, probe)
    z = 1.0
    r1 = discretize.resolvent(pair_.t_dd, z)
    factored = resolvent_difference(r1, z, form).materialize()
    factor_free = resolvent_difference_factor_free(r1, z, d, probe).materialize()
    assert np.max(np.abs(factored.matrix - factor_free.matrix)) <= 1e-9


def test_factor_free_matches_brute_force_on_random_instance():
    # A complex non-Hermitian tridiagonal T1 with a diagonal shift of 2 dim:
    # Gershgorin puts its spectrum within 5 of 2 dim = 24, so z = 3 + 4j is
    # safely off both spectra.
    rng = np.random.default_rng(31)
    dim = 12
    lower, upper = (random_vector(rng, dim - 1).entries for _ in range(2))
    t1 = discretize.Tridiagonal(lower, random_vector(rng, dim).entries + 2.0 * dim, upper)
    d = DenseOperator(0.01 * outer(random_vector(rng, dim), random_functional(rng, dim)).matrix)
    t1_inv = invert(t1)
    t2 = invert(DenseOperator(t1_inv.matrix + d.matrix))
    z = 3.0 + 4.0j
    r1 = discretize.resolvent(t1, z)
    brute = invert(DenseOperator(z * np.eye(dim)) - t2) - r1
    diff = resolvent_difference_factor_free(r1, z, d, choose_probe(d))
    assert np.max(np.abs(diff.materialize().matrix - brute.matrix)) <= 1e-8


def test_factor_free_raises_on_eigenvalue_hit():
    pair_ = discretize.build_pair(80)
    d = discretize.inverse_difference(pair_)
    probe = choose_probe(d)
    z0 = discretize.discrete_new_eigenvalues(pair_, 1)[0]
    r1 = discretize.resolvent(pair_.t_dd, z0)
    with pytest.raises(EigenvalueHitError):
        resolvent_difference_factor_free(r1, z0, d, probe)


def test_bilinear_probe_independence():
    rng = np.random.default_rng(37)
    dim = 16
    f = random_vector(rng, dim)
    l = random_functional(rng, dim)
    d = outer(f, l)
    s = random_operator(rng, dim)
    direct = pair(l, s @ f)
    for i in range(dim):
        for j in range(dim):
            probe = coordinate_probe(d, i, j)
            if abs(probe.pairing) <= ADMISSIBILITY_RTOL * d.norm_max():
                continue
            assert abs(bilinear_value(d, s, probe) - direct) <= 1e-10 * abs(direct)
