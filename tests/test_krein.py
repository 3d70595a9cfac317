import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from rankone import discretize, laplace, probing
from rankone.core import RankOneForm, Vector
from rankone.krein import (
    BISECTION_RTOL,
    NUDGE_RTOL,
    EigenvalueHitError,
    SpectralPoint,
    deflect,
    find_new_eigenvalues,
    resolvent_difference,
)
from rankone.verification import random_functional, random_vector, recovered_setup

PI_HALF_SQ = 2.4674011002723395  # ((1/2) pi)^2, first new eigenvalue


# ----------------------------------------------------------- spectral points


def test_spectral_point_from_z_principal_root():
    s = SpectralPoint.from_z(-4.0 + 0j)
    assert s.k == pytest.approx(2j)
    assert s.k**2 == pytest.approx(s.z)


def test_spectral_point_from_k():
    s = SpectralPoint.from_k(3.0)
    assert s.z == 9.0


def test_spectral_point_rejects_mismatched_pair():
    with pytest.raises(ValueError):
        SpectralPoint(z=4.0, k=1.0)


# ------------------------------------------------------------------- deflect


def _scalar(dim: int, value: float) -> discretize.Tridiagonal:
    """value * I as a tridiagonal T1."""
    return discretize.Tridiagonal(np.zeros(dim - 1), np.full(dim, value), np.zeros(dim - 1))


def test_deflect_at_zero_negates():
    # T1 = -I, z = 0: R1 = I, so (-I + 0 R1) f = R1 T1 f = -f
    r1 = discretize.resolvent(_scalar(3, -1.0), 0.0)
    f = Vector([1, 2, 3])
    assert_allclose(deflect(r1, f).entries, [-1, -2, -3])


def test_deflect_scalar_resolvent_arithmetic():
    # T1 = I, z = 2: R1 = (2-1)^-1 I = I, so (-I + 2 R1) f = f
    rng = np.random.default_rng(2)
    f = random_vector(rng, 4)
    assert_allclose(deflect(discretize.resolvent(_scalar(4, 1.0), 2.0), f).entries, f.entries)


def test_deflect_zero_vector():
    r1 = discretize.resolvent(_scalar(2, 1.0), 1.5)
    assert_allclose(deflect(r1, Vector(np.zeros(2))).entries, [0, 0])


# -------------------------------------------------------- scalar denominator


def test_denominator_at_zero_is_one():
    rng = np.random.default_rng(3)
    form = RankOneForm(random_vector(rng, 5), random_functional(rng, 5))
    r1 = discretize.resolvent(_scalar(5, -1.0), 0.0)
    assert resolvent_difference(r1, 0.0, form).denominator == 1


def test_discrete_denominator_approximates_cot_one():
    # analytic value: k cot k at k=1
    pair = discretize.build_pair(300)
    r1 = discretize.resolvent(pair.t_dd, 1.0)
    form = RankOneForm(pair.f_vec, pair.l_fun)
    d = resolvent_difference(r1, 1.0, form).denominator
    assert d == pytest.approx(0.6420926159343306, abs=5e-3)


def test_discrete_denominator_nearly_vanishes_at_new_eigenvalue():
    pair = discretize.build_pair(300)
    r1 = discretize.resolvent(pair.t_dd, PI_HALF_SQ)
    form = RankOneForm(pair.f_vec, pair.l_fun)
    assert abs(1.0 + PI_HALF_SQ * np.dot(form.l.weights, deflect(r1, form.f).entries)) < 2e-2


# -------------------------------------------------------- resolvent difference


def test_resolvent_difference_at_zero_is_negated_outer():
    rng = np.random.default_rng(5)
    dim = 6
    t1 = discretize.Tridiagonal(np.zeros(dim - 1), np.arange(1.0, dim + 1), np.zeros(dim - 1))
    form = RankOneForm(random_vector(rng, dim), random_functional(rng, dim))
    r1 = discretize.resolvent(t1, 0.0)
    diff = resolvent_difference(r1, 0.0, form)
    assert diff.denominator == 1
    assert_allclose(diff.materialize().matrix, -form.materialize().matrix, atol=1e-14)


def test_resolvent_difference_tracks_analytic_kernel():
    # frozen analytic value at (0.5, 0.5): -sin^2(0.5)/(sin 1 cos 1)
    s = SpectralPoint.from_z(1.0 + 0j)
    value = laplace.spectral_difference(laplace.KernelPoint(0.5, 0.5), s)
    assert value == pytest.approx(-0.5055526174055559, abs=1e-13)

    # h-scaled discrete kernel agrees at the node pair nearest the middle
    pair, _, _, form = recovered_setup(200)
    h = pair.grid.h
    r1 = discretize.resolvent(pair.t_dd, 1.0)
    diff = resolvent_difference(r1, 1.0, form).materialize()
    i = int(np.argmin(np.abs(pair.grid.nodes - 0.5)))
    x_i = float(pair.grid.nodes[i])
    at_node = laplace.spectral_difference(laplace.KernelPoint(x_i, x_i), s)
    assert diff.matrix[i, i] / h == pytest.approx(at_node, abs=5e-3)


def test_resolvent_difference_raises_on_eigenvalue_hit():
    pair, _, _, form = recovered_setup(80)
    z0 = discretize.discrete_new_eigenvalues(pair, 1)[0]
    r1 = discretize.resolvent(pair.t_dd, z0)
    with pytest.raises(EigenvalueHitError):
        resolvent_difference(r1, z0, form)


def test_both_paths_refuse_a_resolvent_built_at_another_z():
    pair, d, probe, form = recovered_setup(20)
    r1 = discretize.resolvent(pair.t_dd, 1.0)
    with pytest.raises(ValueError, match="resolvent at z="):
        resolvent_difference(r1, 2.0, form)
    with pytest.raises(ValueError, match="resolvent at z="):
        probing.resolvent_difference_factor_free(r1, 2.0, d, probe)


def _both_paths(n: int, z: complex):
    """The factor-based and the factor-free Krein difference at z, on the n-node testbed."""
    pair, d, probe, form = recovered_setup(n)
    r1 = discretize.resolvent(pair.t_dd, z)
    return (
        lambda: resolvent_difference(r1, z, form),
        lambda: probing.resolvent_difference_factor_free(r1, z, d, probe),
    )


@pytest.mark.parametrize("z", [1e12, -1e12, 1e12 + 1j])
def test_eigenvalue_hit_band_stays_bounded_at_large_z(z):
    # The denominator tends to 21 at n = 20 as |z| grows; a band growing like
    # |z| ||f|| ||l|| reached 31 at |z| = 1e12 and refused it.
    for path in _both_paths(20, z):
        assert path().denominator == pytest.approx(21.0, rel=1e-5)


def _mpmath_denominator(n: int, z: float) -> complex:
    """1 + z <l|(z - T_dd)^-1 T_dd f> on the n-node testbed, solved in 60 digits."""
    pair = discretize.build_pair(n)
    with mpmath.workdps(60):
        t = mpmath.matrix(pair.t_dd.matrix.real.tolist())
        f = mpmath.matrix(pair.f_vec.entries.real.tolist())
        y = mpmath.lu_solve(mpmath.mpf(z) * mpmath.eye(n) - t, t * f)
        pairing = mpmath.fsum(mpmath.mpf(w) * y_i for w, y_i in zip(pair.l_fun.weights.real.tolist(), y))
        return complex(1 + mpmath.mpf(z) * pairing)


@pytest.mark.parametrize("z", [1e6, 1e12, 1e16, 1e20, -1e20, 1e300, 1e308])
def test_denominator_matches_mpmath_at_large_z(z):
    # -f + z R1 f cancelled to rounding noise here, and was refused as an
    # eigenvalue hit from |z| ~ 1e17; R1 (T1 f) keeps every digit.  So does
    # the closed form 1 + z sum_j c_j lambda_j / (z - lambda_j), where
    # 1 + z(-<l|f> + z sum_j c_j / (z - lambda_j)) was off by 2.6e-6 at 1e12.
    exact = _mpmath_denominator(20, z)
    for path in _both_paths(20, z):
        assert abs(path().denominator - exact) <= 1e-14 * abs(exact)
    d_fn = discretize.krein_denominator_function(discretize.build_pair(20))
    assert abs(d_fn(z) - exact) <= 1e-14 * abs(exact)


def test_every_new_eigenvalue_raises_on_both_paths():
    pair = discretize.build_pair(20)
    for mu in discretize.discrete_new_eigenvalues(pair, 20):
        for path in _both_paths(20, mu):
            with pytest.raises(EigenvalueHitError):
                path()


def test_resolvent_difference_gauge_invariance():
    pair, _, _, form = recovered_setup(60)
    z = 1.3 + 0.4j
    r1 = discretize.resolvent(pair.t_dd, z)
    base = resolvent_difference(r1, z, form).materialize()
    for alpha in (2.0, -0.3 + 1.2j):
        scaled = resolvent_difference(r1, z, form.gauge(alpha)).materialize()
        assert np.max(np.abs(base.matrix - scaled.matrix)) <= 1e-10 * np.max(np.abs(base.matrix)) + 1e-15


# ------------------------------------------------------------- root location


def _analytic_denominator(z: complex) -> complex:
    return laplace.krein_denominator(SpectralPoint.from_z(z))


def test_find_first_analytic_root():
    found = find_new_eigenvalues(_analytic_denominator, (0.1, 9.0), 4, [np.pi**2])
    assert len(found) == 1
    assert found[0].z.real == pytest.approx(PI_HALF_SQ, abs=1e-9)
    assert found[0].k**2 == pytest.approx(found[0].z)


def test_find_no_roots_without_sign_change():
    found = find_new_eigenvalues(_analytic_denominator, (0.1, 2.0), 4, [])
    assert found == []


def test_find_respects_exclusions_between_poles():
    # two roots below 25: (pi/2)^2 and (3pi/2)^2, separated by the pole pi^2
    found = find_new_eigenvalues(_analytic_denominator, (0.1, 25.0), 8, [np.pi**2])
    zs = [p.z.real for p in found]
    assert zs == pytest.approx([PI_HALF_SQ, 22.206609902451056], abs=1e-8)


def test_truncation_warns():
    with pytest.warns(RuntimeWarning):
        found = find_new_eigenvalues(
            _analytic_denominator, (0.1, 25.0), 1, [np.pi**2]
        )
    assert len(found) == 1


def test_find_rejects_bad_interval():
    with pytest.raises(ValueError):
        find_new_eigenvalues(_analytic_denominator, (2.0, 1.0), 1, [])


def _secular(alpha: float, poles, weights):
    """D(z) = alpha + sum_j w_j / (z - lambda_j) and its roots, the eigenvalues of diag(lambda) - u u^T / alpha."""
    poles, weights = np.asarray(poles, float), np.asarray(weights, float)

    def d_fn(z: complex) -> complex:
        return alpha + complex(np.sum(weights / (z - poles)))

    u = np.sqrt(weights)
    return d_fn, np.linalg.eigvalsh(np.diag(poles) - np.outer(u, u) / alpha)


def test_finds_root_closer_to_pole_than_a_probe_step():
    # The root at 1.9999967 sits 3.3e-6 below the pole at 2, closer than a
    # scan of (1, 2) with any practical number of equal probe steps looks.
    d_fn, eigs = _secular(0.3, [1.0, 2.0, 3.0], [1.0, 1e-6, 1.0])
    expected = [e for e in eigs if 0.5 < e < 3.5]
    assert len(expected) == 2 and 2.0 - expected[0] < 1e-5
    found = find_new_eigenvalues(d_fn, (0.5, 3.5), 4, [1.0, 2.0, 3.0])
    assert [p.z.real for p in found] == pytest.approx(expected, rel=1e-12)


def test_finds_root_five_nudges_from_a_pole():
    # The root sits 1e-10 = 5e-11 |z| below the pole at 2: five times the
    # inward move of the bracket's end, so the bracket still holds it.
    pole, gap = 2.0, 5.0 * NUDGE_RTOL * 2.0
    d_fn, eigs = _secular(0.3, [1.0, pole, 3.0], [1.0, 0.3 * gap, 1.0])
    expected = [e for e in eigs if 0.5 < e < 3.5]
    assert len(expected) == 2 and pole - expected[0] == pytest.approx(gap, rel=1e-3)
    found = find_new_eigenvalues(d_fn, (0.5, 3.5), 4, [1.0, pole, 3.0])
    assert [p.z.real for p in found] == pytest.approx(expected, rel=BISECTION_RTOL)


@settings(max_examples=200, deadline=None)
@given(
    first=st.floats(-5.0, 5.0),
    gaps=st.lists(st.floats(0.5, 2.0), min_size=1, max_size=7),
    log_weights=st.lists(st.floats(-8.0, 0.0), min_size=8, max_size=8),
    log_alpha=st.floats(-1.0, 1.0),
    sign=st.sampled_from([-1.0, 1.0]),
)
def test_secular_roots_match_eigvalsh(first, gaps, log_weights, log_alpha, sign):
    poles = np.cumsum([first, *gaps])
    weights = 10.0 ** np.array(log_weights[: len(poles)])
    d_fn, eigs = _secular(sign * 10.0**log_alpha, poles, weights)
    lo, hi = poles[0] - 1.0, poles[-1] + 1.0
    expected = [e for e in eigs if lo < e < hi]
    found = find_new_eigenvalues(d_fn, (lo, hi), len(poles) + 1, list(poles))
    assert [p.z.real for p in found] == pytest.approx(expected, rel=1e-10, abs=1e-11)


def test_discrete_root_search_evaluation_budget():
    # The benchmark's call: five roots below the fifth pole at n = 1000.
    pair, _, _, form = recovered_setup(1000)
    d_fn = discretize.krein_denominator_function(pair, form)
    calls = []

    def counted(z: complex) -> complex:
        calls.append(z)
        return d_fn(z)

    poles = [float(p) for p in discretize.dd_eigenvalues(pair)[:5]]
    found = find_new_eigenvalues(counted, (0.05, poles[4]), 5, poles[:4])
    assert [p.z.real for p in found] == pytest.approx(discretize.discrete_new_eigenvalues(pair, 5), rel=1e-11)
    assert len(calls) <= 51  # 47 evaluations, plus 10%


def test_analytic_root_search_evaluation_budget():
    # eigs --method denominator --count 17: seventeen roots of k cot k.
    count = 17
    calls = []

    def counted(z: complex) -> complex:
        calls.append(z)
        return _analytic_denominator(z)

    poles = [(j * np.pi) ** 2 for j in range(1, count + 1)]
    found = find_new_eigenvalues(counted, (0.05, poles[-1] - 1.0), count, poles)
    assert [p.z.real for p in found] == pytest.approx([((j + 0.5) * np.pi) ** 2 for j in range(count)], rel=1e-12)
    assert len(calls) <= 159  # 145 evaluations, plus 10%


def test_discrete_denominator_root_matches_analytic():
    pair = discretize.build_pair(400)
    d_fn = discretize.krein_denominator_function(pair)
    exclusions = [float(v) for v in discretize.dd_eigenvalues(pair) if v < 9.0]
    found = find_new_eigenvalues(d_fn, (0.1, 9.0), 2, exclusions)
    assert len(found) == 1
    assert abs(found[0].z.real - PI_HALF_SQ) / PI_HALF_SQ < 0.01
