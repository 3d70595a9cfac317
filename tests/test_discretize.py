import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from rankone import discretize, laplace, probing, verification
from rankone.core import DenseOperator, RankOneForm, Vector, invert
from rankone.discretize import (
    RCOND_TOL,
    Grid,
    SpectrumHitError,
    Tridiagonal,
    _sine_transform,
    build_pair,
    dd_eigenvalues,
    discrete_new_eigenvalues,
    eigenvalue_count,
    inverse_difference,
    krein_denominator_function,
    resolvent,
)
from rankone.krein import SpectralPoint, find_new_eigenvalues, resolvent_difference


def test_grid_geometry():
    grid = Grid(3)
    assert grid.h == pytest.approx(0.25)
    assert_allclose(grid.nodes, [0.25, 0.5, 0.75])
    with pytest.raises(ValueError):
        Grid(1)


def test_build_pair_three_nodes():
    pair = build_pair(3)
    # h = 0.25 so 2/h^2 = 32 on the diagonal, -16 off it
    assert_allclose(pair.t_dd.matrix.real, [[32, -16, 0], [-16, 32, -16], [0, -16, 32]])
    assert_allclose(pair.t_dn.matrix.real[-1, -1], 16)
    assert_allclose(pair.t_dn.matrix.real[:2], pair.t_dd.matrix.real[:2])


def test_build_pair_symmetry_and_rank_one_difference():
    pair = build_pair(12)
    assert_allclose(pair.t_dd.matrix, pair.t_dd.matrix.T)
    assert_allclose(pair.t_dn.matrix, pair.t_dn.matrix.T)
    diff = pair.t_dd - pair.t_dn
    sigma = np.linalg.svd(diff.matrix, compute_uv=False)
    assert np.count_nonzero(sigma > 1e-12 * sigma[0]) == 1
    # single-entry difference (1/h^2) e_n e_n^T
    expected = np.zeros((12, 12))
    expected[-1, -1] = 1.0 / pair.grid.h**2
    assert_allclose(diff.matrix.real, expected)


def test_build_pair_factor_samples():
    pair = build_pair(5)
    assert_allclose(pair.f_vec.entries.real, pair.grid.nodes)
    assert_allclose(pair.l_fun.weights.real, pair.grid.h * pair.grid.nodes)


def test_build_pair_requires_two_nodes():
    with pytest.raises(ValueError):
        build_pair(1)


def test_inverse_difference_matches_ramp_kernel():
    pair = build_pair(200)
    diff = inverse_difference(pair)
    x = pair.grid.nodes
    dev = np.max(np.abs(diff.matrix / pair.grid.h - np.outer(x, x)))
    assert dev <= 5 * pair.grid.h
    # the mirror-ghost scheme actually reproduces x_i x_j exactly
    assert dev <= 1e-10


def test_inverse_difference_is_rank_one():
    sigma = np.linalg.svd(inverse_difference(build_pair(64)).matrix, compute_uv=False)
    assert np.count_nonzero(sigma > 1e-8 * sigma[0]) == 1


def test_inverse_difference_hand_check_n3():
    pair = build_pair(3)
    diff = inverse_difference(pair)
    oracle = np.linalg.inv(pair.t_dn.matrix) - np.linalg.inv(pair.t_dd.matrix)
    assert diff.matrix[0, 0] == pytest.approx(oracle[0, 0], abs=1e-14)
    assert_allclose(diff.matrix, oracle, atol=1e-14)


@pytest.mark.parametrize("n", [50, 128])
def test_inverse_difference_singular_value_gap(n):
    sigma = np.linalg.svd(inverse_difference(build_pair(n)).matrix, compute_uv=False)
    assert sigma[1] / sigma[0] <= 1e-10


def test_resolvent_at_zero_is_negated_inverse():
    pair = build_pair(20)
    assert_allclose(
        resolvent(pair.t_dd, 0.0).matrix, -invert(pair.t_dd).matrix, atol=1e-12
    )


def test_resolvent_tracks_analytic_kernel():
    pair = build_pair(200)
    h = pair.grid.h
    s = SpectralPoint.from_z(1.0 + 0j)
    r1 = resolvent(pair.t_dd, 1.0)
    x = pair.grid.nodes
    idx = [10, 60, 99, 150, 190]
    for i in idx:
        for j in idx:
            analytic = laplace.green_dd_spectral(laplace.KernelPoint(x[i], x[j]), s)
            assert r1.matrix[i, j] / h == pytest.approx(analytic, abs=5e-3)


@pytest.mark.parametrize("n", [2, 3])
def test_resolvent_small_sizes_match_dense_inverse(n):
    pair = build_pair(n)
    for t in (pair.t_dd, pair.t_dn):
        for z in (0.0, 1.5, 3.0 - 2.0j):
            oracle = np.linalg.inv(z * np.eye(n) - t.matrix)
            assert_allclose(resolvent(t, z).matrix, oracle, rtol=1e-13, atol=1e-13 * np.abs(oracle).max())


def test_resolvent_rejects_spectrum_hit():
    pair = build_pair(30)
    z0 = float(dd_eigenvalues(pair)[0])
    with pytest.raises(SpectrumHitError):
        resolvent(pair.t_dd, z0)


@pytest.mark.parametrize("z", [float("nan"), complex(1.0, float("nan")), float("inf"), complex(-1.0, float("-inf"))])
def test_resolvent_rejects_non_finite_z(z):
    with pytest.raises(ValueError, match="not finite"):
        resolvent(build_pair(5).t_dd, z)


@pytest.mark.parametrize("n", [2, 50])
def test_dd_eigenvalues_closed_form_matches_eigensolve(n):
    pair = build_pair(n)
    dense = np.linalg.eigvalsh(pair.t_dd.matrix)
    assert_allclose(dd_eigenvalues(pair), dense, rtol=1e-12, atol=1e-12 * dense.max())


def test_discrete_new_eigenvalues_first_value():
    pair = build_pair(1000)
    (z0,) = discrete_new_eigenvalues(pair, 1)
    assert abs(z0 - 2.4674011002723395) / 2.4674011002723395 < 0.01


def test_discrete_new_eigenvalues_sorted_and_positive():
    pair = build_pair(60)
    values = discrete_new_eigenvalues(pair, 10)
    assert values == sorted(values)
    assert all(v > 0 for v in values)


@pytest.mark.parametrize("n", [3, 50, 1000, 100_000])
def test_discrete_new_eigenvalues_match_mpmath(n):
    # Oracle: an mpmath eigensolve of the assembled t_dn where that is
    # affordable, the closed form at 40 digits beyond.
    pair = build_pair(n)
    count = min(n, 5)
    if n <= 50:
        with mpmath.workdps(30):
            exact = sorted(mpmath.eigsy(mpmath.matrix(pair.t_dn.matrix.real.tolist()), eigvals_only=True))
    else:
        with mpmath.workdps(40):
            exact = [
                4 * (n + 1) ** 2 * mpmath.sin((2 * j - 1) * mpmath.pi / (2 * (2 * n + 1))) ** 2
                for j in range(1, count + 1)
            ]
    expected = [float(v) for v in exact[:count]]
    assert discrete_new_eigenvalues(pair, count) == pytest.approx(expected, rel=1e-13)


def test_discrete_new_eigenvalues_count_validation():
    pair = build_pair(10)
    with pytest.raises(ValueError):
        discrete_new_eigenvalues(pair, 0)
    with pytest.raises(ValueError):
        discrete_new_eigenvalues(pair, 11)


def test_denominator_function_matches_matrix_path():
    pair = build_pair(80)
    d_fn = krein_denominator_function(pair)
    form = RankOneForm(pair.f_vec, pair.l_fun)
    for z in (0.7, 5.3, 1.0 + 2.0j):
        direct = resolvent_difference(resolvent(pair.t_dd, z), z, form).denominator
        assert d_fn(z) == pytest.approx(direct, abs=1e-10)


@pytest.mark.parametrize("n", [2, 3])
def test_denominator_function_smallest_grids(n):
    pair = build_pair(n)
    d_fn = krein_denominator_function(pair)
    form = RankOneForm(pair.f_vec, pair.l_fun)
    for z in (0.7, 1.0 + 2.0j, -3.0 - 0.5j):
        direct = resolvent_difference(resolvent(pair.t_dd, z), z, form).denominator
        assert d_fn(z) == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("n", [200, 1000])
def test_resolvent_rejects_spectrum_hit_on_fine_grids(n):
    # The pivot ratio at z = lambda_1 is ~1e-12 here, so a pivot rule misses
    # the hit; the condition estimate of z - T does not.
    pair = build_pair(n)
    with pytest.raises(SpectrumHitError):
        resolvent(pair.t_dd, float(dd_eigenvalues(pair)[0]))


# ------------------------------------- O(n) actions against the dense oracle


def _complex_uniform(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.uniform(-1, 1, size) + 1j * rng.uniform(-1, 1, size)


def _skewed_tridiagonal(n: int) -> Tridiagonal:
    """Nonsymmetric complex tridiagonal; z - T stays diagonally dominant for |z| <= 3.6."""
    rng = np.random.default_rng(n)
    return Tridiagonal(
        _complex_uniform(rng, n - 1), 8.0 + _complex_uniform(rng, n), _complex_uniform(rng, n - 1)
    )


def _assert_actions_match(op, oracle: np.ndarray):
    """op @ x, op.apply_left(w) and both block actions against the dense oracle, within 1e-13 |oracle|_max |x|_1.

    The block is n x 3; its |x|_1 is that of its largest column.
    """
    n = oracle.shape[0]
    rng = np.random.default_rng(n)
    x, w = (_complex_uniform(rng, n) for _ in range(2))
    scale = 1e-13 * np.abs(oracle).max() * np.abs(x).sum()
    assert_allclose((op @ Vector(x)).entries, oracle @ x, rtol=0, atol=scale)
    assert_allclose(op.apply_left(w), w @ oracle, rtol=0, atol=scale)
    block = np.column_stack([_complex_uniform(rng, n) for _ in range(3)])
    scale = 1e-13 * np.abs(oracle).max() * np.abs(block).sum(axis=0).max()
    assert_allclose(op.apply(block), oracle @ block, rtol=0, atol=scale)
    assert_allclose(op.apply_left(block), oracle.T @ block, rtol=0, atol=scale)


@pytest.mark.parametrize("n", [2, 3, 50])
def test_tridiagonal_actions_match_dense_matrix(n):
    pair = build_pair(n)
    for t in (pair.t_dd, pair.t_dn, _skewed_tridiagonal(n)):
        oracle = t.matrix
        _assert_actions_match(t, oracle)
        assert t.norm_max() == np.abs(oracle).max()
        # Each column of a block gets the vector action's bytes, in either memory order.
        block = np.random.default_rng(n).standard_normal((n, 3)) * (1 - 2j)
        for b in (block, np.asfortranarray(block)):
            for act in (t.apply, t.apply_left):
                got = act(b)
                assert got.shape == b.shape
                for j in range(3):
                    assert got[:, j].tobytes() == act(b[:, j]).tobytes()


@pytest.mark.parametrize("n", [2, 3, 50])
def test_resolvent_actions_match_dense_inverse(n):
    pair = build_pair(n)
    for t in (pair.t_dd, pair.t_dn, _skewed_tridiagonal(n)):
        for z in (0.0, 1.5, 3.0 - 2.0j):
            oracle = np.linalg.inv(z * np.eye(n) - t.matrix)
            _assert_actions_match(resolvent(t, z), oracle)


@pytest.mark.parametrize("n", [2, 3, 50])
def test_inverse_difference_actions_match_dense_inverses(n):
    pair = build_pair(n)
    oracle = np.linalg.inv(pair.t_dn.matrix) - np.linalg.inv(pair.t_dd.matrix)
    _assert_actions_match(inverse_difference(pair), oracle)


def _resolvent_difference_oracle(pair) -> np.ndarray:
    return resolvent(pair.t_dd, 0.0).matrix - resolvent(pair.t_dn, 0.0).matrix


@pytest.mark.parametrize("n", [2, 3, 20, 200, 1000])
def test_factored_inverse_difference_matches_the_resolvent_difference(n):
    pair = build_pair(n)
    d = inverse_difference(pair)
    oracle = _resolvent_difference_oracle(pair)
    assert (d.left.shape, d.right.shape) == ((n, 1), (1, n))
    rng = np.random.default_rng(n)
    x = _complex_uniform(rng, n)
    block = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
    for got, want in (
        (d.matrix, oracle),
        (d.apply(x), oracle @ x),
        (d.apply_left(x), x @ oracle),
        (d.apply(block), oracle @ block),
        (d.apply_left(block), oracle.T @ block),
    ):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_equal_stencils_give_the_zero_inverse_difference():
    # S is empty: both factors are n x 0, and no gttrs call sees an empty block.
    base = build_pair(5)
    d = inverse_difference(discretize.DiscretePair(base.grid, base.t_dd, base.t_dd, base.f_vec, base.l_fun))
    assert (d.left.shape, d.right.shape) == ((5, 0), (0, 5))
    assert not d.matrix.any() and not d.apply(np.ones((5, 2))).any()
    with pytest.raises(probing.ZeroDifferenceError):
        probing.choose_probe(d)


def test_actions_of_the_inverse_difference_run_no_tridiagonal_solve(lapack_calls):
    pair = build_pair(1000)
    d = inverse_difference(pair)
    z = 1.5 + 0.5j
    r1 = resolvent(pair.t_dd, z)
    calls = lapack_calls("gttrs")
    probe = probing.choose_probe(d)
    probing.recover_factors(d, probe)
    assert len(calls) == 0
    probing.resolvent_difference_factor_free(r1, z, d, probe)
    assert calls == ["zgttrs"] * 2  # R1 applied to D f0 and to l0 D


def test_a_rank_two_stencil_difference_is_refused():
    # t_dn also differs from t_dd in its last off-diagonal entries, so
    # Delta = t_dd - t_dn has rank two on its trailing 2 x 2 block.
    base = build_pair(20)
    off = base.t_dn.lower.copy()
    off[-1] *= 0.5
    pair = discretize.DiscretePair(
        base.grid, base.t_dd, Tridiagonal(off, base.t_dn.diag, off), base.f_vec, base.l_fun
    )
    d = inverse_difference(pair)
    assert d.left.shape == (20, 2)
    assert_allclose(d.matrix, _resolvent_difference_oracle(pair), rtol=0, atol=1e-13 * np.abs(d.matrix).max())
    with pytest.raises(probing.NotRankOneError):
        probing.recover_factors(d, probing.choose_probe(d))
    assert verification.rank_one_measure(d, np.random.default_rng(0)) > 1e-10


def test_dense_matrices_of_the_inverse_difference_and_a_resolvent_are_one_array():
    n = 1500
    pair = build_pair(n)
    d = inverse_difference(pair)
    r1 = resolvent(pair.t_dd, 0.0)
    for op in (d, r1):
        tracemalloc.start()
        try:
            op.matrix
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert op.matrix.dtype == np.float64
        assert peak < 1.5 * n * n * 8


@pytest.mark.parametrize("n", [2, 3, 20, 200])
def test_resolvent_materializes_its_dense_matrix_bit_for_bit(n):
    from rankone import _lapack

    pair = build_pair(n)
    for t in (pair.t_dd, pair.t_dn, _skewed_tridiagonal(n)):
        for z in (0.0, 1.5 - 2.0j):
            r = resolvent(t, z)
            # The d routines serve a real T at a real z, the z routines the rest.
            assert r.dtype == (np.complex128 if z or t.diag.dtype == complex else np.float64)
            rows = r.factors[1].shape[0]
            eye = np.eye(rows, n, dtype=r.dtype)  # the identity, padded to LAPACK's rows
            expected = _lapack.for_dtype("gttrs", r.dtype)(*r.factors, eye)[0][:n]
            m = r.matrix
            assert (m.dtype, m.shape, m.tobytes()) == (expected.dtype, expected.shape, expected.tobytes())


def test_real_data_stays_float64_and_complex_data_complex128():
    pair, d, probe, form = verification.recovered_setup(50)
    r = resolvent(pair.t_dd, 30.0)
    assert isinstance(probe.pairing, float)
    for a in (d.left, d.right, form.f.entries, form.l.weights, *r.factors[:4], r.matrix, invert(pair.t_dd).lu):
        assert a.dtype == np.float64
    assert resolvent(pair.t_dd, 30.0 + 1j).matrix.dtype == np.complex128
    # The Krein difference at a real z is real on both paths, its denominator a float; at 30 + 1j all complex.
    for z, dtype, scalar in ((30.0, np.float64, float), (30.0 + 1j, np.complex128, complex)):
        r_z = resolvent(pair.t_dd, z)
        for diff in (resolvent_difference(r_z, z, form), probing.resolvent_difference_factor_free(r_z, z, d, probe)):
            assert diff.left.entries.dtype == diff.right.weights.dtype == dtype
            assert type(diff.denominator) is scalar
    # The Dirichlet-Neumann stencil with a complex last diagonal entry: D stays rank one, and complex.
    diag = pair.t_dn.diag.astype(complex)
    diag[-1] += 0.5j / pair.grid.h**2
    t_c = Tridiagonal(pair.t_dn.lower, diag, pair.t_dn.upper)
    d_c = inverse_difference(discretize.DiscretePair(pair.grid, pair.t_dd, t_c, pair.f_vec, pair.l_fun))
    probe_c = probing.choose_probe(d_c)
    form_c = probing.recover_factors(d_c, probe_c)
    r_c = resolvent(t_c, 30.0)
    assert isinstance(probe_c.pairing, complex)
    for a in (t_c.lower, t_c.upper, d_c.left, d_c.right, form_c.f.entries, form_c.l.weights, r_c.matrix):
        assert a.dtype == np.complex128
    oracle = np.linalg.inv(t_c.matrix) - np.linalg.inv(pair.t_dd.matrix)
    assert np.max(np.abs(form_c.materialize().matrix - oracle)) <= 1e-12 * np.max(np.abs(oracle))


@pytest.mark.parametrize("n", [2, 3, 50])
def test_real_factors_solve_a_complex_block_as_complex_factors_do(n):
    # Each factored inverse, a resolvent (n < 3 pads) and a dense LU, solves the real and
    # imaginary parts as one 2k-column d block; k = 0 is empty.
    t = build_pair(n).t_dn
    inverses = (
        (resolvent(t, 1.5), resolvent(Tridiagonal(t.lower.astype(complex), t.diag, t.upper), 1.5)),
        (invert(t), invert(DenseOperator(t.matrix.astype(complex)))),
    )
    rng = np.random.default_rng(n)
    for real, cplx in inverses:
        assert (real.dtype, cplx.dtype) == (np.float64, np.complex128)
        for shape in ((n,), (n, 3), (n, 0)):
            b = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for act in ("apply", "apply_left"):
                got, want = getattr(real, act)(b), getattr(cplx, act)(b)
                assert (got.dtype, got.shape) == (want.dtype, want.shape) == (np.complex128, shape)
                scale = np.max(np.abs(want), initial=0.0)
                assert np.max(np.abs(got - want), initial=0.0) <= 4 * np.finfo(float).eps * scale


def _gauged_recovered_denominator(n: int):
    # Recovered factors under a complex gauge exercise both parts of the sine transform.
    pair, _, _, form = verification.recovered_setup(n)
    form = form.gauge(0.5 - 1.5j)
    return pair, form, krein_denominator_function(pair, form)


# 2(n + 1) = 2 * 1021 is twice a prime: numpy's FFT takes Bluestein's path there.
@pytest.mark.parametrize("n", [2, 3, 50, 1020])
def test_denominator_function_matches_resolvent_path_for_complex_factors(n):
    pair, form, d_fn = _gauged_recovered_denominator(n)
    for z in (0.7, -3.0, 1.0 + 2.0j, -3.0 - 0.5j):
        direct = resolvent_difference(resolvent(pair.t_dd, z), z, form).denominator
        assert d_fn(z) == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 1020])
def test_sine_transform_of_complex_input_matches_dense_sum(n):
    rng = np.random.default_rng(n)
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    i = np.arange(1, n + 1)
    dense = np.sin(np.pi * np.outer(i, i) / (n + 1)) @ w
    assert_allclose(_sine_transform(w), dense, rtol=0.0, atol=1e-12 * np.sum(np.abs(w)))


@pytest.mark.parametrize("n", [2, 3, 1020])
def test_denominator_function_real_argument_matches_complex_argument(n):
    # A real z is summed in real arithmetic, the same z as a complex in complex arithmetic.
    pair, _, d_fn = _gauged_recovered_denominator(n)
    for x in (-3.0, 0.7, 5.3, 40.0):
        assert d_fn(x) == pytest.approx(d_fn(complex(x)), rel=1e-14, abs=0.0)


def test_structured_pipeline_at_large_n_allocates_no_dense_matrix():
    # A dense n x n complex matrix would take 160 GB here; the traced peak
    # pins the whole pipeline to O(n) memory.
    n, count = 100_000, 3
    tracemalloc.start()
    try:
        pair = build_pair(n)
        d = inverse_difference(pair)
        probe = probing.choose_probe(d)
        form = probing.recover_factors(d, probe)
        z = 1.5 + 0.5j
        r1 = resolvent(pair.t_dd, z)
        factored = resolvent_difference(r1, z, form)
        factor_free = probing.resolvent_difference_factor_free(r1, z, d, probe)
        d_fn = krein_denominator_function(pair, form)
        poles = dd_eigenvalues(pair)
        found = find_new_eigenvalues(
            d_fn, (0.05, float(poles[count - 1])), count, [float(p) for p in poles[: count - 1]]
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * n * 16
    assert factor_free.denominator == pytest.approx(factored.denominator, abs=1e-12)
    h = pair.grid.h
    j = np.arange(1, count + 1)
    closed_form = 4.0 / h**2 * np.sin((2 * j - 1) * np.pi / (2 * (2 * n + 1))) ** 2
    assert_allclose([p.z.real for p in found], closed_form, rtol=1e-8)


# ------------------------------------------------------- spectrum-hit rule and Sturm count


@pytest.mark.parametrize("n", [800, 1000, 1200])
def test_benchmark_resolvents_skip_the_condition_estimate(lapack_calls, n):
    # The dense-krein op: z = 0 for both operators (the inverse difference),
    # a real z in the middle half of a gap of the merged low spectra, and a
    # complex z with 0.5 <= |Im z| <= 20.
    calls = lapack_calls("gtcon")
    pair = build_pair(n)
    inverse_difference(pair)
    edges = np.sort(np.concatenate([[0.0], dd_eigenvalues(pair)[:5], discrete_new_eigenvalues(pair, 5)]))
    for a, b in zip(edges[:-1], edges[1:]):
        for frac in (0.25, 0.75):
            resolvent(pair.t_dd, a + frac * (b - a))
    for z in (-50.0 + 0.5j, 200.0 - 0.5j, 75.0 + 20.0j):
        resolvent(pair.t_dd, z)
    assert calls == []


def test_z_0_runs_no_condition_estimate_at_large_n(lapack_calls):
    # n = 1e6, where a window growing like sqrt(n) ||T|| around z = 0 would
    # reach the lowest eigenvalue: the Sturm count alone still decides.
    calls = lapack_calls("gtcon")
    pair = build_pair(1_000_000)
    resolvent(pair.t_dd, 0.0)
    resolvent(pair.t_dn, 0.0)
    assert calls == []


@pytest.mark.parametrize("n", [30, 200, 1000])
def test_a_hermitian_hit_is_refused_by_the_sturm_count(lapack_calls, n):
    calls = lapack_calls("gtcon")
    pair = build_pair(n)
    lam = float(dd_eigenvalues(pair)[0])
    with pytest.raises(SpectrumHitError):
        resolvent(pair.t_dd, lam)
    assert calls == []


@pytest.mark.parametrize("n", [30, 200, 1000])
def test_resolvent_at_an_eigenvalue_runs_the_condition_estimate(lapack_calls, n):
    # t_dd + i I is complex and not Hermitian, and lam + i is its eigenvalue:
    # no Sturm count applies, so zgtcon refuses it.
    calls = lapack_calls("gtcon")
    pair = build_pair(n)
    lam = float(dd_eigenvalues(pair)[0])
    with pytest.raises(SpectrumHitError):
        resolvent(Tridiagonal(pair.t_dd.lower, pair.t_dd.diag + 1j, pair.t_dd.upper), lam + 1j)
    assert calls == ["zgtcon"]


def _anorm(t: Tridiagonal, z: complex) -> float:
    """||z - T||_1, from the dense matrix."""
    return float(np.max(np.sum(np.abs(z * np.eye(t.dim) - t.matrix), axis=0)))


@st.composite
def _tridiagonal_and_z(draw):
    n = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(["real-symmetric", "hermitian", "general"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-3, 6))
    diag = scale * rng.standard_normal(n)
    off = scale * rng.standard_normal(n - 1)
    if kind == "real-symmetric":
        t = Tridiagonal(off, diag, off)
    elif kind == "hermitian":
        off = off + 1j * scale * rng.standard_normal(n - 1)
        t = Tridiagonal(off.conj(), diag, off)
    else:
        t = Tridiagonal(_complex_uniform(rng, n - 1) * scale, diag + 1j * scale * rng.standard_normal(n), off)
    target = complex(np.linalg.eigvals(t.matrix)[draw(st.integers(0, n - 1))])
    # ||z - T||_1 at z = target; the scale keeps it nonzero where z - T = 0 (n = 1).
    anorm = max(scale, _anorm(t, target))
    if draw(st.booleans()):
        z = target + draw(st.sampled_from([1.0, -1.0, 1j, 100.0 + 100.0j])) * 3.0 * anorm
    else:
        shift = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0, -0.25, -0.5, -1.0, -3.0]))
        tiny = draw(st.sampled_from([0.0, 1e-6, -0.25, 0.5, 1.0, -3.0]))
        z = target + RCOND_TOL * anorm * complex(shift, tiny)
    return t, z


@settings(max_examples=300, deadline=None)
@given(_tridiagonal_and_z())
def test_a_sturm_count_decides_hermitian_hits_and_gtcon_the_rest(case):
    # Hermitian T: refused exactly when an eigenvalue lies within reach of z,
    # with no gtcon call; draws within [0.5, 2] reach of their nearest
    # eigenvalue are skipped, where the count's backward error or its square
    # window may fall either side.  Other T: refused exactly when one gtcon
    # call reads below RCOND_TOL.
    from rankone import _lapack

    t, z = case
    rconds = []

    def recorded(call):
        def estimate(*args):
            out = call(*args)
            rconds.append(out[0])
            return out

        return estimate

    with mock.patch.multiple(_lapack, dgtcon=recorded(_lapack.dgtcon), zgtcon=recorded(_lapack.zgtcon)):
        try:
            resolvent(t, z)
            refused = False
        except SpectrumHitError:
            refused = True
    if t._sturm is not None:
        assert rconds == []
        distance, reach = float(np.min(np.abs(np.linalg.eigvalsh(t.matrix) - z))), RCOND_TOL * _anorm(t, z)
        assume(not 0.5 * reach < distance < 2.0 * reach)
        assert refused == (distance <= 0.5 * reach)
    elif rconds:
        assert len(rconds) == 1
        assert refused == (rconds[0] < RCOND_TOL)
    else:  # a zero pivot, refused before the estimate
        assert refused


@pytest.mark.parametrize("n", [3, 50, 1000, 100_000])
def test_eigenvalue_count_matches_closed_form(n):
    pair = build_pair(n)
    for t, lam in ((pair.t_dd, dd_eigenvalues(pair)), (pair.t_dn, np.array(discrete_new_eigenvalues(pair, n)))):
        mids = (lam[1:] + lam[:-1]) / 2.0
        picks = mids[np.unique(np.linspace(0, len(mids) - 1, 5).astype(int))]
        ends = [-1.0, 0.05, *picks, 2.0 * lam[-1]]
        for lo in ends:
            for hi in ends:
                if lo < hi:
                    assert eigenvalue_count(t, lo, hi) == np.count_nonzero((lam > lo) & (lam <= hi))


def test_eigenvalue_count_refuses_non_hermitian_or_empty_interval():
    with pytest.raises(ValueError):
        eigenvalue_count(_skewed_tridiagonal(5), 0.0, 1.0)
    with pytest.raises(ValueError):
        eigenvalue_count(build_pair(5).t_dd, 1.0, 1.0)


@pytest.mark.parametrize("n, roots", [(50, 5), (1000, 5), (1000, 40)])
def test_root_search_finds_as_many_roots_as_the_sturm_count(n, roots):
    # find_new_eigenvalues as the dense-krein benchmark calls it.
    pair, _, _, form = verification.recovered_setup(n)
    poles = dd_eigenvalues(pair)
    interval = (0.05, float(poles[roots - 1]))
    found = find_new_eigenvalues(
        krein_denominator_function(pair, form), interval, roots, [float(p) for p in poles[: roots - 1]]
    )
    assert len(found) == eigenvalue_count(pair.t_dn, *interval) == roots
