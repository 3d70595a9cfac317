"""The verify suite's cheap oracles against their expensive references."""

import contextlib
import io
import math
import types

import numpy as np
import pytest
import scipy.integrate

from rankone import cli, discretize, krein, laplace, verification
from rankone.core import LowRankProduct, Operator, OperatorDifference


@pytest.mark.parametrize("n", [100, 400])
def test_rank_one_measure_bounds_the_exact_singular_value_ratio(n):
    d = discretize.inverse_difference(discretize.build_pair(n))
    sigma = np.linalg.svd(d.matrix, compute_uv=False)
    for seed in range(5):
        measure = verification.rank_one_measure(d, np.random.default_rng(seed))
        assert sigma[1] / sigma[0] <= measure <= 1e-12


class _RankTwoPerturbed(Operator):
    """d plus eps * sigma_1(d) * U V^T with orthonormal n x 2 U and V, known by its actions."""

    def __init__(self, d: Operator, eps: float, rng: np.random.Generator):
        self.d = d
        self.dim = d.dim
        u, _ = np.linalg.qr(rng.standard_normal((d.dim, 2)))
        v, _ = np.linalg.qr(rng.standard_normal((d.dim, 2)))
        sigma_1 = np.linalg.svd(d.matrix, compute_uv=False)[0]
        self.term = eps * sigma_1 * (u @ v.T)

    def apply(self, x):
        return self.d.apply(x) + self.term @ x

    def apply_left(self, w):
        return self.d.apply_left(w) + w @ self.term


def test_rank_one_certificate_catches_a_small_rank_two_term():
    threshold = verification.check_exact_rank_one(verification.DEFAULT_SEED).threshold
    d = discretize.inverse_difference(discretize.build_pair(400))
    perturbed = _RankTwoPerturbed(d, 1e-9, np.random.default_rng(0))
    for seed in range(5):
        assert verification.rank_one_measure(perturbed, np.random.default_rng(seed)) > threshold


def test_exact_rank_one_check_never_forms_the_matrix(monkeypatch):
    def refuse(self):
        raise AssertionError("D.matrix materialized")

    for cls in (OperatorDifference, LowRankProduct):
        monkeypatch.setattr(cls, "matrix", property(refuse))
    assert verification.check_exact_rank_one(verification.DEFAULT_SEED).passed


def test_gauss_legendre_pairing_matches_adaptive_quadrature():
    for s in verification._sample_spectral_points()[::6]:
        k = s.k

        def integrand(t):
            return -t * np.sin(k * t) / np.sin(k)

        re, _ = scipy.integrate.quad(lambda t: integrand(t).real, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
        im, _ = scipy.integrate.quad(lambda t: integrand(t).imag, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
        assert abs(verification._quadrature_pairing(s) - complex(re, im)) <= 1e-13


VERIFY_ROWS = [
    "outer-acts-as-pairing",
    "inverse-residual",
    "outer-rank-bound",
    "perturbed-inverse-residual",
    "singular-null-vector",
    "solve-matches-inverse",
    "perturbation-gauge-invariance",
    "telescoping-identity",
    "krein-gauge-invariance",
    "eigenvalue-consistency",
    "pole-avoidance",
    "probe-independence",
    "bilinear-probe-independence",
    "recovery-residual",
    "branch-independence",
    "denominator-consistency-chain",
    "pairing-quadrature",
    "ramp-response-pde",
    "dn-boundary-condition",
    "exact-rank-one",
    "sherman-morrison-cross-check",
    "static-kernel-convergence",
    "krein-cross-check",
]


@pytest.mark.parametrize("name, check", zip(VERIFY_ROWS, verification.ALL_CHECKS, strict=True), ids=VERIFY_ROWS)
def test_verify_check(name, check):
    # Each verify row is its own tier-1 test, at the seed the command runs by default.
    result = check(verification.DEFAULT_SEED)
    assert result.name == name
    assert result.passed, f"{name}: measured {result.measured!r}, threshold {result.threshold!r}"


def test_registry_runs_every_invariant_once_in_row_order():
    # The benchmark looks single checks up by their function names.
    for check in verification.ALL_CHECKS:
        assert check.__name__.startswith("check_")
        assert getattr(verification, check.__name__) is check


def test_nan_deviation_fails_its_check(monkeypatch):
    monkeypatch.setattr(laplace, "scalar_pairing", lambda s: complex(math.nan, 0.0))
    poisoned = [verification.check_denominator_consistency_chain, verification.check_pairing_quadrature]
    for check in poisoned:
        result = check(verification.DEFAULT_SEED)
        assert not result.passed
        assert math.isnan(result.measured)
    monkeypatch.setattr(verification, "ALL_CHECKS", poisoned)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify"]) == cli.EXIT_INVARIANT_FAILURE


def test_check_without_deviations_fails_with_infinite_measure(monkeypatch):
    monkeypatch.setattr(krein, "find_new_eigenvalues", lambda *args: [])
    result = verification.check_eigenvalue_consistency(verification.DEFAULT_SEED)
    assert not result.passed
    assert result.measured == math.inf


def test_static_kernel_deviation_above_roundoff_fails_even_when_it_shrinks(monkeypatch):
    # Deviations 1e-6, 1e-7, 1e-8 at n = 100, 200, 400 shrink with n, but the
    # scheme reproduces x_i*x_j exactly, so any deviation above roundoff fails.
    deviation = {100: 1e-6, 200: 1e-7, 400: 1e-8}

    def off_by_deviation(pair):
        x, h = pair.grid.nodes, pair.grid.h
        matrix = h * np.outer(x, x)
        matrix[0, 0] += h * deviation[pair.grid.n]
        return types.SimpleNamespace(matrix=matrix)

    monkeypatch.setattr(discretize, "inverse_difference", off_by_deviation)
    result = verification.check_static_kernel_convergence(verification.DEFAULT_SEED)
    assert not result.passed
    assert result.measured == pytest.approx(1e-6, rel=1e-6)
