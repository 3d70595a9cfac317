"""The verify suite's cheap oracles against their expensive references."""

import numpy as np
import pytest
import scipy.integrate

from rankone import discretize, verification
from rankone.core import Operator, OperatorDifference


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

    monkeypatch.setattr(OperatorDifference, "matrix", property(refuse))
    assert verification.check_exact_rank_one(verification.DEFAULT_SEED).passed


def test_gauss_legendre_pairing_matches_adaptive_quadrature():
    for s in verification._sample_spectral_points()[::6]:
        k = s.k

        def integrand(t):
            return -t * np.sin(k * t) / np.sin(k)

        re, _ = scipy.integrate.quad(lambda t: integrand(t).real, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
        im, _ = scipy.integrate.quad(lambda t: integrand(t).imag, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
        assert abs(verification._quadrature_pairing(s) - complex(re, im)) <= 1e-13
