"""Named invariant suite covering every module; backs the `verify` command.

Each check is pure and seeded, so repeated runs are identical.  A check
yields its deviations, :func:`_invariant` takes the largest as the measured
value, and :class:`InvariantResult` passes every row by one rule: measured
is finite and at most its threshold.  A NaN or infinite deviation, or no
deviation at all, fails it.  ``static-kernel-convergence`` is no exception:
the scheme reproduces x_i*x_j exactly, so it asks for roundoff at every n.
The suite passes when every check passes.

Two oracles stay cheap at the suite's sizes:

- ``exact-rank-one`` certifies sigma_2/sigma_1 of the discrete inverse
  difference at n up to 1000 from its actions alone, never its matrix: a
  rank-8 randomized range finder Q, sigma_2 of Q* D, plus the a-posteriori
  bound 10 sqrt(2/pi) max_i |(I - QQ*) D g_i| over 10 Gaussian probes g_i
  (Halko, Martinsson and Tropp 2011, "Finding structure with randomness",
  sec. 4.3), which bounds |(I - QQ*) D| with probability 1 - 1e-10, over
  sigma_1 of Q* D.  See :func:`rank_one_measure`; this check is the range
  finder's only user.  A rank read from an array the caller already has,
  such as ``recover``'s check block D G, is :func:`numerical_rank`.
- ``pairing-quadrature`` integrates <l|R f> with 32-node Gauss-Legendre on
  [0, 1]; the integrand is entire, so the rule is exact to roundoff.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from . import discretize, krein, laplace, probing
from .core import DenseOperator, Functional, Operator, RankOneForm, Vector, invert, outer, pair
from .perturbed_inverse import RegularInverse, SingularInverse, denominator, perturbed_inverse, solve_perturbed
from .laplace import SpectralPoint

DEFAULT_SEED = 7
# Gauss-Legendre nodes of the pairing quadrature oracle.
QUADRATURE_NODES = 32
# Range-finder and a-posteriori test probes of the rank-one certificate.
SKETCH_RANK = 8
TEST_PROBES = 10


@dataclass(frozen=True)
class InvariantResult:
    name: str
    measured: float
    threshold: float

    @property
    def passed(self) -> bool:
        """The suite's one pass rule: measured is finite and at most the threshold."""
        return math.isfinite(self.measured) and self.measured <= self.threshold


# Every check in definition order, which is the order of `verify`'s rows.
ALL_CHECKS: list[Callable[[int], InvariantResult]] = []


def _invariant(name: str, threshold: float):
    """Register a check that yields its deviations, judged by :attr:`InvariantResult.passed`.

    measured is their maximum with NaN propagating, inf when there are none.
    """

    def register(deviations: Callable[[int], Iterator[float]]) -> Callable[[int], InvariantResult]:
        @functools.wraps(deviations)
        def check(seed: int) -> InvariantResult:
            found = [float(dev) for dev in deviations(seed)]
            measured = float(np.max(found)) if found else math.inf
            return InvariantResult(name, measured, threshold)

        ALL_CHECKS.append(check)
        return check

    return register


# Seeded instance builders, shared with the test suite.
def random_operator(rng: np.random.Generator, dim: int) -> DenseOperator:
    """Well-conditioned random operator: uniform entries plus a diagonal shift.

    The shift keeps the spectrum away from zero (condition number ~10).
    """
    raw = rng.uniform(-1, 1, (dim, dim)) + 1j * rng.uniform(-1, 1, (dim, dim))
    return DenseOperator(raw + 2.0 * dim * np.eye(dim))


def random_vector(rng: np.random.Generator, dim: int) -> Vector:
    return Vector(rng.uniform(-1, 1, dim) + 1j * rng.uniform(-1, 1, dim))


def random_functional(rng: np.random.Generator, dim: int) -> Functional:
    return Functional(rng.uniform(-1, 1, dim) + 1j * rng.uniform(-1, 1, dim))


# ---------------------------------------------------------------- operator core


@_invariant("outer-acts-as-pairing", 1e-12)
def check_outer_acts_as_pairing(seed: int):
    rng = np.random.default_rng(seed)
    for dim in (2, 5, 9):
        f = random_vector(rng, dim)
        l = random_functional(rng, dim)
        op = outer(f, l)
        for i in range(dim):
            u = Vector.basis(i, dim)
            yield np.max(np.abs((op @ u).entries - (pair(l, u) * f).entries))


@_invariant("inverse-residual", 1e-10)
def check_inverse_residual(seed: int):
    rng = np.random.default_rng(seed)
    for dim in (4, 12, 32):
        a = random_operator(rng, dim)
        a_inv = invert(a)
        eye = np.eye(dim)
        yield np.max(np.abs(a.matrix @ a_inv.matrix - eye))
        yield np.max(np.abs(a_inv.matrix @ a.matrix - eye))


@_invariant("outer-rank-bound", 1.0)
def check_outer_rank_bound(seed: int):
    rng = np.random.default_rng(seed)
    for dim in (2, 7, 16):
        f = random_vector(rng, dim)
        l = random_functional(rng, dim)
        yield numerical_rank(outer(f, l).matrix, 1e-10)


# ------------------------------------------------------------ perturbed inverse


def regular_instance(rng: np.random.Generator, dim: int):
    """(A, A^-1, form) with |1 - <l|A^-1 f>| above 0.1."""
    while True:
        a = random_operator(rng, dim)
        p = RankOneForm(random_vector(rng, dim), random_functional(rng, dim))
        a_inv = invert(a)
        if abs(denominator(a_inv, p)) > 0.1:
            return a, a_inv, p


def singular_instance(rng: np.random.Generator, dim: int):
    """(A, A^-1, form) crafted so that <l|A^-1 f> = 1 exactly (up to roundoff)."""
    a = random_operator(rng, dim)
    a_inv = invert(a)
    f = random_vector(rng, dim)
    l0 = random_functional(rng, dim)
    q = pair(l0, a_inv @ f)
    l = l0 * (1.0 / q)  # forces <l|A^-1 f> = 1
    return a, a_inv, RankOneForm(f, l)


@_invariant("perturbed-inverse-residual", 1e-9)
def check_perturbed_inverse_residual(seed: int):
    rng = np.random.default_rng(seed)
    for dim in (3, 8, 32):
        a, a_inv, p = regular_instance(rng, dim)
        result = perturbed_inverse(a_inv, p)
        assert isinstance(result, RegularInverse)
        b = a - p.materialize()
        yield np.max(np.abs((b @ result.apply_to(a_inv)).matrix - np.eye(dim)))


@_invariant("singular-null-vector", 1e-9)
def check_singular_null_vector(seed: int):
    rng = np.random.default_rng(seed)
    for dim in (3, 8, 16):
        a, a_inv, p = singular_instance(rng, dim)
        result = perturbed_inverse(a_inv, p)
        assert isinstance(result, SingularInverse)
        b = a - p.materialize()
        v = result.null_vector
        yield (b @ v).norm() / (b.norm_max() * v.norm())


@_invariant("solve-matches-inverse", 1e-9)
def check_solve_matches_inverse(seed: int):
    rng = np.random.default_rng(seed)
    for dim in (3, 8, 24):
        a, a_inv, p = regular_instance(rng, dim)
        result = perturbed_inverse(a_inv, p)
        assert isinstance(result, RegularInverse)
        w = random_vector(rng, dim)
        v_solve = solve_perturbed(a_inv, p, w)
        v_mat = result.apply_to(a_inv) @ w
        yield np.max(np.abs(v_solve.entries - v_mat.entries))


@_invariant("perturbation-gauge-invariance", 1e-12)
def check_perturbation_gauge_invariance(seed: int):
    rng = np.random.default_rng(seed)
    for alpha in (2.0, -0.25 + 1.5j):
        a, a_inv, p = regular_instance(rng, 8)
        base = perturbed_inverse(a_inv, p)
        scaled = perturbed_inverse(a_inv, p.gauge(alpha))
        assert isinstance(base, RegularInverse) and isinstance(scaled, RegularInverse)
        yield abs(base.denominator - scaled.denominator)
        yield np.max(np.abs(base.correction.matrix - scaled.correction.matrix))


# -------------------------------------------------------------- krein resolvent


def recovered_setup(n: int):
    """(pair, D, probe, form) on the n-node testbed: form holds the factors recovered from D by the probe."""
    pair_ = discretize.build_pair(n)
    d = discretize.inverse_difference(pair_)
    probe = probing.choose_probe(d)
    form = probing.recover_factors(d, probe)
    return pair_, d, probe, form


@_invariant("telescoping-identity", 1e-8)
def check_telescoping_identity(seed: int):
    pair_ = discretize.build_pair(60)
    t1_inv = invert(pair_.t_dd).matrix
    t2_inv = invert(pair_.t_dn).matrix
    eye = np.eye(60)
    for z in (-3.7, 0.9, 1.2 + 0.8j, -2.0 + 1.5j):
        lhs = (1.0 / z) * (
            invert(DenseOperator(z * t2_inv - eye)).matrix - invert(DenseOperator(z * t1_inv - eye)).matrix
        )
        rhs = discretize.resolvent(pair_.t_dn, z) - discretize.resolvent(pair_.t_dd, z)
        yield np.max(np.abs(lhs - rhs.matrix))


@_invariant("krein-gauge-invariance", 1e-10)
def check_krein_gauge_invariance(seed: int):
    pair_, _, _, form = recovered_setup(40)
    z = 1.3
    r1 = discretize.resolvent(pair_.t_dd, z)
    base = krein.resolvent_difference(r1, z, form).materialize()
    for alpha in (3.0, 0.2 - 1.1j):
        scaled = krein.resolvent_difference(r1, z, form.gauge(alpha)).materialize()
        yield float(np.max(np.abs(base.matrix - scaled.matrix))) / base.norm_max()


@_invariant("eigenvalue-consistency", 1e-6)
def check_eigenvalue_consistency(seed: int):
    pair_, _, _, form = recovered_setup(200)
    d_fn = discretize.krein_denominator_function(pair_, form)
    exclusions = [float(v) for v in discretize.dd_eigenvalues(pair_) if v < 30.0]
    norm_t2 = pair_.t_dn.norm_max()
    for p in krein.find_new_eigenvalues(d_fn, (0.1, 30.0), 4, exclusions):
        # ||T2 v - z v|| / ||v|| for the deflected eigenfunction v = R1 T1 f = (-I + z R1) f
        z = p.z.real
        v = krein.deflect(discretize.resolvent(pair_.t_dd, z), form.f)
        yield (pair_.t_dn @ v - z * v).norm() / v.norm() / norm_t2


@_invariant("pole-avoidance", math.inf)
def check_pole_avoidance(seed: int):
    pair_ = discretize.build_pair(80)
    d_fn = discretize.krein_denominator_function(pair_)
    poles = discretize.dd_eigenvalues(pair_)
    for z in np.linspace(0.2, 35.0, 120):
        if np.min(np.abs(poles - z)) > 1e-3:
            yield abs(d_fn(z))


# --------------------------------------------------------------- factor recovery


@_invariant("probe-independence", 1e-10)
def check_probe_independence(seed: int):
    rng = np.random.default_rng(seed)
    dim = 16
    d = outer(random_vector(rng, dim), random_functional(rng, dim))
    reference = None
    for i in range(dim):
        for j in range(dim):
            try:
                mat = probing.recover_factors(d, probing.coordinate_probe(d, i, j)).materialize().matrix
            except probing.InadmissibleProbeError:
                continue
            if reference is None:
                reference = mat
            else:
                yield float(np.max(np.abs(mat - reference))) / d.norm_max()


@_invariant("bilinear-probe-independence", 1e-10)
def check_bilinear_probe_independence(seed: int):
    rng = np.random.default_rng(seed)
    dim = 16
    f = random_vector(rng, dim)
    l = random_functional(rng, dim)
    d = outer(f, l)
    s = random_operator(rng, dim)
    direct = pair(l, s @ f)
    for i in range(dim):
        for j in range(dim):
            try:
                value = probing.bilinear_value(d, s, probing.coordinate_probe(d, i, j))
            except probing.InadmissibleProbeError:
                continue
            yield abs(value - direct) / abs(direct)


@_invariant("recovery-residual", 1e-10)
def check_recovery_residual(seed: int):
    rng = np.random.default_rng(seed)
    for dim in (2, 9, 16):
        d = outer(random_vector(rng, dim), random_functional(rng, dim))
        form = probing.recover_factors(d, probing.choose_probe(d))
        yield float(np.max(np.abs(form.materialize().matrix - d.matrix))) / d.norm_max()


# --------------------------------------------------------------- laplace testbed


def _sample_spectral_points() -> list[SpectralPoint]:
    poles = np.array([(j * np.pi) ** 2 for j in range(1, 8)])
    dn_poles = np.array([((j + 0.5) * np.pi) ** 2 for j in range(7)])
    zs = []
    for z in np.linspace(0.3, 38.0, 60):
        if np.min(np.abs(poles - z)) > 0.5 and np.min(np.abs(dn_poles - z)) > 0.5:
            zs.append(complex(z))
    zs += [1.5 + 1.0j, -2.0 + 0.5j, 4.0 - 2.5j, -6.0 + 0.0j, 0.5 + 3.0j]
    return [SpectralPoint.from_z(z) for z in zs]


@_invariant("branch-independence", 1e-14)
def check_branch_independence(seed: int):
    pt = laplace.KernelPoint(0.3, 0.7)
    for s in _sample_spectral_points():
        s_neg = SpectralPoint.from_k(-s.k)
        for fn in (
            lambda q: laplace.green_dd_spectral(pt, q),
            lambda q: laplace.spectral_difference(pt, q),
            lambda q: laplace.ramp_response(0.6, q),
            lambda q: laplace.deflected_ramp(0.6, q),
            laplace.scalar_pairing,
            laplace.krein_denominator,
        ):
            a, b = fn(s), fn(s_neg)
            yield abs(a - b) / max(1.0, abs(a))


@_invariant("denominator-consistency-chain", 1e-13)
def check_denominator_consistency_chain(seed: int):
    for s in _sample_spectral_points():
        chained = 1.0 + s.z * laplace.scalar_pairing(s)
        yield abs(chained - laplace.krein_denominator(s))


@functools.cache
def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1], read-only: every caller shares them."""
    x, w = np.polynomial.legendre.leggauss(QUADRATURE_NODES)
    rule = (0.5 * (x + 1.0), 0.5 * w)
    for arr in rule:
        arr.setflags(write=False)
    return rule


def _quadrature_pairing(s: SpectralPoint) -> complex:
    """<l|R f> = -int_0^1 t sin(kt)/sin(k) dt by Gauss-Legendre.

    The integrand is entire in t, so QUADRATURE_NODES nodes are exact to
    roundoff at every sample point.
    """
    t, w = _legendre_rule()
    return complex(np.sum(w * (-t * np.sin(s.k * t) / np.sin(s.k))))


@_invariant("pairing-quadrature", 1e-10)
def check_pairing_quadrature(seed: int):
    for s in _sample_spectral_points()[::6]:
        yield abs(laplace.scalar_pairing(s) - _quadrature_pairing(s))


@_invariant("ramp-response-pde", 1e-6)
def check_ramp_response_pde(seed: int):
    m = 1001
    xs = np.linspace(0.0, 1.0, m)
    h = xs[1] - xs[0]
    for z in (2.0, 17.0, 2.0 + 1.0j):
        s = SpectralPoint.from_z(complex(z))
        u = np.array([laplace.ramp_response(float(x), s) for x in xs])
        yield abs(u[0])
        yield abs(u[-1])
        # 4th-order central second derivative on the interior
        i = np.arange(2, m - 2)
        upp = (-u[i - 2] + 16 * u[i - 1] - 30 * u[i] + 16 * u[i + 1] - u[i + 2]) / (12 * h * h)
        yield np.max(np.abs(s.z * u[i] + upp - s.z * xs[i]))


@_invariant("dn-boundary-condition", 1e-6)
def check_dn_boundary_condition(seed: int):
    h = 1e-3
    for z in (1.0, 7.3, 3.0 + 2.0j):
        s = SpectralPoint.from_z(complex(z))
        for xi in (0.25, 0.6):
            u = [
                laplace.green_dn_spectral(laplace.KernelPoint(1.0 - j * h, xi), s)
                for j in range(5)
            ]
            # 5-point one-sided first derivative at x = 1
            yield abs((25 * u[0] - 48 * u[1] + 36 * u[2] - 16 * u[3] + 3 * u[4]) / (12 * h))


# ------------------------------------------------------------- discretize oracle


def numerical_rank(y: np.ndarray, tol: float) -> int:
    """How many singular values of the array y exceed tol times the largest; 0 when y = 0."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    sigma = np.linalg.svd(y, compute_uv=False)
    return int(np.count_nonzero(sigma > tol * sigma[0]))


def rank_one_measure(d: Operator, rng: np.random.Generator) -> float:
    """Upper estimate of sigma_2/sigma_1 of d from its actions; ``d.matrix`` is never formed.

    The range finder of the module docstring: Q spans d Omega for
    SKETCH_RANK Gaussian probes Omega, and sigma holds the singular values
    of Q* d.  By Weyl, sigma_2(d) <= sigma_2(Q* d) + |(I - QQ*) d|, and the
    second term is at most the a-posteriori bound over TEST_PROBES fresh
    probes with probability 1 - 10^-TEST_PROBES.  The sketch alone
    underestimates sigma_2.  sigma_1(Q* d) <= sigma_1(d), so the quotient
    errs high.
    """
    y = np.column_stack([d.apply(g) for g in rng.standard_normal((SKETCH_RANK, d.dim))])
    q, _ = np.linalg.qr(y)
    sigma = np.linalg.svd(np.array([d.apply_left(c) for c in q.conj().T]), compute_uv=False)
    residual = max(
        float(np.linalg.norm(dg - q @ (q.conj().T @ dg)))
        for dg in (d.apply(g) for g in rng.standard_normal((TEST_PROBES, d.dim)))
    )
    return float((sigma[1] + 10.0 * np.sqrt(2.0 / np.pi) * residual) / sigma[0])


@_invariant("exact-rank-one", 1e-10)
def check_exact_rank_one(seed: int):
    rng = np.random.default_rng(seed)
    for n in (100, 400, 1000):
        yield rank_one_measure(discretize.inverse_difference(discretize.build_pair(n)), rng)


@_invariant("sherman-morrison-cross-check", 1e-8)
def check_sherman_morrison_cross(seed: int):
    pair_ = discretize.build_pair(200)
    n, h = pair_.grid.n, pair_.grid.h
    form = RankOneForm(
        Vector.basis(n - 1, n) * (1.0 / h**2), Functional.basis(n - 1, n)
    )
    t_dd_inv = invert(pair_.t_dd)
    result = perturbed_inverse(t_dd_inv, form)
    assert isinstance(result, RegularInverse)
    direct = invert(pair_.t_dn)
    yield float(np.max(np.abs(result.apply_to(t_dd_inv).matrix - direct.matrix))) / direct.norm_max()


@_invariant("static-kernel-convergence", 1e-10)
def check_static_kernel_convergence(seed: int):
    # The mirror-ghost scheme reproduces x_i*x_j exactly, so every size sits at roundoff.
    for n in (100, 200, 400):
        pair_ = discretize.build_pair(n)
        x = pair_.grid.nodes
        yield np.max(np.abs(discretize.inverse_difference(pair_).matrix / pair_.grid.h - np.outer(x, x)))


@_invariant("krein-cross-check", 1e-8)
def check_krein_cross_check(seed: int):
    pair_, d, probe, form = recovered_setup(100)
    for z in (1.0, -4.2, 1.5 + 1.0j):
        r1 = discretize.resolvent(pair_.t_dd, z)
        brute = (discretize.resolvent(pair_.t_dn, z) - r1).matrix
        factored = krein.resolvent_difference(r1, z, form).materialize()
        factor_free = probing.resolvent_difference_factor_free(r1, z, d, probe).materialize()
        yield np.max(np.abs(factored.matrix - brute))
        yield np.max(np.abs(factor_free.matrix - brute))


def run_all(seed: int = DEFAULT_SEED) -> list[InvariantResult]:
    """Run every named invariant; deterministic for a fixed seed."""
    return [check(seed) for check in ALL_CHECKS]
