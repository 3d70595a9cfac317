import cmath
import itertools
import math

import mpmath as mp
import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

import rankone.krein
from rankone import laplace
from rankone.laplace import (
    DirichletPoleError,
    KernelPoint,
    NeumannPoleError,
    PoleError,
    SpectralPoint,
    deflected_ramp,
    dn_eigenvalues,
    green_dd_spectral,
    green_dd_static,
    green_dn_spectral,
    green_dn_static,
    krein_denominator,
    ramp_response,
    scalar_pairing,
    spectral_difference,
    static_difference,
)

unit = st.floats(min_value=0.0, max_value=1.0)


def s_from(z: complex) -> SpectralPoint:
    return SpectralPoint.from_z(complex(z))


# |k| / SMALL_K just below, at and just above the Taylor switch.
TAYLOR_SWITCH = (1.0 - 2.0**-50, 1.0, 1.0 + 2.0**-50)


def _switch_z(scale, sign):  # real z, so from_z returns |k| = SMALL_K * scale exactly
    return complex(sign * (laplace.SMALL_K * scale) ** 2)


# --------------------------------------------------------------- static kernels


def test_dd_static_values():
    assert green_dd_static(KernelPoint(0.5, 0.5)) == pytest.approx(0.25)
    assert green_dd_static(KernelPoint(0.0, 0.7)) == 0
    assert green_dd_static(KernelPoint(0.25, 0.75)) == pytest.approx(0.0625)


def test_dn_static_values():
    assert green_dn_static(KernelPoint(0.3, 0.7)) == pytest.approx(0.3)
    assert green_dn_static(KernelPoint(0.0, 0.4)) == 0
    assert green_dn_static(KernelPoint(1.0, 1.0)) == 1


def test_static_difference_values():
    assert static_difference(KernelPoint(0.3, 0.7)) == pytest.approx(0.21)
    assert static_difference(KernelPoint(0.0, 0.9)) == 0
    assert static_difference(KernelPoint(1.0, 1.0)) == 1


@given(unit, unit)
def test_static_difference_identity(x, xi):
    pt = KernelPoint(x, xi)
    lhs = green_dn_static(pt) - green_dd_static(pt)
    assert lhs == pytest.approx(static_difference(pt), abs=1e-14)


@given(unit, unit)
def test_static_kernels_symmetric(x, xi):
    for fn in (green_dd_static, green_dn_static, static_difference):
        assert fn(KernelPoint(x, xi)) == pytest.approx(fn(KernelPoint(xi, x)), abs=1e-15)


def test_kernel_point_validates_range():
    for x, xi in ((-0.1, 0.5), (0.5, 1.2), (math.nan, 0.5), (0.5, math.nan)):
        with pytest.raises(ValueError, match=r"must lie in \[0,1\]"):
            KernelPoint(x, xi)
        with pytest.raises(ValueError, match=r"must lie in \[0,1\]"):
            KernelPoint(x=x, xi=xi)


def test_kernel_point_is_immutable():
    pt = KernelPoint(0.25, 0.75)
    assert type(pt) is tuple and pt == (0.25, 0.75)
    assert KernelPoint(xi=1.0, x=0.0) == (0.0, 1.0)
    with pytest.raises(TypeError):
        pt[0] = 0.5


# ------------------------------------------------------------- spectral kernel


def test_dd_spectral_zero_limit():
    assert green_dd_spectral(KernelPoint(0.5, 0.5), s_from(0.0)) == pytest.approx(-0.25)
    small = green_dd_spectral(KernelPoint(0.5, 0.5), s_from(1e-12))
    assert small == pytest.approx(-0.25, abs=1e-10)


def test_dd_spectral_frozen_value():
    # -sin(0.5)^2 / sin(1), high-precision oracle
    value = green_dd_spectral(KernelPoint(0.5, 0.5), s_from(1.0))
    assert value == pytest.approx(-0.27315124492189526, abs=1e-15)


def test_dd_spectral_symmetry():
    s = s_from(2.7)
    a = green_dd_spectral(KernelPoint(0.25, 0.75), s)
    b = green_dd_spectral(KernelPoint(0.75, 0.25), s)
    assert a == pytest.approx(b, abs=1e-15)


def test_dd_spectral_pole():
    with pytest.raises(DirichletPoleError):
        green_dd_spectral(KernelPoint(0.5, 0.5), s_from(math.pi**2))


# ----------------------------------------------------------------- ramp response


def test_ramp_response_boundary_values():
    s = s_from(3.0)
    assert ramp_response(0.0, s) == 0
    assert abs(ramp_response(1.0, s)) <= 1e-15


def test_ramp_response_frozen_value():
    assert ramp_response(0.5, s_from(1.0)) == pytest.approx(-0.06974696366227456, abs=1e-15)


def test_ramp_response_vanishes_at_zero():
    assert ramp_response(0.7, s_from(0.0)) == 0
    assert abs(ramp_response(0.7, s_from(1e-10))) <= 1e-10


def test_ramp_response_solves_forced_equation():
    # z u + u'' = z x checked with 4th-order central differences
    xs = np.linspace(0.0, 1.0, 801)
    h = xs[1] - xs[0]
    for z in (2.0, -3.5, 2.0 + 1.5j):
        s = s_from(z)
        u = np.array([ramp_response(float(x), s) for x in xs])
        i = np.arange(2, len(xs) - 2)
        upp = (-u[i - 2] + 16 * u[i - 1] - 30 * u[i] + 16 * u[i + 1] - u[i + 2]) / (12 * h * h)
        residual = s.z * u[i] + upp - s.z * xs[i]
        assert np.max(np.abs(residual)) <= 1e-6


def test_ramp_response_matches_kernel_quadrature():
    # definition: z * integral of G_dd(x, xi, z) * xi
    s = s_from(2.0)
    x = 0.3

    def integrand(t: float) -> float:
        return (green_dd_spectral(KernelPoint(x, t), s) * t).real

    integral, _ = scipy.integrate.quad(integrand, 0.0, 1.0, points=[x], epsabs=1e-12)
    assert ramp_response(x, s).real == pytest.approx(s.z.real * integral, abs=1e-10)


# ---------------------------------------------------------------- deflected ramp


def test_deflected_ramp_values():
    s = s_from(3.1)
    assert deflected_ramp(1.0, s) == pytest.approx(-1.0)
    assert deflected_ramp(0.0, s) == 0
    s2 = SpectralPoint.from_k(math.pi / 2)
    assert deflected_ramp(0.5, s2) == pytest.approx(-0.7071067811865476, abs=1e-15)


def test_deflected_ramp_is_negated_ramp_plus_response():
    s = s_from(1.7)
    for x in (0.2, 0.55, 0.9):
        assert deflected_ramp(x, s) == pytest.approx(-x + ramp_response(x, s), abs=1e-14)


# ---------------------------------------------------------------- scalar pairing


def test_scalar_pairing_frozen_values():
    assert scalar_pairing(s_from(1.0)) == pytest.approx(-0.35790738406566937, abs=1e-15)
    s = SpectralPoint.from_k(math.pi / 2)
    assert scalar_pairing(s) == pytest.approx(-4 / math.pi**2, abs=1e-15)


def test_scalar_pairing_zero_limit():
    assert scalar_pairing(s_from(0.0)) == pytest.approx(-1 / 3)
    assert scalar_pairing(s_from(1e-9)) == pytest.approx(-1 / 3, abs=1e-9)


def test_scalar_pairing_series_against_mpmath():
    # high-precision oracle for the small-|k| Taylor branch
    for k in (1e-5, 5e-5, 9.9e-5):
        with mp.workdps(40):
            exact = complex(mp.cos(k) / (k * mp.sin(k)) - 1 / mp.mpf(k) ** 2)
        assert scalar_pairing(SpectralPoint.from_k(k)) == pytest.approx(exact, abs=1e-16)


def test_scalar_pairing_continuous_across_taylor_cutover():
    # just above the cutover the direct formula subtracts two O(1/k^2)
    # terms, so agreement is limited by eps/k^2 ~ 2e-8 there
    below = scalar_pairing(SpectralPoint.from_k(0.99999e-4))
    above = scalar_pairing(SpectralPoint.from_k(1.00001e-4))
    assert below == pytest.approx(above, abs=1e-7)
    # the Taylor branch itself is accurate to machine precision
    with mp.workdps(40):
        k = mp.mpf("0.99999e-4")
        exact = complex(mp.cos(k) / (k * mp.sin(k)) - 1 / k**2)
    assert abs(below - exact) <= 1e-15


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("scale", TAYLOR_SWITCH)
def test_scalar_formulas_match_mpmath_across_taylor_switch(scale, sign):
    s = SpectralPoint.from_z(_switch_z(scale, sign))
    assert abs(s.k) == laplace.SMALL_K * scale
    assert s.taylor == (scale < 1.0)
    # Each branch is good to an ulp, except that the direct pairing
    # cos k / (k sin k) - 1/k^2 cancels two O(1/k^2) terms.
    eps = 2.0**-52
    pairing_tol = eps if s.taylor else 2.0 * eps / abs(s.k) ** 2
    x = 0.6
    with mp.workdps(40):
        k = mp.sqrt(mp.mpc(s.z))
        ratio = mp.sin(k * x) / mp.sin(k)
        cases = [
            (ramp_response(x, s), x - ratio, eps),
            (deflected_ramp(x, s), -ratio, eps),
            (scalar_pairing(s), mp.cos(k) / (k * mp.sin(k)) - 1 / k**2, pairing_tol),
            (krein_denominator(s), k * mp.cos(k) / mp.sin(k), eps),
        ]
    for value, exact, tol in cases:
        assert abs(value - complex(exact)) <= tol, (value, exact)


# ------------------------------------------------------------ krein denominator


def test_denominator_frozen_values():
    assert krein_denominator(s_from(1.0)) == pytest.approx(0.6420926159343306, abs=1e-15)
    s = SpectralPoint.from_k(math.pi / 2)
    assert abs(krein_denominator(s)) <= 1e-12
    assert krein_denominator(s_from(0.0)) == 1


def test_denominator_pole():
    with pytest.raises(DirichletPoleError):
        krein_denominator(s_from(4 * math.pi**2))


# ---------------------------------------------------------- spectral difference


def test_spectral_difference_frozen_value():
    value = spectral_difference(KernelPoint(0.5, 0.5), s_from(1.0))
    assert value == pytest.approx(-0.5055526174055559, abs=1e-15)


def test_spectral_difference_boundary_and_zero_limit():
    s = s_from(2.2)
    assert spectral_difference(KernelPoint(0.0, 0.8), s) == 0
    assert spectral_difference(KernelPoint(0.4, 0.9), s_from(0.0)) == pytest.approx(-0.36)
    small = spectral_difference(KernelPoint(0.4, 0.9), s_from(1e-10))
    assert small == pytest.approx(-0.36, abs=1e-9)


def test_spectral_difference_poles_distinguished():
    with pytest.raises(DirichletPoleError):
        spectral_difference(KernelPoint(0.5, 0.5), s_from(math.pi**2))
    with pytest.raises(NeumannPoleError):
        spectral_difference(KernelPoint(0.5, 0.5), s_from((math.pi / 2) ** 2))


# -------------------------------------------- reuse per point: bit identity
#
# Reference formulas: the spectral kernels recomputing sin k, cos k and the
# pole checks from cmath on every call.  The kernels, which read them from
# the SpectralPoint, must reproduce them bit for bit, zero signs included.


def _oracle_check_dd_pole(k):
    if abs(cmath.sin(k)) < laplace.POLE_RTOL * max(1.0, abs(k)):
        raise DirichletPoleError(f"sin(k) vanishes at k={k}")


def _oracle_check_dn_pole(k):
    if abs(cmath.cos(k)) < laplace.POLE_RTOL * max(1.0, abs(k)):
        raise NeumannPoleError(f"cos(k) vanishes at k={k}")


def _oracle_dd_static(pt):
    x, xi = pt
    if x <= xi:
        return -x * (xi - 1.0)
    return -(x - 1.0) * xi


def _oracle_dd(pt, s):
    a = min(pt)
    b = 1.0 - max(pt)
    if s.z == 0:
        return complex(-_oracle_dd_static(pt))
    k = s.k
    if abs(k) < laplace.SMALL_K:
        return -a * b * (1.0 + s.z * (1.0 - a * a - b * b) / 6.0)
    _oracle_check_dd_pole(k)
    return -(cmath.sin(k * a) / cmath.sin(k)) * (cmath.sin(k * b) / k)


def _oracle_diff(pt, s):
    x, xi = pt
    if s.z == 0:
        return complex(-(x * xi))
    k, z = s.k, s.z
    if abs(k) < laplace.SMALL_K:
        return -x * xi * (1.0 + z * (4.0 - x * x - xi * xi) / 6.0)
    _oracle_check_dd_pole(k)
    _oracle_check_dn_pole(k)
    return -(cmath.sin(k * x) / cmath.sin(k)) * (cmath.sin(k * xi) / cmath.cos(k)) / k


def _oracle_dn(pt, s):
    k = s.k
    if abs(k) < laplace.SMALL_K:
        return _oracle_dd(pt, s) + _oracle_diff(pt, s)
    _oracle_check_dn_pole(k)
    a = min(pt)
    b = 1.0 - max(pt)
    return -(cmath.sin(k * a) / cmath.cos(k)) * (cmath.cos(k * b) / k)


REFERENCE_KERNELS = (
    (green_dd_spectral, _oracle_dd),
    (green_dn_spectral, _oracle_dn),
    (spectral_difference, _oracle_diff),
)


def _outcome(fn, pt, s):
    try:
        return repr(fn(pt, s))
    except PoleError as exc:
        return type(exc)


def _real_z(n, u):  # strictly between the poles of sin k and cos k
    k = (n + u) * math.pi / 2.0
    return complex(k * k)


# The four z kinds of the analytic-spectral benchmark workload, z at the
# Taylor switch on both axes, then z = 0 with signed zeros; the points built
# from them optionally get a signed-zero imaginary part.
_workload_z = st.one_of(
    st.builds(_real_z, st.integers(1, 39), st.floats(0.1, 0.9)),
    st.builds(complex, st.floats(-50.0, 300.0), st.floats(0.5, 50.0) | st.floats(-50.0, -0.5)),
    st.builds(complex, st.floats(-400.0, -0.01)),
    st.builds(cmath.rect, st.floats(1e-12, 1e-8), st.floats(0.0, 2.0 * math.pi)),
    st.builds(_switch_z, st.sampled_from(TAYLOR_SWITCH), st.sampled_from([1.0, -1.0])),
    st.sampled_from([0j, complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0)]),
)
_spectral_points = st.one_of(
    st.builds(
        lambda z, imag: SpectralPoint.from_z(z if imag is None else complex(z.real, imag)),
        _workload_z,
        st.sampled_from([None, 0.0, -0.0]),
    ),
    # exact poles of sin k (j pi) and cos k ((j - 1/2) pi)
    st.builds(
        lambda j, half, by_k: (
            SpectralPoint.from_k((j - half) * math.pi) if by_k
            else SpectralPoint.from_z(((j - half) * math.pi) ** 2)
        ),
        st.integers(1, 40),
        st.sampled_from([0.0, 0.5]),
        st.booleans(),
    ),
)
_coordinate = unit | st.just(-0.0)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(_spectral_points, min_size=1, max_size=3),
    st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=4),
)
def test_kernels_bit_identical_to_reference(points, coordinates):
    for point in points:
        # Next to each point its conjugate, which for real z compares equal
        # to it and differs only in the sign of the zero imaginary part.
        twin = SpectralPoint.from_z(point.z.conjugate())
        for s, (x, xi) in itertools.product((point, twin, point), coordinates):
            pt = KernelPoint(x, xi)
            for kernel, oracle in REFERENCE_KERNELS:
                assert _outcome(kernel, pt, s) == _outcome(oracle, pt, s)


def test_kernels_tell_apart_points_equal_up_to_zero_sign():
    pt = KernelPoint(0.3, 0.6)
    plus, minus = SpectralPoint.from_z(4 + 0j), SpectralPoint.from_z(complex(4.0, -0.0))
    assert plus.k == minus.k
    for s in (plus, minus, plus):
        for kernel, oracle in REFERENCE_KERNELS:
            assert repr(kernel(pt, s)) == repr(oracle(pt, s))


class _CountingCmath:
    """cmath stand-in counting sin and cos calls at the argument object k."""

    def __init__(self, k):
        self.k = k
        self.sin_k = self.cos_k = 0

    def __getattr__(self, name):
        return getattr(cmath, name)

    def sin(self, v):
        self.sin_k += v is self.k
        return cmath.sin(v)

    def cos(self, v):
        self.cos_k += v is self.k
        return cmath.cos(v)


def test_z_only_denominator_computed_once_per_point(monkeypatch):
    # sin k and cos k are computed when the point is built, never per kernel value.
    grid = [float(v) for v in np.linspace(0.0, 1.0, 20)]
    for kernel, _ in REFERENCE_KERNELS:
        k = complex(2.9, 0.36)
        counting = _CountingCmath(k)
        monkeypatch.setattr(laplace, "cmath", counting)
        s = SpectralPoint.from_k(k)
        assert s.k is k
        for x in grid:
            for xi in grid:
                kernel(KernelPoint(x, xi), s)
        assert counting.sin_k == 1 and counting.cos_k == 1, kernel.__name__


def test_pole_raises_on_every_call():
    pt = KernelPoint(0.3, 0.6)
    for j in (1, 2, 3):
        dd_pole, dn_pole = s_from((j * math.pi) ** 2), s_from(((j - 0.5) * math.pi) ** 2)
        for _ in range(3):
            for kernel in (green_dd_spectral, spectral_difference):
                with pytest.raises(DirichletPoleError):
                    kernel(pt, dd_pole)
            assert cmath.isfinite(green_dn_spectral(pt, dd_pole))
            assert cmath.isfinite(green_dd_spectral(pt, dn_pole))
            for kernel in (green_dn_spectral, spectral_difference):
                with pytest.raises(NeumannPoleError):
                    kernel(pt, dn_pole)


def test_spectral_point_has_one_home():
    assert rankone.krein.SpectralPoint is laplace.SpectralPoint


@pytest.mark.parametrize(
    "build",
    [
        lambda: SpectralPoint.from_z(complex(math.nan, 1.0)),
        lambda: SpectralPoint.from_z(math.nan),
        lambda: SpectralPoint.from_z(math.inf),
        lambda: SpectralPoint.from_k(complex(math.nan, 0.0)),
        lambda: SpectralPoint.from_k(math.inf),
        lambda: SpectralPoint(z=1.0 + 0j, k=complex(math.nan, 0.0)),
        lambda: SpectralPoint(z=1.0 + 0j, k=complex(math.inf, 0.0)),
    ],
    ids=["z-nan-1", "z-nan", "z-inf", "k-nan", "k-inf", "k-nan-given-z", "k-inf-given-z"],
)
def test_spectral_point_refuses_non_finite_z_or_k(build):
    # The kernels would turn a NaN z into an all-NaN table without an error.
    with pytest.raises(ValueError):
        build()


# --------------------------------------------------------------------- dn kernel


def test_dn_spectral_zero_limit_matches_static():
    pt = KernelPoint(0.35, 0.8)
    assert green_dn_spectral(pt, s_from(0.0)) == pytest.approx(-green_dn_static(pt))


# ------------------------------------------------- large |Im k| against mpmath


# Far from the real axis, where a quotient by k sin k or k sin k cos k
# overflows while sin k is finite; and dn at the Dirichlet eigenvalues.
MPMATH_PINS = [
    (spectral_difference, -1.3e5, 1.0, 1.0),
    (green_dn_spectral, -1.3e5, 1.0, 1.0),
    (green_dd_spectral, -5e5, 0.5, 0.5),
    (green_dd_spectral, 1e6j, 0.5, 0.5),
    (green_dn_spectral, 1e6j, 0.5, 0.5),
    (spectral_difference, 1e6j, 0.5, 0.5),
] + [(green_dn_spectral, (j * math.pi) ** 2, 0.3, 0.6) for j in (1, 2, 3)]


@pytest.mark.parametrize(
    "kernel, z, x, xi", MPMATH_PINS, ids=[f"{p[0].__name__}-z={p[1]:.6g}-({p[2]},{p[3]})" for p in MPMATH_PINS]
)
def test_kernel_matches_mpmath(kernel, z, x, xi, mp_kernel):
    which = {green_dd_spectral: "dd", green_dn_spectral: "dn", spectral_difference: "diff"}[kernel]
    with mp.workdps(30):
        exact = mp_kernel(which, mp.sqrt(mp.mpc(z)), x, xi)
    value = kernel(KernelPoint(x, xi), s_from(z))
    assert abs(value - exact) <= 1e-12 * abs(exact), (value, exact)


# ------------------------------------------------------------------ eigenvalues


def test_dn_eigenvalues_frozen():
    points = dn_eigenvalues(2)
    assert points[0].z.real == pytest.approx(2.4674011002723395, abs=1e-12)
    assert points[1].z.real == pytest.approx(22.206609902451056, abs=1e-12)


def test_dn_eigenvalues_annihilate_denominator():
    for s in dn_eigenvalues(5):
        assert abs(krein_denominator(s)) <= 1e-12


def test_dn_eigenvalues_count_validation():
    with pytest.raises(ValueError):
        dn_eigenvalues(0)


# ------------------------------------------------------------- kernel functions


STATIC_KERNELS = (green_dd_static, green_dn_static, static_difference)
SPECTRAL_KERNELS = (green_dd_spectral, green_dn_spectral, spectral_difference)


@pytest.mark.parametrize("kernel", STATIC_KERNELS + SPECTRAL_KERNELS, ids=lambda kernel: kernel.__name__)
def test_kernel_finite_vanishing_at_left_boundary_and_symmetric(kernel):
    spectral_point = (s_from(2.3),) if kernel in SPECTRAL_KERNELS else ()

    def at(x, xi):
        return kernel(KernelPoint(x, xi), *spectral_point)

    assert np.isfinite(at(0.25, 0.6))
    assert abs(at(0.0, 0.4)) <= 1e-15
    for x, xi in ((0.2, 0.9), (0.5, 0.35)):
        assert at(x, xi) == pytest.approx(at(xi, x), abs=1e-14)
