"""Closed-form testbed: 1-d Laplacian on [0,1] with two boundary conditions.

T is -d^2/dx^2 with u(0) = 0 at the left end and either u(1) = 0
(Dirichlet-Dirichlet, "dd") or u'(1) = 0 (Dirichlet-Neumann, "dn") at
the right end.  The inverse difference is rank-one with kernel x*xi,
i.e. factors f(x) = x (the ramp) and l(u) = integral of xi*u(xi).  The
spectral parameter is z = k^2; every formula below is even in k, so
the square-root branch never matters.

Small |k| evaluates Taylor expansions of the closed forms: the direct
expressions subtract terms of order 1/k^2 and would lose most digits
there.  z = 0 returns the exact continuity limits (the resolvent at
zero is the negated inverse).

The spectral kernels share a z-only denominator, k sin k for dd and
k sin k cos k for the difference, with its pole checks.  Each is kept
in a one-entry memo keyed by the identity of the SpectralPoint, so a
grid of kernel values at one point pays for sin k and cos k once.  The
key is the object, not its value: points that compare equal can differ
in the sign of a zero part (z = 4+0j and z = complex(4, -0.0) give
k = 2+0j and k = 2-0j), and that sign reaches the result.  The memo
holds a reference to its point, so the identity cannot be reused by
another object while it is stored.  A pole raises and stores nothing,
so it raises again on every call.
"""

from __future__ import annotations

import cmath
from collections import namedtuple

from .krein import SpectralPoint

# Taylor branch below this |k|; direct evaluation above it.
SMALL_K = 1e-4
# Relative guard band around the trigonometric zeros.
POLE_RTOL = 1e-12

class PoleError(ArithmeticError):
    """z sits on a spectral pole of the requested kernel."""


class DirichletPoleError(PoleError):
    """sin(k) vanishes: z is an eigenvalue of the Dirichlet-Dirichlet operator."""


class NeumannPoleError(PoleError):
    """cos(k) vanishes: z is an eigenvalue of the Dirichlet-Neumann operator."""


class KernelPoint(namedtuple("KernelPoint", "x xi")):
    """Argument pair (x, xi) of a kernel on the unit square."""

    __slots__ = ()

    def __new__(cls, x: float, xi: float):
        if not (0.0 <= x <= 1.0 and 0.0 <= xi <= 1.0):
            raise ValueError(f"kernel coordinates must lie in [0,1], got {(x, xi)}")
        return tuple.__new__(cls, (x, xi))

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make (and _replace, which calls it) skips __new__.
        return cls(*iterable)


def _check_dd_pole(k: complex) -> complex:
    """sin(k); raises DirichletPoleError where it vanishes."""
    sin_k = cmath.sin(k)
    if abs(sin_k) < POLE_RTOL * max(1.0, abs(k)):
        raise DirichletPoleError(f"sin(k) vanishes at k={k}")
    return sin_k


# One-entry memos (point, value), matched by identity: see the module docstring.
_k_sin_k_memo: tuple = (None, None)
_k_sin_k_cos_k_memo: tuple = (None, None)


def _k_sin_k(s: SpectralPoint) -> complex:
    """k sin(k) at s, pole-checked; the dd kernel's denominator."""
    global _k_sin_k_memo
    memo = _k_sin_k_memo
    if memo[0] is s:
        return memo[1]
    k = s.k
    value = k * _check_dd_pole(k)
    _k_sin_k_memo = (s, value)
    return value


def _k_sin_k_cos_k(s: SpectralPoint) -> complex:
    """k sin(k) cos(k) at s, pole-checked; the difference kernel's denominator."""
    global _k_sin_k_cos_k_memo
    memo = _k_sin_k_cos_k_memo
    if memo[0] is s:
        return memo[1]
    k = s.k
    k_sin_k = _k_sin_k(s)
    cos_k = cmath.cos(k)
    if abs(cos_k) < POLE_RTOL * max(1.0, abs(k)):
        raise NeumannPoleError(f"cos(k) vanishes at k={k}")
    value = k_sin_k * cos_k
    _k_sin_k_cos_k_memo = (s, value)
    return value


def green_dd_static(pt: KernelPoint) -> float:
    """Green's kernel of the Dirichlet-Dirichlet inverse: min(x,xi)*(1-max(x,xi))."""
    if pt.x <= pt.xi:
        return -pt.x * (pt.xi - 1.0)
    return -(pt.x - 1.0) * pt.xi


def green_dn_static(pt: KernelPoint) -> float:
    """Green's kernel of the Dirichlet-Neumann inverse: min(x, xi)."""
    return min(pt.x, pt.xi)


def static_difference(pt: KernelPoint) -> float:
    """Kernel of the rank-one inverse difference: x*xi."""
    return pt.x * pt.xi


def green_dd_spectral(pt: KernelPoint, s: SpectralPoint) -> complex:
    """Kernel of (z - T_dd)^-1: -sin(k a) sin(k b) / (k sin k), a=min, b=1-max."""
    x, xi = pt
    a, b = (x, 1.0 - xi) if x <= xi else (xi, 1.0 - x)
    if s.z == 0:
        return complex(-green_dd_static(pt))
    k = s.k
    if abs(k) < SMALL_K:
        return -a * b * (1.0 + s.z * (1.0 - a * a - b * b) / 6.0)
    denominator = _k_sin_k(s)
    return -cmath.sin(k * a) * cmath.sin(k * b) / denominator


def ramp_response(x: float, s: SpectralPoint) -> complex:
    """z (z - T_dd)^-1 applied to the ramp, at x: equals x - sin(kx)/sin(k).

    Solves z u + u'' = z x with u(0) = u(1) = 0.
    """
    if s.z == 0:
        return 0.0 + 0.0j
    k, z = s.k, s.z
    if abs(k) < SMALL_K:
        return -x * z * ((1.0 - x * x) / 6.0 + z * (7.0 / 360.0 - x * x / 36.0 + x**4 / 120.0))
    sin_k = _check_dd_pole(k)
    return x - cmath.sin(k * x) / sin_k


def deflected_ramp(x: float, s: SpectralPoint) -> complex:
    """(-I + z (z - T_dd)^-1) applied to the ramp, at x: -sin(kx)/sin(k)."""
    if s.z == 0:
        return complex(-x)
    k, z = s.k, s.z
    if abs(k) < SMALL_K:
        return -x * (1.0 + z * (1.0 - x * x) / 6.0 + z * z * (7.0 / 360.0 - x * x / 36.0 + x**4 / 120.0))
    sin_k = _check_dd_pole(k)
    return -cmath.sin(k * x) / sin_k


def scalar_pairing(s: SpectralPoint) -> complex:
    """Ramp moment of the deflected ramp: cos(k)/(k sin k) - 1/k^2.

    Equals -integral of xi sin(k xi)/sin(k) over [0,1].  The two direct
    terms are each O(1/k^2) and cancel to O(1), so small |k| switches to
    the series -1/3 - z/45 - 2 z^2/945 - z^3/4725.
    """
    if s.z == 0:
        return complex(-1.0 / 3.0)
    k, z = s.k, s.z
    if abs(k) < SMALL_K:
        return -1.0 / 3.0 - z / 45.0 - 2.0 * z * z / 945.0 - z**3 / 4725.0
    sin_k = _check_dd_pole(k)
    return cmath.cos(k) / (k * sin_k) - 1.0 / (k * k)


def krein_denominator(s: SpectralPoint) -> complex:
    """The scalar 1 + z <l|(-I + z R_dd) f> in closed form: k cot(k)."""
    if s.z == 0:
        return 1.0 + 0.0j
    k, z = s.k, s.z
    if abs(k) < SMALL_K:
        return 1.0 - z / 3.0 - z * z / 45.0 - 2.0 * z**3 / 945.0 - z**4 / 4725.0
    sin_k = _check_dd_pole(k)
    return k * cmath.cos(k) / sin_k


def spectral_difference(pt: KernelPoint, s: SpectralPoint) -> complex:
    """Kernel of (z - T_dn)^-1 - (z - T_dd)^-1: -sin(kx) sin(k xi)/(k sin k cos k)."""
    if s.z == 0:
        return complex(-static_difference(pt))
    k, z = s.k, s.z
    x, xi = pt
    if abs(k) < SMALL_K:
        return -x * xi * (1.0 + z * (4.0 - x * x - xi * xi) / 6.0)
    denominator = _k_sin_k_cos_k(s)
    return -cmath.sin(k * x) * cmath.sin(k * xi) / denominator


def green_dn_spectral(pt: KernelPoint, s: SpectralPoint) -> complex:
    """Kernel of (z - T_dn)^-1, defined as the dd kernel plus the difference.

    Both terms are the expressions of green_dd_spectral and
    spectral_difference, evaluated inline and summed in that order.
    """
    if s.z == 0:
        return complex(-green_dd_static(pt)) + complex(-static_difference(pt))
    k, z = s.k, s.z
    x, xi = pt
    a, b = (x, 1.0 - xi) if x <= xi else (xi, 1.0 - x)
    if abs(k) < SMALL_K:
        dd = -a * b * (1.0 + z * (1.0 - a * a - b * b) / 6.0)
        diff = -x * xi * (1.0 + z * (4.0 - x * x - xi * xi) / 6.0)
        return dd + diff
    dd_denominator = _k_sin_k(s)
    dd = -cmath.sin(k * a) * cmath.sin(k * b) / dd_denominator
    diff_denominator = _k_sin_k_cos_k(s)
    diff = -cmath.sin(k * x) * cmath.sin(k * xi) / diff_denominator
    return dd + diff


def dn_eigenvalues(count: int) -> list[SpectralPoint]:
    """Eigenvalues introduced by the Neumann condition: z_n = ((n+1/2) pi)^2."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return [SpectralPoint.from_k((n + 0.5) * cmath.pi) for n in range(count)]
