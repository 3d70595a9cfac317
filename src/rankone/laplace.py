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

A SpectralPoint computes sin k, cos k, both poles and the Taylor
branch once, when it is built; every spectral formula reads them from
the point, so a grid of kernel values at one point pays for them once.
Each kernel divides before it multiplies: a ratio such as
sin(k a)/sin(k) with a <= 1 stays bounded away from the poles, so no
intermediate overflows below |Im k| ~ 710, where sin k itself does and
building the point raises OverflowError.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class SpectralPoint:
    """Spectral parameter z with k, the principal root of k^2 = z, and sin k, cos k.

    Decided here: ``taylor``, |k| < SMALL_K (so true at z = 0), and the poles
    ``dd_pole`` (sin k) and ``dn_pole`` (cos k), |.| < POLE_RTOL * max(1, |k|).
    Building a point raises ValueError for a non-finite z or k, and
    OverflowError above |Im k| ~ 710.
    """

    z: complex
    k: complex
    sin_k: complex = field(init=False, repr=False, compare=False)
    cos_k: complex = field(init=False, repr=False, compare=False)
    taylor: bool = field(init=False, repr=False, compare=False)
    dd_pole: bool = field(init=False, repr=False, compare=False)
    dn_pole: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k = self.k
        if not cmath.isfinite(self.z):
            raise ValueError(f"z={self.z} is not finite")
        # Negated so that a NaN k fails too.
        if not abs(k * k - self.z) <= 1e-12 * (1.0 + abs(self.z)):
            raise ValueError("k**2 must equal z")
        sin_k, cos_k = cmath.sin(k), cmath.cos(k)
        band = POLE_RTOL * max(1.0, abs(k))
        object.__setattr__(self, "sin_k", sin_k)
        object.__setattr__(self, "cos_k", cos_k)
        object.__setattr__(self, "taylor", abs(k) < SMALL_K)
        object.__setattr__(self, "dd_pole", abs(sin_k) < band)
        object.__setattr__(self, "dn_pole", abs(cos_k) < band)

    @classmethod
    def from_z(cls, z: complex) -> "SpectralPoint":
        k = cmath.sqrt(z)
        return cls(z=k * k, k=k)

    @classmethod
    def from_k(cls, k: complex) -> "SpectralPoint":
        k = complex(k)
        return cls(z=k * k, k=k)


def KernelPoint(x: float, xi: float) -> tuple[float, float]:
    """Argument pair (x, xi) of a kernel on the unit square, as a plain tuple."""
    if not (0.0 <= x <= 1.0 and 0.0 <= xi <= 1.0):
        raise ValueError(f"kernel coordinates must lie in [0,1], got {(x, xi)}")
    return x, xi


def green_dd_static(pt: tuple[float, float]) -> float:
    """Green's kernel of the Dirichlet-Dirichlet inverse: min(x,xi)*(1-max(x,xi))."""
    x, xi = pt
    if x <= xi:
        return -x * (xi - 1.0)
    return -(x - 1.0) * xi


def green_dn_static(pt: tuple[float, float]) -> float:
    """Green's kernel of the Dirichlet-Neumann inverse: min(x, xi)."""
    return min(pt)


def static_difference(pt: tuple[float, float]) -> float:
    """Kernel of the rank-one inverse difference: x*xi."""
    x, xi = pt
    return x * xi


def green_dd_spectral(pt: tuple[float, float], s: SpectralPoint) -> complex:
    """Kernel of (z - T_dd)^-1: -(sin(k a) / sin k) (sin(k b) / k), a=min, b=1-max."""
    x, xi = pt
    if not s.taylor:
        if s.dd_pole:
            raise DirichletPoleError(f"sin(k) vanishes at k={s.k}")
        k = s.k
        if x <= xi:
            return -(cmath.sin(k * x) / s.sin_k) * (cmath.sin(k * (1.0 - xi)) / k)
        return -(cmath.sin(k * xi) / s.sin_k) * (cmath.sin(k * (1.0 - x)) / k)
    if s.z == 0:
        return complex(-green_dd_static(pt))
    a, b = (x, 1.0 - xi) if x <= xi else (xi, 1.0 - x)
    return -a * b * (1.0 + s.z * (1.0 - a * a - b * b) / 6.0)


def ramp_response(x: float, s: SpectralPoint) -> complex:
    """z (z - T_dd)^-1 applied to the ramp, at x: equals x - sin(kx)/sin(k).

    Solves z u + u'' = z x with u(0) = u(1) = 0.
    """
    if not s.taylor:
        if s.dd_pole:
            raise DirichletPoleError(f"sin(k) vanishes at k={s.k}")
        return x - cmath.sin(s.k * x) / s.sin_k
    if s.z == 0:
        return 0.0 + 0.0j
    z = s.z
    return -x * z * ((1.0 - x * x) / 6.0 + z * (7.0 / 360.0 - x * x / 36.0 + x**4 / 120.0))


def deflected_ramp(x: float, s: SpectralPoint) -> complex:
    """(-I + z (z - T_dd)^-1) applied to the ramp, at x: -sin(kx)/sin(k)."""
    if not s.taylor:
        if s.dd_pole:
            raise DirichletPoleError(f"sin(k) vanishes at k={s.k}")
        return -cmath.sin(s.k * x) / s.sin_k
    if s.z == 0:
        return complex(-x)
    z = s.z
    return -x * (1.0 + z * (1.0 - x * x) / 6.0 + z * z * (7.0 / 360.0 - x * x / 36.0 + x**4 / 120.0))


def scalar_pairing(s: SpectralPoint) -> complex:
    """Ramp moment of the deflected ramp: cos(k)/(k sin k) - 1/k^2.

    Equals -integral of xi sin(k xi)/sin(k) over [0,1].  The two direct
    terms are each O(1/k^2) and cancel to O(1), so small |k| switches to
    the series -1/3 - z/45 - 2 z^2/945 - z^3/4725.
    """
    if not s.taylor:
        if s.dd_pole:
            raise DirichletPoleError(f"sin(k) vanishes at k={s.k}")
        k = s.k
        return s.cos_k / (k * s.sin_k) - 1.0 / (k * k)
    if s.z == 0:
        return complex(-1.0 / 3.0)
    z = s.z
    return -1.0 / 3.0 - z / 45.0 - 2.0 * z * z / 945.0 - z**3 / 4725.0


def krein_denominator(s: SpectralPoint) -> complex:
    """The scalar 1 + z <l|(-I + z R_dd) f> in closed form: k cot(k)."""
    if not s.taylor:
        if s.dd_pole:
            raise DirichletPoleError(f"sin(k) vanishes at k={s.k}")
        return s.k * s.cos_k / s.sin_k
    if s.z == 0:
        return 1.0 + 0.0j
    z = s.z
    return 1.0 - z / 3.0 - z * z / 45.0 - 2.0 * z**3 / 945.0 - z**4 / 4725.0


def spectral_difference(pt: tuple[float, float], s: SpectralPoint) -> complex:
    """Kernel of (z - T_dn)^-1 - (z - T_dd)^-1: -(sin(kx) / sin k) (sin(k xi) / cos k) / k."""
    x, xi = pt
    if not s.taylor:
        k = s.k
        if s.dd_pole:
            raise DirichletPoleError(f"sin(k) vanishes at k={k}")
        if s.dn_pole:
            raise NeumannPoleError(f"cos(k) vanishes at k={k}")
        return -(cmath.sin(k * x) / s.sin_k) * (cmath.sin(k * xi) / s.cos_k) / k
    if s.z == 0:
        return complex(-static_difference(pt))
    z = s.z
    return -x * xi * (1.0 + z * (4.0 - x * x - xi * xi) / 6.0)


def green_dn_spectral(pt: tuple[float, float], s: SpectralPoint) -> complex:
    """Kernel of (z - T_dn)^-1: -(sin(k a) / cos k) (cos(k b) / k), a=min, b=1-max.

    Defined at the eigenvalues of T_dd, where sin k vanishes.  At z = 0
    and on the Taylor branch it is the dd kernel plus the difference.
    """
    if not s.taylor:
        if s.dn_pole:
            raise NeumannPoleError(f"cos(k) vanishes at k={s.k}")
        k = s.k
        x, xi = pt
        if x <= xi:
            return -(cmath.sin(k * x) / s.cos_k) * (cmath.cos(k * (1.0 - xi)) / k)
        return -(cmath.sin(k * xi) / s.cos_k) * (cmath.cos(k * (1.0 - x)) / k)
    return green_dd_spectral(pt, s) + spectral_difference(pt, s)


def dn_eigenvalues(count: int) -> list[SpectralPoint]:
    """Eigenvalues introduced by the Neumann condition: z_n = ((n+1/2) pi)^2."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return [SpectralPoint.from_k((n + 0.5) * cmath.pi) for n in range(count)]
