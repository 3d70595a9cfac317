"""Resolvent difference of two operators whose inverse difference is rank-one.

With T2^-1 - T1^-1 = |f><l| and R1(z) = (z - T1)^-1, the difference of
resolvents is again rank-one:

    (z - T2)^-1 - (z - T1)^-1
        = - (-I + z R1)|f><l|(-I + z R1) / (1 + z <l|(-I + z R1) f>).

Zeros of the scalar denominator are the eigenvalues introduced by the
perturbation; they are located on the real axis by sign-change
bracketing between the poles of R1 followed by bisection.
"""

from __future__ import annotations

import cmath
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import DenseOperator, Functional, Operator, RankOneForm, Vector, outer, pair

# Probe points per bracketing subinterval; the denominators met in
# practice have one root per branch, so this is generous.
PROBES_PER_INTERVAL = 64
BISECTION_RTOL = 1e-12


class EigenvalueHitError(ArithmeticError):
    """z is an eigenvalue of the perturbed operator; the difference is undefined."""


@dataclass(frozen=True)
class SpectralPoint:
    """Spectral parameter z together with k, the principal root of k^2 = z."""

    z: complex
    k: complex

    def __post_init__(self):
        if abs(self.k * self.k - self.z) > 1e-12 * (1.0 + abs(self.z)):
            raise ValueError("k**2 must equal z")

    @classmethod
    def from_z(cls, z: complex) -> "SpectralPoint":
        k = cmath.sqrt(z)
        return cls(z=k * k, k=k)

    @classmethod
    def from_k(cls, k: complex) -> "SpectralPoint":
        k = complex(k)
        return cls(z=k * k, k=k)

    def admissible(self, excluded: Callable[[complex], bool]) -> bool:
        """True when z avoids the supplied spectrum-exclusion predicate."""
        return not excluded(self.z)


@dataclass(frozen=True)
class ResolventDifference:
    """Factored form of (z - T2)^-1 - (z - T1)^-1.

    Materializes to -|left><right| / denominator.
    """

    left: Vector
    right: Functional
    denominator: complex

    def materialize(self) -> DenseOperator:
        return outer(self.left, self.right) * (-1.0 / self.denominator)


@dataclass(frozen=True)
class EigenPair:
    """A located eigenvalue with its deflected eigenfunction.

    ``residual`` is ||T2 v - z v|| / ||v|| when T2 was supplied to the
    search, NaN otherwise.
    """

    z: complex
    k: complex
    eigenfunction: Vector | None
    residual: float


def deflect(r1: Operator, z: complex, f: Vector) -> Vector:
    """Apply (-I + z R1) to f."""
    return -f + complex(z) * (r1 @ f)


def krein_denominator(r1: Operator, z: complex, p: RankOneForm) -> complex:
    """The scalar 1 + z <l|(-I + z R1) f>."""
    return 1.0 + complex(z) * pair(p.l, deflect(r1, z, p.f))


def default_tol(z: complex, f_norm: float, l_norm: float) -> float:
    """Eigenvalue-hit band 1e-10 * (1 + |z| ||f|| ||l||), scaled because the denominator grows with z."""
    return 1e-10 * (1.0 + abs(z) * f_norm * l_norm)


def resolvent_difference(
    r1: Operator, z: complex, p: RankOneForm, tol: float | None = None
) -> ResolventDifference:
    """Rank-one factorization of (z - T2)^-1 - (z - T1)^-1.

    ``r1`` must be (z - T1)^-1 at this z.  Raises
    :class:`EigenvalueHitError` when the scalar denominator is inside
    the tolerance band around zero.
    """
    if tol is None:
        tol = default_tol(z, p.f.norm(), p.l.norm())
    z = complex(z)
    left = deflect(r1, z, p.f)
    right = -p.l + z * (p.l @ r1)
    den = 1.0 + z * pair(p.l, left)
    if abs(den) <= tol:
        raise EigenvalueHitError(
            f"denominator {den:.3e} vanishes at z={z}: z is a new eigenvalue"
        )
    return ResolventDifference(left=left, right=right, denominator=den)


def find_new_eigenvalues(
    denominator_fn: Callable[[complex], complex],
    interval: tuple[float, float],
    max_count: int,
    exclusions: Sequence[float],
    eigenfunction_fn: Callable[[complex], Vector] | None = None,
    t2: Operator | None = None,
) -> list[EigenPair]:
    """Real roots of the scalar denominator on a finite interval.

    ``exclusions`` are the poles of R1 (eigenvalues of T1) inside the
    interval; each open subinterval between consecutive exclusions is
    probed for sign changes of the real part, and every bracket is
    bisected to relative tolerance BISECTION_RTOL.  Roots are paired
    with ``eigenfunction_fn(z_n)`` when that callback is given, and
    with the eigen-residual against ``t2`` when that operator is given.
    Emits a RuntimeWarning and truncates when more than ``max_count``
    roots are found.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"interval must be finite with lo < hi, got {interval}")
    if max_count < 1:
        raise ValueError("max_count must be >= 1")

    cuts = [lo] + sorted(x for x in exclusions if lo < x < hi) + [hi]

    def d_real(x: float) -> float:
        return complex(denominator_fn(x)).real

    roots: list[float] = []
    truncated = False
    for a, b in zip(cuts[:-1], cuts[1:]):
        if truncated:
            break
        xs = a + (b - a) * np.arange(1, PROBES_PER_INTERVAL + 1) / (PROBES_PER_INTERVAL + 1.0)
        vals = [d_real(x) for x in xs]
        for i in range(len(xs) - 1):
            if vals[i] == 0.0:
                candidate = float(xs[i])
            elif vals[i] * vals[i + 1] < 0.0:
                candidate = _bisect(d_real, float(xs[i]), float(xs[i + 1]), vals[i])
            else:
                continue
            if len(roots) == max_count:
                truncated = True
                break
            roots.append(candidate)
    if truncated:
        warnings.warn(
            f"more than max_count={max_count} denominator roots on {interval}; result truncated",
            RuntimeWarning,
        )

    pairs = []
    for z_n in roots:
        vec = eigenfunction_fn(z_n) if eigenfunction_fn is not None else None
        residual = float("nan")
        if vec is not None and t2 is not None:
            residual = (t2 @ vec - z_n * vec).norm() / vec.norm()
        pairs.append(
            EigenPair(z=complex(z_n), k=cmath.sqrt(complex(z_n)), eigenfunction=vec, residual=residual)
        )
    return pairs


def _bisect(fn: Callable[[float], float], a: float, b: float, fa: float) -> float:
    while (b - a) > BISECTION_RTOL * max(1.0, abs(a + b) / 2.0):
        mid = 0.5 * (a + b)
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if fa * fm < 0.0:
            b = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)
