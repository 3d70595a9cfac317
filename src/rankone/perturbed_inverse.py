"""Rank-one update of a known inverse.

Given A^-1 and a rank-one form (f, l), the perturbed operator is
B = A - |f><l|.  When the scalar 1 - <l|A^-1 f> is nonzero, B is
invertible and

    B^-1 - A^-1 = A^-1 f <l| A^-1 / (1 - <l|A^-1 f>).

When the scalar vanishes, B annihilates A^-1 f, which is then a
nonzero null vector.  Linear systems B v = w are solved with two
applications of A^-1, never forming B^-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DenseOperator, Operator, RankOneForm, Vector, _check_dims, pair


class SingularPerturbationError(ArithmeticError):
    """The update denominator vanished; B is not invertible."""


@dataclass(frozen=True)
class RegularInverse:
    """Invertible branch: B^-1 = A^-1 + correction."""

    correction: DenseOperator
    denominator: complex

    def apply_to(self, a_inv: DenseOperator) -> DenseOperator:
        return a_inv + self.correction


@dataclass(frozen=True)
class SingularInverse:
    """Non-invertible branch: B * null_vector = 0."""

    null_vector: Vector


PerturbedInverseResult = RegularInverse | SingularInverse


def default_tol(l_a_inv_f: complex) -> float:
    """Relative band around the singular manifold: 1e-10 * (1 + |<l|A^-1 f>|)."""
    return 1e-10 * (1.0 + abs(l_a_inv_f))


def _check_pairing(l_u: complex) -> None:
    """ValueError when <l|A^-1 f> or its modulus overflowed.

    An infinite pairing would widen the band of :func:`default_tol` to
    infinity and report an invertible B as singular.
    """
    if not math.isfinite(math.hypot(l_u.real, l_u.imag)):
        raise ValueError(f"<l|A^-1 f> = {l_u} is out of floating-point range")


def denominator(a_inv: Operator, p: RankOneForm) -> complex:
    """The update scalar 1 - <l|A^-1 f>."""
    _check_dims(a_inv.dim, p.dim)
    return 1.0 - complex(np.dot(p.l.weights, a_inv.apply(p.f.entries)))


def perturbed_inverse(
    a_inv: Operator, p: RankOneForm, tol: float | None = None
) -> PerturbedInverseResult:
    """Invert B = A - |f><l| given A^-1, or certify B singular.

    Returns :class:`RegularInverse` carrying the rank-one correction
    when |denominator| > tol, else :class:`SingularInverse` carrying
    the null vector A^-1 f.  Raises ValueError when A^-1 f, <l|A^-1 f> or
    the correction overflows.
    """
    _check_dims(a_inv.dim, p.dim)
    # Validated before the branch: an A^-1 f or <l|A^-1 f> that overflowed
    # would give an infinite or NaN denominator and tolerance, and reach the
    # singular branch.  Vector and _check_pairing reject them, so numpy's
    # overflow warnings would only repeat that error.
    with np.errstate(over="ignore", invalid="ignore"):
        u_entries = a_inv.apply(p.f.entries)
        l_u = complex(np.dot(p.l.weights, u_entries))
    u = Vector(u_entries)
    _check_pairing(l_u)
    if tol is None:
        tol = default_tol(l_u)
    den = 1.0 - l_u
    if abs(den) > tol:
        with np.errstate(over="ignore", invalid="ignore"):  # DenseOperator rejects an overflow
            correction = np.outer(u.entries, a_inv.apply_left(p.l.weights)) * complex(1.0 / den)
        return RegularInverse(correction=DenseOperator(correction), denominator=den)
    # f = 0 forces denominator = 1, so this branch implies a nonzero null vector.
    assert u.norm() > 0.0, "singular branch reached with f = 0"
    return SingularInverse(null_vector=u)


def solve_perturbed(
    a_inv: Operator, p: RankOneForm, w: Vector, tol: float | None = None
) -> Vector:
    """Solve (A - |f><l|) v = w with two applications of A^-1.

    Computes c = <l|A^-1 w> / (1 - <l|A^-1 f>) and returns
    v = A^-1 (w + c f) without ever forming B^-1.  Raises ValueError when
    <l|A^-1 f> or the solution overflows.
    """
    _check_dims(a_inv.dim, p.dim)
    _check_dims(a_inv.dim, w.dim)
    t_f = a_inv.apply(p.f.entries)
    t_w = a_inv.apply(w.entries)
    l_t_f = complex(np.dot(p.l.weights, t_f))
    _check_pairing(l_t_f)
    if tol is None:
        tol = default_tol(l_t_f)
    den = 1.0 - l_t_f
    if abs(den) <= tol:
        raise SingularPerturbationError(
            f"perturbation denominator {den:.3e} within tolerance {tol:.3e} of zero"
        )
    c = complex(np.dot(p.l.weights, t_w)) / den
    return Vector(t_w + t_f * c)


def null_space_certificate(
    a_inv: Operator, p: RankOneForm, v0: Vector, tol: float = 1e-9
) -> bool:
    """Check that a nonzero v0 spans the kernel of B = A - |f><l|.

    True iff <l|v0> is nonzero, the denominator 1 - <l|A^-1 f> vanishes,
    and v0 is collinear with A^-1 f (sine of the angle below tol).
    """
    _check_dims(a_inv.dim, p.dim)
    _check_dims(a_inv.dim, v0.dim)
    if v0.norm() == 0.0:
        raise ValueError("v0 must be nonzero")

    pairing_ok = abs(pair(p.l, v0)) > tol * max(1.0, p.l.norm() * v0.norm())

    u = a_inv.apply(p.f.entries)
    l_u = complex(np.dot(p.l.weights, u))
    denominator_ok = abs(1.0 - l_u) <= tol * (1.0 + abs(l_u))

    nu, nv = float(np.linalg.norm(u)), v0.norm()
    if nu == 0.0:
        return False
    # Sine of the angle from the residual of projecting v0 on u:
    # sqrt(1 - cos^2) would have a rounding floor near 1.5e-8, above the default tol.
    projection = u * (np.vdot(u, v0.entries) / nu**2)
    collinear_ok = np.linalg.norm(v0.entries - projection) / nv <= tol

    return bool(pairing_ok and denominator_ok and collinear_ok)
