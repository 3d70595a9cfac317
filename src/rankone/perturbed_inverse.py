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

from dataclasses import dataclass

import numpy as np

from .core import DenseOperator, RankOneForm, Vector, _check_dims, outer, pair


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


def denominator(a_inv: DenseOperator, p: RankOneForm) -> complex:
    """The update scalar 1 - <l|A^-1 f>."""
    _check_dims(a_inv.dim, p.dim)
    return 1.0 - pair(p.l, a_inv @ p.f)


def perturbed_inverse(
    a_inv: DenseOperator, p: RankOneForm, tol: float | None = None
) -> PerturbedInverseResult:
    """Invert B = A - |f><l| given A^-1, or certify B singular.

    Returns :class:`RegularInverse` carrying the rank-one correction
    when |denominator| > tol, else :class:`SingularInverse` carrying
    the null vector A^-1 f.
    """
    _check_dims(a_inv.dim, p.dim)
    u = a_inv @ p.f
    l_u = pair(p.l, u)
    if tol is None:
        tol = default_tol(l_u)
    den = 1.0 - l_u
    if abs(den) > tol:
        correction = outer(u, p.l @ a_inv) * (1.0 / den)
        return RegularInverse(correction=correction, denominator=den)
    # f = 0 forces denominator = 1, so this branch implies a nonzero null vector.
    assert u.norm() > 0.0, "singular branch reached with f = 0"
    return SingularInverse(null_vector=u)


def solve_perturbed(
    a_inv: DenseOperator, p: RankOneForm, w: Vector, tol: float | None = None
) -> Vector:
    """Solve (A - |f><l|) v = w with two applications of A^-1.

    Computes c = <l|A^-1 w> / (1 - <l|A^-1 f>) and returns
    v = A^-1 (w + c f) without ever forming B^-1.
    """
    _check_dims(a_inv.dim, p.dim)
    _check_dims(a_inv.dim, w.dim)
    t_f = a_inv @ p.f
    t_w = a_inv @ w
    l_t_f = pair(p.l, t_f)
    if tol is None:
        tol = default_tol(l_t_f)
    den = 1.0 - l_t_f
    if abs(den) <= tol:
        raise SingularPerturbationError(
            f"perturbation denominator {den:.3e} within tolerance {tol:.3e} of zero"
        )
    c = pair(p.l, t_w) / den
    return t_w + c * t_f


def null_space_certificate(
    a_inv: DenseOperator, p: RankOneForm, v0: Vector, tol: float = 1e-9
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

    u = a_inv @ p.f
    l_u = pair(p.l, u)
    denominator_ok = abs(1.0 - l_u) <= tol * (1.0 + abs(l_u))

    nu, nv = u.norm(), v0.norm()
    if nu == 0.0:
        return False
    # Sine of the angle from the residual of projecting v0 on u:
    # sqrt(1 - cos^2) would have a rounding floor near 1.5e-8, above the default tol.
    projection = u.entries * (np.vdot(u.entries, v0.entries) / nu**2)
    collinear_ok = np.linalg.norm(v0.entries - projection) / nv <= tol

    return bool(pairing_ok and denominator_ok and collinear_ok)
