"""Rank-one update of a known inverse.

Given A^-1 and a rank-one form (f, l), the perturbed operator is
B = A - |f><l|.  When the scalar 1 - <l|A^-1 f> is nonzero, B is
invertible and

    B^-1 - A^-1 = A^-1 f <l| A^-1 / (1 - <l|A^-1 f>).

When the scalar vanishes, B annihilates A^-1 f, which is then a
nonzero null vector.  The update only ever applies A^-1, to f and to l:
:class:`RegularInverse` keeps the factors (A^-1 f, <l|A^-1, denominator),
so an update costs two actions of A^-1 plus O(n), and O(n) memory when
A^-1 is an O(n) resolvent.  The dense correction is formed only when
``correction`` is read, and reading it raises ValueError when the outer
product of two finite factors overflows.  Linear systems B v = w are
solved with two applications of A^-1, never forming B^-1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DenseOperator, Functional, Operator, RankOneForm, Vector, _check_dims, pair


class SingularPerturbationError(ArithmeticError):
    """The update denominator vanished; B is not invertible."""


@dataclass(frozen=True)
class RegularInverse:
    """Invertible branch, kept factored: B^-1 = A^-1 + |left><right| / denominator.

    left = A^-1 f and right = <l|A^-1.  ``correction`` and ``apply_to``
    build dense n x n matrices, for oracles and small sizes, only when
    called; both raise ValueError when the outer product overflows.
    """

    left: Vector
    right: Functional
    denominator: complex

    @property
    def correction(self) -> DenseOperator:
        """The rank-one term |left><right| / denominator as a dense matrix."""
        with np.errstate(over="ignore", invalid="ignore"):  # DenseOperator rejects an overflow
            product = np.outer(self.left.entries, self.right.weights) * complex(1.0 / self.denominator)
        return DenseOperator(product)

    def apply_to(self, a_inv: Operator) -> DenseOperator:
        """The dense B^-1 = A^-1 + correction."""
        return DenseOperator(a_inv.matrix + self.correction.matrix)


@dataclass(frozen=True)
class SingularInverse:
    """Non-invertible branch: B * null_vector = 0."""

    null_vector: Vector


PerturbedInverseResult = RegularInverse | SingularInverse

# Relative tolerance of each of the three tests in null_space_certificate.
CERTIFICATE_RTOL = 1e-9


def default_tol(l_a_inv_f: complex) -> float:
    """Relative band around the singular manifold: 1e-10 * (1 + |<l|A^-1 f>|)."""
    return 1e-10 * (1.0 + abs(l_a_inv_f))


def _pairing(a_inv: Operator, p: RankOneForm) -> tuple[np.ndarray, complex]:
    """A^-1 f and <l|A^-1 f>; ValueError when the pairing or its modulus overflowed.

    An infinite pairing would widen the band of :func:`default_tol` to
    infinity and report an invertible B as singular, and a NaN one would
    reach the singular branch.  The check rejects both, so numpy's
    overflow warnings would only repeat that error.
    """
    _check_dims(a_inv.dim, p.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        u = a_inv.apply(p.f.entries)
        l_u = complex(np.dot(p.l.weights, u))
    if not math.isfinite(math.hypot(l_u.real, l_u.imag)):
        raise ValueError(f"<l|A^-1 f> = {l_u} is out of floating-point range")
    return u, l_u


def denominator(a_inv: Operator, p: RankOneForm) -> complex:
    """The update scalar 1 - <l|A^-1 f>; ValueError when <l|A^-1 f> overflows."""
    return 1.0 - _pairing(a_inv, p)[1]


def perturbed_inverse(a_inv: Operator, p: RankOneForm) -> PerturbedInverseResult:
    """Invert B = A - |f><l| given A^-1, or certify B singular.

    Returns :class:`RegularInverse` carrying the factors A^-1 f and
    <l|A^-1 and the denominator when |denominator| > :func:`default_tol`,
    else :class:`SingularInverse` carrying the null vector A^-1 f.  Two
    actions of A^-1 plus O(n); no n x n array is formed.  Raises
    ValueError when A^-1 f, <l|A^-1 f> or <l|A^-1 overflows.
    """
    u_entries, l_u = _pairing(a_inv, p)
    u = Vector(u_entries)
    den = 1.0 - l_u
    if abs(den) > default_tol(l_u):
        with np.errstate(over="ignore", invalid="ignore"):  # Functional rejects an overflow
            right = a_inv.apply_left(p.l.weights)
        return RegularInverse(left=u, right=Functional(right), denominator=den)
    # f = 0 forces denominator = 1, so this branch implies a nonzero null vector.
    assert u.norm() > 0.0, "singular branch reached with f = 0"
    return SingularInverse(null_vector=u)


def solve_perturbed(a_inv: Operator, p: RankOneForm, w: Vector) -> Vector:
    """Solve (A - |f><l|) v = w with two applications of A^-1.

    Computes c = <l|A^-1 w> / (1 - <l|A^-1 f>) and returns
    v = A^-1 (w + c f) without ever forming B^-1.  Raises
    :class:`SingularPerturbationError` when the denominator is within
    :func:`default_tol` of zero, and ValueError when <l|A^-1 f> or the
    solution overflows.
    """
    _check_dims(a_inv.dim, w.dim)
    t_f, l_t_f = _pairing(a_inv, p)
    t_w = a_inv.apply(w.entries)
    tol = default_tol(l_t_f)
    den = 1.0 - l_t_f
    if abs(den) <= tol:
        raise SingularPerturbationError(
            f"perturbation denominator {den:.3e} within tolerance {tol:.3e} of zero"
        )
    c = complex(np.dot(p.l.weights, t_w)) / den
    return Vector(t_w + t_f * c)


def null_space_certificate(a_inv: Operator, p: RankOneForm, v0: Vector) -> bool:
    """Check that a nonzero v0 spans the kernel of B = A - |f><l|.

    True iff <l|v0> is nonzero, the denominator 1 - <l|A^-1 f> vanishes,
    and v0 is collinear with A^-1 f (sine of the angle), each up to
    CERTIFICATE_RTOL relative.  Raises ValueError when <l|A^-1 f>
    overflows.
    """
    _check_dims(a_inv.dim, v0.dim)
    if v0.norm() == 0.0:
        raise ValueError("v0 must be nonzero")
    u, l_u = _pairing(a_inv, p)

    pairing_ok = abs(pair(p.l, v0)) > CERTIFICATE_RTOL * max(1.0, p.l.norm() * v0.norm())
    denominator_ok = abs(1.0 - l_u) <= CERTIFICATE_RTOL * (1.0 + abs(l_u))

    nu, nv = float(np.linalg.norm(u)), v0.norm()
    if nu == 0.0:
        return False
    # Sine of the angle from the residual of projecting v0 on u:
    # sqrt(1 - cos^2) would have a rounding floor near 1.5e-8, above CERTIFICATE_RTOL.
    projection = u * (np.vdot(u, v0.entries) / nu**2)
    collinear_ok = np.linalg.norm(v0.entries - projection) / nv <= CERTIFICATE_RTOL

    return bool(pairing_ok and denominator_ok and collinear_ok)
