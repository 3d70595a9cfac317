"""Rank-one update of a known inverse: the one Sherman-Morrison body.

Given the action of A^-1 and a rank-one form (f, l), B = A - c|f><l| has

    B^-1 - A^-1 = c A^-1 f <l| A^-1 / (1 - c <l|A^-1 f>)

when the denominator is nonzero (W. W. Hager, "Updating the inverse of a
matrix", SIAM Review 31, 1989); when it vanishes, A^-1 f is a null vector
of B.  :func:`update_denominator` is the one place that computes the
denominator and its band.  :func:`perturbed_inverse` and
:func:`solve_perturbed` call it with c = 1, and the Krein difference of
resolvents (``krein``) with A^-1 = R1 T1 and c = -z.  Each caller forms
<l|A^-1 only on the regular branch, so an update costs two actions of
A^-1 plus O(n): O(n) time and memory when A^-1 is an O(n) resolvent.
Dense matrices are formed only when ``materialize`` is called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from .core import DenseOperator, Functional, Operator, RankOneForm, Vector, _check_dims, norm2


class SingularPerturbationError(ArithmeticError):
    """The update denominator vanished; B is not invertible."""


@dataclass(frozen=True)
class RankOneTerm:
    """The rank-one operator SIGN |left><right| / denominator, kept as its factors.

    ``apply`` acts on a vector or on each column of a block.
    ``materialize`` forms the dense n x n matrix, for oracles and small
    sizes, and raises ValueError when the outer product of the two finite
    factors overflows.
    """

    left: Vector
    right: Functional
    denominator: float | complex
    SIGN: ClassVar[float] = 1.0

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.multiply.outer(self.left.entries, self.right.weights @ x) / (self.SIGN * self.denominator)

    def materialize(self) -> DenseOperator:
        with np.errstate(over="ignore", invalid="ignore"):  # DenseOperator rejects an overflow
            product = np.outer(self.left.entries, self.right.weights) * (self.SIGN / self.denominator)
        return DenseOperator(product)


@dataclass(frozen=True)
class RegularInverse(RankOneTerm):
    """Invertible branch, kept factored: B^-1 = A^-1 + |left><right| / denominator.

    left = A^-1 f, right = <l|A^-1 and denominator = 1 - <l|A^-1 f>.
    """

    correction = property(RankOneTerm.materialize, doc="The rank-one term B^-1 - A^-1 as a dense matrix.")

    def apply_to(self, a_inv: Operator) -> DenseOperator:
        """The dense B^-1 = A^-1 + correction."""
        return DenseOperator(a_inv.matrix + self.correction.matrix)


@dataclass(frozen=True)
class SingularInverse:
    """Non-invertible branch: B * null_vector = 0."""

    null_vector: Vector


PerturbedInverseResult = RegularInverse | SingularInverse

# Relative tolerance of null_space_certificate's pairing and collinearity tests.
CERTIFICATE_RTOL = 1e-9


def update_denominator(
    apply: Callable[[np.ndarray], np.ndarray], f: np.ndarray, l: np.ndarray, c: float | complex
) -> tuple[np.ndarray, float | complex, float]:
    """u = A^-1 f, den = 1 - c <l|u> and the singular band of B = A - c|f><l|.

    ``apply`` is the action of A^-1.  B counts as singular, and its update
    as undefined, when |den| <= band = 1e-10 (1 + |c| ||l|| ||u||): the band
    scales with the two terms den sums, so it is invariant under
    (A, c) -> (sA, sc) and under the gauge (f, l) -> (af, l/a).  Raises
    ValueError when c <l|u> is out of floating-point range: an infinite den
    would report a zero update and a NaN one either branch.  The check
    rejects both, so numpy's overflow warnings would only repeat that error.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        u = apply(f)
        c_l_u = c * np.dot(l, u).item()
        # 1e-10 goes first so that the band overflows only where it exceeds every finite den.
        band = 1e-10 + 1e-10 * abs(c) * norm2(l) * norm2(u)
    if not math.isfinite(math.hypot(c_l_u.real, c_l_u.imag)):
        raise ValueError(f"c <l|A^-1 f> = {c_l_u} is out of floating-point range")
    return u, 1.0 - c_l_u, band


def denominator(a_inv: Operator, p: RankOneForm) -> float | complex:
    """The update scalar 1 - <l|A^-1 f>, a float for real data; ValueError when <l|A^-1 f> overflows."""
    _check_dims(a_inv.dim, p.dim)
    return update_denominator(a_inv.apply, p.f.entries, p.l.weights, 1.0)[1]


def perturbed_inverse(a_inv: Operator, p: RankOneForm) -> PerturbedInverseResult:
    """Invert B = A - |f><l| given A^-1, or certify B singular.

    Returns :class:`RegularInverse` carrying the factors A^-1 f and
    <l|A^-1 and the denominator when |denominator| is outside the band of
    :func:`update_denominator`, else :class:`SingularInverse` carrying the
    null vector A^-1 f.  Two actions of A^-1 plus O(n); no n x n array is
    formed.  Raises ValueError when A^-1 f, <l|A^-1 f> or <l|A^-1 overflows.
    """
    _check_dims(a_inv.dim, p.dim)
    u, den, band = update_denominator(a_inv.apply, p.f.entries, p.l.weights, 1.0)
    if abs(den) <= band:
        # f = 0 forces denominator = 1, so this branch implies a nonzero null vector.
        assert np.any(u), "singular branch reached with f = 0"
        return SingularInverse(null_vector=Vector(u))
    with np.errstate(over="ignore", invalid="ignore"):  # Functional rejects an overflow
        right = a_inv.apply_left(p.l.weights)
    return RegularInverse(left=Vector(u), right=Functional(right), denominator=den)


def solve_perturbed(a_inv: Operator, p: RankOneForm, w: Vector) -> Vector:
    """Solve (A - |f><l|) v = w with two applications of A^-1.

    Computes c = <l|A^-1 w> / (1 - <l|A^-1 f>) and returns
    v = A^-1 (w + c f) without ever forming B^-1.  Raises
    :class:`SingularPerturbationError` when the denominator is inside the
    band of :func:`update_denominator`, and ValueError when <l|A^-1 f> or
    the solution overflows.
    """
    _check_dims(a_inv.dim, p.dim)
    _check_dims(a_inv.dim, w.dim)
    t_f, den, band = update_denominator(a_inv.apply, p.f.entries, p.l.weights, 1.0)
    if abs(den) <= band:
        raise SingularPerturbationError(
            f"perturbation denominator {den:.3e} within tolerance {band:.3e} of zero"
        )
    t_w = a_inv.apply(w.entries)
    c = np.dot(p.l.weights, t_w).item() / den
    return Vector(t_w + t_f * c)


def null_space_certificate(a_inv: Operator, p: RankOneForm, v0: Vector) -> bool:
    """Check that a nonzero v0 spans the kernel of B = A - |f><l|.

    True iff the denominator 1 - <l|A^-1 f> is inside the band of
    :func:`update_denominator`, |<l|v0>| > CERTIFICATE_RTOL ||l|| ||v0||,
    and v0 is collinear with A^-1 f up to CERTIFICATE_RTOL (sine of the
    angle).  Every test is relative, so it holds at every scale of v0 and
    under the gauge (f, l) -> (af, l/a).  Raises ValueError when
    <l|A^-1 f> overflows.
    """
    _check_dims(a_inv.dim, v0.dim)
    _check_dims(a_inv.dim, p.dim)
    nv = v0.norm()
    if nv == 0.0:
        raise ValueError("v0 must be nonzero")
    u, den, band = update_denominator(a_inv.apply, p.f.entries, p.l.weights, 1.0)
    if abs(den) > band:
        return False
    # Inside the band u != 0 (f = 0 forces den = 1), so both unit vectors exist.
    v, w = v0.entries / nv, u / norm2(u)
    pairing_ok = abs(np.dot(p.l.weights, v)) > CERTIFICATE_RTOL * p.l.norm()
    # Sine of the angle from the residual of projecting v on w:
    # sqrt(1 - cos^2) would have a rounding floor near 1.5e-8, above CERTIFICATE_RTOL.
    collinear_ok = norm2(v - w * np.vdot(w, v)) <= CERTIFICATE_RTOL
    return bool(pairing_ok and collinear_ok)
