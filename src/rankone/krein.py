"""Resolvent difference of two operators whose inverse difference is rank-one.

With T2^-1 - T1^-1 = |f><l| and R1(z) = (z - T1)^-1, the difference of
resolvents is again rank-one:

    (z - T2)^-1 - (z - T1)^-1
        = - (-I + z R1)|f><l|(-I + z R1) / (1 + z <l|(-I + z R1) f>).

Zeros of the scalar denominator are the eigenvalues introduced by the
perturbation.  They are located on the real axis with one bracket per
interval between consecutive poles of R1, narrowed by Chandrupatla's
hybrid of inverse quadratic interpolation and bisection (T. R.
Chandrupatla, Adv. Eng. Software 28(3), 1997, 145-149).  That finds every
root not within NUDGE_RTOL * |z| of a pole when each such interval holds
at most one, which the interlacing theorem for rank-one modifications
guarantees when the denominator is c + sum_j w_j / (z - lambda_j) with
every w_j >= 0 (self-adjoint T1, l proportional to the conjugate of f).
"""

from __future__ import annotations

import cmath
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import DenseOperator, Functional, Operator, RankOneForm, Vector
# Unused here; kept importable from this module because bench/workloads.py imports it so.
from .laplace import SpectralPoint

# Each pole interval (a, b) is read at its ends moved inward by
# NUDGE_RTOL * max(|a|, |b|); a root closer to a pole is not seen.  Relative
# to |z|, not to b - a: the closed form k cot k refuses z within 2e-12 |z| of
# its poles (laplace.POLE_RTOL), and below its j-th pole b - a is ~2|z|/j.
NUDGE_RTOL = 1e-11
BISECTION_RTOL = 1e-12
_EPS = float(np.finfo(float).eps)


class EigenvalueHitError(ArithmeticError):
    """z is an eigenvalue of the perturbed operator; the difference is undefined."""


@dataclass(frozen=True)
class ResolventDifference:
    """Factored form of (z - T2)^-1 - (z - T1)^-1.

    Materializes to -|left><right| / denominator.
    """

    left: Vector
    right: Functional
    denominator: complex

    def apply(self, x: np.ndarray) -> np.ndarray:
        """-left <right|x> / denominator from the factors, for a vector x or each column of a block x."""
        return np.multiply.outer(self.left.entries, self.right.weights @ x) / -self.denominator

    def materialize(self) -> DenseOperator:
        scale = complex(-1.0 / self.denominator)
        return DenseOperator(np.outer(self.left.entries, self.right.weights) * scale)


@dataclass(frozen=True)
class EigenPair:
    """A located eigenvalue z with k, the principal root of k^2 = z."""

    z: complex
    k: complex


def deflect(r1: Operator, z: complex, f: Vector) -> Vector:
    """Apply (-I + z R1) to f."""
    return Vector(-f.entries + r1.apply(f.entries) * complex(z))


def default_tol(z: complex, f_norm: float, l_norm: float, deflected_norm: float) -> float:
    """Eigenvalue-hit band of the denominator 1 + z <l|(-I + z R1) f>.

    1e-10 (1 + |z| ||l|| ||(-I + z R1) f||) scales with the two terms the
    denominator sums, and stays bounded as |z| grows, where (-I + z R1) f
    shrinks like T f / z.  Forming (-I + z R1) f cancels terms of size
    ||f||, so the rounding bound 16 eps |z| ||l|| ||f|| is added: a
    denominator that is zero to working precision, as at |z| >~ 1e17 on
    the testbed, is refused as well.
    """
    z_abs = abs(z)
    return 1e-10 * (1.0 + z_abs * l_norm * deflected_norm) + 16.0 * _EPS * z_abs * l_norm * f_norm


def resolvent_difference(r1: Operator, z: complex, p: RankOneForm) -> ResolventDifference:
    """Rank-one factorization of (z - T2)^-1 - (z - T1)^-1.

    ``r1`` must be (z - T1)^-1 at this z.  Raises
    :class:`EigenvalueHitError` when the scalar denominator is inside
    the :func:`default_tol` band around zero.
    """
    return _difference(r1, complex(z), p.f.entries, p.l.weights, 1.0)


def _difference(
    r1: Operator, z: complex, f: np.ndarray, l: np.ndarray, pairing: complex
) -> ResolventDifference:
    """The Krein difference for the rank-one form |f><l| / ``pairing``.

    The one body of :func:`resolvent_difference` (pairing 1) and of the
    probing path's factor-free difference (f = D f0, l = l0 D and pairing
    <l0|D f0>).  The denominator 1 + z <l|(-I + z R1) f> / pairing is
    refused inside the :func:`default_tol` band, taken on the factors of
    the scaled form.
    """
    left = r1.apply(f) * z - f
    den = 1.0 + z * complex(np.dot(l, left)) / pairing
    scale = abs(pairing)
    tol = default_tol(
        z, float(np.linalg.norm(f)) / scale, float(np.linalg.norm(l)), float(np.linalg.norm(left)) / scale
    )
    if abs(den) <= tol:
        raise EigenvalueHitError(
            f"denominator {den:.3e} vanishes at z={z}: z is a new eigenvalue"
        )
    right = r1.apply_left(l) * z - l
    return ResolventDifference(
        left=Vector(left * complex(1.0 / pairing)), right=Functional(right), denominator=den
    )


def find_new_eigenvalues(
    denominator_fn: Callable[[complex], complex],
    interval: tuple[float, float],
    max_count: int,
    exclusions: Sequence[float],
) -> list[EigenPair]:
    """Real roots of the scalar denominator on a finite interval.

    ``exclusions`` are the poles of R1 (eigenvalues of T1) inside the
    interval.  The search assumes that the real part of the denominator
    has at most one root between consecutive cuts (``lo``, the
    exclusions, ``hi``).  That is guaranteed when it is
    c + sum_j w_j / (z - lambda_j) with every w_j >= 0, which decreases
    strictly between poles; both testbeds are of this form.  A second
    root in one interval, or a root within NUDGE_RTOL * |z| of a cut, is
    not seen.  Each interval (a, b) is read through
    h(x) = Re D(x) (x - a)(b - x), which has the signs and roots of Re D
    but not its poles at a and b, at both ends moved inward by the nudge.
    Equal signs there mean no root; opposite signs bracket the one root,
    which Chandrupatla's method narrows to a width of
    BISECTION_RTOL * max(1, |midpoint|): each step takes inverse quadratic
    interpolation through the last three points when they fit it and
    bisects otherwise.  The root returned is the end of that last bracket
    where |h| is smaller.  Emits a RuntimeWarning and truncates when more
    than ``max_count`` roots are found.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise ValueError(f"interval must be finite with lo < hi, got {interval}")
    if max_count < 1:
        raise ValueError("max_count must be >= 1")

    cuts = [lo] + sorted(x for x in exclusions if lo < x < hi) + [hi]
    roots: list[float] = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        root = _interval_root(denominator_fn, a, b)
        if root is None:
            continue
        if len(roots) == max_count:
            warnings.warn(
                f"more than max_count={max_count} denominator roots on {interval}; result truncated",
                RuntimeWarning,
            )
            break
        roots.append(root)

    return [EigenPair(z=complex(z_n), k=cmath.sqrt(complex(z_n))) for z_n in roots]


def _interval_root(denominator_fn: Callable[[complex], complex], a: float, b: float) -> float | None:
    """The root of Re D between the cuts a < b, or None when h has one sign at the nudged ends."""

    def h(x: float) -> float:
        return complex(denominator_fn(x)).real * (x - a) * (b - x)

    nudge = NUDGE_RTOL * max(abs(a), abs(b))
    x0, x1 = a + nudge, b - nudge
    if not x0 < x1:
        return None
    h0, h1 = h(x0), h(x1)
    if not (h0 < 0.0 < h1 or h1 < 0.0 < h0):
        return None
    # Chandrupatla (1997): x0 is the newest point and x1 the end of opposite
    # sign; x2 is the point dropped last.  Each step goes to the fraction t
    # of the way from x0 to x1: inverse quadratic interpolation through the
    # three points when they fit it, the midpoint otherwise, and never closer
    # than half the stop width to x0, so the last steps straddle the root.
    x2, h2, t = x1, h1, 0.5
    while True:
        width = abs(x1 - x0)
        tol = BISECTION_RTOL * max(1.0, abs(x0 + x1) / 2.0)
        if width <= tol:
            return x0 if abs(h0) < abs(h1) else x1
        t_min = 0.5 * tol / width
        x = x0 + min(1.0 - t_min, max(t_min, t)) * (x1 - x0)
        hx = h(x)
        if hx == 0.0:
            return x
        if (hx > 0.0) == (h0 > 0.0):
            x2, h2 = x0, h0
        else:
            x2, h2, x1, h1 = x1, h1, x0, h0
        x0, h0 = x, hx
        xi = (x0 - x1) / (x2 - x1)
        phi = (h0 - h1) / (h2 - h1)
        if phi * phi < xi and (1.0 - phi) ** 2 < 1.0 - xi:
            t = h0 / (h1 - h0) * h2 / (h1 - h2) + (x2 - x0) / (x1 - x0) * h0 / (h2 - h0) * h1 / (h2 - h1)
        else:
            t = 0.5
