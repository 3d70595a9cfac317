"""Resolvent difference of two operators whose inverse difference is rank-one.

With T2^-1 - T1^-1 = |f><l| and R1(z) = (z - T1)^-1,

    z T2^-1 - I = (z T1^-1 - I) + z |f><l|,   (z T1^-1 - I)^-1 = R1 T1,

so (z - T2)^-1 - (z - T1)^-1 is the Sherman-Morrison update of
A^-1 = R1 T1 with c = -z, divided by z (``perturbed_inverse``):

    (z - T2)^-1 - (z - T1)^-1
        = - R1 T1 |f><l| R1 T1 / (1 + z <l|R1 T1 f>).

R1 T1 = -I + z R1, applied as R1 (T1 x): no term of size ||x|| cancels,
so the denominator keeps its digits as |z| grows, where -x + z R1 x loses
them like |z| eps.  It carries instead the rounding of T1 x, about
eps ||T1|| ||x||, into the denominator and both factors R1 T1 f and
<l|R1 T1: on the testbed, where ||T1|| ~ 4 n^2, the denominator is 1e-6
relative off at n = 10^6 and z = 30.

Zeros of the scalar denominator are the eigenvalues
introduced by the perturbation.  They are located on the real axis with
one bracket per interval between consecutive poles of R1, narrowed by
Chandrupatla's hybrid of inverse quadratic interpolation and bisection
(T. R. Chandrupatla, Adv. Eng. Software 28(3), 1997, 145-149).  That finds
every root not within NUDGE_RTOL * |z| of a pole when each such interval
holds at most one, which the interlacing theorem for rank-one
modifications guarantees when the denominator is c + sum_j w_j / (z - lambda_j)
with every w_j >= 0 (self-adjoint T1, l proportional to the conjugate of f).
"""

from __future__ import annotations

import cmath
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import Functional, RankOneForm, Vector
from .discretize import TridiagonalResolvent
# Unused here; kept importable from this module because bench/workloads.py imports it so.
from .laplace import SpectralPoint
from .perturbed_inverse import RankOneTerm, update_denominator

# Each pole interval (a, b) is read at its ends moved inward by
# NUDGE_RTOL * max(|a|, |b|); a root closer to a pole is not seen.  Relative
# to |z|, not to b - a: the closed form k cot k refuses z within 2e-12 |z| of
# its poles (laplace.POLE_RTOL), and below its j-th pole b - a is ~2|z|/j.
NUDGE_RTOL = 1e-11
BISECTION_RTOL = 1e-12


class EigenvalueHitError(ArithmeticError):
    """z is an eigenvalue of the perturbed operator; the difference is undefined."""


@dataclass(frozen=True)
class ResolventDifference(RankOneTerm):
    """Factored form of (z - T2)^-1 - (z - T1)^-1: -|left><right| / denominator.

    left = R1 T1 f, right = <l|R1 T1 and denominator = 1 + z <l|R1 T1 f>.
    """

    SIGN = -1.0


@dataclass(frozen=True)
class EigenPair:
    """A located eigenvalue z with k, the principal root of k^2 = z."""

    z: complex
    k: complex


def _r1t1(r1: TridiagonalResolvent, x: np.ndarray) -> np.ndarray:
    """A^-1 x = R1 (T1 x), the update's one column action."""
    return r1.apply(r1.t.apply(x))


def _r1t1_left(r1: TridiagonalResolvent, w: np.ndarray) -> np.ndarray:
    """w A^-1 = (w R1) T1, the update's one row action."""
    return r1.t.apply_left(r1.apply_left(w))


def deflect(r1: TridiagonalResolvent, f: Vector) -> Vector:
    """(-I + z R1) f = R1 (T1 f), for r1 = (z - T1)^-1 from ``discretize.resolvent``."""
    return Vector(_r1t1(r1, f.entries))


def resolvent_difference(r1: TridiagonalResolvent, z: complex, p: RankOneForm) -> ResolventDifference:
    """Rank-one factorization of (z - T2)^-1 - (z - T1)^-1.

    ``r1`` must be ``discretize.resolvent(t1, z)`` at this z: the update
    applies A^-1 = R1 T1 through its ``t``.  Raises
    :class:`EigenvalueHitError` when the denominator is inside the band of
    ``perturbed_inverse.update_denominator``.
    """
    z = complex(z)
    c = -(z.real if z.imag == 0 else z)  # a real z with real factors keeps the update float64
    u, den, band = update_denominator(lambda x: _r1t1(r1, x), p.f.entries, p.l.weights, c)
    if abs(den) <= band:
        raise EigenvalueHitError(f"denominator {den:.3e} vanishes at z={z}: z is a new eigenvalue")
    right = _r1t1_left(r1, p.l.weights)
    return ResolventDifference(left=Vector(u), right=Functional(right), denominator=den)


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
