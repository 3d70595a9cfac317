"""Recover rank-one factors from the action of the difference operator.

When D = T2^-1 - T1^-1 = |f><l| is only available as an operator, a
probe pair (f0, l0) with <l0|D f0> != 0 reconstructs a factorization

    f1 = D f0 / <l0|D f0>,      l1 = l0 D,

and bilinear values <l|S f> follow from the quotient
<l0|D S D f0> / <l0|D f0> without ever knowing f or l separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DenseOperator,
    Functional,
    Operator,
    RankOneForm,
    Vector,
    _check_dims,
)
from .discretize import TridiagonalResolvent
from .krein import ResolventDifference, resolvent_difference

ADMISSIBILITY_RTOL = 1e-12
RANK_TOL = 1e-10


class ZeroDifferenceError(ValueError):
    """The difference operator is zero; nothing to factor."""


class InadmissibleProbeError(ValueError):
    """|<l0|D f0>| too small relative to ||D||_max for stable quotients."""


class NotRankOneError(ValueError):
    """The difference operator is not rank-one; the quotient identities fail."""


@dataclass(frozen=True)
class Probe:
    """Probe pair (f0, l0) with its pairing <l0|D f0>, a float for a real D."""

    f0: Vector
    l0: Functional
    pairing: float | complex


def _test_vector(dim: int) -> np.ndarray:
    """Fixed positive vector g_k = sqrt(k + 1), k = 1..dim.

    <l|g> != 0 for every nonzero nonnegative l, such as the testbed's
    l = h x, and for every other l off one hyperplane.  A closed form:
    seeding a random generator on each call would cost more than probing
    a small dense D.
    """
    return np.sqrt(np.arange(2.0, dim + 2.0))


def choose_probe(d: Operator) -> Probe:
    """Coordinate probe (e_i, e_j) at the largest entry |D_ji|, from two actions of D.

    j is the largest entry of |D g| for the fixed :func:`_test_vector` g,
    then i the largest entry of the row e_j^T D.  For D = |f><l| these are
    the largest |f_j| and |l_i| (provided <l|g> != 0), so the pair is the
    largest entry of D, with ties broken toward the smallest (j, i) in
    lexicographic order.  The maximal entry optimizes the conditioning of
    the recovery quotients.  Raises :class:`ZeroDifferenceError` when D g
    is exactly zero, and ValueError when it overflowed.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite D g is refused below
        d_g = d.apply(_test_vector(d.dim))
        j = int(np.abs(d_g).argmax())  # the first NaN, if any
        max_abs = float(abs(d_g[j]))
    if not math.isfinite(max_abs):
        raise ValueError(f"|D g| = {max_abs} is out of floating-point range")
    if max_abs == 0.0:
        raise ZeroDifferenceError("difference operator is zero")
    l0 = Functional.basis(j, d.dim, d_g.dtype)  # in D's dtype, so each action of D stays in it
    row = d.apply_left(l0.weights)
    i = int(np.abs(row).argmax())
    return Probe(f0=Vector.basis(i, d.dim, d_g.dtype), l0=l0, pairing=row[i].item())


def coordinate_probe(d: Operator, i: int, j: int) -> Probe:
    """Probe with f0 = e_i, l0 = e_j, real, and pairing D_ji in D's dtype (read from the row e_j^T D)."""
    l0 = Functional.basis(j, d.dim, float)
    return Probe(f0=Vector.basis(i, d.dim, float), l0=l0, pairing=d.apply_left(l0.weights)[i].item())


def _require_admissible(
    d: Operator, probe: Probe, d_f0: np.ndarray, l0_d: np.ndarray | None = None
) -> float:
    """Check the probe pairing against ||D||_max and return that norm.

    A dense D reads ||D||_max off its entries.  For any other D it is
    max|D f0| max|l0 D| / |<l0|D f0>| (``l0_d`` = l0 D, applied here when
    not given), which equals ||D||_max when D has rank one.
    """
    if isinstance(d, DenseOperator):
        d_max = d.norm_max()
    else:
        l0_d = d.apply_left(probe.l0.weights) if l0_d is None else l0_d
        span = float(np.abs(d_f0).max() * np.abs(l0_d).max())
        d_max = span / abs(probe.pairing) if probe.pairing else np.inf
    if abs(probe.pairing) <= ADMISSIBILITY_RTOL * d_max:
        raise InadmissibleProbeError(
            f"probe pairing {probe.pairing:.3e} below admissibility threshold"
        )
    return d_max


def _divide(x: np.ndarray, pairing: float | complex) -> np.ndarray:
    if abs(pairing) < 2.0**-1000:  # 1 / pairing may overflow: scale it and x by 2^1000 first, which is exact
        x, pairing = x * 2.0**1000, pairing * 2.0**1000
    return x * (1.0 / pairing)


def recover_factors(d: Operator, probe: Probe) -> RankOneForm:
    """Factor D = |f1><l1| from its action on the probe pair.

    Refuses when D is not rank one: the identities require exact rank one
    and a best rank-one fit would be silently wrong.  On a dense D the
    gate is the reconstruction residual, ||D - |f1><l1|||_max <=
    RANK_TOL * ||D||_max, which is zero exactly when D has rank one and
    costs O(n^2).  An action-only D is gated on the sketch
    ||(D - |f1><l1|) g||_max <= RANK_TOL * ||D||_max * ||g||_1 with the
    fixed :func:`_test_vector` g: one more action.  It accepts every D the
    dense gate accepts; a second rank component that oscillates against g
    must be up to ~sqrt(n) times larger than under the dense gate to be
    refused.
    """
    _check_dims(d.dim, probe.f0.dim)
    d_f0 = d.apply(probe.f0.entries)
    l1 = d.apply_left(probe.l0.weights)
    d_max = _require_admissible(d, probe, d_f0, l1)
    f1 = _divide(d_f0, probe.pairing)
    if isinstance(d, DenseOperator):
        residual = np.multiply.outer(f1, l1)
        residual -= d.matrix
        bound = RANK_TOL * d_max
    else:
        g = _test_vector(d.dim)
        residual = d.apply(g) - f1 * (l1 @ g)
        bound = RANK_TOL * d_max * float(np.sum(np.abs(g)))
    if np.max(np.abs(residual)) > bound:
        raise NotRankOneError("difference operator has rank > 1")
    return RankOneForm(f=Vector(f1), l=Functional(l1))


def bilinear_value(d: Operator, s: Operator, probe: Probe) -> complex:
    """<l|S f> for any factorization D = |f><l|, via <l0|D S D f0>/<l0|D f0>."""
    _check_dims(d.dim, s.dim)
    _check_dims(d.dim, probe.f0.dim)
    d_f0 = d.apply(probe.f0.entries)
    _require_admissible(d, probe, d_f0)
    return complex(np.dot(probe.l0.weights, d.apply(s.apply(d_f0)))) / probe.pairing


def resolvent_difference_factor_free(
    r1: TridiagonalResolvent, z: complex, d: Operator, probe: Probe
) -> ResolventDifference:
    """Krein difference using D directly in place of its factors.

    Runs :func:`krein.resolvent_difference` on the factorization
    f1 = D f0 / <l0|D f0>, l1 = l0 D, which spans the same rank-one
    operator as the factor-based path.  Dividing f rather than the update
    coefficient c = -z keeps c finite at every finite z.  R1 is only ever
    applied to D f0 and l0 D, so the cost is a handful of actions: O(n) on
    the tridiagonal testbed.
    """
    d_f0 = d.apply(probe.f0.entries)
    l0_d = d.apply_left(probe.l0.weights)
    _require_admissible(d, probe, d_f0, l0_d)
    form = RankOneForm(Vector(_divide(d_f0, probe.pairing)), Functional(l0_d))
    return resolvent_difference(r1, z, form)
