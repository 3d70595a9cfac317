"""Recover rank-one factors from the action of the difference operator.

When D = T2^-1 - T1^-1 = |f><l| is only available as an operator, a
probe pair (f0, l0) with <l0|D f0> != 0 reconstructs a factorization

    f1 = D f0 / <l0|D f0>,      l1 = l0 D,

and bilinear values <l|S f> follow from the quotient
<l0|D S D f0> / <l0|D f0> without ever knowing f or l separately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    DenseOperator,
    Functional,
    RankOneForm,
    Vector,
    _check_dims,
    pair,
)
from .krein import EigenvalueHitError, ResolventDifference, default_tol

ADMISSIBILITY_RTOL = 1e-12
RANK_TOL = 1e-10


class ZeroDifferenceError(ValueError):
    """The difference operator is numerically zero; nothing to factor."""


class InadmissibleProbeError(ValueError):
    """|<l0|D f0>| too small relative to ||D||_max for stable quotients."""


class NotRankOneError(ValueError):
    """The difference operator is not rank-one; the quotient identities fail."""


@dataclass(frozen=True)
class Probe:
    """Probe pair (f0, l0) with its pairing <l0|D f0>."""

    f0: Vector
    l0: Functional
    pairing: complex


def choose_probe(d: DenseOperator, tol: float = ADMISSIBILITY_RTOL) -> Probe:
    """Best coordinate probe: the basis pair (e_i, e_j) maximizing |D_ji|.

    Ties break toward the smallest (j, i) in lexicographic order.  The
    maximal entry optimizes the conditioning of the recovery quotients.
    """
    abs_d = np.abs(d.matrix)
    max_abs = float(abs_d.max())
    if max_abs <= tol * max_abs:
        raise ZeroDifferenceError("difference operator is numerically zero")
    j, i = np.unravel_index(int(np.argmax(abs_d)), abs_d.shape)
    return coordinate_probe(d, int(i), int(j))


def coordinate_probe(d: DenseOperator, i: int, j: int) -> Probe:
    """Probe with f0 = e_i, l0 = e_j, pairing D_ji."""
    return Probe(
        f0=Vector.basis(i, d.dim),
        l0=Functional.basis(j, d.dim),
        pairing=complex(d.matrix[j, i]),
    )


def _require_admissible(d: DenseOperator, probe: Probe) -> float:
    """Check the probe pairing against ||D||_max and return that norm."""
    d_max = d.norm_max()
    if abs(probe.pairing) <= ADMISSIBILITY_RTOL * d_max:
        raise InadmissibleProbeError(
            f"probe pairing {probe.pairing:.3e} below admissibility threshold"
        )
    return d_max


def recover_factors(d: DenseOperator, probe: Probe, check_rank: bool = True) -> RankOneForm:
    """Factor D = |f1><l1| from its action on the probe pair.

    Refuses when the reconstruction residual ||D - |f1><l1|||_max
    exceeds RANK_TOL * ||D||_max: the identities require exact rank one
    and a best rank-one fit would be silently wrong.  The residual is
    zero exactly when D has rank one, and costs O(n^2).
    """
    _check_dims(d.dim, probe.f0.dim)
    d_max = _require_admissible(d, probe)
    f1 = (d @ probe.f0) * (1.0 / probe.pairing)
    l1 = probe.l0 @ d
    if check_rank:
        residual = np.outer(f1.entries, l1.weights)
        residual -= d.matrix
        if np.max(np.abs(residual)) > RANK_TOL * d_max:
            raise NotRankOneError("difference operator has rank > 1")
    return RankOneForm(f=f1, l=l1)


def bilinear_value(d: DenseOperator, s: DenseOperator, probe: Probe) -> complex:
    """<l|S f> for any factorization D = |f><l|, via <l0|D S D f0>/<l0|D f0>."""
    _check_dims(d.dim, s.dim)
    _check_dims(d.dim, probe.f0.dim)
    _require_admissible(d, probe)
    return pair(probe.l0, d @ (s @ (d @ probe.f0))) / probe.pairing


def resolvent_difference_factor_free(
    r1: DenseOperator,
    z: complex,
    d: DenseOperator,
    probe: Probe,
    tol: float | None = None,
) -> ResolventDifference:
    """Krein difference using D directly in place of its factors.

    The denominator 1 + z <l|(-I + z R1) f> is evaluated through the
    probe quotient with S = -I + z R1; the returned factors span the
    same rank-one operator as the factor-based path.  S is only ever
    applied to D f0 and l0 D, so the cost is a handful of matvecs.
    """
    z = complex(z)
    _require_admissible(d, probe)
    d_f0 = d @ probe.f0
    l0_d = probe.l0 @ d
    s_d_f0 = z * (r1 @ d_f0) - d_f0
    den = 1.0 + z * pair(l0_d, s_d_f0) / probe.pairing
    if tol is None:
        tol = default_tol(z, d_f0.norm() / abs(probe.pairing), l0_d.norm())
    if abs(den) <= tol:
        raise EigenvalueHitError(
            f"denominator {den:.3e} vanishes at z={z}: z is a new eigenvalue"
        )
    left = s_d_f0 * (1.0 / probe.pairing)
    right = z * (l0_d @ r1) - l0_d
    return ResolventDifference(left=left, right=right, denominator=den)
