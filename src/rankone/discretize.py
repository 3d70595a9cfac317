"""Finite-difference embodiment of the two boundary-value operators.

Standard 3-point stencil on n interior nodes of [0,1], h = 1/(n+1).
The Neumann end uses a mirror ghost node (last diagonal entry 1/h^2):
that keeps the matrix symmetric and makes the matrix difference
t_dd - t_dn exactly (1/h^2) e_n e_n^T, i.e. exactly rank-one, at the
price of O(h) boundary accuracy.  Matrix inverses approximate h times
the continuous kernels at node pairs: T^-1[i,j] ~= h * G(x_i, x_j).
Both matrices are tridiagonal and are kept as their three diagonals.
Every routine here acts in O(n) time and memory (O(n log n) for the
sine projection of the denominator, one complex FFT per factor):
resolvents are tridiagonal LU factorizations applied by solves, the
inverse difference R_dd(0) - R_dn(0) = R_dd(0)(t_dd - t_dn)R_dn(0) is
kept as two thin factors (one column and one row on the testbed, from two
solves), so each of its actions is two vector passes, and the
Dirichlet-Dirichlet eigenpairs and the Dirichlet-Neumann eigenvalues are
used in closed form.  Each operator's dense ``matrix`` is materialized
only when asked for: a resolvent's by solving against the identity, the
inverse difference's as the product of its factors.  A resolvent
refuses z on the spectrum.  For a Hermitian T, such as both testbed
operators, |Im z| or one Sturm count (LAPACK ``dstebz``, O(n)) decides
that; only a non-Hermitian T runs the condition estimate ``gtcon``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import FactoredInverse, Functional, LowRankProduct, Operator, RankOneForm, Vector, _frozen_array


# scipy's wrappers of the LAPACK tridiagonal routines reject fewer rows.
_LAPACK_MIN_DIM = 3
# z - T counts as singular (z hits the spectrum) when a Sturm count puts an
# eigenvalue of a Hermitian T within RCOND_TOL ||z - T||_1 of z, and for any
# other T when gtcon's reciprocal 1-norm condition estimate lies below
# RCOND_TOL (at most 4.5 eps at exact testbed eigenvalues, n = 3 to 1e5).
# The count is backward stable, so its window grows only with ||T||_1 = 4/h^2:
# at z = 0 it reaches pi^2/4, the lowest eigenvalue of t_dn, near n ~ 9e6.
RCOND_TOL = 32 * np.finfo(float).eps


class SpectrumHitError(ArithmeticError):
    """z coincides with an eigenvalue of the discretized operator."""


@dataclass(frozen=True)
class Grid:
    """n interior nodes x_i = i*h, i = 1..n, with h = 1/(n+1)."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least 2 interior nodes")

    @property
    def h(self) -> float:
        return 1.0 / (self.n + 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(1, self.n + 1) * self.h


@dataclass(frozen=True, eq=False)
class Tridiagonal(Operator):
    """Square tridiagonal operator stored as its three diagonals.

    ``lower`` and ``upper`` hold the n - 1 entries below and above the
    main diagonal ``diag``, all complex when any one is.  Both actions cost
    O(n) per vector, and each acts on every column of an n x k block.
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    # (d, e) when T is Hermitian, else None: the real symmetric tridiagonal
    # with diagonal d = Re diag and off-diagonal e = |upper| is unitarily
    # similar to T.
    _sturm: tuple | None = field(init=False, repr=False)

    def __post_init__(self):
        dtype = complex if any(map(np.iscomplexobj, (self.lower, self.diag, self.upper))) else None
        for name in ("lower", "diag", "upper"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), 1, allow_empty=True, dtype=dtype))
        n = self.diag.shape[0]
        if n == 0 or self.lower.shape[0] != n - 1 or self.upper.shape[0] != n - 1:
            raise ValueError(
                f"diagonals must have lengths n-1, n, n-1 with n >= 1, got "
                f"{self.lower.shape[0]}, {n}, {self.upper.shape[0]}"
            )
        sturm = None
        if not self.diag.imag.any() and np.array_equal(self.lower, self.upper.conj()):
            e = np.abs(self.upper) if n > 1 else np.zeros(1)  # dstebz's wrapper takes no empty e
            sturm = (np.ascontiguousarray(self.diag.real), e)
        object.__setattr__(self, "_sturm", sturm)

    @property
    def dim(self) -> int:
        return self.diag.shape[0]

    # Each action works on x.T, which puts the rows of a vector or of an
    # n x k block on the last axis, so the diagonals broadcast unreshaped.
    def apply(self, x: np.ndarray) -> np.ndarray:
        xt = x.T
        y = self.diag * xt
        y[..., :-1] += self.upper * xt[..., 1:]
        y[..., 1:] += self.lower * xt[..., :-1]
        return y.T

    def apply_left(self, w: np.ndarray) -> np.ndarray:
        wt = w.T
        y = self.diag * wt
        y[..., 1:] += self.upper * wt[..., :-1]
        y[..., :-1] += self.lower * wt[..., 1:]
        return y.T

    def norm_max(self) -> float:
        return float(max(np.max(np.abs(b), initial=0.0) for b in (self.lower, self.diag, self.upper)))

    @property
    def matrix(self) -> np.ndarray:
        i = np.arange(self.dim)
        m = np.zeros((self.dim, self.dim), dtype=self.diag.dtype)
        m[i, i] = self.diag
        m[i[:-1], i[1:]] = self.upper
        m[i[1:], i[:-1]] = self.lower
        return m


@dataclass(frozen=True, eq=False)
class TridiagonalResolvent(FactoredInverse):
    """(z - T)^-1 of a tridiagonal T, kept as T and the LU factors of z - T.

    ``factors`` is what LAPACK ``gttrf`` returns, (dl, d, du, du2, ipiv), for
    z - T padded to at least _LAPACK_MIN_DIM rows (see :func:`resolvent`).
    Each action is one O(n) ``gttrs`` solve in their dtype, the row action a
    transposed one; ``matrix`` solves against the identity, O(n^2).
    ``t`` serves the Krein update, which applies (z - T)^-1 T.
    """

    t: Tridiagonal
    factors: tuple
    dtype = property(lambda self: self.factors[1].dtype)

    @property
    def dim(self) -> int:
        return self.t.dim

    def _lapack_solve(self, b: np.ndarray, trans: str, overwrite: bool) -> np.ndarray:
        from . import _lapack

        pad = self.factors[1].shape[0] - self.dim
        if pad:
            b = np.concatenate((b, np.zeros((pad,) + b.shape[1:], dtype=b.dtype)))
        return _lapack.for_dtype("gttrs", self.dtype)(*self.factors, b, trans, overwrite)[0][: self.dim]


@dataclass(frozen=True)
class DiscretePair:
    """Discretized operator pair with the sampled rank-one factors.

    f_vec samples the ramp at the nodes; l_fun carries trapezoid
    weights h times the node coordinates, matching the ramp-moment
    functional.
    """

    grid: Grid
    t_dd: Tridiagonal
    t_dn: Tridiagonal
    f_vec: Vector
    l_fun: Functional


def build_pair(n: int) -> DiscretePair:
    """Assemble both operators, as three diagonals, and the sampled factors on n interior nodes."""
    grid = Grid(n)
    h = grid.h
    x = grid.nodes
    off = np.full(n - 1, -1.0 / h**2)
    diag = np.full(n, 2.0 / h**2)
    t_dd = Tridiagonal(off, diag, off)
    diag[-1] = 1.0 / h**2
    return DiscretePair(
        grid=grid,
        t_dd=t_dd,
        t_dn=Tridiagonal(off, diag, off),
        f_vec=Vector(x),
        l_fun=Functional(h * x),
    )


def inverse_difference(pair: DiscretePair) -> LowRankProduct:
    """D = t_dn^-1 - t_dd^-1 = R_dd(0) - R_dn(0), kept as two thin factors.

    The second resolvent identity gives D = R_dd(0) Delta R_dn(0) with
    Delta = t_dd - t_dn.  Delta vanishes outside the rows and columns S
    where a stored diagonal of t_dd differs from t_dn's, so with E_S the
    identity's columns at S,

        D = left @ right,   left = R_dd(0) Delta E_S (n x |S|),
                            right = E_S^T R_dn(0) (|S| x n).

    On :func:`build_pair`'s pair Delta = (1/h^2) e_n e_n^T, S = {n} and D
    has rank one exactly.  Both resolvents are factored at z = 0 as in
    :func:`resolvent`, so a spectrum hit raises :class:`SpectrumHitError`;
    forming the factors costs 2|S| O(n) solves, once.  Each action of D
    after that is two vector passes, no solve, and ``D.matrix`` is one
    n x n outer product.  The rank of D is that of Delta, read from the
    stored operators, so a Delta of rank two gives a D of rank two.
    """
    t_dd, t_dn = pair.t_dd, pair.t_dn
    r_dd, r_dn = resolvent(t_dd, 0.0), resolvent(t_dn, 0.0)
    differs = t_dd.diag != t_dn.diag
    off = (t_dd.lower != t_dn.lower) | (t_dd.upper != t_dn.upper)
    differs[:-1] |= off
    differs[1:] |= off
    support = np.flatnonzero(differs)
    e_s = np.zeros((t_dd.dim, support.size), dtype=t_dd.diag.dtype, order="F")
    e_s[support, np.arange(support.size)] = 1.0
    left = r_dd.apply(t_dd.apply(e_s) - t_dn.apply(e_s))
    return LowRankProduct(left, r_dn.apply_left(e_s).T)


def resolvent(t: Tridiagonal, z: complex) -> TridiagonalResolvent:
    """(z - T)^-1 of a :class:`Tridiagonal` T as one O(n) LU factorization of z - T.

    z must be finite (ValueError).  The result applies (z - T)^-1 to a
    vector by one O(n) solve, from the left by one transposed solve.  A real
    T at a real z (Im z = 0) factors with LAPACK's d routines, all else with z.
    Raises :class:`SpectrumHitError` when z - T is singular to working
    precision: a zero pivot; for a Hermitian T, |Im z| <= reach =
    RCOND_TOL ||z - T||_1 and one Sturm count (:func:`eigenvalue_count`)
    finding an eigenvalue in (Re z - reach, Re z + reach]; for any other T, a
    reciprocal condition estimate (LAPACK ``gtcon``, 1-norm, 7 to 16 solves)
    below RCOND_TOL.
    """
    from . import _lapack  # the LAPACK extension loads on first use, not on import

    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"z={z} is not finite")
    lower, diag, upper = -t.lower, (z.real if z.imag == 0 else z) - t.diag, -t.upper
    col_sums = np.abs(diag)
    col_sums[1:] += np.abs(upper)
    col_sums[:-1] += np.abs(lower)
    anorm = float(np.max(col_sums))
    if t.dim < _LAPACK_MIN_DIM:
        # diag(z - T, anorm I) factors as z - T on its leading block and has
        # the same 1-norm condition number.
        pad = np.zeros(_LAPACK_MIN_DIM - t.dim)
        lower, upper = np.concatenate((lower, pad)), np.concatenate((upper, pad))
        diag = np.concatenate((diag, pad + anorm))
    *factors, info = _lapack.for_dtype("gttrf", diag.dtype)(lower, diag, upper)
    if info > 0:
        raise SpectrumHitError(f"z={z} hits the discrete spectrum (zero pivot)")
    if t._sturm is None:
        rcond, _ = _lapack.for_dtype("gtcon", diag.dtype)(*factors, anorm)
        if rcond < RCOND_TOL:
            raise SpectrumHitError(f"z={z} hits the discrete spectrum (rcond {rcond:.3e})")
    else:
        reach = RCOND_TOL * anorm
        # One ulp lower keeps Re z inside (lo, hi] when reach is below its ulp.
        lo, hi = math.nextafter(z.real - reach, -math.inf), z.real + reach
        if abs(z.imag) <= reach and eigenvalue_count(t, lo, hi) > 0:
            raise SpectrumHitError(f"z={z} hits the discrete spectrum (an eigenvalue within {reach:.3e})")
    return TridiagonalResolvent(t, tuple(factors))


def eigenvalue_count(t: Tridiagonal, lo: float, hi: float) -> int:
    """Number of eigenvalues of a Hermitian tridiagonal ``t`` in (lo, hi], lo < hi.

    Two Sturm counts, O(n) each, by LAPACK ``dstebz`` on the real symmetric
    tridiagonal unitarily similar to ``t``; no eigenvalue is computed.  Each
    count is exact for a matrix within a few eps ||T|| of ``t``, so an
    eigenvalue that close to lo or hi may fall on either side; that backward
    stability lets one count decide a Hermitian spectrum hit in
    :func:`resolvent`.  ValueError for a non-Hermitian ``t`` or unless lo < hi.
    """
    from . import _lapack

    if t._sturm is None:
        raise ValueError("eigenvalue_count needs a Hermitian tridiagonal")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got ({lo}, {hi}]")
    d, e = t._sturm
    # RANGE='V' (1) counts eigenvalues in (lo, hi]; an infinite ABSTOL takes
    # every bisection interval as converged, so only the two counts run.
    return int(_lapack.dstebz(d, e, 1, float(lo), float(hi), 0, 0, math.inf, "E")[0])


def discrete_new_eigenvalues(pair: DiscretePair, count: int) -> list[float]:
    """Smallest ``count`` eigenvalues of t_dn, ascending.

    Closed form mu_j = (4/h^2) sin^2((2j - 1) pi / (2(2n + 1))), j = 1..count,
    of the stencil that :func:`build_pair` assembles on ``pair.grid``; the
    eigenvectors are sin((2j - 1) pi i / (2n + 1)), i = 1..n.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    n = pair.grid.n
    if count > n:
        raise ValueError("count exceeds the matrix dimension")
    j = np.arange(1, count + 1)
    mu = 4.0 / pair.grid.h**2 * np.sin((2 * j - 1) * np.pi / (2 * (2 * n + 1))) ** 2
    return [float(v) for v in mu]


def krein_denominator_function(
    pair: DiscretePair, form: "RankOneForm | None" = None
) -> Callable[[complex], complex]:
    """Fast discrete denominator D(z) = 1 + z <l|R_dd(z) t_dd f>.

    Uses the pair's sampled factors unless an explicit rank-one form is
    given (e.g. factors recovered from the inverse difference).  The
    eigenpairs of t_dd are known in closed form: lambda_j from
    :func:`dd_eigenvalues` and the real orthonormal sine vectors
    v_j = sqrt(2h) sin(j pi x_i).  Projecting f and l on them is one
    complex discrete sine transform each, O(n log n), and turns every
    evaluation into an O(n) sum, which keeps root bracketing cheap:

        D(z) = 1 + z sum_j c_j lambda_j / (z - lambda_j),
        c_j = <l|v_j><v_j|f>.

    That is the spectral form of R_dd t_dd = -I + z R_dd, which the Krein
    update applies (``krein``), with lambda_j in closed form: no term
    cancels, and D escapes most of the rounding of t_dd f that ``krein``
    carries (2e-11 against 1e-6 relative at n = 10^6, z = 30).  The real
    and imaginary parts of the weights c_j lambda_j are kept as the rows of
    one real 2 x n array, so a real z is summed in real arithmetic and a
    complex z in complex arithmetic by the same expression.
    """
    f = form.f if form is not None else pair.f_vec
    l = form.l if form is not None else pair.l_fun
    lam = dd_eigenvalues(pair)
    s_l, s_f = _sine_transform(np.stack((l.weights, f.entries)))
    weights = 2.0 * pair.grid.h * s_l * s_f * lam
    parts = np.stack((weights.real, weights.imag))

    def d_fn(z: complex) -> complex:
        # tolist() hands back Python scalars, whose arithmetic is cheaper than numpy's.
        re, im = (parts @ (1.0 / (z - lam))).tolist()
        return complex(1.0 + z * (re + 1j * im))

    return d_fn


def _sine_transform(w: np.ndarray) -> np.ndarray:
    """sum_i sin(pi i j / (n+1)) w_i, j = 1..n, along the last axis of a complex w: a DST-I.

    The odd extension (0, w, 0, -reversed w) of length 2(n+1) has the
    discrete Fourier transform -2i times this sum at j = 1..n.  Both maps
    are linear over the complex numbers, so one complex FFT serves the
    real and the imaginary part of w together, and one call transforms
    every row of w.
    """
    n = w.shape[-1]
    odd = np.zeros(w.shape[:-1] + (2 * (n + 1),), dtype=complex)
    odd[..., 1 : n + 1] = w
    odd[..., n + 2 :] = -w[..., ::-1]
    return 0.5j * np.fft.fft(odd)[..., 1 : n + 1]


def dd_eigenvalues(pair: DiscretePair) -> np.ndarray:
    """Spectrum of t_dd, ascending; the poles of the discrete resolvent.

    Closed form lambda_j = (4/h^2) sin^2(j pi h / 2), j = 1..n, of the
    stencil that :func:`build_pair` assembles on ``pair.grid``.
    """
    h = pair.grid.h
    j = np.arange(1, pair.grid.n + 1)
    return 4.0 / h**2 * np.sin(j * np.pi * h / 2.0) ** 2
