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
inverse difference is the difference of two of them, and the
Dirichlet-Dirichlet eigenpairs and the Dirichlet-Neumann eigenvalues are
used in closed form.  Each operator's dense ``matrix`` is materialized
only when asked for, by solving against the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Functional, Operator, RankOneForm, Vector, _frozen_array


# scipy's wrappers of the LAPACK tridiagonal routines reject fewer rows.
_LAPACK_MIN_DIM = 3
# Reciprocal 1-norm condition of z - T below which z counts as a spectrum
# hit.  At exact eigenvalues of the testbed pair zgtcon gave at most 4.5 eps
# (n = 3 to 1e5), independent of n; at z = 0 it gives ~0.5/n^2, which stays
# above this up to n ~ 8e6.  A bound growing with n, such as n * eps, misses
# hits at n = 3 and refuses z = 0 for t_dn from n ~ 2e5.
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
    main diagonal ``diag``.  Both actions cost O(n).
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        for name in ("lower", "diag", "upper"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), 1, allow_empty=True))
        n = self.diag.shape[0]
        if n == 0 or self.lower.shape[0] != n - 1 or self.upper.shape[0] != n - 1:
            raise ValueError(
                f"diagonals must have lengths n-1, n, n-1 with n >= 1, got "
                f"{self.lower.shape[0]}, {n}, {self.upper.shape[0]}"
            )

    @classmethod
    def from_dense(cls, t: Operator) -> "Tridiagonal":
        """The three diagonals of ``t.matrix``; ValueError if it has other entries."""
        m = t.matrix
        diagonals = (np.diagonal(m, -1), np.diagonal(m), np.diagonal(m, 1))
        outside = np.count_nonzero(m) - sum(np.count_nonzero(b) for b in diagonals)
        if outside:
            raise ValueError(f"operator is not tridiagonal: {outside} entries off the three diagonals")
        return cls(*diagonals)

    @property
    def dim(self) -> int:
        return self.diag.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        y = self.diag * x
        y[:-1] += self.upper * x[1:]
        y[1:] += self.lower * x[:-1]
        return y

    def apply_left(self, w: np.ndarray) -> np.ndarray:
        y = self.diag * w
        y[1:] += self.upper * w[:-1]
        y[:-1] += self.lower * w[1:]
        return y

    def norm_max(self) -> float:
        return float(max(np.max(np.abs(b), initial=0.0) for b in (self.lower, self.diag, self.upper)))

    @property
    def matrix(self) -> np.ndarray:
        i = np.arange(self.dim)
        m = np.zeros((self.dim, self.dim), dtype=complex)
        m[i, i] = self.diag
        m[i[:-1], i[1:]] = self.upper
        m[i[1:], i[:-1]] = self.lower
        return m


@dataclass(frozen=True, eq=False)
class TridiagonalResolvent(Operator):
    """(z - T)^-1 of a tridiagonal T, kept as the LU factors of z - T.

    ``factors`` is what LAPACK ``zgttrf`` returns, (dl, d, du, du2, ipiv),
    for z - T padded to at least _LAPACK_MIN_DIM rows (see
    :func:`resolvent`).  Each action is one O(n) ``zgttrs`` solve, the row
    action a transposed one; ``matrix`` solves against the identity, O(n^2).
    """

    dim: int
    factors: tuple

    def _solve(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        from scipy.linalg import lapack

        pad = self.factors[1].shape[0] - self.dim
        if pad:
            b = np.concatenate((b, np.zeros((pad,) + b.shape[1:], dtype=complex)))
        return lapack.zgttrs(*self.factors, b, trans=trans)[0][: self.dim]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self._solve(x)

    def apply_left(self, w: np.ndarray) -> np.ndarray:
        return self._solve(w, trans="T")

    @property
    def matrix(self) -> np.ndarray:
        return self._solve(np.eye(self.dim, dtype=complex, order="F"))


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


def inverse_difference(pair: DiscretePair) -> Operator:
    """D = t_dn^-1 - t_dd^-1 = R_dd(0) - R_dn(0), exactly rank-one by the single-entry matrix difference.

    Returned as the difference of the two tridiagonal factorizations at
    z = 0: applying D to a vector, from either side, is two O(n) solves,
    and ``D.matrix`` is materialized only on demand.
    """
    return resolvent(pair.t_dd, 0.0) - resolvent(pair.t_dn, 0.0)


def resolvent(t: Operator, z: complex) -> TridiagonalResolvent:
    """(z - T)^-1 of a tridiagonal T as one O(n) LU factorization of z - T.

    ``t`` is a :class:`Tridiagonal` or any operator whose matrix is
    tridiagonal (ValueError otherwise).  The result applies (z - T)^-1 to
    a vector by one O(n) solve, from the left by one transposed solve.
    Raises :class:`SpectrumHitError` when z - T is singular to working
    precision: a zero pivot, or a reciprocal condition estimate (LAPACK
    ``zgtcon``, 1-norm, O(n)) below RCOND_TOL.
    """
    from scipy.linalg import lapack  # loaded on first factorization, not on import

    if not isinstance(t, Tridiagonal):
        t = Tridiagonal.from_dense(t)
    z = complex(z)
    lower, diag, upper = -t.lower, z - t.diag, -t.upper
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
    *factors, info = lapack.zgttrf(lower, diag, upper)
    if info > 0:
        raise SpectrumHitError(f"z={z} hits the discrete spectrum (zero pivot)")
    rcond, _ = lapack.zgtcon(*factors, anorm)
    if rcond < RCOND_TOL:
        raise SpectrumHitError(f"z={z} hits the discrete spectrum (rcond {rcond:.3e})")
    return TridiagonalResolvent(t.dim, tuple(factors))


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
    """Fast discrete denominator D(z) = 1 + z <l|(-I + z R_dd(z)) f>.

    Uses the pair's sampled factors unless an explicit rank-one form is
    given (e.g. factors recovered from the inverse difference).  The
    eigenpairs of t_dd are known in closed form: lambda_j from
    :func:`dd_eigenvalues` and the real orthonormal sine vectors
    v_j = sqrt(2h) sin(j pi x_i).  Projecting f and l on them is one
    complex discrete sine transform each, O(n log n), and turns every
    evaluation into an O(n) sum, which keeps root bracketing cheap:

        D(z) = 1 + z(-<l|f> + z * sum_j c_j / (z - lambda_j)),
        c_j = <l|v_j><v_j|f>.

    The real and imaginary parts of the c_j are kept as the rows of one
    real 2 x n array, so a real z is summed in real arithmetic and a
    complex z in complex arithmetic by the same expression.
    """
    f = form.f if form is not None else pair.f_vec
    l = form.l if form is not None else pair.l_fun
    lam = dd_eigenvalues(pair)
    s_l, s_f = _sine_transform(np.stack((l.weights, f.entries)))
    coeff = 2.0 * pair.grid.h * s_l * s_f
    parts = np.stack((coeff.real, coeff.imag))
    lf = complex(np.dot(l.weights, f.entries))

    def d_fn(z: complex) -> complex:
        # tolist() hands back Python scalars, whose arithmetic is cheaper than numpy's.
        re, im = (parts @ (1.0 / (z - lam))).tolist()
        return complex(1.0 + z * (-lf + z * (re + 1j * im)))

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
