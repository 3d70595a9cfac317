"""Finite-difference embodiment of the two boundary-value operators.

Standard 3-point stencil on n interior nodes of [0,1], h = 1/(n+1).
The Neumann end uses a mirror ghost node (last diagonal entry 1/h^2):
that keeps the matrix symmetric and makes the matrix difference
t_dd - t_dn exactly (1/h^2) e_n e_n^T, i.e. exactly rank-one, at the
price of O(h) boundary accuracy.  Matrix inverses approximate h times
the continuous kernels at node pairs: T^-1[i,j] ~= h * G(x_i, x_j).
Both matrices are tridiagonal, so every routine here costs O(n^2) or
less: banded LU for resolvents, closed-form Dirichlet-Dirichlet
eigenpairs, and tridiagonal bisection for the Dirichlet-Neumann spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .core import PIVOT_RTOL, DenseOperator, Functional, RankOneForm, Vector


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


@dataclass(frozen=True)
class DiscretePair:
    """Discretized operator pair with the sampled rank-one factors.

    f_vec samples the ramp at the nodes; l_fun carries trapezoid
    weights h times the node coordinates, matching the ramp-moment
    functional.
    """

    grid: Grid
    t_dd: DenseOperator
    t_dn: DenseOperator
    f_vec: Vector
    l_fun: Functional


def build_pair(n: int) -> DiscretePair:
    """Assemble both operators and the sampled factors on n interior nodes."""
    grid = Grid(n)
    h = grid.h
    x = grid.nodes
    i = np.arange(n)
    t_dd = np.zeros((n, n), dtype=complex)
    t_dd[i, i] = 2.0 / h**2
    t_dd[i[:-1], i[1:]] = -1.0 / h**2
    t_dd[i[1:], i[:-1]] = -1.0 / h**2
    t_dn = t_dd.copy()
    t_dn[-1, -1] = 1.0 / h**2
    return DiscretePair(
        grid=grid,
        t_dd=DenseOperator(t_dd),
        t_dn=DenseOperator(t_dn),
        f_vec=Vector(x),
        l_fun=Functional(h * x),
    )


def inverse_difference(pair: DiscretePair) -> DenseOperator:
    """t_dn^-1 - t_dd^-1 = R_dd(0) - R_dn(0); exactly rank-one by the single-entry matrix difference."""
    diff = _tridiagonal_resolvent(pair.t_dd.matrix, 0.0)
    diff -= _tridiagonal_resolvent(pair.t_dn.matrix, 0.0)
    return DenseOperator(diff)


def resolvent(t: DenseOperator, z: complex) -> DenseOperator:
    """(z - T)^-1 of a tridiagonal T, returned dense.

    One banded LU of z - T with partial pivoting (O(n)), then solves
    against the identity (O(n^2)).  Raises :class:`SpectrumHitError`
    under the pivot-ratio rule of :func:`core.invert`, and ValueError
    when T has entries off its three central diagonals.
    """
    return DenseOperator(_tridiagonal_resolvent(t.matrix, complex(z)))


def _tridiagonal_resolvent(t: np.ndarray, z: complex) -> np.ndarray:
    n = t.shape[0]
    diag, upper, lower = np.diagonal(t), np.diagonal(t, 1), np.diagonal(t, -1)
    outside = np.count_nonzero(t) - sum(np.count_nonzero(b) for b in (diag, upper, lower))
    if outside:
        raise ValueError(f"operator is not tridiagonal: {outside} entries off the three diagonals")
    # LAPACK band storage for kl = ku = 1; row 0 is room for the fill-in of pivoting.
    band = np.zeros((4, n), dtype=complex)
    band[1, 1:] = -upper
    band[2] = z - diag
    band[3, :-1] = -lower
    lu, piv, info = scipy.linalg.lapack.zgbtrf(band, 1, 1, overwrite_ab=True)
    pivots = np.abs(lu[2])
    if info > 0 or np.min(pivots) < PIVOT_RTOL * np.max(pivots):
        raise SpectrumHitError(f"z={z} hits the discrete spectrum")
    eye = np.eye(n, dtype=complex, order="F")
    inv, _ = scipy.linalg.lapack.zgbtrs(lu, 1, 1, eye, piv, overwrite_b=True)
    return inv


def discrete_new_eigenvalues(pair: DiscretePair, count: int) -> list[float]:
    """Smallest eigenvalues of t_dn (symmetric tridiagonal bisection), ascending."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > pair.grid.n:
        raise ValueError("count exceeds the matrix dimension")
    t = pair.t_dn.matrix
    eigen = scipy.linalg.eigvalsh_tridiagonal(
        np.diagonal(t).real, np.diagonal(t, 1).real, select="i", select_range=(0, count - 1)
    )
    return [float(v) for v in eigen]


def krein_denominator_function(
    pair: DiscretePair, form: "RankOneForm | None" = None
) -> Callable[[complex], complex]:
    """Fast discrete denominator D(z) = 1 + z <l|(-I + z R_dd(z)) f>.

    Uses the pair's sampled factors unless an explicit rank-one form is
    given (e.g. factors recovered from the inverse difference).  The
    eigenpairs of t_dd are known in closed form: lambda_j from
    :func:`dd_eigenvalues` and the real orthonormal sine vectors
    v_j = sqrt(2h) sin(j pi x_i).  Projecting f and l on them once
    (O(n^2)) turns every evaluation into an O(n) sum, which keeps root
    bracketing cheap:

        D(z) = 1 + z(-<l|f> + z * sum_j c_j / (z - lambda_j)),
        c_j = <l|v_j><v_j|f>.
    """
    f = form.f if form is not None else pair.f_vec
    l = form.l if form is not None else pair.l_fun
    n, h = pair.grid.n, pair.grid.h
    lam = dd_eigenvalues(pair)
    # v_j(x_i) = sqrt(2h) sin(pi i j h) is symmetric in (i, j); reducing i*j
    # modulo the period 2(n+1) keeps every sine argument below 2 pi.
    j = np.arange(1, n + 1)
    period = 2 * (n + 1)
    phase = np.outer(j, j)
    phase %= period
    vecs = (np.sqrt(2.0 * h) * np.sin(np.pi * h * np.arange(period)))[phase]

    def project(w: np.ndarray) -> np.ndarray:
        # Real products on each part; a complex w would upcast vecs to a complex copy.
        return vecs @ w.real + 1j * (vecs @ w.imag)

    coeff = project(l.weights) * project(f.entries)
    lf = complex(np.dot(l.weights, f.entries))

    def d_fn(z: complex) -> complex:
        z = complex(z)
        return 1.0 + z * (-lf + z * complex(np.sum(coeff / (z - lam))))

    return d_fn


def dd_eigenvalues(pair: DiscretePair) -> np.ndarray:
    """Spectrum of t_dd, ascending; the poles of the discrete resolvent.

    Closed form lambda_j = (4/h^2) sin^2(j pi h / 2), j = 1..n, of the
    stencil that :func:`build_pair` assembles on ``pair.grid``.
    """
    h = pair.grid.h
    j = np.arange(1, pair.grid.n + 1)
    return 4.0 / h**2 * np.sin(j * np.pi * h / 2.0) ** 2
