"""Foundational value types and dense linear-algebra primitives.

Everything is finite-dimensional and complex: vectors are coordinate
columns, functionals are coordinate rows, operators are square and known
by their action (:class:`Operator`); :class:`DenseOperator` is the one
that stores its matrix.  All values are immutable after construction (the
wrapped arrays are copied and marked read-only), so every operation here
is pure and safe to call concurrently.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg


class DimensionMismatchError(ValueError):
    """Operands with incompatible dimensions."""


class SingularMatrixError(ArithmeticError):
    """Matrix is numerically singular (pivot below tolerance)."""


# Relative pivot threshold for declaring an LU factorization singular.
PIVOT_RTOL = 1e-13


def _frozen_array(values, ndim: int, allow_empty: bool = False) -> np.ndarray:
    arr = np.array(values, dtype=complex, copy=True)
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array, got shape {arr.shape}")
    if arr.size == 0 and not allow_empty:
        raise ValueError("dimension must be >= 1")
    if not np.all(np.isfinite(arr)):
        raise ValueError("entries must be finite (no NaN/Inf)")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Vector:
    """Finite-dimensional coordinate vector with complex entries."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _frozen_array(self.entries, 1))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.entries))

    def __add__(self, other: "Vector") -> "Vector":
        _check_dims(self.dim, other.dim)
        return Vector(self.entries + other.entries)

    def __sub__(self, other: "Vector") -> "Vector":
        _check_dims(self.dim, other.dim)
        return Vector(self.entries - other.entries)

    def __neg__(self) -> "Vector":
        return Vector(-self.entries)

    def __mul__(self, scalar) -> "Vector":
        return Vector(self.entries * complex(scalar))

    __rmul__ = __mul__

    @staticmethod
    def basis(i: int, dim: int) -> "Vector":
        e = np.zeros(dim, dtype=complex)
        e[i] = 1.0
        return Vector(e)

    @staticmethod
    def zero(dim: int) -> "Vector":
        return Vector(np.zeros(dim, dtype=complex))


@dataclass(frozen=True)
class Functional:
    """Linear functional represented as a coordinate row of weights."""

    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _frozen_array(self.weights, 1))

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self.weights))

    def __call__(self, f: Vector) -> complex:
        return pair(self, f)

    def __add__(self, other: "Functional") -> "Functional":
        _check_dims(self.dim, other.dim)
        return Functional(self.weights + other.weights)

    def __sub__(self, other: "Functional") -> "Functional":
        _check_dims(self.dim, other.dim)
        return Functional(self.weights - other.weights)

    def __neg__(self) -> "Functional":
        return Functional(-self.weights)

    def __mul__(self, scalar) -> "Functional":
        return Functional(self.weights * complex(scalar))

    __rmul__ = __mul__

    def __matmul__(self, op: "Operator") -> "Functional":
        """Composition self . op, a new row l(A .)."""
        _check_dims(self.dim, op.dim)
        return Functional(op.apply_left(self.weights))

    @staticmethod
    def basis(i: int, dim: int) -> "Functional":
        e = np.zeros(dim, dtype=complex)
        e[i] = 1.0
        return Functional(e)


class Operator:
    """Square linear operator known by its action: the contract of every operator.

    An implementation gives ``dim``, the column action ``apply`` (x -> A x)
    and the row action ``apply_left`` (w -> w^T A, no conjugation) on
    coordinate arrays, and a ``matrix`` property holding the dense n x n
    array of A.  Only :class:`DenseOperator` stores that array; the others
    materialize it on demand, at O(n^2) memory or more, for oracles and
    small sizes.  ``op @ Vector`` and ``Functional @ op`` go through the
    actions, and ``a - b`` is the lazy :class:`OperatorDifference`.
    """

    dim: int

    def apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def apply_left(self, w: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def norm_max(self) -> float:
        """Largest entry modulus; materializes ``matrix`` unless overridden."""
        return float(np.max(np.abs(self.matrix)))

    def __matmul__(self, other):
        if isinstance(other, Vector):
            _check_dims(self.dim, other.dim)
            return Vector(self.apply(other.entries))
        return NotImplemented

    def __sub__(self, other: "Operator") -> "Operator":
        if not isinstance(other, Operator):
            return NotImplemented
        return OperatorDifference(self, other)


@dataclass(frozen=True, eq=False)
class OperatorDifference(Operator):
    """a - b, applied as a x - b x; neither operand is materialized."""

    a: Operator
    b: Operator

    def __post_init__(self):
        _check_dims(self.a.dim, self.b.dim)

    @property
    def dim(self) -> int:
        return self.a.dim

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.a.apply(x) - self.b.apply(x)

    def apply_left(self, w: np.ndarray) -> np.ndarray:
        return self.a.apply_left(w) - self.b.apply_left(w)

    @property
    def matrix(self) -> np.ndarray:
        return self.a.matrix - self.b.matrix


@dataclass(frozen=True)
class DenseOperator(Operator):
    """Square dense matrix acting on :class:`Vector`."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.array(self.matrix, dtype=complex, copy=True)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {mat.shape}")
        if mat.size == 0:
            raise ValueError("dimension must be >= 1")
        if not np.all(np.isfinite(mat)):
            raise ValueError("entries must be finite (no NaN/Inf)")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    def apply_left(self, w: np.ndarray) -> np.ndarray:
        return w @ self.matrix

    def __matmul__(self, other):
        if isinstance(other, Vector):
            _check_dims(self.dim, other.dim)
            return Vector(self.matrix @ other.entries)
        if isinstance(other, DenseOperator):
            _check_dims(self.dim, other.dim)
            return DenseOperator(self.matrix @ other.matrix)
        return NotImplemented

    def __add__(self, other: "DenseOperator") -> "DenseOperator":
        _check_dims(self.dim, other.dim)
        return DenseOperator(self.matrix + other.matrix)

    def __sub__(self, other: Operator) -> "DenseOperator":
        _check_dims(self.dim, other.dim)
        return DenseOperator(self.matrix - other.matrix)

    def __neg__(self) -> "DenseOperator":
        return DenseOperator(-self.matrix)

    def __mul__(self, scalar) -> "DenseOperator":
        return DenseOperator(self.matrix * complex(scalar))

    __rmul__ = __mul__

    @staticmethod
    def identity(dim: int) -> "DenseOperator":
        return DenseOperator(np.eye(dim, dtype=complex))

    @staticmethod
    def zero(dim: int) -> "DenseOperator":
        return DenseOperator(np.zeros((dim, dim), dtype=complex))


@dataclass(frozen=True)
class RankOneForm:
    """Rank-one operator |f><l|, kept factored as the pair (f, l)."""

    f: Vector
    l: Functional

    def __post_init__(self):
        _check_dims(self.f.dim, self.l.dim)

    @property
    def dim(self) -> int:
        return self.f.dim

    def materialize(self) -> DenseOperator:
        return outer(self.f, self.l)

    def gauge(self, alpha) -> "RankOneForm":
        """Equivalent factorization (alpha*f, l/alpha); same outer product."""
        a = complex(alpha)
        if a == 0:
            raise ValueError("gauge factor must be nonzero")
        return RankOneForm(self.f * a, self.l * (1.0 / a))


def _check_dims(a: int, b: int):
    if a != b:
        raise DimensionMismatchError(f"dimension mismatch: {a} vs {b}")


def pair(l: Functional, f: Vector) -> complex:
    """Pairing <l|f> = sum_i l_i f_i (no conjugation)."""
    _check_dims(l.dim, f.dim)
    return complex(np.dot(l.weights, f.entries))


def outer(f: Vector, l: Functional) -> DenseOperator:
    """Outer product |f><l| with entries f_i * l_j."""
    _check_dims(f.dim, l.dim)
    return DenseOperator(np.outer(f.entries, l.weights))


def invert(a: Operator) -> DenseOperator:
    """Dense inverse via partial-pivot LU; the brute-force oracle.

    Raises :class:`SingularMatrixError` when the smallest pivot falls
    below PIVOT_RTOL times the largest one.
    """
    with warnings.catch_warnings():
        # Exactly-zero pivots are reported through SingularMatrixError below.
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a.matrix, check_finite=False)
    pivots = np.abs(np.diag(lu))
    if np.min(pivots) < PIVOT_RTOL * np.max(pivots):
        raise SingularMatrixError(
            f"matrix numerically singular: pivot ratio {np.min(pivots) / max(np.max(pivots), 1e-300):.3e}"
        )
    inv = scipy.linalg.lu_solve((lu, piv), np.eye(a.dim, dtype=complex), check_finite=False)
    return DenseOperator(inv)


def rank_estimate(m: Operator, tol: float) -> int:
    """Number of singular values above tol * sigma_max; 0 for the zero matrix."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    sigma = np.linalg.svd(m.matrix, compute_uv=False)
    smax = sigma[0] if sigma.size else 0.0
    if smax == 0.0:
        return 0
    return int(np.count_nonzero(sigma > tol * smax))
