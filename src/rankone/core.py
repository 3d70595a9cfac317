"""Foundational value types and dense linear-algebra primitives.

Everything is finite-dimensional, real or complex: vectors are coordinate
columns, functionals are coordinate rows, operators are square and known
by their action (:class:`Operator`); :class:`DenseOperator` is the one
that stores its matrix.  An inverse is kept as a factorization and applied
by solves (:class:`FactoredInverse`): :func:`invert` returns A's read-only
partial-pivot LU in A's dtype (:class:`LUInverse`), whose dense ``matrix``
is solved for only when it is read.  Sherman-Morrison's update of such an
inverse keeps its factors too (``perturbed_inverse.RegularInverse``).

Values are validated where they are built.  The constructors of
:class:`Vector`, :class:`Functional` and :class:`DenseOperator` copy their
input (float64 if real, else complex128), reject empty, misshaped and
non-finite arrays, and mark the copy read-only, so every value is immutable
and every operation is pure and safe to call concurrently.  Finiteness is
one C-level count per value.  A :class:`DenseOperator` computes its
||.||_max on the first call and keeps it, outside its fields.  The
algorithms in the other modules compute on plain arrays (``entries``,
``weights``, ``apply``, ``apply_left``) and build a value only for what
they return: one validation per result, none per intermediate step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


class DimensionMismatchError(ValueError):
    """Operands with incompatible dimensions."""


class SingularMatrixError(ArithmeticError):
    """Matrix is numerically singular (pivot below tolerance)."""


# Relative pivot threshold for declaring an LU factorization singular.
PIVOT_RTOL = 1e-13


def _frozen_array(values, ndim: int, allow_empty: bool = False, dtype=None) -> np.ndarray:
    arr = np.array(values, dtype=dtype, copy=True)
    if arr.dtype.char not in "dD":  # float64 and complex128 are kept; anything else real becomes float64
        arr = arr.astype(float if np.isrealobj(arr) else complex)
    if arr.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array, got shape {arr.shape}")
    if arr.size == 0 and not allow_empty:
        raise ValueError("dimension must be >= 1")
    if np.count_nonzero(np.isfinite(arr)) != arr.size:  # a C-level count: ndarray.all runs a Python wrapper
        raise ValueError("entries must be finite (no NaN/Inf)")
    arr.flags.writeable = False
    return arr


class _Coordinates:
    """One validated, read-only coordinate array: the body shared by Vector and Functional.

    A subclass is a frozen dataclass with one array field, named by
    ``_FIELD``.  Subtraction only combines values of the same class, so a
    Functional is never taken from a Vector.
    """

    _FIELD: str

    def __post_init__(self):
        object.__setattr__(self, self._FIELD, _frozen_array(getattr(self, self._FIELD), 1))

    @property
    def _array(self) -> np.ndarray:
        return getattr(self, self._FIELD)

    @property
    def dim(self) -> int:
        return getattr(self, self._FIELD).shape[0]

    def norm(self) -> float:
        return float(np.linalg.norm(self._array))

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        _check_dims(self.dim, other.dim)
        return type(self)(self._array - other._array)

    def __mul__(self, scalar):
        return type(self)(self._array * complex(scalar))

    __rmul__ = __mul__

    @classmethod
    def basis(cls, i: int, dim: int, dtype=complex):
        e = np.zeros(dim, dtype=dtype)
        e[i] = 1.0
        return cls(e)


@dataclass(frozen=True)
class Vector(_Coordinates):
    """Finite-dimensional coordinate vector with real or complex entries."""

    entries: np.ndarray
    _FIELD = "entries"


@dataclass(frozen=True)
class Functional(_Coordinates):
    """Linear functional represented as a coordinate row of weights."""

    weights: np.ndarray
    _FIELD = "weights"


class Operator:
    """Square linear operator known by its action: the contract of every operator.

    An implementation gives ``dim``, the column action ``apply`` (x -> A x)
    and the row action ``apply_left`` (w -> w^T A, no conjugation) on
    coordinate arrays, and a ``matrix`` property holding the dense n x n
    array of A.  Only :class:`DenseOperator` stores that array; the others
    materialize it on demand, at O(n^2) memory or more, for oracles and
    small sizes.  ``apply`` and ``apply_left`` also take an n x k block
    and act on each of its columns.  ``op @ Vector`` goes through the
    column action, and ``a - b`` is the lazy :class:`OperatorDifference`.
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


@dataclass(frozen=True, eq=False)
class LowRankProduct(Operator):
    """left @ right, an n x k ``left`` times a k x n ``right``, kept as its two read-only factors.

    Each action is two thin products, O(nk); ``matrix`` is their one n x n
    product.  k = 0 is the zero operator.
    """

    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        for name in ("left", "right"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name), 2, allow_empty=True))
        if self.right.shape != self.left.shape[::-1] or self.left.shape[0] == 0:
            raise DimensionMismatchError(
                f"factors must be n x k and k x n with n >= 1, got {self.left.shape} and {self.right.shape}"
            )

    @property
    def dim(self) -> int:
        return self.left.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.left @ (self.right @ x)

    def apply_left(self, w: np.ndarray) -> np.ndarray:
        return self.right.T @ (self.left.T @ w)

    @property
    def matrix(self) -> np.ndarray:
        return self.left @ self.right


@dataclass(frozen=True)
class DenseOperator(Operator):
    """Square dense matrix acting on :class:`Vector`."""

    matrix: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.matrix)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {shape}")
        object.__setattr__(self, "matrix", _frozen_array(self.matrix, 2))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    def apply_left(self, w: np.ndarray) -> np.ndarray:
        # (w^T A)^T: a vector takes w @ A, ~4x faster than A.T @ w at n = 1000 (OpenBLAS, 2-vCPU Xeon).
        return (w.T @ self.matrix).T

    def norm_max(self) -> float:
        """Largest entry modulus, computed on the first call and kept outside the fields."""
        norm = self.__dict__.get("_norm_max")
        if norm is None:
            norm = float(np.abs(self.matrix).max())
            object.__setattr__(self, "_norm_max", norm)
        return norm

    def __matmul__(self, other):
        if isinstance(other, DenseOperator):
            _check_dims(self.dim, other.dim)
            with np.errstate(over="ignore", invalid="ignore"):  # DenseOperator rejects an overflow
                product = self.matrix @ other.matrix
            return DenseOperator(product)
        return super().__matmul__(other)

    def __sub__(self, other: Operator) -> "DenseOperator":
        _check_dims(self.dim, other.dim)
        return DenseOperator(self.matrix - other.matrix)


class FactoredInverse(Operator):
    """An inverse kept as a factorization and applied by solves.

    An implementation gives ``dim``, the ``dtype`` of its factors and its one
    LAPACK call ``_lapack_solve(b, trans, overwrite)``, which solves with the
    factored matrix (``trans`` "N") or its transpose ("T", no conjugation) for
    a vector or each column of a nonempty block b, into b itself when
    ``overwrite`` is true and b suits LAPACK (of that dtype, Fortran-ordered).
    :meth:`_solve`, the one solve body of every action, calls no LAPACK for an
    n x 0 block, and real factors solve a complex b as one real block of the
    columns (Re b_j, Im b_j).  ``matrix`` solves into an identity it owns, in
    that dtype: one n x n array.
    """

    def _lapack_solve(self, b: np.ndarray, trans: str, overwrite: bool) -> np.ndarray:
        raise NotImplementedError

    def _solve(self, b: np.ndarray, trans: str = "N", overwrite: bool = False) -> np.ndarray:
        if b.size == 0:  # scipy's gttrs wrappers corrupt the heap on an n x 0 block
            return np.zeros(b.shape, dtype=np.result_type(b, self.dtype))
        if b.dtype.kind == "c" and self.dtype.kind != "c":
            parts = self._lapack_solve(np.stack((b.real, b.imag), axis=-1).reshape(b.shape[0], -1), trans, True)
            return np.ascontiguousarray(parts).view(complex).reshape(b.shape)
        return self._lapack_solve(b, trans, overwrite)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self._solve(x)

    def apply_left(self, w: np.ndarray) -> np.ndarray:
        return self._solve(w, "T")

    @property
    def matrix(self) -> np.ndarray:
        return self._solve(np.eye(self.dim, dtype=self.dtype, order="F"), overwrite=True)


@dataclass(frozen=True, eq=False)
class LUInverse(FactoredInverse):
    """A^-1 of a dense A, kept as getrf's read-only (lu, piv) in A's dtype; each solve is one getrs.

    :func:`invert` passes the getrs of that dtype in, so a solve imports nothing.
    """

    lu: np.ndarray
    piv: np.ndarray
    getrs: Callable = field(repr=False)
    dtype = property(lambda self: self.lu.dtype)

    @property
    def dim(self) -> int:
        return self.lu.shape[0]

    def _lapack_solve(self, b: np.ndarray, trans: str, overwrite: bool) -> np.ndarray:
        # getrs takes the flag as an integer code: 0 for "N", 1 for "T".
        return self.getrs(self.lu, self.piv, b, trans="NT".index(trans), overwrite_b=overwrite)[0]


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
    with np.errstate(over="ignore", invalid="ignore"):  # DenseOperator rejects an overflow
        product = np.multiply.outer(f.entries, l.weights)
    return DenseOperator(product)


def invert(a: Operator) -> LUInverse:
    """A^-1 kept as its partial-pivot LU factorization (LAPACK getrf).

    A real A factors with ``dgetrf`` and a complex one with ``zgetrf``; each
    action of the result is one getrs solve of that dtype, O(n^2), and its
    ``matrix``, the dense inverse for oracles, solves against the identity.
    Raises :class:`SingularMatrixError` when the smallest pivot falls
    below PIVOT_RTOL times the largest one.
    """
    from . import _lapack  # the LAPACK extension loads on first use: most commands never factor

    m = a.matrix
    lu, piv, _ = _lapack.for_dtype("getrf", m.dtype)(m)
    pivots = np.abs(lu.diagonal())
    if pivots.min() < PIVOT_RTOL * pivots.max():
        raise SingularMatrixError(
            f"matrix numerically singular: pivot ratio {pivots.min() / max(pivots.max(), 1e-300):.3e}"
        )
    lu.flags.writeable = False
    piv.flags.writeable = False
    return LUInverse(lu, piv, _lapack.for_dtype("getrs", m.dtype))
