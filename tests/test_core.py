import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from rankone import _lapack
from rankone.core import (
    DenseOperator,
    DimensionMismatchError,
    Functional,
    LowRankProduct,
    RankOneForm,
    SingularMatrixError,
    Vector,
    invert,
    outer,
    pair,
)
from rankone.cli import _check_block
from rankone.discretize import Tridiagonal
from rankone.verification import numerical_rank, random_functional, random_operator, random_vector


def test_pair_orthogonal_coordinates():
    assert pair(Functional([1, 0]), Vector([0, 1])) == 0


def test_pair_hand_sum():
    # 3*1 + 4*2
    assert pair(Functional([3, 4]), Vector([1, 2])) == 11


@given(st.complex_numbers(allow_nan=False, allow_infinity=False, max_magnitude=1e6))
def test_pair_one_dimensional_identity(lam):
    assert pair(Functional([1]), Vector([lam])) == lam


def test_pair_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        pair(Functional([1, 2]), Vector([1, 2, 3]))


def test_outer_entrywise():
    op = outer(Vector([1, 2]), Functional([3, 4]))
    assert_allclose(op.matrix, [[3, 4], [6, 8]])


def test_outer_zero_vector():
    op = outer(Vector([0, 0, 0]), Functional([1, 2, 3]))
    assert_allclose(op.matrix, np.zeros((3, 3)))


def test_outer_scalar_case():
    assert_allclose(outer(Vector([1]), Functional([1])).matrix, [[1]])


def test_outer_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        outer(Vector([1, 2, 3]), Functional([1, 2]))


def test_outer_acts_as_pairing_on_basis():
    rng = np.random.default_rng(11)
    for dim in (1, 3, 6):
        f = random_vector(rng, dim)
        l = random_functional(rng, dim)
        op = outer(f, l)
        for i in range(dim):
            u = Vector.basis(i, dim)
            assert_allclose((op @ u).entries, (pair(l, u) * f).entries, atol=1e-14)


def test_invert_identity():
    assert_allclose(invert(DenseOperator(np.eye(4))).matrix, np.eye(4))


def test_invert_diagonal():
    inv = invert(DenseOperator(np.diag([2.0, 4.0])))
    assert_allclose(inv.matrix, np.diag([0.5, 0.25]))


def test_invert_residual_seeded():
    rng = np.random.default_rng(3)
    a = random_operator(rng, 8)
    x = invert(a).matrix
    assert np.max(np.abs(a.matrix @ x - np.eye(8))) <= 1e-10


@pytest.mark.parametrize("dim", [2, 8, 32])
def test_invert_two_sided_residual(dim):
    rng = np.random.default_rng(dim)
    a = random_operator(rng, dim)
    x = invert(a).matrix
    eye = np.eye(dim)
    assert np.max(np.abs(a.matrix @ x - eye)) <= 1e-10
    assert np.max(np.abs(x @ a.matrix - eye)) <= 1e-10


@pytest.mark.parametrize("dim", [1, 2, 3, 8, 33, 64])
def test_invert_keeps_its_lu_and_materializes_the_dense_inverse_bit_for_bit(dim):
    a = random_operator(np.random.default_rng(dim), dim)
    lu, piv, _ = _lapack.zgetrf(a.matrix)
    expected, _ = _lapack.zgetrs(lu, piv, np.eye(dim, dtype=complex))
    inv = invert(a)
    assert not inv.lu.flags.writeable and not inv.piv.flags.writeable
    m = inv.matrix
    assert (m.dtype, m.shape, m.tobytes()) == (expected.dtype, expected.shape, expected.tobytes())
    rng = np.random.default_rng(100 + dim)
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    block = rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3))
    for got, want in ((inv.apply(x), m @ x), (inv.apply_left(x), x @ m), (inv.apply(block), m @ block)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_invert_picks_getrf_and_getrs_by_the_dtype_of_a(lapack_calls):
    calls = lapack_calls("getrf", "getrs")
    a = random_operator(np.random.default_rng(5), 6)
    x = np.ones(6) + 1j
    for m, prefix in ((a.matrix.real, "d"), (a.matrix, "z")):
        inv = invert(DenseOperator(m))
        inv.apply(x.real)
        inv.apply_left(x)  # complex, so real factors solve its two parts as one block
        dense = inv.matrix
        assert calls == [prefix + "getrf"] + [prefix + "getrs"] * 3
        assert dense.dtype == m.dtype
        calls.clear()


@pytest.mark.parametrize("k", [3, 7])
def test_dense_apply_left_reads_a_block_as_columns(k):
    # Every Operator's row action takes an n x k block column by column,
    # w_j -> A^T w_j; for k = n a row-wise reading gives a result of the same
    # shape but the wrong values.
    rng = np.random.default_rng(k)
    a = random_operator(rng, 7)
    block = rng.standard_normal((7, k)) + 1j * rng.standard_normal((7, k))
    got = a.apply_left(block)
    want = np.stack([block[:, j] @ a.matrix for j in range(k)], axis=1)
    assert got.shape == (7, k)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_invert_singular_raises():
    with pytest.raises(SingularMatrixError):
        invert(DenseOperator([[1.0, 1.0], [1.0, 1.0]]))


def test_rank_estimate_outer_is_one():
    assert numerical_rank(outer(Vector([1, 2]), Functional([3, 4])).matrix, 1e-10) == 1


def test_rank_estimate_zero_matrix():
    assert numerical_rank(np.zeros((3, 3)), 1e-10) == 0


def test_rank_estimate_identity():
    assert numerical_rank(np.eye(3), 1e-10) == 3


def test_rank_estimate_requires_positive_tol():
    with pytest.raises(ValueError):
        numerical_rank(np.eye(2), 0.0)


@pytest.mark.parametrize("n", [3, 50, 1000])
def test_rank_estimate_of_a_check_block_sees_a_second_component(n):
    # recover reads its rank from D G on the n x 4 check block: four columns see rank two.
    rng = np.random.default_rng(n)
    d = LowRankProduct(rng.standard_normal((n, 2)), rng.standard_normal((2, n)))
    assert numerical_rank(d.apply(_check_block(n)), 1e-8) == 2


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31))
def test_rank_of_random_outer_products(dim, seed):
    rng = np.random.default_rng(seed)
    f = random_vector(rng, dim)
    l = random_functional(rng, dim)
    assert numerical_rank(outer(f, l).matrix, 1e-10) <= 1


# Each value class and array field: (shape of the field, constructor taking it).
_VALUE_FIELDS = {
    "Vector": ((3,), Vector),
    "Functional": ((3,), Functional),
    "DenseOperator": ((3, 3), DenseOperator),
    "LowRankProduct.left": ((3, 2), lambda m: LowRankProduct(m, np.ones((2, 3)))),
    "LowRankProduct.right": ((2, 3), lambda m: LowRankProduct(np.ones((3, 2)), m)),
    "Tridiagonal.lower": ((2,), lambda b: Tridiagonal(b, np.ones(3), np.ones(2))),
    "Tridiagonal.diag": ((3,), lambda b: Tridiagonal(np.ones(2), b, np.ones(2))),
    "Tridiagonal.upper": ((2,), lambda b: Tridiagonal(np.ones(2), np.ones(3), b)),
}


@pytest.mark.parametrize("value_field", sorted(_VALUE_FIELDS))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("part", ["real", "imag"])
@pytest.mark.parametrize("index", [0, -1])
def test_values_reject_nonfinite_entries(value_field, bad, part, index):
    shape, build = _VALUE_FIELDS[value_field]
    entries = np.ones(shape, dtype=complex)
    build(entries)  # finite entries are accepted
    entries.flat[index] = complex(bad, 1.0) if part == "real" else complex(1.0, bad)
    with pytest.raises(ValueError, match=r"^entries must be finite \(no NaN/Inf\)$"):
        build(entries)


def test_dense_norm_max_is_kept_and_leaves_fields_eq_and_repr_alone():
    m = np.random.default_rng(5).standard_normal((6, 6)) * (1 + 2j)
    a = DenseOperator(m)
    text = repr(a)
    expected = float(np.max(np.abs(m)))
    assert [a.norm_max().hex() for _ in range(3)] == [expected.hex()] * 3
    assert [f.name for f in dataclasses.fields(a)] == ["matrix"]
    assert repr(a) == text and "norm" not in text
    for name in ("matrix", "_norm_max"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, name, 0.0)
    assert a.norm_max().hex() == expected.hex()
    # eq compares the one field: a 1 x 1 operator whose norm was read equals a fresh one.
    one = DenseOperator([[3.0 - 4.0j]])
    assert one.norm_max() == 5.0
    assert one == DenseOperator([[3.0 - 4.0j]]) and one != DenseOperator([[3.0]])


def test_values_reject_empty_and_nonsquare():
    with pytest.raises(ValueError):
        Vector([])
    with pytest.raises(ValueError):
        DenseOperator(np.zeros((2, 3)))


def test_values_are_immutable():
    v = Vector([1.0, 2.0])
    with pytest.raises(ValueError):
        v.entries[0] = 5.0
    a = DenseOperator(np.eye(2))
    with pytest.raises(ValueError):
        a.matrix[0, 0] = 5.0


def test_vector_and_functional_do_not_mix():
    with pytest.raises(TypeError):
        Vector([1, 2]) - Functional([1, 2])
    with pytest.raises(TypeError):
        Functional([1, 2]) - Vector([1, 2])


def test_rank_one_form_materializes_as_outer():
    form = RankOneForm(Vector([1, 2]), Functional([3, 4]))
    assert_allclose(form.materialize().matrix, [[3, 4], [6, 8]])
    with pytest.raises(DimensionMismatchError):
        RankOneForm(Vector([1, 2]), Functional([3, 4, 5]))


def test_rank_one_form_gauge_keeps_outer_product():
    form = RankOneForm(Vector([1, 2]), Functional([3, 4]))
    scaled = form.gauge(-2.5 + 1.0j)
    assert_allclose(scaled.materialize().matrix, form.materialize().matrix, atol=1e-14)


def test_real_scaling_keeps_float64():
    form = RankOneForm(Vector([1.0, 2.0]), Functional([3.0, 4.0]))
    assert (Vector([1.0, 2.0]) * 2.0).entries.dtype == np.float64
    assert (2.0 * Functional([3.0, 4.0])).weights.dtype == np.float64
    gauged = form.gauge(2.0)
    assert gauged.f.entries.dtype == gauged.l.weights.dtype == np.float64
    gauged = form.gauge(2.0 + 1.0j)
    assert gauged.f.entries.dtype == gauged.l.weights.dtype == np.complex128
    with pytest.raises(ValueError, match="nonzero"):
        form.gauge(0.0)
    with pytest.raises(TypeError, match="scalar"):
        Vector([1.0, 2.0]) * np.array([3.0, 4.0])
