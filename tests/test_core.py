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
    RankOneForm,
    SingularMatrixError,
    Vector,
    invert,
    outer,
    pair,
)
from rankone.verification import random_functional, random_operator, random_vector, sketch_rank


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
    assert_allclose(invert(DenseOperator.identity(4)).matrix, np.eye(4))


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
    assert sketch_rank(outer(Vector([1, 2]), Functional([3, 4])), 1e-10, np.random.default_rng(0)) == 1


def test_rank_estimate_zero_matrix():
    assert sketch_rank(DenseOperator(np.zeros((3, 3))), 1e-10, np.random.default_rng(0)) == 0


def test_rank_estimate_identity():
    assert sketch_rank(DenseOperator.identity(3), 1e-10, np.random.default_rng(0)) == 3


def test_rank_estimate_requires_positive_tol():
    with pytest.raises(ValueError):
        sketch_rank(DenseOperator.identity(2), 0.0, np.random.default_rng(0))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31))
def test_rank_of_random_outer_products(dim, seed):
    rng = np.random.default_rng(seed)
    f = random_vector(rng, dim)
    l = random_functional(rng, dim)
    assert sketch_rank(outer(f, l), 1e-10, rng) <= 1


def test_values_reject_nonfinite_entries():
    with pytest.raises(ValueError):
        Vector([1.0, np.nan])
    with pytest.raises(ValueError):
        Functional([np.inf])
    with pytest.raises(ValueError):
        DenseOperator([[1.0, np.nan], [0.0, 1.0]])


def test_values_reject_empty_and_nonsquare():
    with pytest.raises(ValueError):
        Vector([])
    with pytest.raises(ValueError):
        DenseOperator(np.zeros((2, 3)))


def test_values_are_immutable():
    v = Vector([1.0, 2.0])
    with pytest.raises(ValueError):
        v.entries[0] = 5.0
    a = DenseOperator.identity(2)
    with pytest.raises(ValueError):
        a.matrix[0, 0] = 5.0


def test_vector_and_functional_do_not_mix():
    with pytest.raises(TypeError):
        Vector([1, 2]) + Functional([1, 2])
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
