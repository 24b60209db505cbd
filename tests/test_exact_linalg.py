from __future__ import annotations

import itertools
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symtoric.exact_linalg import (
    DimensionError,
    IntegerMatrix,
    adjugate,
    determinant,
    smith_normal_form,
)


def mat(rows):
    return IntegerMatrix.from_rows(rows)


def det_by_permutations(m: IntegerMatrix) -> int:
    """Independent oracle: Leibniz expansion over all permutations."""
    n = m.rows
    total = 0
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        total += sign * prod(m.at(i, perm[i]) for i in range(n))
    return total


@st.composite
def matrices(draw, max_dim=4, square=False):
    """Matrices of up to ``max_dim`` rows and columns, either of them 0;
    built with the constructor, since ``from_rows`` of no rows is 0x0."""
    r = draw(st.integers(0, max_dim))
    c = r if square else draw(st.integers(0, max_dim))
    entries = draw(st.lists(st.integers(-9, 9), min_size=r * c, max_size=r * c))
    return IntegerMatrix(r, c, tuple(entries))


class TestIntegerMatrix:
    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            IntegerMatrix(2, 2, (1, 2, 3))
        with pytest.raises(DimensionError, match="^negative shape -1x2$"):
            IntegerMatrix(-1, 2, ())
        with pytest.raises(DimensionError):
            IntegerMatrix.from_rows([[1, 2], [3]])

    def test_rejects_non_integer_entries(self):
        with pytest.raises(TypeError):
            IntegerMatrix.from_rows([[1.5, 2]])
        with pytest.raises(TypeError):
            IntegerMatrix.from_rows([[True, 0]])

    def test_matmul_and_apply(self):
        a = mat([[1, 2], [3, 4]])
        b = mat([[0, 1], [1, 0]])
        assert (a @ b).entries == (2, 1, 4, 3)
        assert a.apply((1, 1)) == (3, 7)
        with pytest.raises(DimensionError):
            a.apply((1, 1, 1))
        with pytest.raises(DimensionError, match="^cannot multiply 2x2 by 3x1$"):
            a @ mat([[1], [2], [3]])
        with pytest.raises(TypeError):
            a @ [[1, 0], [0, 1]]

    def test_transpose_roundtrip(self):
        a = mat([[1, 2, 3], [4, 5, 6]])
        assert a.transpose().transpose() == a
        assert a.column(1) == (2, 5)


class TestDeterminant:
    def test_frozen_examples(self):
        assert determinant(mat([[1, 0], [1, 2]])) == 2
        assert determinant(mat([[1, 0], [1, 5]])) == 5
        assert determinant(IntegerMatrix.identity(3)) == 1
        assert determinant(mat([[2, 1], [4, 2]])) == 0

    def test_empty_matrix_is_one(self):
        assert determinant(IntegerMatrix(0, 0, ())) == 1

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            determinant(mat([[1, 2, 3], [4, 5, 6]]))

    def test_large_entries_stay_exact(self):
        big = 2**62 - 1
        m = mat([[big, 1], [1, big]])
        assert determinant(m) == big * big - 1

    @given(matrices(square=True))
    def test_matches_permutation_expansion(self, m):
        assert determinant(m) == det_by_permutations(m)


class TestAdjugate:
    def test_frozen_examples(self):
        assert adjugate(mat([[1, 0], [1, 2]])) == mat([[2, 0], [-1, 1]])
        assert adjugate(mat([[2, 0], [0, 3]])) == mat([[3, 0], [0, 2]])
        assert adjugate(mat([[7]])) == mat([[1]])

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            adjugate(mat([[1, 2, 3], [4, 5, 6]]))

    @given(matrices(square=True))
    def test_defining_identity(self, m):
        n = m.rows
        det = determinant(m)
        scaled = IntegerMatrix(
            n, n, tuple(det if i == j else 0 for i in range(n) for j in range(n))
        )
        assert m @ adjugate(m) == scaled
        assert adjugate(m) @ m == scaled


def check_smith_invariants(m: IntegerMatrix) -> None:
    dec = smith_normal_form(m)
    assert dec.U @ m @ dec.V == dec.S
    assert abs(determinant(dec.U)) == 1
    assert abs(determinant(dec.V)) == 1
    # diagonal shape with nonnegative entries
    for i in range(dec.S.rows):
        for j in range(dec.S.cols):
            if i != j:
                assert dec.S.at(i, j) == 0
    factors = dec.invariant_factors
    assert len(factors) == min(m.rows, m.cols)
    assert all(f >= 0 for f in factors)
    nonzero = [f for f in factors if f]
    assert list(factors[: len(nonzero)]) == nonzero, "zeros must trail"
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    if m.rows == m.cols:
        assert prod(factors) == abs(determinant(m))


class TestSmithNormalForm:
    def test_frozen_examples(self):
        assert smith_normal_form(IntegerMatrix.identity(2)).invariant_factors == (1, 1)
        assert smith_normal_form(mat([[1, 0], [1, 2]])).invariant_factors == (1, 2)
        assert smith_normal_form(mat([[2, 4], [6, 8]])).invariant_factors == (2, 4)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_empty_shapes(self, shape):
        m = IntegerMatrix(*shape, ())
        assert smith_normal_form(m).invariant_factors == ()
        check_smith_invariants(m)

    def test_zero_matrix(self):
        dec = smith_normal_form(IntegerMatrix(2, 3, (0,) * 6))
        assert dec.invariant_factors == (0, 0)
        check_smith_invariants(IntegerMatrix(2, 3, (0,) * 6))

    def test_deterministic(self):
        m = mat([[6, 4, 2], [4, 8, 6], [2, 6, 8]])
        first = smith_normal_form(m)
        second = smith_normal_form(m)
        assert first == second

    @given(matrices())
    @settings(max_examples=150)
    def test_invariants_hold(self, m):
        check_smith_invariants(m)

    @given(matrices(max_dim=3, square=True), st.randoms(use_true_random=False))
    def test_permutation_invariance(self, m, rng):
        rows = m.to_rows()
        rng.shuffle(rows)
        cols = list(range(m.cols))
        rng.shuffle(cols)
        shuffled = IntegerMatrix.from_rows([[row[c] for c in cols] for row in rows])
        assert (
            smith_normal_form(shuffled).invariant_factors
            == smith_normal_form(m).invariant_factors
        )
