from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiupdate.core import (PASSIVE_EPS, SparseVector, cw_alpha, cw_step, dense_add,
                              downdate, hinge_loss, predict_linear, sparse_add)
from multiupdate.errors import DimensionMismatchError, NumericalDegeneracyError
from multiupdate.params import HyperParams


class TestSparseVector:
    def test_basic_construction(self):
        x = SparseVector([0, 2, 5], [1.0, -2.0, 0.5])
        assert x.indices.tolist() == [0, 2, 5]
        assert x.values.tolist() == [1.0, -2.0, 0.5]
        assert x.max_index == 5

    def test_zero_values_dropped(self):
        x = SparseVector([0, 1, 2], [1.0, 0.0, 3.0])
        assert x.indices.tolist() == [0, 2]

    def test_empty(self):
        x = SparseVector([], [])
        assert x.squared_norm() == 0.0
        assert x.max_index == -1

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            SparseVector([2, 1], [1.0, 1.0])

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            SparseVector([1, 1], [1.0, 2.0])

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            SparseVector([-1], [1.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SparseVector([0, 1], [1.0])

    def test_squared_norm(self):
        x = SparseVector([0, 3], [3.0, 4.0])
        assert x.squared_norm() == 25.0

    def test_pairs(self):
        x = SparseVector([1, 4], [0.5, -1.5])
        assert list(x.pairs()) == [(1, 0.5), (4, -1.5)]


class TestPredictLinear:
    def test_dot_product(self):
        w = np.array([1.0, 0.0, -2.0])
        x = SparseVector([0, 2], [2.0, 1.5])
        assert predict_linear(w, x) == 2.0 - 3.0

    def test_dimension_mismatch(self):
        w = np.zeros(2)
        x = SparseVector([5], [1.0])
        with pytest.raises(DimensionMismatchError):
            predict_linear(w, x)

    @settings(max_examples=50, deadline=None)
    @given(alpha=st.floats(min_value=-10, max_value=10, allow_nan=False),
           seed=st.integers(min_value=0, max_value=1000))
    def test_linearity(self, alpha, seed):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=8)
        x = SparseVector([0, 3, 7], rng.normal(size=3).tolist())
        lhs = predict_linear(alpha * w, x)
        rhs = alpha * predict_linear(w, x)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestLosses:
    def test_hinge_values(self):
        assert hinge_loss(1, 0.3) == pytest.approx(0.7)
        assert hinge_loss(1, 1.0) == 0.0
        assert hinge_loss(-1, -2.0) == 0.0
        assert hinge_loss(-1, 0.5) == pytest.approx(1.5)

    @settings(max_examples=100, deadline=None)
    @given(y=st.sampled_from([-1, 1]),
           s=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    def test_hinge_nonnegative_and_zero_iff_margin(self, y, s):
        ell = hinge_loss(y, s)
        assert ell >= 0.0
        assert (ell == 0.0) == (y * s >= 1.0)


def test_passive_eps_is_small():
    assert 0.0 < PASSIVE_EPS <= 1e-12


class TestRowAdds:
    # reference forms that re-read the committed row, bit for bit; the large
    # coordinates absorb part of each increment, so the realized change is
    # not coef^2 * ||x||^2
    def test_sparse_add_matches_reference(self):
        rng = np.random.default_rng(5)
        row = rng.normal(size=12) * 1e8
        x = SparseVector([1, 4, 9], rng.normal(size=3).tolist())
        ref = row.copy()
        old = ref[x.indices]
        ref[x.indices] = old + 0.37 * x.values
        expected = float(np.sum((ref[x.indices] - old) ** 2))
        assert sparse_add(row, x, 0.37) == expected
        assert np.array_equal(row, ref)

    def test_dense_add_matches_reference(self):
        rng = np.random.default_rng(6)
        row = rng.normal(size=12) * 1e8
        v = rng.normal(size=12)
        ref = row.copy()
        ref += -0.61 * v
        expected = float(np.sum((ref - row) ** 2))
        assert dense_add(row, v, -0.61) == expected
        assert np.array_equal(row, ref)

    def test_unaudited_adds_store_the_same_bits_and_report_zero(self):
        rng = np.random.default_rng(7)
        x = SparseVector([0, 3, 5, 11], rng.normal(size=4).tolist())
        v = rng.normal(size=12)
        for coef in (0.37, -1e-9, 3e7):
            row = rng.normal(size=12) * 1e8
            audited, unaudited = row.copy(), row.copy()
            sparse_add(audited, x, coef)
            assert sparse_add(unaudited, x, coef, False) == 0.0
            assert audited.tobytes() == unaudited.tobytes()
            dense_add(audited, v, coef)
            assert dense_add(unaudited, v, coef, False) == 0.0
            assert audited.tobytes() == unaudited.tobytes()


class TestDowndate:
    def test_in_place_matches_outer_product_form(self):
        # the reference form that built a new matrix, bit for bit
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 6))
        sigma = a @ a.T + 6.0 * np.eye(6)
        sx = 0.3 * rng.normal(size=6)
        expected = sigma - 0.25 * np.outer(sx, sx)
        assert downdate(sigma, sx, 0.25) is None
        assert np.array_equal(sigma, expected)

    def test_rejected_update_leaves_sigma_untouched(self):
        sigma = np.eye(2)
        with pytest.raises(NumericalDegeneracyError):
            downdate(sigma, np.array([1.0, 0.0]), 2.0)
        assert np.array_equal(sigma, np.eye(2))


class TestCwStep:
    @pytest.mark.parametrize("v", [-1.99e-22, -PASSIVE_EPS, -0.0, 0.0])
    def test_rounding_level_confidence_is_passive(self, v):
        # |v| <= PASSIVE_EPS: no step, although the margin -0.5 falls short
        assert cw_step(cw_alpha, -0.5, v, 1.0, HyperParams()) == (0.0, 0.0)

    @pytest.mark.parametrize("v", [-2.0 * PASSIVE_EPS, -1.0, float("nan")])
    def test_negative_or_nan_confidence_raises(self, v):
        with pytest.raises(NumericalDegeneracyError, match="positive definiteness"):
            cw_step(cw_alpha, -0.5, v, 1.0, HyperParams())
