from __future__ import annotations

import numpy as np
import pytest

from multiupdate.core import (PASSIVE_EPS, SigmaCycle, SparseVector, arow_rule, cw_alpha,
                              cw_step, dense_add, narow_rule, nherd_rule, sparse_add)
from multiupdate.data import parse_text
from multiupdate.errors import NumericalDegeneracyError
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

    @pytest.mark.parametrize("index", [0.5, 2.7, np.nan, np.inf, -np.inf, 1e20])
    def test_non_integral_index_rejected(self, index):
        with np.errstate(all="raise"):
            with pytest.raises(ValueError, match="must be integers"):
                SparseVector([0.0, index], [1.0, 2.0])

    def test_index_past_64_bits_rejected(self):
        # a Python int past int64 makes an object array, whose cast overflows
        with pytest.raises(ValueError, match="64 bits"):
            SparseVector([1, 2 ** 70], [1.0, 1.0])

    @pytest.mark.parametrize("indices", [[2 ** 63], [2 ** 64 - 1], [1, 2 ** 63]],
                             ids=["2**63", "2**64-1", "1,2**63"])
    def test_index_past_int64_gets_the_64_bits_message(self, indices):
        # numpy holds these as uint64, whose cast wraps negative, or as float64
        with pytest.raises(ValueError, match="^feature indices must fit in 64 bits$"):
            SparseVector(indices, [1.0] * len(indices))

    def test_integral_float_indices_accepted(self):
        x = SparseVector([0.0, 2.0, 5.0], [1.0, -2.0, 0.5])
        assert x.indices.dtype == np.int64
        assert x == SparseVector([0, 2, 5], [1.0, -2.0, 0.5])
        assert SparseVector(np.array([]), np.array([])).max_index == -1

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SparseVector([0, 1], [1.0])

    def test_squared_norm(self):
        x = SparseVector([0, 3], [3.0, 4.0])
        assert x.squared_norm() == 25.0

    def test_pairs(self):
        x = SparseVector([1, 4], [0.5, -1.5])
        assert list(x.pairs()) == [(1, 0.5), (4, -1.5)]

    def test_sel_is_a_slice_exactly_for_a_full_prefix(self):
        # the constructor and the parser's rows: full prefix, empty, a gap,
        # a leading empty column, and a gap left by a dropped explicit zero
        text = "+1 1:1 2:2 3:3\n-1\n+1 1:1 3:3\n-1 2:1 3:2\n+1 1:1 2:0 3:3\n"
        parsed = [x for x, _ in parse_text(text).instances]
        built = [SparseVector([0, 1, 2], [1.0, 2.0, 3.0]), SparseVector([], []),
                 SparseVector([0, 2], [1.0, 3.0]), SparseVector([1, 2], [1.0, 2.0]),
                 SparseVector([0, 1, 2], [1.0, 0.0, 3.0])]
        for rows in (parsed, built):
            full, empty, gap, leading, dropped = rows
            assert full.sel == slice(0, 3)
            assert empty.sel == slice(0, 0)
            for x in (gap, leading, dropped):
                assert x.sel is x.indices
            w = np.arange(1.0, 5.0)
            for x in rows:
                assert np.array_equal(w[x.sel], w[x.indices])


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
        assert sparse_add(row, x, 0.37, True) == expected
        assert np.array_equal(row, ref)

    def test_dense_add_matches_reference(self):
        rng = np.random.default_rng(6)
        row = rng.normal(size=12) * 1e8
        v = rng.normal(size=12)
        ref = row.copy()
        ref += -0.61 * v
        expected = float(np.sum((ref - row) ** 2))
        plain = row.copy()
        assert dense_add(row, -0.61 * v, True) == expected
        assert np.array_equal(row, ref)
        # unaudited: the same sums, and no measurement
        assert dense_add(plain, -0.61 * v, False) == 0.0
        assert plain.tobytes() == ref.tobytes()

    def test_sparse_add_on_a_full_prefix_row_matches_reference(self):
        # x.sel is a slice, so the row's old values are a view: the change
        # must be read before the new values are stored over them
        rng = np.random.default_rng(8)
        row = rng.normal(size=12) * 1e8
        x = SparseVector(np.arange(7), rng.normal(size=7))
        assert x.sel == slice(0, 7)
        ref = row.copy()
        old = ref[x.indices]
        ref[x.indices] = old + 0.37 * x.values
        expected = float(np.sum((ref[x.indices] - old) ** 2))
        assert expected > 0.0
        assert sparse_add(row, x, 0.37, True) == expected
        assert np.array_equal(row, ref)

    def test_unaudited_adds_store_the_same_bits_and_report_zero(self):
        rng = np.random.default_rng(7)
        x = SparseVector([0, 3, 5, 11], rng.normal(size=4).tolist())
        for coef in (0.37, -1e-9, 3e7):
            row = rng.normal(size=12) * 1e8
            audited, unaudited = row.copy(), row.copy()
            sparse_add(audited, x, coef, True)
            assert sparse_add(unaudited, x, coef, False) == 0.0
            assert audited.tobytes() == unaudited.tobytes()


class TestDowndate:
    def test_in_place_matches_outer_product_form(self):
        # the reference form that built a new matrix, bit for bit
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 6))
        sigma = a @ a.T + 6.0 * np.eye(6)
        sx = 0.3 * rng.normal(size=6)
        expected = sigma - 0.25 * np.outer(sx, sx)
        cycle = SigmaCycle(sigma)
        cycle.sx[...] = sx
        assert cycle.downdate(0.25) is None
        assert np.array_equal(sigma, expected)

    def test_rejected_update_leaves_sigma_untouched(self):
        sigma = np.eye(2)
        cycle = SigmaCycle(sigma)
        cycle.sx[...] = [1.0, 0.0]
        with pytest.raises(NumericalDegeneracyError):
            cycle.downdate(2.0)
        assert np.array_equal(sigma, np.eye(2))


class TestCwStep:
    @pytest.mark.parametrize("v", [-1.99e-22, -PASSIVE_EPS, -0.0, 0.0])
    def test_rounding_level_confidence_is_passive(self, v):
        # |v| <= PASSIVE_EPS: no step, although the margin -0.5 falls short
        assert cw_step(cw_alpha, -0.5, v, 1.0, HyperParams()) is None

    @pytest.mark.parametrize("v", [-2.0 * PASSIVE_EPS, -1.0, float("nan")])
    def test_negative_or_nan_confidence_raises(self, v):
        with pytest.raises(NumericalDegeneracyError, match="positive definiteness"):
            cw_step(cw_alpha, -0.5, v, 1.0, HyperParams())


class TestArowFamilyRules:
    @pytest.mark.parametrize("rule", [arow_rule, narow_rule, nherd_rule])
    @pytest.mark.parametrize("margin, v", [(1.0, 0.5), (2.0, 0.5), (0.0, PASSIVE_EPS), (0.0, 0.0)])
    def test_no_loss_or_no_confidence_is_passive(self, rule, margin, v):
        assert rule(margin, v, 1.0, HyperParams()) is None

    def test_arow_moves_the_mean_by_loss_times_beta(self):
        beta = 1.0 / (0.25 + 0.5)
        assert arow_rule(0.5, 0.25, 1.0, HyperParams(arow_r=0.5)) == (0.5 * beta, beta)

    @pytest.mark.parametrize("v, r", [(3.0, 3.0 / (2.0 * 3.0 - 1.0)), (0.25, 0.7)],
                             ids=["adaptive", "fixed"])
    def test_narow_regularizer_adapts_only_above_b_v_one(self, v, r):
        beta = 1.0 / (v + r)
        assert narow_rule(0.0, v, 1.0, HyperParams(arow_r=0.7, narow_b=2.0)) == (beta, beta)

    def test_nherd_contracts_sigma_by_its_own_factor(self):
        v, C = 0.5, 2.0
        beta = 1.0 / (v + 1.0 / C)
        assert nherd_rule(0.0, v, 1.0, HyperParams(C=C)) == (
            beta, (C * C * v + 2.0 * C) / (1.0 + C * v) ** 2)

    def test_nherd_factor_past_the_float_range_raises(self):
        with pytest.raises(NumericalDegeneracyError, match="overflows"):
            nherd_rule(0.0, 1e300, 1.0, HyperParams())
