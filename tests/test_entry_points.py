"""Bit-for-bit references for the numpy entry points the learning cycle uses.

Each cycle reaches its BLAS routines and ufunc loops through the entry point
with the least dispatch (ndarray.dot, ndarray.argmax, a broadcast multiply,
math.sqrt of a ddot). These tests keep the plain forms (@, np.argmax,
np.multiply.outer, np.linalg.norm) as references and require equal bits at
several dimensions, on full-support and sparse rows.
"""
from __future__ import annotations

import numpy as np
import pytest

from multiupdate.binary import BINARY_KINDS, SOP, make_binary
from multiupdate.core import SigmaCycle, SparseVector
from multiupdate.errors import DimensionMismatchError, NumericalDegeneracyError
from multiupdate.multiclass import MULTICLASS_KINDS, make_multiclass
from multiupdate.params import HyperParams

DIMS = (1, 8, 21, 54)
K = 4


def _rows(d: int, seed: int, n: int = 6):
    """n full-support rows, then n rows on a random subset of the features."""
    rng = np.random.default_rng(seed)
    rows = [SparseVector(np.arange(d), rng.normal(size=d)) for _ in range(n)]
    for _ in range(n):
        idx = np.sort(rng.choice(d, size=max(1, d // 3), replace=False))
        rows.append(SparseVector(idx, rng.normal(size=idx.size)))
    return rows


def _symmetric(d: int, seed: int) -> np.ndarray:
    """An exactly symmetric, well-conditioned positive definite matrix."""
    a = np.random.default_rng(seed).normal(size=(d, d))
    m = a @ a.T / d
    return (m + m.T) / 2.0 + np.eye(d)


def _audited(learner) -> np.ndarray:
    for name in ("mu", "v", "W", "w"):
        if hasattr(learner, name):
            return getattr(learner, name)
    raise AssertionError(f"{learner.kind} has no audited vector")


def _scored(learner) -> np.ndarray:
    """The vector a binary kind predicts from: SOP's w = P v, mu, or w."""
    for name in ("_w", "mu", "w"):
        if hasattr(learner, name):
            return getattr(learner, name)
    raise AssertionError(f"{learner.kind} has no scored vector")


@pytest.mark.parametrize("audit", [True, False], ids=["audited", "unaudited"])
@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("kind", list(BINARY_KINDS))
def test_score_and_margin_match_matmul(kind, d, audit):
    # score and a step's margin read the same state: on full-support and
    # gathered rows, before the first step and after each one
    learner = make_binary(kind, d, HyperParams())
    learner.audit = audit
    state = _scored(learner)
    rows = _rows(d, d + 1)
    for i, x in enumerate(rows + rows[::-1]):
        assert x.squared_norm() == float(x.values @ x.values)
        s = learner.score(x)
        assert s == float(state[x.indices] @ x.values)
        for y in (-1, 1):
            assert learner._margin(x, y) == (y * s <= 0, y * s, y)
        learner.begin_instance()
        learner.step(x, 1 if i % 3 else -1)
    assert np.any(state)
    assert learner.score(SparseVector([], [])) == 0.0
    x = rows[-1]
    s = learner.score(x)
    for alpha in (2.0, -0.5):       # a power of two scales each product and sum exactly
        state *= alpha
        s *= alpha
        assert learner.score(x) == s
    with pytest.raises(DimensionMismatchError):
        learner.score(SparseVector([d], [1.0]))


@pytest.mark.parametrize("d", DIMS)
def test_sigma_x_matches_matmul(d):
    sigma = _symmetric(d, d)
    for x in _rows(d, d + 2):
        cycle = SigmaCycle(sigma)
        v = cycle.sigma_x(x)
        ref = sigma[:, x.indices] @ x.values
        assert np.array_equal(cycle.sx, ref)
        assert np.array_equal(cycle.sx, sigma.take(x.indices, axis=0).T @ x.values)
        assert v == float(ref[x.indices] @ x.values)


@pytest.mark.parametrize("d", DIMS)
def test_downdate_matches_outer_product(d):
    sigma = _symmetric(d, d + 3)
    for x in _rows(d, d + 4):
        cycle = SigmaCycle(sigma)
        v = cycle.sigma_x(x)
        coef = 0.5 / (1.0 + v)
        ref = sigma - coef * np.multiply.outer(cycle.sx, cycle.sx)
        assert cycle.downdate(coef) is None
        assert np.array_equal(sigma, ref)


@pytest.mark.parametrize("d", DIMS[1:])
def test_downdate_keeps_the_elementwise_bits_on_signed_zeros(d):
    # downdate forms sx sx^T with one BLAS product of sx[:, None] and
    # sx[None, :]. Each entry is one product (k = 1), rounded once on any
    # kernel, so it equals the elementwise sx_i * sx_j except perhaps in the
    # sign of a zero: 0 * (-1) is -0 elementwise, and a kernel may give +0.
    # Sigma never holds -0.0: it starts from np.eye and changes only by
    # subtraction (a - a is +0) and by *= b with b > 0. So Sigma - (+0) and
    # Sigma - (-0) give the same bits, and the diagonal check reads
    # s_i^2 >= +0 either way. Gathered rows on Sigma = I leave exact zeros in
    # sx beside the negative entries.
    gathered = [SparseVector(x.indices, np.abs(x.values) * np.resize([-1.0, 1.0], x.values.size))
                for x in _rows(d, d + 14) if not isinstance(x.sel, slice)]
    for a, b in zip(gathered, gathered[1:]):
        sigma = np.eye(d)
        ref = sigma.copy()
        cycle = SigmaCycle(sigma)
        for x in (a, b):
            v = cycle.sigma_x(x)
            sx = cycle.sx.copy()
            assert (sx == 0.0).any() and (sx < 0.0).any()
            coef = 0.5 / (1.0 + v)
            ref = ref - coef * np.multiply.outer(sx, sx)
            cycle.downdate(coef)
            assert sigma.tobytes() == ref.tobytes()
            assert not np.signbit(sigma[sigma == 0.0]).any()


@pytest.mark.parametrize("d", DIMS)
def test_bound_cycles_match_the_plain_forms_across_repeats(d):
    # one SigmaCycle keeps x's views of Sigma between cycles; repeats on one
    # row, a switch to another row and back must each read the current Sigma
    rows = _rows(d, d + 10)
    full = [x for x in rows if isinstance(x.sel, slice)][:2]
    gathered = [x for x in rows if not isinstance(x.sel, slice)][:2]
    assert len(full) == 2 and len(gathered) == (0 if d == 1 else 2)
    sigma = _symmetric(d, d + 11)
    cycle = SigmaCycle(sigma)
    order = [full[0]] * 3 + [full[1]] * 2 + [full[0]] * 2
    if gathered:
        order += [gathered[0]] * 2 + [full[0], gathered[1], gathered[0]]
    for x in order:
        ref = sigma[:, x.indices] @ x.values
        v = cycle.sigma_x(x)
        assert np.array_equal(cycle.sx, ref)
        assert v == float(ref[x.indices] @ x.values)
        coef = 0.5 / (1.0 + v)
        ref_sigma = sigma - coef * np.multiply.outer(ref, ref)
        cycle.downdate(coef)
        assert np.array_equal(sigma, ref_sigma)


MATRIX_KINDS = ["CW", "SCW1", "SCW2", "AROW", "NAROW", "NHERD", "IELLIP", "SOP",
                "M_CW", "M_SCW1", "M_SCW2", "M_AROW"]


@pytest.mark.parametrize("d", DIMS[1:])
@pytest.mark.parametrize("kind", MATRIX_KINDS)
def test_a_matrix_written_in_place_is_read_by_the_next_cycle(kind, d, monkeypatch):
    # Sigma (SOP's P) changes only in place, and the cycle keeps a slice
    # row's views of it while the row stays the same; a gathered row's copies
    # must not outlive their cycle. So a fresh matrix written in place between
    # two instances, or between two cycles of one instance, is what the next
    # cycle reads. A zero mean makes that cycle a mistake, so it reaches Sigma.
    sigma_x = SigmaCycle.sigma_x
    seen = []

    def spy(cycle, x):
        v = sigma_x(cycle, x)
        seen.append((cycle.sx.copy(), v))
        return v

    monkeypatch.setattr(SigmaCycle, "sigma_x", spy)
    rows = _rows(d, d + 12)
    for x in (rows[0], rows[-1]):       # a slice row, then a gathered one
        for next_instance in (True, False):
            learner = (make_multiclass(kind, K, d, HyperParams()) if kind.startswith("M_")
                       else make_binary(kind, d, HyperParams()))
            learner.begin_instance()
            learner.step(x, 1)
            assert seen
            new = _symmetric(d, d + 13)
            (learner._P if isinstance(learner, SOP) else learner.sigma)[...] = new
            for name in ("mu", "v", "_w", "W"):
                if hasattr(learner, name):
                    getattr(learner, name)[...] = 0.0
            if next_instance:
                learner.begin_instance()
            seen.clear()
            learner.step(x, 1)
            ref = new[:, x.indices] @ x.values
            assert len(seen) == 1
            assert np.array_equal(seen[0][0], ref)
            assert seen[0][1] == float(ref[x.indices] @ x.values)


@pytest.mark.parametrize("kind", ["AROW", "M_CW", "SOP"])
def test_rebinding_the_cycle_matrix_raises(kind):
    # the SigmaCycle keeps the matrix it was built with, so a new array bound
    # to sigma (or SOP's P) would be shown but never stepped: it is refused
    learner = (make_multiclass(kind, K, 3, HyperParams()) if kind.startswith("M_")
               else make_binary(kind, 3, HyperParams()))
    name = "_P" if kind == "SOP" else "sigma"
    matrix = getattr(learner, name)
    with pytest.raises(AttributeError):
        setattr(learner, name, np.eye(3))
    assert getattr(learner, name) is matrix is learner._cycle.sigma


@pytest.mark.parametrize("sx", [[np.nan, 2.0, 0.5], [0.5, 0.1, np.nan]])
def test_downdate_with_nan_raises_and_leaves_sigma(sx):
    # argmin picks the first NaN of the gap, and not NaN > 0 holds, so a NaN
    # raises whether or not it sits beside a negative gap
    sigma = np.eye(3)
    cycle = SigmaCycle(sigma)
    cycle.sx[...] = sx
    with pytest.raises(NumericalDegeneracyError):
        cycle.downdate(1.0)
    assert np.array_equal(sigma, np.eye(3))


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("kind", list(BINARY_KINDS))
def test_binary_primary_norm_matches_linalg_norm(kind, d):
    learner = make_binary(kind, d, HyperParams())
    for i, x in enumerate(_rows(d, d + 5)):
        learner.begin_instance()
        learner.step(x, 1 if i % 3 else -1)
    assert np.any(_audited(learner))
    assert learner.primary_norm() == float(np.linalg.norm(_audited(learner)))


@pytest.mark.parametrize("d", DIMS)
@pytest.mark.parametrize("kind", list(MULTICLASS_KINDS))
def test_multiclass_primary_norm_matches_linalg_norm(kind, d):
    learner = make_multiclass(kind, K, d, HyperParams())
    for i, x in enumerate(_rows(d, d + 6)):
        learner.begin_instance()
        learner.step(x, i % K)
    assert np.any(learner.W)
    assert learner.primary_norm() == float(np.linalg.norm(learner.W))


@pytest.mark.parametrize("d", DIMS)
def test_sop_step_matches_outer_and_matmul(d):
    learner = make_binary("SOP", d, HyperParams())
    assert isinstance(learner, SOP)
    fired = 0
    for i, x in enumerate(_rows(d, d + 7)):
        y = 1 if i % 2 else -1
        v, P = learner.v.copy(), learner._P.copy()
        learner.begin_instance()
        if not learner.step(x, y).triggered:
            continue
        fired += 1
        v[x.indices] += y * x.values
        px = P[:, x.indices] @ x.values
        P -= np.outer(px, px) * (1.0 / (1.0 + float(px[x.indices] @ x.values)))
        assert np.array_equal(learner.v, v)
        assert np.array_equal(learner._P, P)
        assert np.array_equal(learner._w, P @ v)
    assert fired


@pytest.mark.parametrize("d", DIMS)
def test_multiclass_scores_and_decoding_match_argmax(d):
    learner = make_multiclass("M_PA", K, d, HyperParams())
    learner.W[...] = np.random.default_rng(d + 8).normal(size=(K, d))
    for i, x in enumerate(_rows(d, d + 9)):
        y = i % K
        s = learner.scores(x)
        assert np.array_equal(s, learner.W[:, x.indices] @ x.values)
        assert learner.predict(x) == int(np.argmax(s))
        masked = s.copy()
        masked[y] = -np.inf
        assert learner._margin_parts(x, y)[1:] == (int(np.argmax(s)), int(np.argmax(masked)))


def test_tied_multiclass_scores_pick_the_lowest_index():
    learner = make_multiclass("M_PA", K, 2, HyperParams())
    learner.W[...] = [[0.0, 1.0], [1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]]
    x = SparseVector([0], [2.0])                  # scores 0, 2, 2, -2
    assert learner.predict(x) == 1
    _, pred, r = learner._margin_parts(x, 1)
    assert (pred, r) == (1, 2)
    _, pred, r = learner._margin_parts(x, 0)
    assert (pred, r) == (1, 1)
    assert learner._margin(x, 3) == (True, -4.0, 1)
