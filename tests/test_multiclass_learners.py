"""Multiclass catalog: prototype-row updates, decoding rules, and the
reduction back to the binary learners at K=2."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiupdate.binary import make_binary
from multiupdate.core import SparseVector, hinge_loss, romma_coefs
from multiupdate.numerics import inv_norm_cdf
from multiupdate.errors import ConfigError
from multiupdate.multiclass import MULTICLASS_KINDS, make_multiclass
from multiupdate.params import HyperParams

from conftest import blob_instances, separable_instances

HP = HyperParams()

ADDITIVE = ("M_PA", "M_PA1", "M_PA2", "M_OGD",
            "M_PerceptronM", "M_PerceptronU", "M_PerceptronS")
SECOND_ORDER = ("M_CW", "M_SCW1", "M_SCW2", "M_AROW")


def vec(*pairs) -> SparseVector:
    idx = [i - 1 for i, _ in pairs]
    val = [v for _, v in pairs]
    return SparseVector(idx, val)


def row_step(before: np.ndarray, after: np.ndarray, x: SparseVector,
             direction: np.ndarray | None = None) -> float:
    """The step a row took, read off the state: after = before + tau*direction,
    where direction is x unless given (Sigma x for the shared-covariance kinds)."""
    u = np.zeros(len(before))
    u[x.indices] = x.values
    if direction is None:
        direction = u
    return float((after - before) @ u) / float(direction @ u)


def margin_loss(learner, x: SparseVector, y: int) -> float:
    """Multiclass hinge max(0, 1 - (s_y - max_{c != y} s_c)) at the current state."""
    s = learner.scores(x)
    return max(0.0, 1.0 - (s[y] - np.delete(s, y).max()))


class TestCatalog:
    def test_thirteen_kinds(self):
        assert set(MULTICLASS_KINDS) == {
            "M_PA", "M_PA1", "M_PA2", "M_OGD",
            "M_PerceptronM", "M_PerceptronU", "M_PerceptronS",
            "M_ROMMA", "M_aROMMA", "M_CW", "M_SCW1", "M_SCW2", "M_AROW",
        }

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown multiclass learner"):
            make_multiclass("M_SVM", 3, 2, HP)

    def test_bad_shapes(self):
        with pytest.raises(ConfigError, match="num_classes"):
            make_multiclass("M_PA", 1, 3, HP)
        with pytest.raises(ConfigError, match="dimension"):
            make_multiclass("M_PA", 3, 0, HP)

    @pytest.mark.parametrize("kind", sorted(MULTICLASS_KINDS))
    def test_fresh_state(self, kind):
        learner = make_multiclass(kind, 4, 3, HP)
        assert learner.W.shape == (4, 3)
        assert learner.primary_norm() == 0.0
        assert learner.t == 0
        learner.begin_instance()
        assert learner.t == 1

    @pytest.mark.parametrize("kind", sorted(MULTICLASS_KINDS))
    def test_zero_instance_is_passive(self, kind):
        learner = make_multiclass(kind, 3, 3, HP)
        learner.begin_instance()
        info = learner.step(SparseVector([], []), 1)
        assert not info.triggered
        assert learner.primary_norm() == 0.0


class TestPrediction:
    def test_zero_state_predicts_class_zero(self):
        learner = make_multiclass("M_PA", 3, 2, HP)
        assert learner.predict(vec((1, 1.0))) == 0

    def test_dot_products(self):
        learner = make_multiclass("M_PA", 2, 2, HP)
        learner.W[0] = (1.0, 0.0)
        learner.W[1] = (0.0, 1.0)
        x = vec((2, 2.0))
        assert list(learner.scores(x)) == [0.0, 2.0]
        assert learner.predict(x) == 1

    def test_tie_breaks_to_lowest_index(self):
        learner = make_multiclass("M_PA", 3, 1, HP)
        learner.W[:, 0] = (5.0, 5.0, 1.0)
        assert learner.predict(vec((1, 1.0))) == 0

    @given(scale=st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
           seed=st.integers(min_value=0, max_value=999))
    @settings(max_examples=40, deadline=None)
    def test_argmax_shift_invariance(self, scale, seed):
        rng = np.random.default_rng(seed)
        learner = make_multiclass("M_PA", 5, 4, HP)
        learner.W[:] = rng.normal(size=(5, 4))
        x = vec((1, 1.0), (3, -0.5))
        before = learner.predict(x)
        # adding the same vector to every row shifts all scores equally
        learner.W += scale * rng.normal(size=4)
        assert learner.predict(x) == before


class TestHandValues:
    def test_mpa_from_zero(self):
        learner = make_multiclass("M_PA", 3, 1, HP)
        learner.begin_instance()
        x = vec((1, 1.0))
        assert margin_loss(learner, x, 2) == 1.0
        info = learner.step(x, 2)
        assert info.triggered and info.mispredicted
        # effective squared norm is doubled: tau = 1 / (2*1)
        assert row_step(np.zeros(1), learner.W[2], x) == pytest.approx(0.5)
        assert learner.W[2, 0] == pytest.approx(0.5)
        assert learner.W[0, 0] == pytest.approx(-0.5)   # runner-up was class 0
        assert learner.W[1, 0] == 0.0
        # post-update margin s_y - s_r = 0.5 - (-0.5) = 1
        s = learner.scores(x)
        assert s[2] - s[0] == pytest.approx(1.0)

    def test_mperceptron_u_uniform_allocation(self):
        learner = make_multiclass("M_PerceptronU", 4, 2, HP)
        learner.begin_instance()
        x = vec((1, 1.0), (2, 2.0))
        info = learner.step(x, 1)
        assert info.triggered
        # classes {0, 2, 3} all tie at 0 >= 0: each takes -x/3
        assert list(learner.W[1]) == [1.0, 2.0]
        for c in (0, 2, 3):
            assert learner.W[c, 0] == pytest.approx(-1.0 / 3.0)
            assert learner.W[c, 1] == pytest.approx(-2.0 / 3.0)

    def test_mperceptron_m_blames_single_row(self):
        learner = make_multiclass("M_PerceptronM", 4, 2, HP)
        learner.W[3, 0] = 2.0               # class 3 is the confident wrong answer
        learner.begin_instance()
        info = learner.step(vec((1, 1.0)), 1)
        assert info.triggered
        assert learner.W[1, 0] == 1.0
        assert learner.W[3, 0] == 1.0       # 2 - 1
        assert learner.W[0, 0] == 0.0
        assert learner.W[2, 0] == 0.0

    def test_mperceptron_s_tie_break_fallback(self):
        # strict variant: a tied-at-zero field has no strict violators, so
        # the fallback blames the single top wrong class (otherwise the zero
        # state could never be left at all)
        learner = make_multiclass("M_PerceptronS", 3, 1, HP)
        learner.begin_instance()
        info = learner.step(vec((1, 1.0)), 2)
        assert info.mispredicted and info.triggered
        assert list(learner.W[:, 0]) == [-1.0, 0.0, 1.0]

    def test_mperceptron_s_strict_set_when_ahead(self):
        # away from ties only strictly higher-scoring classes take blame:
        # class 1 ties the true class and must be left alone
        learner = make_multiclass("M_PerceptronS", 4, 1, HP)
        learner.W[:, 0] = (3.0, 1.0, 1.0, 2.0)
        learner.begin_instance()
        info = learner.step(vec((1, 1.0)), 2)
        assert info.triggered
        assert list(learner.W[:, 0]) == [2.5, 1.0, 2.0, 1.5]

    def test_mperceptron_passive_when_correct(self):
        learner = make_multiclass("M_PerceptronM", 3, 1, HP)
        learner.W[:, 0] = (0.0, 3.0, 0.0)
        learner.begin_instance()
        info = learner.step(vec((1, 1.0)), 1)
        assert not info.triggered
        assert list(learner.W[:, 0]) == [0.0, 3.0, 0.0]

    def test_marow_difference_vector_confidence(self):
        learner = make_multiclass("M_AROW", 3, 2, HP.replace(arow_r=1.0))
        learner.begin_instance()
        x = vec((1, 1.0))
        sigma_x = learner.sigma[:, 0].copy()
        info = learner.step(x, 2)
        assert info.triggered
        # v = 2 * x^T Sigma x = 2; beta = 1/(2+1); alpha = loss * beta = 1/3
        assert row_step(np.zeros(2), learner.W[2], x, sigma_x) == pytest.approx(1.0 / 3.0)
        assert learner.W[2, 0] == pytest.approx(1.0 / 3.0)
        assert learner.W[0, 0] == pytest.approx(-1.0 / 3.0)
        # shared-Sigma decrement runs at twice beta: Sigma'_11 = 1 - 2/3
        assert learner.sigma[0, 0] == pytest.approx(1.0 / 3.0)
        # so the difference-vector confidence lands on v - beta*v^2 = 2/3
        sx = learner.sigma[:, x.indices] @ x.values
        assert 2.0 * float(sx[x.indices] @ x.values) == pytest.approx(2.0 / 3.0)


class TestInvariants:
    @pytest.mark.parametrize("kind", ADDITIVE)
    def test_additive_updates_conserve_row_mass(self, kind):
        instances = blob_instances(150, 6, 4, seed=3, spread=3.0)
        learner = make_multiclass(kind, 4, 6, HP)
        triggered = 0
        for x, y in instances:
            learner.begin_instance()
            before = learner.W.sum(axis=0).copy()
            if learner.step(x, y).triggered:
                triggered += 1
                after = learner.W.sum(axis=0)
                assert np.allclose(before, after, atol=1e-12)
        assert triggered > 0

    def test_mpa_post_update_margin_is_one(self):
        instances = blob_instances(200, 5, 3, seed=8, spread=2.5)
        learner = make_multiclass("M_PA", 3, 5, HP)
        checked = 0
        for x, y in instances:
            learner.begin_instance()
            s_before = learner.scores(x)
            masked = s_before.copy()
            masked[y] = -np.inf
            r = int(np.argmax(masked))
            if learner.step(x, y).triggered:
                s = learner.scores(x)
                assert s[y] - s[r] == pytest.approx(1.0, abs=1e-9)
                checked += 1
        assert checked > 10

    def test_k2_matches_binary_pa(self):
        # the two-row update keeps W1 = -W0, so the class-1-minus-class-0
        # margin tracks the binary score exactly and the loss/trigger
        # sequences coincide; the one convention gap is a score of exactly 0,
        # which the binary side always counts as a mistake while the
        # multiclass tie-break resolves to class 0 (correct when y is 0)
        instances = separable_instances(250, 7, seed=21, margin=0.05, noise=0.1)
        binary = make_binary("PA", 7, HP)
        multi = make_multiclass("M_PA", 2, 7, HP)
        for x, y in instances:
            label = 0 if y < 0 else 1
            binary.begin_instance()
            multi.begin_instance()
            score = binary.score(x)
            b_loss, m_loss = hinge_loss(y, score), margin_loss(multi, x, label)
            w, W = binary.w.copy(), multi.W.copy()
            b_info = binary.step(x, y)
            m_info = multi.step(x, label)
            assert b_info.triggered == m_info.triggered
            # separate dot-product kernels (vector vs matrix) may differ by
            # an ulp, so exact bit equality is not promised across the two
            assert m_loss == pytest.approx(b_loss, rel=1e-12, abs=1e-15)
            if b_info.triggered:
                tau = y * row_step(w, binary.w, x)
                assert row_step(W[label], multi.W[label], x) == pytest.approx(tau / 2.0,
                                                                             rel=1e-12)
            if score != 0.0:
                assert b_info.mispredicted == m_info.mispredicted
        assert np.allclose(multi.W[1], -multi.W[0], atol=1e-12)

    @pytest.mark.parametrize("kind", SECOND_ORDER)
    def test_shared_covariance_stays_healthy(self, kind):
        instances = blob_instances(150, 6, 4, seed=5, spread=3.0)
        learner = make_multiclass(kind, 4, 6, HP)
        updates = 0
        for x, y in instances:
            learner.begin_instance()
            if learner.step(x, y).triggered:
                updates += 1
        assert updates > 0
        sig = learner.sigma
        # exact, not approximate: core.sigma_x gathers rows in place of columns
        assert np.array_equal(sig, sig.T)
        np.linalg.cholesky(sig)

    @pytest.mark.parametrize("kind", sorted(MULTICLASS_KINDS))
    def test_delta_sq_norm_matches_state_change(self, kind):
        instances = blob_instances(150, 6, 4, seed=17, spread=3.0)
        learner = make_multiclass(kind, 4, 6, HP)
        triggered = 0
        for x, y in instances:
            learner.begin_instance()
            for _ in range(2):
                before = learner.W.copy()
                info = learner.step(x, y)
                actual = float(np.sum((learner.W - before) ** 2))
                if info.triggered:
                    triggered += 1
                    assert info.delta_sq_norm == pytest.approx(actual, rel=1e-12, abs=1e-24)
                else:
                    assert actual == 0.0
                    break
        assert triggered > 0, f"{kind} never updated"

    def test_mcw_second_cycle_passive_at_k2(self):
        # with only one competitor the closed form attains the confidence
        # margin exactly, so repeating the cycle must not re-fire
        learner = make_multiclass("M_CW", 2, 2, HP)
        learner.begin_instance()
        x = vec((1, 1.0))
        assert learner.step(x, 1).triggered
        assert not learner.step(x, 1).triggered

    def test_mcw_repeat_cycles_settle_other_competitors(self):
        # at K > 2 the first update only settles the margin against the old
        # runner-up; the next cycle may legitimately fire against a different
        # class — this is exactly how repeat cycles help the multiclass kinds
        learner = make_multiclass("M_CW", 3, 2, HP)
        learner.begin_instance()
        x = vec((1, 1.0))
        phi = inv_norm_cdf(HP.cw_eta)

        def shortfall():
            # CW loss of the difference vector against the current runner-up
            s = learner.scores(x)
            v = 2.0 * float(learner.sigma[0, 0])
            return max(0.0, phi * np.sqrt(v) - (s[2] - max(s[0], s[1])))

        first_loss = shortfall()
        first = learner.step(x, 2)
        assert first.triggered
        second_loss = shortfall()
        second = learner.step(x, 2)
        assert second.triggered            # class 1 still sits at score 0
        assert second_loss < first_loss
        third = learner.step(x, 2)
        for _ in range(20):
            if not third.triggered:
                break
            third = learner.step(x, 2)
        assert not third.triggered         # the loop does close


TWINS = (("PA", "M_PA"), ("CW", "M_CW"), ("SCW1", "M_SCW1"), ("SCW2", "M_SCW2"),
         ("AROW", "M_AROW"), ("ROMMA", "M_ROMMA"), ("aROMMA", "M_aROMMA"))


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    """Norm-wise relative distance of a from b."""
    return float(np.linalg.norm(a - b)) / max(float(np.linalg.norm(b)), 1e-300)


class TestK2Twins:
    """At K=2 each multiclass kind below is its binary twin's rule on the
    difference vector. The binary learner starts at (mu, Sigma), the
    multiclass one at W[1] = mu/2, W[0] = -mu/2 and Sigma/2, and binary y=+1
    is class 1: the margins and confidences then agree, and after one cycle
    W[1] - W[0] is the binary mu' and twice the shared Sigma is the binary
    Sigma'. PA1, PA2, OGD and the Perceptron are not twins under this map."""

    @pytest.mark.parametrize("binary_kind,multi_kind", TWINS)
    def test_one_cycle_matches_the_binary_twin(self, binary_kind, multi_kind):
        rng = np.random.default_rng(11)
        fired = 0
        for _ in range(300):
            d = int(rng.integers(2, 9))
            x = rng.uniform(-3.0, 3.0, d)
            mu = rng.uniform(-1.0, 1.0, d)
            scales = rng.uniform(0.2, 2.0, d)
            y = int(rng.choice((-1, 1)))
            xs = SparseVector(range(d), x)
            if "ROMMA" in binary_kind:
                # the zero-weight/denominator fallback adds y*x on the binary
                # side but moves the difference by 2x: not a twin there
                wsq, xsq, margin = float(mu @ mu), float(x @ x), y * float(mu @ x)
                if (romma_coefs(xsq, wsq, margin) is None
                        or romma_coefs(2.0 * xsq, wsq / 2.0, margin) is None):
                    continue
            binary = make_binary(binary_kind, d, HP)
            multi = make_multiclass(multi_kind, 2, d, HP)
            if hasattr(binary, "sigma"):
                binary.mu[:] = mu
                binary.sigma[:] = np.diag(scales)
                multi.sigma[:] = np.diag(scales / 2.0)
            else:
                binary.w[:] = mu
            multi.W[1], multi.W[0] = mu / 2.0, -mu / 2.0
            binary.begin_instance()
            multi.begin_instance()
            b_info = binary.step(xs, y)
            m_info = multi.step(xs, 1 if y > 0 else 0)
            assert b_info.triggered == m_info.triggered
            fired += b_info.triggered
            state = binary.mu if hasattr(binary, "sigma") else binary.w
            assert _rel(multi.W[1] - multi.W[0], state) <= 1e-12
            if hasattr(binary, "sigma"):
                assert _rel(2.0 * multi.sigma, binary.sigma) <= 1e-12
        assert 20 <= fired <= 280, fired
