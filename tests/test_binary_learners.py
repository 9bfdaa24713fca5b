"""Binary learner catalog: hand-checked update values plus the structural
invariants every kind must keep (mistake-driven gating, margin attainment,
covariance health, honest delta reporting)."""
from __future__ import annotations

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from multiupdate.binary import BINARY_KINDS, make_binary
from multiupdate.core import PASSIVE_EPS, SparseVector
from multiupdate.data import parse_text
from multiupdate.errors import ConfigError
from multiupdate.params import HyperParams

from conftest import learner_state, same_state, separable_instances

HP = HyperParams()

FIRST_ORDER = ("Perceptron", "PA", "PA1", "PA2", "OGD", "ALMA", "ROMMA", "aROMMA")
SECOND_ORDER = ("CW", "SCW1", "SCW2", "AROW", "NAROW", "NHERD", "IELLIP")
MISTAKE_DRIVEN = ("Perceptron", "ROMMA", "SOP", "IELLIP")


def vec(*pairs) -> SparseVector:
    """SparseVector from (1-based index, value) pairs, matching file notation."""
    idx = [i - 1 for i, _ in pairs]
    val = [v for _, v in pairs]
    return SparseVector(idx, val)


def step_size(before: np.ndarray, after: np.ndarray, x: SparseVector, y: int,
              direction: np.ndarray | None = None) -> float:
    """The step read off the state: after = before + tau*y*direction, where
    direction is x unless given (Sigma x for the confidence-weighted kinds)."""
    u = np.zeros(len(before))
    u[x.indices] = x.values
    if direction is None:
        direction = u
    return y * float((after - before) @ u) / float(direction @ u)


def audited(learner) -> np.ndarray:
    """Copy of the state vector whose norm the learner reports."""
    if hasattr(learner, "mu"):
        return np.array(learner.mu, copy=True)
    if hasattr(learner, "w"):
        return np.array(learner.w, copy=True)
    return np.array(learner.v, copy=True)


@functools.lru_cache(maxsize=None)
def _noisy_stream(n, d):
    """Shared nonseparable stream (cached: generation dominates the test)."""
    return tuple(separable_instances(n, d, seed=9, margin=0.05, noise=0.2))


def drive(kind, instances, d, hp=HP, m=1):
    """Run a learner over instances (m cycles each), collecting
    (before, info, after) snapshots of the audited vector for every step."""
    learner = make_binary(kind, d, hp)
    steps = []
    for x, y in instances:
        learner.begin_instance()
        for _ in range(m):
            before = audited(learner)
            info = learner.step(x, y)
            steps.append((before, info, audited(learner)))
            if not info.triggered:
                break
    return learner, steps


class TestCatalog:
    def test_sixteen_kinds(self):
        assert set(BINARY_KINDS) == {
            "Perceptron", "PA", "PA1", "PA2", "OGD", "ALMA", "ROMMA", "aROMMA",
            "SOP", "CW", "AROW", "NAROW", "NHERD", "SCW1", "SCW2", "IELLIP",
        }

    def test_unknown_kind(self):
        with pytest.raises(ConfigError, match="unknown binary learner"):
            make_binary("SVM", 3, HP)

    def test_bad_dimension(self):
        for d in (0, -1):
            with pytest.raises(ConfigError, match="dimension"):
                make_binary("PA", d, HP)

    @pytest.mark.parametrize("kind", sorted(BINARY_KINDS))
    def test_fresh_state(self, kind):
        learner = make_binary(kind, 4, HP)
        assert learner.t == 0
        assert learner.primary_norm() == 0.0
        assert learner.score(vec((1, 1.0), (3, -2.0))) == 0.0
        learner.begin_instance()
        assert learner.t == 1

    def test_arow_initial_covariance(self):
        learner = make_binary("AROW", 3, HP)
        assert np.array_equal(learner.sigma, np.eye(3))
        assert np.array_equal(learner.mu, np.zeros(3))

    @pytest.mark.parametrize("kind", sorted(BINARY_KINDS))
    def test_zero_instance_is_passive(self, kind):
        learner = make_binary(kind, 3, HP)
        learner.begin_instance()
        info = learner.step(SparseVector([], []), +1)
        assert not info.triggered
        assert info.delta_sq_norm == 0.0
        assert learner.primary_norm() == 0.0

    @pytest.mark.parametrize("kind", sorted(BINARY_KINDS))
    def test_empty_row_after_updates_scores_zero_and_is_passive(self, kind):
        # the empty row is parsed next to a nonzero one, as a file delivers it
        (x, _), (empty, _) = parse_text("+1 1:0.5 2:-1\n-1\n").instances
        assert empty.indices.size == 0
        learner = make_binary(kind, 3, HP)
        for y in (+1, -1, +1):
            learner.begin_instance()
            learner.step(x, y)
        assert learner.primary_norm() > 0.0
        assert learner.score(empty) == 0.0
        before = learner_state(learner)
        for y in (+1, -1):
            learner.begin_instance()
            before["t"] += 1
            assert learner.step(empty, y) == (False, True, 0.0)
            assert same_state(learner_state(learner), before)


class TestHandValues:
    """Single-update values checked by hand against the closed forms."""

    def test_pa_from_zero(self):
        learner = make_binary("PA", 2, HP)
        learner.begin_instance()
        x = vec((1, 2.0))
        assert max(0.0, 1.0 - learner.score(x)) == 1.0
        info = learner.step(x, +1)
        assert info.triggered and info.mispredicted
        assert step_size(np.zeros(2), learner.w, x, +1) == pytest.approx(0.25)
        assert learner.w[0] == pytest.approx(0.5)
        assert learner.w[1] == 0.0
        assert info.delta_sq_norm == pytest.approx(0.25)
        # the uncapped step lands exactly on margin 1
        assert learner.score(x) == pytest.approx(1.0)

    def test_pa_second_cycle_is_passive(self):
        # regression: an exactly-attained margin must not re-trigger a
        # zero-size update on the next cycle of the same instance
        learner = make_binary("PA", 2, HP)
        learner.begin_instance()
        x = vec((1, 2.0))
        assert learner.step(x, +1).triggered
        again = learner.step(x, +1)
        assert not again.triggered
        assert again.delta_sq_norm == 0.0

    def test_pa1_caps_at_C(self):
        learner = make_binary("PA1", 1, HP.replace(C=0.1))
        learner.begin_instance()
        learner.step(vec((1, 1.0)), +1)
        assert step_size(np.zeros(1), learner.w, vec((1, 1.0)), +1) == pytest.approx(0.1)
        assert learner.w[0] == pytest.approx(0.1)

    def test_pa2_damped_step(self):
        learner = make_binary("PA2", 1, HP.replace(C=1.0))
        learner.begin_instance()
        learner.step(vec((1, 1.0)), +1)
        assert step_size(np.zeros(1), learner.w, vec((1, 1.0)), +1) == pytest.approx(2.0 / 3.0)

    def test_ogd_rate_uses_outer_clock(self):
        learner = make_binary("OGD", 1, HP.replace(eta0=1.0))
        for _ in range(4):
            learner.begin_instance()
        assert learner.t == 4
        learner.step(vec((1, 1.0)), +1)
        # 1/sqrt(4)
        assert step_size(np.zeros(1), learner.w, vec((1, 1.0)), +1) == pytest.approx(0.5)
        assert learner.w[0] == pytest.approx(0.5)

    def test_perceptron_passive_on_correct_sign(self):
        learner = make_binary("Perceptron", 1, HP)
        learner.begin_instance()
        learner.step(vec((1, 1.0)), +1)  # w = (1)
        assert learner.w[0] == 1.0
        info = learner.step(vec((1, 1.0)), +1)
        assert not info.triggered
        assert learner.w[0] == 1.0

    def test_arow_closed_form(self):
        learner = make_binary("AROW", 3, HP.replace(arow_r=1.0))
        learner.begin_instance()
        x = vec((1, 1.0))
        assert max(0.0, 1.0 - learner.score(x)) == 1.0
        sigma_x = learner.sigma[:, 0].copy()
        info = learner.step(x, +1)
        assert info.triggered
        # alpha = loss * beta = 0.5, along the old Sigma x
        assert step_size(np.zeros(3), learner.mu, x, +1, sigma_x) == pytest.approx(0.5)
        assert learner.mu[0] == pytest.approx(0.5)
        assert learner.mu[1] == 0.0
        assert learner.sigma[0, 0] == pytest.approx(0.5)
        assert learner.sigma[0, 1] == 0.0
        assert learner.sigma[1, 1] == 1.0

    def test_sop_first_mistake(self):
        learner = make_binary("SOP", 2, HP.replace(sop_a=1.0))
        learner.begin_instance()
        x = vec((1, 1.0))
        info = learner.step(x, +1)
        assert info.triggered and info.mispredicted
        assert list(learner.v) == [1.0, 0.0]
        # implied weight (S + aI)^-1 v has first entry 1/(1+1)
        assert learner.score(x) == pytest.approx(0.5)

    def test_romma_bootstraps_as_perceptron(self):
        learner = make_binary("ROMMA", 2, HP)
        learner.begin_instance()
        info = learner.step(vec((1, 2.0)), +1)
        assert info.triggered
        # plain additive step from w = 0
        assert step_size(np.zeros(2), learner.w, vec((1, 2.0)), +1) == 1.0
        assert learner.w[0] == 2.0

    def test_cw_attains_confidence_margin(self):
        hp = HP
        learner = make_binary("CW", 2, hp)
        learner.begin_instance()
        x = vec((1, 1.0))
        info = learner.step(x, +1)
        assert info.triggered
        # after the exact closed-form step the margin meets phi * stdev
        from multiupdate.numerics import inv_norm_cdf
        phi = inv_norm_cdf(hp.cw_eta)
        sx = learner.sigma[:, x.indices] @ x.values
        v = float(sx[x.indices] @ x.values)
        assert learner.score(x) == pytest.approx(phi * math.sqrt(v), abs=1e-12)
        # and the next cycle is passive
        assert not learner.step(x, +1).triggered


# --- property tests -------------------------------------------------------

finite = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)


def _dense_to_sparse(values):
    idx = [i for i, v in enumerate(values) if v != 0.0]
    return SparseVector(idx, [values[i] for i in idx])


@st.composite
def sparse_vec(draw, d=6, min_norm=1e-3):
    values = draw(st.lists(finite, min_size=d, max_size=d))
    x = _dense_to_sparse(values)
    assume(x.squared_norm() >= min_norm)
    return x


class TestProperties:
    @given(w=st.lists(finite, min_size=6, max_size=6), x=sparse_vec(),
           y=st.sampled_from((-1, 1)))
    @settings(max_examples=80, deadline=None)
    def test_pa_post_update_margin_is_one(self, w, x, y):
        learner = make_binary("PA", 6, HP)
        learner.w[:] = w
        learner.begin_instance()
        info = learner.step(x, y)
        assume(info.triggered)
        assert y * learner.score(x) == pytest.approx(1.0, abs=1e-9)

    @given(w=st.lists(finite, min_size=6, max_size=6), x=sparse_vec(),
           y=st.sampled_from((-1, 1)),
           C=st.floats(min_value=1e-3, max_value=10.0))
    @settings(max_examples=80, deadline=None)
    def test_pa1_tau_bounded_by_C(self, w, x, y, C):
        # the new state is w + tau*y*x with tau = min(C, loss/||x||^2), loss
        # taken before the step, bit for bit: a step never exceeds C
        learner = make_binary("PA1", 6, HP.replace(C=C))
        learner.w[:] = w
        learner.begin_instance()
        loss = max(0.0, 1.0 - y * learner.score(x))
        info = learner.step(x, y)
        if info.triggered:
            tau = min(C, loss / x.squared_norm())
            dense = np.zeros(6)
            dense[x.indices] = x.values
            assert 0.0 <= tau <= C
            assert np.array_equal(learner.w, np.array(w) + tau * y * dense)
        else:
            assert np.array_equal(learner.w, np.array(w))

    @pytest.mark.parametrize("kind", MISTAKE_DRIVEN)
    @given(w=st.lists(finite, min_size=6, max_size=6), x=sparse_vec(),
           y=st.sampled_from((-1, 1)))
    @settings(max_examples=60, deadline=None)
    def test_mistake_driven_gating(self, kind, w, x, y):
        learner = make_binary(kind, 6, HP)
        if hasattr(learner, "w"):
            learner.w[:] = w
        else:
            # state built by genuine updates for the matrix-backed kinds
            learner.begin_instance()
            learner.step(_dense_to_sparse(w), +1)
        learner.begin_instance()
        score = learner.score(x)
        before = audited(learner)
        info = learner.step(x, y)
        if info.triggered:
            assert y * score <= 0.0
        if y * score > 0.0:
            assert not info.triggered
            assert np.array_equal(before, audited(learner))

    def test_alma_stays_in_unit_ball(self):
        instances = separable_instances(300, 8, seed=5, margin=0.05, noise=0.1)
        learner, steps = drive("ALMA", instances, 8)
        assert any(info.triggered for _, info, _ in steps)
        for _, info, after in steps:
            if info.triggered:
                assert float(np.linalg.norm(after)) <= 1.0 + 1e-12

    def test_arow_loewner_monotone_confidence(self):
        d = 20
        rng = np.random.default_rng(7)
        learner = make_binary("AROW", d, HP)
        instances = separable_instances(60, d, seed=3, margin=0.05, noise=0.15)
        checked = 0
        for x, y in instances:
            learner.begin_instance()
            before = learner.sigma.copy()
            if learner.step(x, y).triggered:
                diff = before - learner.sigma
                for _ in range(100):
                    u = rng.normal(size=d)
                    assert float(u @ diff @ u) >= -1e-10
                checked += 1
        assert checked > 10

    @pytest.mark.parametrize("kind", SECOND_ORDER)
    def test_covariance_symmetric_positive_definite(self, kind):
        # Long noisy stream so even the mistake-driven kinds accumulate well
        # over a thousand covariance updates before the health check. IELLIP's
        # global shrink factor is softened: at the default 0.3 the confidence
        # x^T Sigma x underflows the passive epsilon after ~30 updates and the
        # learner goes quiet, which would starve this long-horizon check.
        d = 20
        hp = HP.replace(iellip_b=0.999) if kind == "IELLIP" else HP
        learner, steps = drive(kind, _noisy_stream(5000, d), d, hp=hp)
        assert sum(info.triggered for _, info, _ in steps) >= 1000
        sig = learner.sigma
        # exact, not approximate: SigmaCycle.sigma_x reads rows in place of columns
        assert np.array_equal(sig, sig.T)
        np.linalg.cholesky(sig)  # raises LinAlgError if not positive definite

    def test_sop_regularized_gram_positive_definite(self):
        d = 12
        instances = separable_instances(120, d, seed=9, margin=0.05, noise=0.15)
        learner, _ = drive("SOP", instances, d)
        # P = (S + aI)^-1 starts at I/a and only loses symmetric rank-1 terms
        P = learner._P
        assert np.array_equal(P, P.T)
        np.linalg.cholesky(P)  # raises LinAlgError if not positive definite

    @pytest.mark.parametrize("kind", sorted(BINARY_KINDS))
    def test_delta_sq_norm_matches_state_change(self, kind):
        d = 10
        instances = separable_instances(150, d, seed=13, margin=0.05, noise=0.1)
        _, steps = drive(kind, instances, d, m=2)
        triggered = 0
        for before, info, after in steps:
            actual = float(np.sum((after - before) ** 2))
            if info.triggered:
                triggered += 1
                assert info.delta_sq_norm == pytest.approx(actual, rel=1e-12, abs=1e-24)
            else:
                assert actual == 0.0
                assert info.delta_sq_norm == 0.0
        assert triggered > 0, f"{kind} never updated on the noisy stream"


@pytest.mark.parametrize("d", (8, 80))
def test_sop_matches_plain_solve_reference(d):
    # SOP keeps P = (S + aI)^-1 by Sherman-Morrison updates. A plain SOP that
    # accumulates S and solves (S + aI) w = v after each update, run through
    # the same m-cycle loop on the same stream, is the reference for every
    # instance's update count and for the weight vector after it.
    from multiupdate.engine import LoopConfig, process_instance

    m = 4
    instances = separable_instances(150, d, seed=31, margin=0.05, noise=0.2)
    learner = make_binary("SOP", d, HP)
    v, S, w = np.zeros(d), np.zeros((d, d)), np.zeros(d)
    total = 0
    for x, y in instances:
        u = np.zeros(d)
        u[x.indices] = x.values
        expected = 0
        for _ in range(m):
            if y * float(w @ u) > 0 or float(u @ u) <= PASSIVE_EPS:
                break
            v += y * u
            S += np.outer(u, u)
            w = np.linalg.solve(S + HP.sop_a * np.eye(d), v)
            expected += 1
        assert process_instance(learner, x, y, LoopConfig(m=m)).updates == expected
        assert np.linalg.norm(learner._w - w) <= 1e-12 * np.linalg.norm(w)
        total += expected
    assert total > 50
