"""Inner-loop engine: cycle accounting, counting modes, early exit,
the accumulated-update norm bound, and closed-form oracles of the m-cycle loop."""
from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from multiupdate.binary import BINARY_KINDS, make_binary
from multiupdate.core import PASSIVE_EPS, SparseVector
from multiupdate.data import parse_text
from multiupdate.engine import (
    CountingMode,
    InstanceRecord,
    LoopConfig,
    check_norm_bound,
    process_instance,
    run_sequence,
    trace_records,
)
from multiupdate.errors import DataError, DimensionMismatchError, NumericalDegeneracyError
from multiupdate.multiclass import MULTICLASS_KINDS, make_multiclass
from multiupdate.params import HyperParams

from conftest import (INDEFINITE_LINES, blob_instances, learner_state, same_state,
                      separable_instances)

HP = HyperParams()


def vec(*pairs) -> SparseVector:
    idx = [i - 1 for i, _ in pairs]
    val = [v for _, v in pairs]
    return SparseVector(idx, val)


def make_record(*, w0: float, sum_delta_sq: float, w_star: float,
                updates: int) -> InstanceRecord:
    return InstanceRecord(mistake=updates > 0, updates=updates, cycles=max(updates, 1),
                          cycle_mispredictions=0, sum_delta_sq=sum_delta_sq,
                          w0_norm=w0, w_star_norm=w_star)


class TestLoopConfig:
    def test_defaults(self):
        cfg = LoopConfig()
        assert cfg.m == 1
        assert cfg.counting_mode is CountingMode.FIRST_PREDICTION

    def test_m_must_be_positive(self):
        with pytest.raises(ValueError, match="m must be"):
            LoopConfig(m=0)

    def test_mode_values(self):
        assert CountingMode.FIRST_PREDICTION.value == "first"
        assert CountingMode.PER_ITERATION.value == "periter"


class TestProcessInstance:
    def test_pa_converges_then_exits(self):
        learner = make_binary("PA", 1, HP)
        record = process_instance(learner, vec((1, 1.0)), +1, LoopConfig(m=3))
        # cycle 1 updates onto the margin, cycle 2 sees loss 0 and exits
        assert record.mistake
        assert record.updates == 1
        assert record.cycles == 2
        assert learner.score(vec((1, 1.0))) == pytest.approx(1.0)

    def test_fully_passive_instance(self):
        learner = make_binary("Perceptron", 1, HP)
        learner.w[0] = 1.0
        before_t = learner.t
        record = process_instance(learner, vec((1, 1.0)), +1, LoopConfig(m=32))
        assert not record.mistake
        assert record.updates == 0
        assert learner.w[0] == 1.0
        assert learner.t == before_t + 1   # clock still advances once

    def test_outer_clock_advances_once_per_instance(self):
        learner = make_binary("PA2", 2, HP)
        process_instance(learner, vec((1, 0.2)), +1, LoopConfig(m=8))
        assert learner.t == 1

    def test_updates_bounded_by_m(self):
        # PA2 never reaches the margin, so it never exits early and updates
        # every cycle: exactly m updates
        for m in (1, 2, 5):
            learner = make_binary("PA2", 1, HP)
            record = process_instance(learner, vec((1, 1.0)), +1, LoopConfig(m=m))
            assert record.updates == m
            assert record.cycles == m

    def test_per_iteration_fraction_hand_case(self):
        # w = -0.65, x = 0.3: three mispredicted cycles drag w to +0.25,
        # the fourth predicts correctly
        learner = make_binary("Perceptron", 1, HP)
        learner.w[0] = -0.65
        cfg = LoopConfig(m=4, counting_mode=CountingMode.PER_ITERATION)
        record = process_instance(learner, vec((1, 0.3)), +1, cfg)
        assert record.cycle_mispredictions == 3
        assert record.updates == 3
        assert learner.w[0] == pytest.approx(0.25)

    def test_skipped_cycles_credit_repeat_mispredictions(self):
        # a zero vector mispredicts (score 0) but can never trigger: with
        # early exit the remaining cycles must still count as repeats
        learner = make_binary("Perceptron", 2, HP)
        cfg = LoopConfig(m=6, counting_mode=CountingMode.PER_ITERATION)
        record = process_instance(learner, SparseVector([], []), +1, cfg)
        assert record.cycles == 1
        assert record.cycle_mispredictions == 6

    def test_ogd_rate_constant_within_instance(self):
        # advance the clock to t=4, then grind a persistent-loss instance:
        # every inner cycle must use the same eta = 1/sqrt(4), read off the
        # change of w (x = 1/8, so every sum below is exact)
        learner = make_binary("OGD", 1, HP)
        for _ in range(4):
            learner.begin_instance()
        for _ in range(5):
            before = learner.w[0]
            assert learner.step(vec((1, 0.125)), +1).triggered
            assert (learner.w[0] - before) / 0.125 == 0.5

    def test_record_sums_cycle_deltas(self):
        # PA2 never reaches the margin, so all m cycles fire; the record keeps
        # their summed squared deltas and both ends' norms
        learner = make_binary("PA2", 1, HP)
        twin = make_binary("PA2", 1, HP)
        record = process_instance(learner, vec((1, 1.0)), +1, LoopConfig(m=3))
        twin.begin_instance()
        expected = 0.0
        for _ in range(3):
            expected += twin.step(vec((1, 1.0)), +1).delta_sq_norm
        assert record.sum_delta_sq == expected > 0.0
        assert record.w0_norm == 0.0
        assert record.w_star_norm == learner.primary_norm() == twin.primary_norm()


def _summary(learner, records, stats):
    """What early exit must leave unchanged: the statistics, every record's
    counts and end norm, and the final state."""
    return (stats.mistake_rate, stats.updates,
            [(r.mistake, r.updates, r.cycle_mispredictions, r.w_star_norm) for r in records],
            learner.primary_norm())


def _all_cycles(learner, instances, cfg):
    """_summary of a plain loop that runs all m cycles on every instance and
    counts each cycle's misprediction itself, with no early exit."""
    mistakes = 0.0
    updates = 0
    rows = []
    for x, y in instances:
        learner.begin_instance()
        infos = [learner.step(x, y) for _ in range(cfg.m)]
        wrong = sum(info.mispredicted for info in infos)
        fired = sum(info.triggered for info in infos)
        if cfg.counting_mode is CountingMode.PER_ITERATION:
            mistakes += wrong / cfg.m
        else:
            mistakes += 1.0 if infos[0].mispredicted else 0.0
        updates += fired
        rows.append((infos[0].mispredicted, fired, wrong, learner.primary_norm()))
    return mistakes / len(instances), float(updates), rows, learner.primary_norm()


class TestRunSequence:
    def test_empty_dataset(self):
        with pytest.raises(DataError, match="empty"):
            run_sequence("PA", HP, [], 3, LoopConfig())

    @pytest.mark.parametrize("error", [MemoryError(), ValueError("array is too big; ...")],
                             ids=["memory", "too-big"])
    def test_model_that_cannot_be_allocated_is_a_data_error(self, monkeypatch, error):
        def oversized(*args):
            raise error

        monkeypatch.setattr("multiupdate.engine.make_binary", oversized)
        monkeypatch.setattr("multiupdate.engine.make_multiclass", oversized)
        instances = [(vec((1, 1.0)), 1)]
        with pytest.raises(DataError, match="^PA1: a model of dimension 7 cannot be allocated$"):
            run_sequence("PA1", HP, instances, 7, LoopConfig())
        with pytest.raises(DataError, match="^M_CW: a model of dimension 3 cannot"):
            run_sequence("M_CW", HP, instances, 3, LoopConfig(), num_classes=3)

    def test_other_value_errors_from_the_factory_propagate(self, monkeypatch):
        def broken(*args):
            raise ValueError("not an allocation failure")

        monkeypatch.setattr("multiupdate.engine.make_binary", broken)
        with pytest.raises(ValueError, match="not an allocation failure"):
            run_sequence("PA1", HP, [(vec((1, 1.0)), 1)], 1, LoopConfig())

    def test_repeated_separable_instance(self):
        instances = [(vec((1, 1.0)), +1)] * 10
        _, records, stats = run_sequence("PA", HP, instances, 1, LoopConfig(m=2))
        assert stats.mistake_rate == pytest.approx(0.1)
        assert stats.updates == 1.0
        assert len(records) == 10

    def test_stats_shape(self):
        instances = separable_instances(50, 6, seed=2, margin=0.05, noise=0.1)
        _, records, stats = run_sequence("AROW", HP, instances, 6, LoopConfig(m=4))
        assert 0.0 <= stats.mistake_rate <= 1.0
        assert stats.updates == sum(r.updates for r in records)
        assert stats.cpu_seconds >= 0.0
        assert all(0 <= r.updates <= r.cycles <= 4 for r in records)
        assert all(isinstance(r.mistake, bool) for r in records)

    def test_norm_taken_once_per_instance(self, monkeypatch):
        # instance i starts where instance i-1 ended, so the w0 norm is not
        # recomputed: one primary_norm() per instance plus the initial one
        calls = []

        def counted(kind, d, hp):
            learner = make_binary(kind, d, hp)
            norm = learner.primary_norm
            learner.primary_norm = lambda: calls.append(1) or norm()
            return learner

        monkeypatch.setattr("multiupdate.engine.make_binary", counted)
        instances = separable_instances(25, 4, seed=2, margin=0.05, noise=0.1)
        _, records, _ = run_sequence("PA1", HP, instances, 4, LoopConfig(m=4))
        assert len(calls) == len(instances) + 1
        assert records[0].w0_norm == 0.0

    @pytest.mark.parametrize("support", ["full", "gathered"])
    @pytest.mark.parametrize("kind", sorted(BINARY_KINDS) + sorted(MULTICLASS_KINDS))
    def test_unaudited_sequence_keeps_no_records(self, kind, support):
        # the unaudited adds must store the audited bits: full-support rows
        # take slices of the state, and rows shifted past an empty first
        # column gather it
        num_classes = 3 if kind in MULTICLASS_KINDS else None
        instances = (blob_instances(40, 5, 3, seed=2, spread=2.0) if num_classes
                     else separable_instances(40, 5, seed=2, margin=0.05, noise=0.1))
        d = 5
        if support == "gathered":
            instances = [(SparseVector(x.indices + 1, x.values), y) for x, y in instances]
            d = 6
        assert all(isinstance(x.sel, slice) == (support == "full") for x, _ in instances)
        cfg = LoopConfig(m=4, counting_mode=CountingMode.PER_ITERATION)
        audited, records, stats = run_sequence(kind, HP, instances, d, cfg,
                                               num_classes=num_classes)
        plain, none, plain_stats = run_sequence(kind, HP, instances, d, cfg,
                                                num_classes=num_classes, audit=False)
        assert none is None and len(records) == 40
        assert not plain.audit
        assert stats.updates > 0
        assert (plain_stats.mistake_rate, plain_stats.updates) == \
            (stats.mistake_rate, stats.updates)
        a, p = learner_state(audited), learner_state(plain)
        del a["audit"], p["audit"]
        assert a.keys() == p.keys()
        for key in a:
            if isinstance(a[key], np.ndarray):
                assert a[key].tobytes() == p[key].tobytes(), key
            else:
                assert a[key] == p[key], key

    @pytest.mark.parametrize("kind", sorted(BINARY_KINDS))
    @pytest.mark.parametrize("mode", list(CountingMode))
    def test_stop_early_is_a_no_op_binary(self, kind, mode):
        instances = separable_instances(40, 5, seed=11, margin=0.05, noise=0.15)
        cfg = LoopConfig(m=4, counting_mode=mode)
        learner, records, stats = run_sequence(kind, HP, instances, 5, cfg)
        assert _all_cycles(make_binary(kind, 5, HP), instances, cfg) == \
            _summary(learner, records, stats)

    @pytest.mark.parametrize("kind", sorted(MULTICLASS_KINDS))
    @pytest.mark.parametrize("mode", list(CountingMode))
    def test_stop_early_is_a_no_op_multiclass(self, kind, mode):
        instances = blob_instances(40, 5, 3, seed=11, spread=2.0)
        cfg = LoopConfig(m=4, counting_mode=mode)
        learner, records, stats = run_sequence(kind, HP, instances, 5, cfg, num_classes=3)
        assert _all_cycles(make_multiclass(kind, 3, 5, HP), instances, cfg) == \
            _summary(learner, records, stats)

    @pytest.mark.parametrize("kind", ("PA", "OGD", "CW", "SOP"))
    def test_m1_matches_direct_single_step_loop(self, kind):
        instances = separable_instances(120, 8, seed=4, margin=0.05, noise=0.1)
        engine_learner, _, stats = run_sequence(kind, HP, instances, 8,
                                                LoopConfig(m=1))
        direct = make_binary(kind, 8, HP)
        mistakes = updates = 0
        for x, y in instances:
            direct.begin_instance()
            info = direct.step(x, y)
            mistakes += 1 if info.mispredicted else 0
            updates += 1 if info.triggered else 0
        assert stats.mistake_rate == mistakes / len(instances)
        assert stats.updates == float(updates)
        assert engine_learner.primary_norm() == direct.primary_norm()

    @pytest.mark.parametrize("kind", ("PA", "PA1", "PA2"))
    def test_pa_inner_loss_non_increasing(self, kind):
        # eight cycles per instance, passive ones included: one clock tick,
        # then repeated steps on the same (x, y)
        instances = separable_instances(80, 6, seed=6, margin=0.03, noise=0.2)
        learner = make_binary(kind, 6, HP)
        for x, y in instances:
            learner.begin_instance()
            losses = []
            for _ in range(8):
                losses.append(max(0.0, 1.0 - y * learner.score(x)))
                learner.step(x, y)
            for a, b in zip(losses, losses[1:]):
                assert b <= a + 1e-12

    @pytest.mark.parametrize("kind", ("CW", "SCW1", "SCW2", "M_CW", "M_SCW1", "M_SCW2"))
    def test_indefinite_covariance_raises_typed_error(self, kind):
        # Sigma = [[1, 2], [2, 1]] has a positive diagonal but eigenvalue -1
        # along (1, -1), where x^T Sigma x = -2: the CW loss cannot take its
        # square root, and the engine must say why instead of a math error
        multiclass = kind.startswith("M_")
        learner = (make_multiclass(kind, 3, 2, HP) if multiclass
                   else make_binary(kind, 2, HP))
        learner.sigma[...] = [[1.0, 2.0], [2.0, 1.0]]
        with pytest.raises(NumericalDegeneracyError, match="positive definiteness"):
            process_instance(learner, vec((1, 1.0), (2, -1.0)), 1, LoopConfig(m=2))

    @pytest.mark.parametrize("kind", ("CW", "SCW1", "SCW2", "AROW", "NAROW", "NHERD", "IELLIP",
                                      "M_CW", "M_SCW1", "M_SCW2", "M_AROW"))
    def test_rejected_downdate_leaves_state_untouched(self, kind):
        # Sigma = [[1, 10], [10, 1]] and x = e1 give Sigma x = (1, 10) and a
        # positive x^T Sigma x = 1, so the step gets as far as the in-place
        # downdate, whose precheck sees Sigma_22 going non-positive
        multiclass = kind.startswith("M_")
        learner = (make_multiclass(kind, 3, 2, HP) if multiclass
                   else make_binary(kind, 2, HP))
        learner.sigma[...] = [[1.0, 10.0], [10.0, 1.0]]
        mean = learner.W if multiclass else learner.mu
        sigma_before, mean_before = learner.sigma.tobytes(), mean.tobytes()
        learner.begin_instance()
        with pytest.raises(NumericalDegeneracyError, match="positive definiteness"):
            learner.step(vec((1, 1.0)), 1)
        assert learner.sigma.tobytes() == sigma_before
        assert mean.tobytes() == mean_before

    def test_degenerate_multiclass_sequence_raises_typed_error(self, indefinite_m_cw):
        # an indefinite shared covariance stops the sequence with the typed error
        instances = [(x, int(y) - 1) for x, y in parse_text(INDEFINITE_LINES).instances]
        with pytest.raises(NumericalDegeneracyError, match="positive definiteness"):
            run_sequence("M_CW", HP, instances, 2, LoopConfig(m=4), num_classes=3)

    def test_sop_rejected_downdate_leaves_state_untouched(self):
        # P = [[1, 10], [10, 1]] and x = e1 give P x = (1, 10) and
        # x^T P x = 1, so the Sherman-Morrison term would take P_22 to
        # 1 - 100/2 < 0; the zero w mispredicts, so the step gets that far
        learner = make_binary("SOP", 2, HP)
        learner._P[...] = [[1.0, 10.0], [10.0, 1.0]]
        before = {name: getattr(learner, name).tobytes() for name in ("v", "_P", "_w")}
        learner.begin_instance()
        with pytest.raises(NumericalDegeneracyError, match="positive definiteness"):
            learner.step(vec((1, 1.0)), 1)
        assert {name: getattr(learner, name).tobytes() for name in before} == before

    @pytest.mark.parametrize("audit", [True, False], ids=["audited", "unaudited"])
    @pytest.mark.parametrize("kind", ["ROMMA", "aROMMA", "M_ROMMA", "M_aROMMA"])
    def test_non_finite_state_raises_typed_error(self, kind, audit):
        # at values near 1e150 ROMMA's w*w and x*x products overflow and w
        # turns NaN after two updates; a NaN margin is never a mistake, so
        # without the end-of-run check the run would report a low rate
        if kind.startswith("M_"):
            instances, num_classes = blob_instances(60, 4, 3, seed=2), 3
        else:
            instances, num_classes = separable_instances(40, 4, seed=1), None
        instances = [(SparseVector(x.indices, x.values * 1e150), y) for x, y in instances]
        with pytest.raises(NumericalDegeneracyError, match="not finite") as info:
            run_sequence(kind, HP, instances, 4, LoopConfig(m=2), num_classes, audit=audit)
        assert ("instance=" in str(info.value)) is audit

    def test_a_non_finite_scored_vector_raises_beside_a_finite_audited_one(self, monkeypatch):
        # SOP audits v but scores with w = P v. A NaN in w makes every margin
        # NaN, so no cycle is a mistake and v stays 0: only w shows the fault
        from multiupdate.binary import SOP
        init = SOP.__init__

        def nan_init(self, d, hp):
            init(self, d, hp)
            self._w[0] = math.nan

        monkeypatch.setattr(SOP, "__init__", nan_init)
        instances = separable_instances(20, 3, seed=3)
        with pytest.raises(NumericalDegeneracyError, match="not finite"):
            run_sequence("SOP", HP, instances, 3, LoopConfig(m=2), audit=False)


def _kind_instances(kind):
    """(instances, d, num_classes) for one kind: 40 blobs on 3 classes for a
    multiclass kind, 40 noisy separable rows otherwise."""
    if kind in MULTICLASS_KINDS:
        return blob_instances(40, 5, 3, seed=7, spread=1.5), 5, 3
    return separable_instances(40, 5, seed=7, margin=0.05, noise=0.2), 5, None


ALL_KINDS = sorted(BINARY_KINDS) + sorted(MULTICLASS_KINDS)


class TestCycleLoop:
    @pytest.mark.parametrize("m", [3, 5])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_per_iteration_rate_adds_once_per_instance(self, kind, m):
        # c_i / m is added to the total once per instance, in instance order;
        # summing the counts and dividing once rounds differently when m is
        # not a power of two, so the reference follows the records
        instances, d, num_classes = _kind_instances(kind)
        cfg = LoopConfig(m=m, counting_mode=CountingMode.PER_ITERATION)
        _, records, audited = run_sequence(kind, HP, instances, d, cfg,
                                           num_classes=num_classes)
        _, _, plain = run_sequence(kind, HP, instances, d, cfg, num_classes=num_classes,
                                   audit=False)
        total = 0.0
        for r in records:
            total += r.cycle_mispredictions / m
        assert any(r.cycle_mispredictions % m for r in records)
        assert audited.mistake_rate.hex() == plain.mistake_rate.hex() == \
            (total / len(instances)).hex()

    @pytest.mark.parametrize("mode", list(CountingMode))
    @pytest.mark.parametrize("kind", ["PA1", "CW", "M_PerceptronU"])
    def test_unaudited_run_builds_no_record(self, monkeypatch, kind, mode):
        instances, d, num_classes = _kind_instances(kind)
        cfg = LoopConfig(m=3, counting_mode=mode)
        _, _, expected = run_sequence(kind, HP, instances, d, cfg, num_classes=num_classes)

        def no_record(**fields):
            raise AssertionError("an unaudited run built an InstanceRecord")

        monkeypatch.setattr("multiupdate.engine.InstanceRecord", no_record)
        _, records, stats = run_sequence(kind, HP, instances, d, cfg,
                                         num_classes=num_classes, audit=False)
        assert records is None
        assert (stats.mistake_rate, stats.updates) == (expected.mistake_rate, expected.updates)

    @pytest.mark.parametrize("audit", [True, False])
    @pytest.mark.parametrize("support", ["slice", "gathered"])
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_out_of_range_index_is_a_dimension_error(self, kind, support, audit):
        # a slice row past d would read a truncated slice of the state, and a
        # gathered one would raise IndexError, without the dimension check
        instances, d, num_classes = _kind_instances(kind)
        x = (SparseVector(np.arange(d + 1), np.full(d + 1, 0.5)) if support == "slice"
             else SparseVector([1, d], [0.5, -0.5]))
        assert isinstance(x.sel, slice) == (support == "slice")
        instances = instances[:5] + [(x, instances[0][1])]
        with pytest.raises(DimensionMismatchError, match=f"feature index {d} out of range"):
            run_sequence(kind, HP, instances, d, LoopConfig(m=2), num_classes=num_classes,
                         audit=audit)

    def test_every_dimension_check_raises_one_message(self):
        # the binary margin, which score reads, and the multiclass scores are
        # the two checks of a row; all three calls raise the same error
        x = SparseVector([1, 3], [0.5, -0.5])
        binary = make_binary("PA", 3, HP)
        multiclass = make_multiclass("M_PA", 3, 3, HP)
        for check in (lambda: binary.score(x), lambda: binary._margin(x, 1),
                      lambda: multiclass.scores(x)):
            with pytest.raises(DimensionMismatchError) as raised:
                check()
            assert str(raised.value) == "feature index 3 out of range for dimension 3"

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_direct_first_order_step_checks_the_dimension(self, kind):
        # every kind, first-order or not, checks a row past d before its state
        # changes: a Sigma step scores (and checks) before it binds Sigma
        instances, d, num_classes = _kind_instances(kind)
        learner = (make_multiclass(kind, num_classes, d, HP) if num_classes
                   else make_binary(kind, d, HP))
        for x, y in instances[:6]:
            learner.begin_instance()
            learner.step(x, y)
        learner.begin_instance()
        before = learner_state(learner)
        for x in (SparseVector(np.arange(d + 1), np.ones(d + 1)), SparseVector([1, d], [1.0, 1.0])):
            assert isinstance(x.sel, slice) == (x.indices.size == d + 1)
            with pytest.raises(DimensionMismatchError, match=f"feature index {d} out of range"):
                learner.step(x, instances[0][1])
        assert same_state(learner_state(learner), before)


class TestNormBound:
    def test_hand_case_passes(self):
        records = [make_record(w0=0.0, sum_delta_sq=2.0, w_star=math.sqrt(2.0), updates=2)]
        report = check_norm_bound(records, m=2)
        assert report.all_passed
        assert report.instances == records
        assert report.min_slack == pytest.approx(2.0 - math.sqrt(2.0))
        # rhs = 0 + sqrt(2) * sqrt(2) = 2, which a final norm of 2.001 exceeds
        over = [make_record(w0=0.0, sum_delta_sq=2.0, w_star=2.001, updates=2)]
        assert check_norm_bound(over, m=2).failures == [(0, 2.001, pytest.approx(2.0))]

    def test_passive_instance_has_zero_slack(self):
        records = [make_record(w0=3.0, sum_delta_sq=0.0, w_star=3.0, updates=0)]
        report = check_norm_bound(records, m=4)
        assert report.all_passed
        assert report.min_slack == 0.0

    def test_detects_violation(self):
        # a checker that cannot fail would prove nothing: feed it a record
        # whose final norm exceeds what the recorded deltas allow
        records = [make_record(w0=1.0, sum_delta_sq=0.01, w_star=5.0, updates=1)]
        report = check_norm_bound(records, m=1)
        assert not report.all_passed
        assert report.failures == [(0, 5.0, pytest.approx(1.1))]
        assert report.min_slack == pytest.approx(1.1 - 5.0)

    @pytest.mark.parametrize("w_stars", [(1.0, math.nan, 0.5), (math.nan, 1.0, 9.0), ()],
                             ids=["later-nan", "leading-nan", "empty"])
    def test_one_pass_matches_the_per_instance_walk(self, w_stars):
        # the reference walks the slacks with the builtin min, which keeps a
        # leading NaN and passes over a later one, and filters the failures;
        # rhs = 1 + sqrt(4) * sqrt(0.25) = 2 on every record
        records = [make_record(w0=1.0, sum_delta_sq=0.25, w_star=w, updates=1)
                   for w in w_stars]
        report = check_norm_bound(records, m=4)
        assert repr(report.min_slack) == repr(min((2.0 - w for w in w_stars), default=0.0))
        assert repr(report.failures) == repr([(i, w, 2.0) for i, w in enumerate(w_stars)
                                              if not w <= 2.0 + 1e-9 * 3.0])
        assert len(report.instances) == len(w_stars)

    @pytest.mark.parametrize("kind", sorted(BINARY_KINDS))
    @pytest.mark.parametrize("m", (1, 4))
    def test_engine_traces_always_pass_binary(self, kind, m):
        instances = separable_instances(60, 6, seed=19, margin=0.05, noise=0.15)
        _, records, _ = run_sequence(kind, HP, instances, 6, LoopConfig(m=m))
        assert check_norm_bound(records, m).all_passed

    @pytest.mark.parametrize("kind", sorted(MULTICLASS_KINDS))
    @pytest.mark.parametrize("m", (1, 4))
    def test_engine_traces_always_pass_multiclass(self, kind, m):
        instances = blob_instances(60, 6, 4, seed=19, spread=2.5)
        _, records, _ = run_sequence(kind, HP, instances, 6, LoopConfig(m=m),
                                     num_classes=4)
        assert check_norm_bound(records, m).all_passed


class TestTraceExport:
    def test_records_chain_and_fields(self):
        instances = separable_instances(30, 4, seed=23, margin=0.05, noise=0.1)
        _, records, _ = run_sequence("PA1", HP, instances, 4, LoopConfig(m=2))
        lines = trace_records(records, algorithm="PA1", m=2, run=0)
        assert len(lines) == 30
        rows = [json.loads(line) for line in lines]
        for i, row in enumerate(rows):
            assert row["algorithm"] == "PA1"
            assert row["m"] == 2
            assert row["run"] == 0
            assert row["instance"] == i
            assert isinstance(row["mistake"], bool)
            assert row["sum_delta_sq"] >= 0.0
        for prev, cur in zip(rows, rows[1:]):
            assert cur["w0_norm"] == prev["w_star_norm"]

    def test_jsonl_round_trip(self):
        instances = separable_instances(12, 4, seed=29, margin=0.05, noise=0.1)
        _, records, _ = run_sequence("OGD", HP, instances, 4, LoopConfig(m=3))
        lines = trace_records(records, algorithm="OGD", m=3, run=1)
        assert all(line.count("\n") == 1 and line.endswith("\n") for line in lines)
        rows = [json.loads(line) for line in "".join(lines).splitlines()]
        assert len(rows) == 12
        assert [row["instance"] for row in rows] == list(range(12))
        assert all(row["w0_norm"] >= 0.0 for row in rows)


_ALL_KINDS = sorted(BINARY_KINDS) + sorted(MULTICLASS_KINDS)
_EDGE_FLOATS = (0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e308, 1.7976931348623157e308)


def _reference_line(record: InstanceRecord, i: int, **meta) -> str:
    row = dict(meta, instance=i, mistake=record.mistake, updates=record.updates,
               sum_delta_sq=record.sum_delta_sq, w_star_norm=record.w_star_norm,
               w0_norm=record.w0_norm)
    return json.dumps(row, separators=(",", ":")) + "\n"


@st.composite
def _records(draw, floats):
    n = draw(st.integers(1, 4))
    return [InstanceRecord(mistake=draw(st.booleans()), updates=draw(st.integers(0, 64)),
                           cycles=64, cycle_mispredictions=0, sum_delta_sq=draw(floats),
                           w0_norm=draw(floats), w_star_norm=draw(floats))
            for _ in range(n)]


_FINITE = st.one_of(st.sampled_from(_EDGE_FLOATS),
                    st.floats(allow_nan=False, allow_infinity=False))


class TestTraceTemplate:
    """Each trace line equals what json.dumps writes for the row, byte for byte."""

    @given(records=_records(_FINITE), kind=st.sampled_from(_ALL_KINDS),
           m=st.integers(1, 64), run=st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_finite_rows_match_json_dumps(self, records, kind, m, run):
        lines = trace_records(records, algorithm=kind, m=m, run=run)
        assert lines == [_reference_line(r, i, algorithm=kind, m=m, run=run)
                         for i, r in enumerate(records)]

    @given(records=_records(st.floats()), kind=st.sampled_from(_ALL_KINDS))
    @example(records=[make_record(w0=math.inf, sum_delta_sq=0.0, w_star=math.nan, updates=1)],
             kind="AROW")
    @example(records=[make_record(w0=0.0, sum_delta_sq=-math.inf, w_star=1.0, updates=0)],
             kind="M_PA")
    @settings(max_examples=80, deadline=None)
    def test_non_finite_rows_match_json_dumps(self, records, kind):
        lines = trace_records(records, algorithm=kind, m=4, run=1)
        assert lines == [_reference_line(r, i, algorithm=kind, m=4, run=1)
                         for i, r in enumerate(records)]

    @pytest.mark.parametrize("mistake", [True, False])
    def test_every_kind_name(self, mistake):
        record = InstanceRecord(mistake=mistake, updates=3, cycles=4, cycle_mispredictions=1,
                                sum_delta_sq=0.1, w0_norm=1.0 / 3.0, w_star_norm=2.5e-300)
        for kind in _ALL_KINDS:
            [line] = trace_records([record], algorithm=kind, m=32, run=0)
            assert line == _reference_line(record, 0, algorithm=kind, m=32, run=0)
            assert f'"mistake":{"true" if mistake else "false"},' in line


@st.composite
def _dense_instance(draw, lo: float, hi: float):
    """(x as a dense array, its SparseVector, a label) with ||x||^2 >= 1e-2."""
    d = draw(st.integers(1, 6))
    x = np.array(draw(st.lists(st.floats(lo, hi, allow_subnormal=False),
                               min_size=d, max_size=d)))
    assume(float(x @ x) >= 1e-2)
    return x, SparseVector(range(d), x), draw(st.sampled_from((-1, 1)))


class TestCycleOracles:
    """Closed forms of the m-cycle loop, checked through process_instance with
    the learner auditing and not, against plain numpy on the dense state."""

    @given(inst=_dense_instance(-3.0, 3.0), scales=st.lists(st.floats(0.1, 10.0),
                                                           min_size=6, max_size=6),
           loss0=st.floats(0.1, 2.0), ratio=st.floats(0.01, 2.0), m=st.integers(1, 32))
    @settings(max_examples=60, deadline=None)
    def test_arow_loss_and_confidence_shrink_as_one_over_one_plus_k(self, inst, scales,
                                                                   loss0, ratio, m):
        # each AROW cycle maps loss l -> l*r/(v+r) and confidence v -> v*r/(v+r),
        # so 1/v grows by 1/r per cycle: after k cycles
        # v_k = v0/(1 + k*v0/r) and l_k = l0/(1 + k*v0/r), and every cycle fires
        x, xs, y = inst
        sigma0 = np.diag(scales[:x.size])
        mu0 = (1.0 - loss0) / float(x @ x) * y * x
        v0 = float(x @ sigma0 @ x)
        r = v0 / ratio
        l0 = 1.0 - y * float(mu0 @ x)
        states = []
        for audit in (True, False):
            learner = make_binary("AROW", x.size, HP.replace(arow_r=r))
            learner.audit = audit
            learner.mu[:] = mu0
            learner.sigma[:] = sigma0
            record = process_instance(learner, xs, y, LoopConfig(m=m))
            assert record.updates == record.cycles == m
            shrink = 1.0 + m * v0 / r
            assert 1.0 - y * float(learner.mu @ x) == pytest.approx(l0 / shrink, rel=1e-12)
            assert float(x @ learner.sigma @ x) == pytest.approx(v0 / shrink, rel=1e-12)
            states.append((learner.mu.tobytes(), learner.sigma.tobytes()))
        assert states[0] == states[1]

    @given(inst=_dense_instance(-3.0, 3.0), scales=st.lists(st.floats(0.2, 2.0),
                                                           min_size=6, max_size=6),
           loss0=st.floats(0.1, 2.0), cv=st.floats(0.01, 2.0), m=st.integers(1, 32))
    @settings(max_examples=60, deadline=None)
    def test_nherd_loss_and_confidence_shrink_by_one_plus_cv(self, inst, scales, loss0,
                                                             cv, m):
        # NHERD steps like AROW with r = 1/C, so a cycle at confidence v maps
        # the loss l -> l/(1 + C*v), and its covariance factor
        # (C^2 v + 2C)/(1 + C*v)^2 maps v -> v/(1 + C*v)^2; every cycle fires
        x, xs, y = inst
        sigma0 = np.diag(scales[:x.size])
        mu0 = (1.0 - loss0) / float(x @ x) * y * x
        v0 = float(x @ sigma0 @ x)
        C = cv / v0
        loss, v = 1.0 - y * float(mu0 @ x), v0
        for _ in range(m):
            loss, v = loss / (1.0 + C * v), v / (1.0 + C * v) ** 2
        states = []
        for audit in (True, False):
            learner = make_binary("NHERD", x.size, HP.replace(C=C))
            learner.audit = audit
            learner.mu[:] = mu0
            learner.sigma[:] = sigma0
            record = process_instance(learner, xs, y, LoopConfig(m=m))
            assert record.updates == record.cycles == m
            assert 1.0 - y * float(learner.mu @ x) == pytest.approx(loss, rel=1e-12)
            assert float(x @ learner.sigma @ x) == pytest.approx(v, rel=1e-12)
            states.append((learner.mu.tobytes(), learner.sigma.tobytes()))
        assert states[0] == states[1]

    @given(inst=_dense_instance(-3.0, 3.0), scales=st.lists(st.floats(0.1, 10.0),
                                                           min_size=6, max_size=6),
           loss0=st.floats(0.1, 2.0), bv0=st.floats(0.05, 4.0), ratio=st.floats(0.01, 2.0),
           m=st.integers(1, 32))
    @settings(max_examples=80, deadline=None)
    def test_narow_is_arow_below_one_over_b_and_lands_on_it_from_above(self, inst, scales,
                                                                       loss0, bv0, ratio, m):
        # while b*v <= 1 NAROW takes AROW's step with the fixed r, and v only
        # falls, so all m cycles follow AROW's recursion: l_k = l0/(1 + k*v0/r)
        # and v_k = v0/(1 + k*v0/r). From b*v0 > 1 the adaptive
        # r = v0/(b*v0 - 1) lands the first cycle on v1 = 1/b with the loss
        # l0/(b*v0); whether b*v1 then rounds above 1 decides the next
        # cycle's r, so only that first cycle is checked.
        x, xs, y = inst
        sigma0 = np.diag(scales[:x.size])
        mu0 = (1.0 - loss0) / float(x @ x) * y * x
        l0, v0 = 1.0 - y * float(mu0 @ x), float(x @ sigma0 @ x)
        b, r = bv0 / v0, v0 / ratio
        # which side of the threshold the learner's own v0 falls is not decided here
        assume(abs(b * v0 - 1.0) > 1e-9)
        if b * v0 <= 1.0:
            cycles, shrink = m, 1.0 + m * v0 / r
            loss, v = l0 / shrink, v0 / shrink
        else:
            cycles, loss, v = 1, l0 / (b * v0), 1.0 / b
        states = []
        for audit in (True, False):
            learner = make_binary("NAROW", x.size, HP.replace(narow_b=b, arow_r=r))
            learner.audit = audit
            learner.mu[:] = mu0
            learner.sigma[:] = sigma0
            record = process_instance(learner, xs, y, LoopConfig(m=cycles))
            assert record.updates == record.cycles == cycles
            assert 1.0 - y * float(learner.mu @ x) == pytest.approx(loss, rel=1e-12)
            assert float(x @ learner.sigma @ x) == pytest.approx(v, rel=1e-12)
            states.append((learner.mu.tobytes(), learner.sigma.tobytes()))
        assert states[0] == states[1]

    @given(inst=_dense_instance(-2.0, 2.0),
           w=st.lists(st.floats(-0.5, 0.5), min_size=6, max_size=6),
           C=st.sampled_from((0.01, 0.05, 0.3)), m=st.integers(1, 32))
    @example(inst=(np.array([0.0, 2.0]), SparseVector([0, 1], [0.0, 2.0]), 1),
             w=[0.0, 0.49999999999999994, 0.0, 0.0, 0.0, 0.0], C=0.01, m=1)
    @settings(max_examples=80, deadline=None)
    def test_pa1_update_count(self, inst, w, C, m):
        # capped steps lower the loss by C*||x||^2 each; the step that would
        # overshoot lands on the margin, so ceil(l0 / (C*||x||^2)) steps end
        # the loss, or the m-cycle cap comes first. A loss of at most
        # PASSIVE_EPS (1.1e-16 in the example) is already on the margin:
        # no step fires.
        x, xs, y = inst
        w0 = np.array(w[:x.size])
        l0 = 1.0 - y * float(w0 @ x)
        assume(l0 > 0.0)
        steps = l0 / (C * float(x @ x))
        expected = min(m, math.ceil(steps)) if l0 > PASSIVE_EPS else 0
        # whether a loss left at rounding level re-triggers is not decided here
        assume(abs(steps - round(steps)) > 1e-9 * steps)
        states = []
        for audit in (True, False):
            learner = make_binary("PA1", x.size, HP.replace(C=C))
            learner.audit = audit
            learner.w[:] = w0
            record = process_instance(learner, xs, y, LoopConfig(m=m))
            assert record.updates == expected
            if not audit:
                assert record.sum_delta_sq == 0.0
                assert math.isnan(record.w0_norm) and math.isnan(record.w_star_norm)
            states.append(learner.w.tobytes())
        assert states[0] == states[1]

    @given(inst=_dense_instance(-3.0, 3.0),
           w=st.lists(st.floats(-5.0, 5.0), min_size=6, max_size=6), m=st.integers(1, 32))
    @example(inst=(np.array([2.0, -1.0]), SparseVector([0, 1], [2.0, -1.0]), 1),
             w=[0.0] * 6, m=4)
    @settings(max_examples=80, deadline=None)
    def test_perceptron_update_count(self, inst, w, m):
        # each update adds y*x, raising y*s by ||x||^2, and the Perceptron
        # fires while y*s <= 0: floor(-y*s0 / ||x||^2) + 1 updates from a
        # mistake, none from a correct start, or the m-cycle cap comes first
        x, xs, y = inst
        w0 = np.array(w[:x.size])
        steps = -y * float(w0 @ x) / float(x @ x)
        # a score within rounding of 0 after some update is not decided here
        assume(not w0.any() or abs(steps - round(steps)) > 1e-9 * max(1.0, abs(steps)))
        states = []
        for audit in (True, False):
            learner = make_binary("Perceptron", x.size, HP)
            learner.audit = audit
            learner.w[:] = w0
            record = process_instance(learner, xs, y, LoopConfig(m=m))
            assert record.updates == min(m, max(0, math.floor(steps) + 1))
            states.append(learner.w.tobytes())
        assert states[0] == states[1]

    @given(inst=_dense_instance(-3.0, 3.0), loss0=st.floats(0.1, 2.0),
           q=st.floats(0.001, 0.2), m=st.integers(1, 32))
    @settings(max_examples=60, deadline=None)
    def test_pa2_loss_shrinks_by_a_constant_factor(self, inst, loss0, q, m):
        # tau = l / (||x||^2 + 1/2C) leaves the loss l * (1/2C) / (||x||^2 + 1/2C),
        # the same factor rho on every cycle: l0 * rho^m after m cycles, all
        # of which fire. C comes from q = 2C||x||^2, so rho = 1/(1 + q) and
        # the loss stays far above the passive threshold.
        x, xs, y = inst
        xsq = float(x @ x)
        C = q / (2.0 * xsq)
        rho = (1.0 / (2.0 * C)) / (xsq + 1.0 / (2.0 * C))
        w0 = (1.0 - loss0) / xsq * y * x
        l0 = 1.0 - y * float(w0 @ x)
        states = []
        for audit in (True, False):
            learner = make_binary("PA2", x.size, HP.replace(C=C))
            learner.audit = audit
            learner.w[:] = w0
            record = process_instance(learner, xs, y, LoopConfig(m=m))
            assert record.updates == record.cycles == m
            assert 1.0 - y * float(learner.w @ x) == pytest.approx(l0 * rho ** m, rel=1e-10)
            states.append(learner.w.tobytes())
        assert states[0] == states[1]

    @given(x=st.lists(st.integers(-24, 24), min_size=1, max_size=6),
           w=st.lists(st.integers(-1024, 1024), min_size=6, max_size=6),
           y=st.sampled_from((-1, 1)), eta0=st.integers(1, 64), j=st.integers(0, 3),
           m=st.integers(1, 32))
    @settings(max_examples=80, deadline=None)
    def test_ogd_takes_the_same_step_every_cycle(self, x, w, y, eta0, j, m):
        # eta = eta0/sqrt(t) follows the outer clock t, so every cycle of one
        # instance moves w by the same eta*y*x and lowers the loss by
        # eta*||x||^2, until the loss is gone or the cap m is reached. Dyadic
        # data (x in 1/8ths, w0 in 1/256ths, eta0 in 1/64ths, t = 4^j) keep
        # every sum exact, so the count and the state are checked exactly.
        x = np.array(x) / 8.0
        assume(x.any())
        w0 = np.array(w[:x.size]) / 256.0
        eta0, t = eta0 / 64.0, 4 ** j
        eta = eta0 / 2 ** j
        l0 = 1.0 - y * float(w0 @ x)
        updates = min(m, max(0, math.ceil(Fraction(l0) / Fraction(eta * float(x @ x)))))
        states = []
        for audit in (True, False):
            learner = make_binary("OGD", x.size, HP.replace(eta0=eta0))
            learner.audit = audit
            for _ in range(t - 1):
                learner.begin_instance()
            learner.w[:] = w0
            record = process_instance(learner, SparseVector(range(x.size), x), y,
                                      LoopConfig(m=m))
            assert learner.t == t
            assert record.updates == updates
            assert np.array_equal(learner.w, w0 + updates * eta * y * x)
            states.append(learner.w.tobytes())
        assert states[0] == states[1]

    @given(inst=_dense_instance(-3.0, 3.0), loss0=st.floats(0.1, 2.0), m=st.integers(1, 32))
    @settings(max_examples=60, deadline=None)
    def test_mpa_step_is_half_of_pa_on_the_k2_twin(self, inst, loss0, m):
        # the K=2 twin of w0 has rows -w0/2 and w0/2, so its margin s_y - s_r
        # equals y*<w0, x>; its update direction (x in row y, -x in row r)
        # has squared norm 2||x||^2, so M_PA steps tau/2 where PA steps
        # tau = l0/||x||^2. Each tau is read off the change of the state.
        x, xs, y = inst
        xsq = float(x @ x)
        w0 = (1.0 - loss0) / xsq * y * x
        l0 = 1.0 - y * float(w0 @ x)
        label = 1 if y > 0 else 0
        for audit in (True, False):
            pa = make_binary("PA", x.size, HP)
            twin = make_multiclass("M_PA", 2, x.size, HP)
            pa.audit = twin.audit = audit
            pa.w[:] = w0
            twin.W[1], twin.W[0] = w0 / 2.0, -w0 / 2.0
            W0 = twin.W.copy()
            process_instance(pa, xs, y, LoopConfig(m=m))
            process_instance(twin, xs, label, LoopConfig(m=m))
            tau = y * float((pa.w - w0) @ x) / xsq
            gain = float((twin.W[label] - W0[label]) @ x) / xsq
            lose = -float((twin.W[1 - label] - W0[1 - label]) @ x) / xsq
            assert tau == pytest.approx(l0 / xsq, rel=1e-12)
            assert gain == pytest.approx(tau / 2.0, rel=1e-12)
            assert lose == pytest.approx(tau / 2.0, rel=1e-12)

    @given(inst=_dense_instance(-2.0, 2.0), C=st.floats(0.01, 1.0), m=st.integers(1, 32))
    @settings(max_examples=80, deadline=None)
    def test_mpa1_update_count_on_the_k2_twin(self, inst, C, m):
        # from W = 0 the loss is 1; a capped step moves row y by C*x and row r
        # by -C*x, raising the margin by 2C||x||^2, and the step that would
        # overshoot lands on the margin: ceil(1 / (2C||x||^2)) steps end the
        # loss, or the m-cycle cap comes first
        x, xs, y = inst
        label = 1 if y > 0 else 0
        steps = 1.0 / (2.0 * C * float(x @ x))
        # whether a loss left at rounding level re-triggers is not decided here
        assume(abs(steps - round(steps)) > 1e-9 * steps)
        states = []
        for audit in (True, False):
            learner = make_multiclass("M_PA1", 2, x.size, HP.replace(C=C))
            learner.audit = audit
            record = process_instance(learner, xs, label, LoopConfig(m=m))
            assert record.updates == min(m, math.ceil(steps))
            if not audit:
                assert record.sum_delta_sq == 0.0
                assert math.isnan(record.w0_norm) and math.isnan(record.w_star_norm)
            states.append(learner.W.tobytes())
        assert states[0] == states[1]

    @given(inst=_dense_instance(-3.0, 3.0), scales=st.lists(st.floats(0.1, 10.0),
                                                           min_size=6, max_size=6),
           loss0=st.floats(0.1, 2.0), ratio=st.floats(0.01, 2.0), m=st.integers(1, 32))
    @settings(max_examples=60, deadline=None)
    def test_marow_follows_arow_with_doubled_confidence_on_the_k2_twin(self, inst, scales,
                                                                       loss0, ratio, m):
        # rows W[y] = -W[r] = (1 - l0)/(2||x||^2) x have the margin 1 - l0; the
        # difference vector sees the shared Sigma as v = 2x^T Sigma x, and the
        # doubled rank-1 decrement maps v -> v*r/(v+r) while the loss goes
        # l -> l*r/(v+r), AROW's recursion with v0 = 2x^T Sigma0 x: after k
        # cycles l_k = l0/(1 + k*v0/r) and v_k = v0/(1 + k*v0/r), all firing
        x, xs, y = inst
        label = 1 if y > 0 else 0
        sigma0 = np.diag(scales[:x.size])
        row0 = (1.0 - loss0) / (2.0 * float(x @ x)) * x
        v0 = 2.0 * float(x @ sigma0 @ x)
        r = v0 / ratio
        shrink = 1.0 + m * v0 / r
        states = []
        for audit in (True, False):
            learner = make_multiclass("M_AROW", 2, x.size, HP.replace(arow_r=r))
            learner.audit = audit
            learner.W[label], learner.W[1 - label] = row0, -row0
            learner.sigma[:] = sigma0
            l0 = 1.0 - float(learner.W[label] @ x - learner.W[1 - label] @ x)
            record = process_instance(learner, xs, label, LoopConfig(m=m))
            assert record.updates == record.cycles == m
            loss = 1.0 - float(learner.W[label] @ x - learner.W[1 - label] @ x)
            assert loss == pytest.approx(l0 / shrink, rel=1e-12)
            assert 2.0 * float(x @ learner.sigma @ x) == pytest.approx(v0 / shrink, rel=1e-12)
            states.append((learner.W.tobytes(), learner.sigma.tobytes()))
        assert states[0] == states[1]

    @given(inst=_dense_instance(-3.0, 3.0), loss0=st.floats(0.1, 2.0),
           q=st.floats(0.0005, 0.1), m=st.integers(1, 32))
    @settings(max_examples=60, deadline=None)
    def test_mpa2_loss_shrinks_by_a_constant_factor_on_the_k2_twin(self, inst, loss0, q, m):
        # on the difference vector (squared norm 2||x||^2) tau = l / (2||x||^2
        # + 1/2C) leaves the loss l / (1 + 4C||x||^2) on every cycle: l0 * rho^m
        # after m cycles, all of which fire. C comes from q = 2C||x||^2, so
        # rho = 1/(1 + 2q) and the loss stays far above the passive threshold.
        x, xs, y = inst
        label = 1 if y > 0 else 0
        xsq = float(x @ x)
        C = q / (2.0 * xsq)
        rho = 1.0 / (1.0 + 4.0 * C * xsq)
        row0 = (1.0 - loss0) / xsq * x
        states = []
        for audit in (True, False):
            learner = make_multiclass("M_PA2", 2, x.size, HP.replace(C=C))
            learner.audit = audit
            learner.W[label] = row0
            l0 = 1.0 - float(learner.W[label] @ x - learner.W[1 - label] @ x)
            record = process_instance(learner, xs, label, LoopConfig(m=m))
            assert record.updates == record.cycles == m
            loss = 1.0 - float(learner.W[label] @ x - learner.W[1 - label] @ x)
            assert loss == pytest.approx(l0 * rho ** m, rel=1e-10)
            states.append(learner.W.tobytes())
        assert states[0] == states[1]
