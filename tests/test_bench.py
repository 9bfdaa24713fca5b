"""Benchmark harness: cell protocol, aggregation, rendering, parallel parity."""
from __future__ import annotations

import dataclasses
import hashlib
import io
import math
import os

import pytest

import multiupdate.bench as bench
from multiupdate.bench import (
    BenchmarkResult,
    CellSummary,
    emit,
    resolve_algorithms,
    run_benchmark,
)
from multiupdate.binary import BINARY_KINDS
from multiupdate.data import parse_text
from multiupdate.engine import CountingMode
from multiupdate.errors import ConfigError, NumericalDegeneracyError
from multiupdate.multiclass import MULTICLASS_KINDS
from multiupdate.rng import permutation

from conftest import blob_instances, instances_to_text, separable_instances


@pytest.fixture
def binary_ds():
    text = instances_to_text(separable_instances(60, 5, seed=31, margin=0.05, noise=0.1))
    return parse_text(text, name="synth-bin")


@pytest.fixture
def multi_ds():
    text = instances_to_text(blob_instances(60, 5, 3, seed=31, spread=2.5),
                             multiclass=True)
    return parse_text(text, name="synth-multi")


class TestResolveAlgorithms:
    def test_all_binary(self):
        names = resolve_algorithms("all", "binary")
        assert len(names) == 16
        assert "PA1" in names and "IELLIP" in names

    def test_all_multiclass(self):
        names = resolve_algorithms("all", "multiclass")
        assert len(names) == 13
        assert names[0].startswith("M_")

    def test_comma_list_preserves_order(self):
        assert resolve_algorithms("OGD, PA1 ,Perceptron", "binary") == \
            ["OGD", "PA1", "Perceptron"]

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="unknown algorithm 'Foo'"):
            resolve_algorithms("PA,Foo", "binary")

    def test_wrong_label_space(self):
        with pytest.raises(ConfigError, match="label space"):
            resolve_algorithms("M_PA", "binary")
        with pytest.raises(ConfigError, match="label space"):
            resolve_algorithms("PA", "multiclass")

    def test_empty(self):
        with pytest.raises(ConfigError, match="no algorithms"):
            resolve_algorithms("", "binary")


class TestValidation:
    def test_runs_must_be_positive(self, binary_ds):
        with pytest.raises(ConfigError, match="runs"):
            run_benchmark(binary_ds, ["PA"], [1], runs=0, base_seed=0)

    def test_m_values_must_be_positive(self, binary_ds):
        with pytest.raises(ConfigError, match="m values"):
            run_benchmark(binary_ds, ["PA"], [1, 0], runs=1, base_seed=0)
        with pytest.raises(ConfigError, match="at least one m"):
            run_benchmark(binary_ds, ["PA"], [], runs=1, base_seed=0)

    def test_every_run_seed_must_fit_in_64_bits(self, binary_ds):
        # run r permutes with base_seed + r; past 2**64 - 1 it would wrap to 0
        with pytest.raises(ConfigError, match="seed"):
            run_benchmark(binary_ds, ["PA"], [1], runs=2, base_seed=2 ** 64 - 1)
        with pytest.raises(ConfigError, match="seed"):
            run_benchmark(binary_ds, ["PA"], [1], runs=1, base_seed=2 ** 64)
        result = run_benchmark(binary_ds, ["PA"], [1], runs=1, base_seed=2 ** 64 - 1)
        assert result.base_seed == 2 ** 64 - 1

    def test_label_space_checked_before_any_run(self, binary_ds, monkeypatch):
        def boom(*a, **k):
            raise AssertionError("run_sequence must not be reached")
        monkeypatch.setattr(bench, "run_sequence", boom)
        with pytest.raises(ConfigError, match="label space"):
            run_benchmark(binary_ds, ["M_PA"], [1], runs=2, base_seed=0)


class TestProtocol:
    def test_cell_order_algorithm_major_then_m(self, binary_ds):
        result = run_benchmark(binary_ds, ["PA", "OGD"], [2, 1], runs=1, base_seed=0)
        assert [(c.algorithm, c.m) for c in result.cells] == \
            [("PA", 1), ("PA", 2), ("OGD", 1), ("OGD", 2)]

    def test_permutations_shared_across_cells(self, binary_ds, monkeypatch):
        calls = []
        real = bench.permute

        def spy(n, seed):
            calls.append((n, seed))
            return real(n, seed)

        monkeypatch.setattr(bench, "permute", spy)
        result = run_benchmark(binary_ds, ["PA", "OGD", "AROW"], [1, 2, 4],
                               runs=3, base_seed=7)
        # one permutation per run, regardless of the 9 cells
        assert calls == [(60, 7), (60, 8), (60, 9)]
        assert len(result.permutation_fingerprints) == 3
        assert len(set(result.permutation_fingerprints)) == 3

    def test_single_run_has_zero_std(self, binary_ds):
        result = run_benchmark(binary_ds, ["PA1"], [1], runs=1, base_seed=0)
        cell = result.cells[0]
        assert cell.std["mistake_rate"] == 0.0
        assert cell.std["updates"] == 0.0

    def test_mean_std_sample_variance(self):
        mean, std = bench._mean_std([1.0, 2.0, 3.0])
        assert mean == 2.0
        assert std == pytest.approx(1.0)   # ddof=1

    def test_deterministic_across_invocations(self, binary_ds):
        a = run_benchmark(binary_ds, ["PA", "CW"], [1, 2], runs=3, base_seed=5)
        b = run_benchmark(binary_ds, ["PA", "CW"], [1, 2], runs=3, base_seed=5)
        assert emit(a, "csv") == emit(b, "csv")

    def test_seed_changes_results_identity_only(self, binary_ds):
        a = run_benchmark(binary_ds, ["PA"], [1], runs=2, base_seed=0)
        b = run_benchmark(binary_ds, ["PA"], [1], runs=2, base_seed=100)
        assert a.permutation_fingerprints != b.permutation_fingerprints

    @pytest.mark.parametrize("n", [1, 7, 1000, 10000])
    def test_fingerprint_matches_the_per_element_digest(self, n):
        perm = permutation(n, 3)
        h = hashlib.sha1()
        for i in perm:
            h.update(i.to_bytes(8, "little"))
        assert bench._fingerprint(perm) == h.hexdigest()[:12]

    def test_multiclass_dataset_runs(self, multi_ds):
        result = run_benchmark(multi_ds, ["M_PA", "M_CW"], [1, 2], runs=2, base_seed=0)
        assert result.num_classes == 3
        assert len(result.cells) == 4
        for cell in result.cells:
            assert 0.0 <= cell.mean["mistake_rate"] <= 1.0

    def test_audit_fields(self, binary_ds):
        result = run_benchmark(binary_ds, ["PA", "Perceptron"], [1, 2],
                               runs=2, base_seed=0, audit=True)
        # every instance of every (cell, run) is audited
        assert result.audited_instances == 60 * 2 * 4
        assert result.audit_passed
        assert result.audit_failures == []
        assert result.audit_min_slack < math.inf

    def test_audit_off_by_default(self, binary_ds):
        result = run_benchmark(binary_ds, ["PA"], [1], runs=1, base_seed=0)
        assert result.audited_instances == 0
        assert result.audit_min_slack == math.inf
        assert result.audit_passed

    def test_trace_rows_written(self, binary_ds, tmp_path):
        out = tmp_path / "trace.jsonl"
        with open(out, "w") as fh:
            run_benchmark(binary_ds, ["PA"], [1, 2], runs=2, base_seed=0,
                          trace_fh=fh)
        lines = out.read_text().splitlines()
        assert len(lines) == 60 * 2 * 2   # instances x runs x cells

    @pytest.mark.parametrize("space, algorithms", [("binary", ["PA", "OGD", "CW"]),
                                                   ("multiclass", ["M_PA1", "M_CW", "M_AROW"])],
                             ids=["binary", "multiclass"])
    def test_parallel_matches_serial(self, binary_ds, space, algorithms, monkeypatch):
        ds = binary_ds if space == "binary" else _stand_in(space)
        # a halved bound fails some instances of some runs, so the failure
        # lists carry (kind, m, run) order; the forked workers inherit it.
        # Halving w0_norm and quartering sum_delta_sq halves rhs exactly.
        check = bench.check_norm_bound

        def halved(records, m):
            return check([dataclasses.replace(r, w0_norm=r.w0_norm / 2,
                                              sum_delta_sq=r.sum_delta_sq / 4)
                          for r in records], m)

        monkeypatch.setattr(bench, "check_norm_bound", halved)
        monkeypatch.setattr(bench, "_usable_cpus", lambda: 4)   # a pool on any machine
        kwargs = dict(algorithms=algorithms, m_values=[1, 2], runs=4, base_seed=3, audit=True)
        traces = io.StringIO(), io.StringIO()
        monkeypatch.setenv("BENCH_THREADS", "1")
        serial = run_benchmark(ds, trace_fh=traces[0], **kwargs)
        monkeypatch.setenv("BENCH_THREADS", "3")
        parallel = run_benchmark(ds, trace_fh=traces[1], **kwargs)
        # cpu time differs in noise; everything deterministic must match
        assert emit(serial, "csv") == emit(parallel, "csv")
        assert serial.audited_instances == parallel.audited_instances
        assert serial.audit_min_slack == parallel.audit_min_slack
        assert serial.audit_failures == parallel.audit_failures
        # every failure is labelled with the (kind, m, run) that produced it
        assert {(f.algorithm, f.m, f.run) for f in serial.audit_failures} == {
            (kind, m, r) for kind in algorithms for m in (1, 2) for r in range(4)}
        assert traces[0].getvalue() and traces[0].getvalue() == traces[1].getvalue()

    def test_threads_env_fallback(self, binary_ds, monkeypatch):
        monkeypatch.setenv("BENCH_THREADS", "2")
        result = run_benchmark(binary_ds, ["PA"], [1], runs=2, base_seed=0)
        assert len(result.cells) == 1   # smoke: env path executes


@pytest.fixture
def fake_pools(monkeypatch):
    """Stand in for the process pool on a 2-CPU machine; tasks run in-process."""
    pools = []

    class FakePool:
        def __init__(self, max_workers, mp_context=None):
            self.max_workers = max_workers
            self.shutdown_kwargs = None
            pools.append(self)

        def map(self, fn, *iterables):
            return map(fn, *iterables)

        def shutdown(self, **kwargs):
            self.shutdown_kwargs = kwargs

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(bench, "_usable_cpus", lambda: 2)
    return pools


class TestPool:
    @pytest.mark.parametrize("runs, workers", [(3, [2]), (1, [2])])
    def test_workers_capped_at_cpu_count(self, binary_ds, monkeypatch, fake_pools,
                                         runs, workers):
        monkeypatch.setenv("BENCH_THREADS", "5000")
        result = run_benchmark(binary_ds, ["PA", "CW"], [1, 2], runs=runs, base_seed=0)
        assert len(result.cells) == 4
        assert [p.max_workers for p in fake_pools] == workers
        assert all(p.shutdown_kwargs == {"cancel_futures": True} for p in fake_pools)

    def test_workers_capped_at_the_cpus_the_process_may_run_on(self, monkeypatch):
        # under taskset the affinity set is smaller than the machine's CPU count
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setenv("BENCH_THREADS", "2")
        assert bench.check_sweep([1], 2, 0) == ([1], 1)
        monkeypatch.delattr(os, "sched_getaffinity")       # a platform without one
        assert bench.check_sweep([1], 2, 0) == ([1], 2)

    def test_one_task_runs_without_a_pool(self, binary_ds, monkeypatch, fake_pools):
        # the workers are capped at the task count, and one worker is the serial path
        monkeypatch.setenv("BENCH_THREADS", "2")
        result = run_benchmark(binary_ds, ["PA"], [1], runs=1, base_seed=0)
        assert len(result.cells) == 1
        assert fake_pools == []

    def test_failing_run_shuts_down_with_cancel_futures(self, binary_ds, monkeypatch, fake_pools):
        run_sequence = bench.run_sequence

        def degenerate_cw_at_m2(kind, hp, sequence, d, cfg, **kwargs):
            if kind == "CW" and cfg.m == 2:
                raise NumericalDegeneracyError("covariance lost positive definiteness")
            return run_sequence(kind, hp, sequence, d, cfg, **kwargs)

        monkeypatch.setattr(bench, "run_sequence", degenerate_cw_at_m2)
        monkeypatch.setenv("BENCH_THREADS", "5000")
        with pytest.raises(NumericalDegeneracyError, match="^CW m=2 run=0: covariance"):
            run_benchmark(binary_ds, ["PA", "CW", "OGD"], [1, 2], runs=3, base_seed=0)
        assert [p.max_workers for p in fake_pools] == [2]
        assert fake_pools[0].shutdown_kwargs == {"cancel_futures": True}


def _stand_in(space: str):
    if space == "binary":
        text = instances_to_text(separable_instances(60, 5, seed=37, margin=0.02,
                                                     noise=0.2, scale=0.3))
    else:
        text = instances_to_text(blob_instances(60, 5, 4, seed=37, spread=1.5),
                                 multiclass=True)
    return parse_text(text, name=f"stand-in-{space}")


class TestAuditIsReadOnly:
    """The audit and the trace read the sweep; they must not change it."""

    @pytest.mark.parametrize("space", ["binary", "multiclass"])
    def test_csv_identical_with_and_without_audit_and_trace(self, space, monkeypatch):
        monkeypatch.delenv("BENCH_THREADS", raising=False)
        ds = _stand_in(space)
        kwargs = dict(algorithms="all", m_values=[1, 4, 32], runs=2, base_seed=0)
        plain = run_benchmark(ds, **kwargs)
        trace = io.StringIO()
        audited = run_benchmark(ds, audit=True, trace_fh=trace, **kwargs)
        kinds = {c.algorithm for c in plain.cells}
        assert len(kinds) == (16 if space == "binary" else 13)
        assert emit(plain, "csv") == emit(audited, "csv")
        assert audited.audit_passed
        assert audited.audited_instances == 60 * 2 * 3 * len(kinds)
        assert len(trace.getvalue().splitlines()) == audited.audited_instances

    @pytest.mark.parametrize("space", ["binary", "multiclass"])
    def test_unread_audit_takes_no_norm(self, space, monkeypatch):
        def boom(self):
            raise AssertionError("primary_norm() called although nothing reads the audit")

        for cls in (*BINARY_KINDS.values(), *MULTICLASS_KINDS.values()):
            monkeypatch.setattr(cls, "primary_norm", boom)
        monkeypatch.delenv("BENCH_THREADS", raising=False)
        result = run_benchmark(_stand_in(space), "all", [1, 4], runs=2, base_seed=0)
        assert len(result.cells) == (32 if space == "binary" else 26)
        assert result.audited_instances == 0


class TestEmit:
    def _fake_result(self):
        result = BenchmarkResult(dataset_name="demo", n=10, d=3, num_classes=2,
                                 runs=2, base_seed=0,
                                 counting_mode=CountingMode.FIRST_PREDICTION)
        result.cells.append(CellSummary(
            algorithm="PA", m=1,
            mean={"mistake_rate": 0.5, "updates": 7.0, "cpu_seconds": 0.001},
            std={"mistake_rate": 0.0, "updates": 1.0, "cpu_seconds": 0.0005}))
        return result

    def test_table_cells(self):
        text = emit(self._fake_result(), "table")
        assert "Dataset: demo (n=10, d=3, classes=2)" in text
        assert "runs: 2" in text
        assert "mode: first" in text
        assert "0.5000 +/- 0.0000" in text     # rate: 4 digits
        assert "7.00 +/- 1.00" in text         # updates: 2 digits
        assert "Mistake Rate" in text
        assert "NB of Updates" in text
        assert "Cpu Time" in text
        assert "m=1" in text

    def test_csv_shape(self):
        text = emit(self._fake_result(), "csv")
        lines = text.splitlines()
        assert lines[0] == "algorithm,m,metric,mean,std"
        assert lines[1] == "PA,1,mistake_rate,0.5,0.0"
        assert lines[2] == "PA,1,updates,7.0,1.0"
        # timings are excluded so the bytes stay reproducible
        assert "cpu" not in text

    def test_csv_full_precision(self):
        result = self._fake_result()
        result.cells[0].mean["mistake_rate"] = 1.0 / 3.0
        text = emit(result, "csv")
        assert repr(1.0 / 3.0) in text

    def test_unknown_format(self):
        with pytest.raises(ConfigError, match="unknown output format"):
            emit(self._fake_result(), "yaml")

    def test_table_column_per_m(self, binary_ds):
        result = run_benchmark(binary_ds, ["PA1"], [1, 4, 2], runs=1, base_seed=0)
        text = emit(result, "table")
        header_line = text.splitlines()[1]
        assert header_line.index("m=1") < header_line.index("m=2") < header_line.index("m=4")
