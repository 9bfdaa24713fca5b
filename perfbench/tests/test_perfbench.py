"""Tests of the benchmark's own arithmetic, output check and generators.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import pytest  # noqa: E402

import run  # noqa: E402
import synth  # noqa: E402
import traced  # noqa: E402
from spans import Recorder, self_times, union_length  # noqa: E402


def span(name, start, end, parent=None, inner=0.0, local=True):
    return {"name": name, "start": start, "end": end, "parent": parent, "inner": inner, "local": local}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_union_length_merges_overlaps_and_skips_empty():
    assert union_length([]) == 0.0
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0), (4.0, 4.0)]) == pytest.approx(4.0)
    assert union_length([(0.0, 10.0), (2.0, 3.0)]) == pytest.approx(10.0)


def test_self_time_subtracts_children_and_leaf_time():
    spans = [
        span("root", 0.0, 10.0),
        span("a", 1.0, 3.0, parent=0, inner=0.5),
        span("b", 4.0, 8.0, parent=0, inner=1.0),
        span("b.child", 5.0, 6.0, parent=2),
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.5, 2.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    # Two pool workers run in parallel under one parent span; the second
    # child's end lies past the parent's end and is clipped.
    spans = [
        span("sweep", 0.0, 10.0, inner=1.0),
        span("w1", 2.0, 6.0, parent=0, local=False),
        span("w2", 3.0, 12.0, parent=0, local=False),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 1.0 - 8.0)


def test_recorder_charges_leaves_to_innermost_span():
    clock = FakeClock()
    rec = Recorder(clock=clock)
    outer = rec.open("outer")
    clock.now = 1.0
    inner = rec.open("inner")
    rec.leaf("step", 0.25)
    rec.leaf("step", 0.25)
    clock.now = 2.0
    rec.close(inner)
    rec.leaf("write", 0.5)
    clock.now = 4.0
    rec.close(outer)
    spans, counters = rec.merged()
    assert self_times(spans) == pytest.approx([4.0 - 1.0 - 0.5, 1.0 - 0.5])
    assert counters["step.n"] == 2 and counters["step.s"] == pytest.approx(0.5)


def test_recorder_merges_worker_batches_under_the_fork_time_span(tmp_path):
    clock = FakeClock()
    parent = Recorder(tmp_path, clock=clock)
    sweep = parent.open("sweep")
    worker = Recorder(tmp_path, clock=clock)
    worker.stack = list(parent.stack)
    worker.after_fork_in_child()
    clock.now = 1.0
    top = worker.open("run")
    nested = worker.open("audit")
    clock.now = 2.0
    worker.close(nested)
    worker.leaf("step", 0.5)
    clock.now = 3.0
    worker.close(top)  # stack empties: the batch goes to the worker file
    clock.now = 5.0
    parent.close(sweep)
    spans, counters = parent.merged()
    assert [s["name"] for s in spans] == ["sweep", "run", "audit"]
    assert spans[1]["parent"] == 0 and spans[2]["parent"] == 1
    assert self_times(spans) == pytest.approx([5.0 - 2.0, 2.0 - 1.0 - 0.5, 1.0])
    assert counters["step.n"] == 1


def test_layer_metrics_divide_self_time_by_work_units():
    spans = [
        span("bench.run_benchmark", 0.0, 10.0, inner=0.5),
        span("rng.permute", 0.0, 1.0, parent=0),
        span("engine.run_sequence", 1.0, 9.0, parent=0, inner=6.0),
    ]
    counters = {"rng.permute.units": 1000, "engine.run_sequence.units": 100,
                "binary.step.PA1.s": 6.0, "binary.step.PA1.n": 400, "engine.updates": 100,
                "bench.trace_write.s": 0.5, "bench.trace_write.n": 100}
    facts = {"cpu_seconds_sum": 8.0, "workers": 1}
    out = traced.layer_metrics(spans, counters, facts, ["PA1", "SOP"], ["M_PA"])
    assert out["rng.permutation_us_per_elem"] == pytest.approx(1000.0)
    assert out["bench.self_s"] == pytest.approx(10.0 - 0.5 - 9.0)
    assert out["bench.trace_write_us_per_row"] == pytest.approx(5000.0)
    assert out["bench.pool_efficiency"] == pytest.approx(0.8)
    assert out["binary.step_us.PA1"] == pytest.approx(15000.0)
    assert out["binary.step_us.SOP"] == 0.0 and out["multiclass.step_us.M_PA"] == 0.0
    assert (out["engine.cycles"], out["engine.updates"]) == (400, 100)
    assert out["engine.update_share"] == pytest.approx(0.25)
    assert out["engine.cycles_per_visit"] == pytest.approx(4.0)
    assert out["engine.overhead_us_per_cycle"] == pytest.approx(2.0 / 400 * 1e6)


def test_missing_hook_target_marks_its_metrics_absent():
    hooks = traced.Hooks(Recorder())
    hooks._patch("multiupdate.bench", "no_such_function", lambda f: f, ["rng.permutation_us_per_elem"])
    assert hooks.absent == {"rng.permutation_us_per_elem": "multiupdate.bench.no_such_function no longer exists"}


def test_golden_check_catches_a_one_byte_csv_change():
    wl = run.Workload("ingest", run.SPEC["default_seed"])
    reference = run.golden_reference(wl)
    visits = 1
    good = {"code": 0, "csv": reference["csv"], "sweep_s": 1.0, "stderr": ""}
    assert run.check(wl, good, reference, visits) == []
    flipped = bytearray(reference["csv"])
    flipped[-2] ^= 1
    bad = dict(good, csv=bytes(flipped))
    assert run.check(wl, bad, reference, visits) == ["CSV differs from golden"]


def test_trace_check_counts_rows_and_compares_digests():
    wl = run.Workload("multiclass-audit", run.SPEC["default_seed"])
    reference = run.golden_reference(wl)
    rows = json.loads((run.GOLDEN / "golden.json").read_text())["multiclass-audit"]["trace_rows"]
    rep = {"code": 0, "csv": reference["csv"], "sweep_s": 1.0, "trace_rows": rows,
           "trace_sha256": reference["trace_sha256"], "stderr": "norm-bound audit: ok"}
    assert run.check(wl, rep, reference, rows) == []
    assert run.check(wl, dict(rep, trace_rows=rows - 1), reference, rows) == [
        f"trace has {rows - 1} rows, expected {rows}"]
    assert run.check(wl, dict(rep, stderr=""), reference, rows) == [
        "missing norm-bound audit pass line"]


@pytest.mark.parametrize("generator", sorted(synth.GENERATORS))
def test_generators_repeat_per_seed_and_differ_across_seeds(generator):
    make = synth.GENERATORS[generator]
    first = make(40, 3)
    assert make(40, 3) == first
    assert make(40, 4) != first
    assert len(first.splitlines()) == 40


def test_materialize_caches_by_seed_and_gzip_is_deterministic(tmp_path):
    a = synth.materialize(tmp_path / "one", "covtype_like", 30, 5, gz=True)
    b = synth.materialize(tmp_path / "two", "covtype_like", 30, 5, gz=True)
    assert a.read_bytes() == b.read_bytes()
    assert synth.materialize(tmp_path / "one", "covtype_like", 30, 5, gz=True) == a
    assert synth.materialize(tmp_path / "one", "covtype_like", 30, 6, gz=True) != a
