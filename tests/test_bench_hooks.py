"""The names and shapes the traced benchmark run hooks into.

perfbench/traced.py times each layer by replacing module attributes the CLI
and the sweep look up at call time. A renamed attribute does not fail that
run: its metrics are only reported absent, or read 0 in a pool worker. These
tests read traced.py's _patch calls (without importing or changing it) and
require each target to exist and be callable, and they pin the shapes its
counters read.
"""
from __future__ import annotations

import importlib
import re
from pathlib import Path

import pytest

from conftest import blob_instances, separable_instances
from multiupdate.binary import make_binary
from multiupdate.engine import (LoopConfig, check_norm_bound, process_instance, run_sequence,
                                trace_records)
from multiupdate.multiclass import make_multiclass
from multiupdate.params import HyperParams

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"
PATCH = re.compile(r'_patch\(\s*"([\w.]+)",\s*"(\w+)"')


def test_every_patched_name_exists_and_is_callable():
    targets = PATCH.findall(TRACED.read_text())
    assert len(targets) >= 11
    for module_name, attr in targets:
        target = getattr(importlib.import_module(module_name), attr, None)
        assert callable(target), f"{module_name}.{attr}"


@pytest.mark.parametrize("m", [1, 8])
def test_the_audit_and_trace_hooks_count_one_unit_per_record(m):
    instances = separable_instances(30, 4, seed=3, margin=0.05, noise=0.1)
    _, records, _ = run_sequence("PA1", HyperParams(), instances, 4, LoopConfig(m=m))
    assert len(check_norm_bound(records, m).instances) == len(records)
    lines = trace_records(records, algorithm="PA1", m=m, run=0)
    assert len(lines) == len(records)
    assert all(isinstance(line, str) for line in lines)


@pytest.mark.parametrize("kind", ["AROW", "PA1", "M_AROW", "M_PA1"])
def test_a_step_wrapper_on_the_instance_sees_every_cycle(kind):
    # the timed-learner hook sets learner.step on the instance, and
    # process_instance must call it once per cycle it runs
    if kind.startswith("M_"):
        learner = make_multiclass(kind, 3, 4, HyperParams())
        instances = blob_instances(30, 4, 3, seed=3, spread=2.5)
    else:
        learner = make_binary(kind, 4, HyperParams())
        instances = separable_instances(30, 4, seed=3, margin=0.05, noise=0.1)
    step = learner.step
    calls = []

    def counting_step(x, y):
        calls.append(1)
        return step(x, y)
    learner.step = counting_step
    cfg = LoopConfig(m=8)
    cycles = 0
    for x, y in instances:
        before = len(calls)
        record = process_instance(learner, x, y, cfg)
        assert len(calls) - before == record.cycles
        cycles += record.cycles
    assert cycles > len(instances)          # some instance ran repeat cycles
