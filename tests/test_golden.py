"""Golden outputs: every learner kind, m = 1..32, both counting modes, audited.

Pins, for a small binary and a small multiclass stand-in, the CSV bytes of
the sweep, the SHA-256 of its trace JSONL and the number of audited instance
checks. The data under tests/golden/ was written from the same calls by the
code it guards; a refactor that is meant to keep the numbers must pass this
test unchanged. If an intended change moves a number, regenerate the files
by hand and say why in the change that does it.
"""
from __future__ import annotations

import hashlib
import io
import json
from pathlib import Path

import pytest

from conftest import blob_instances, instances_to_text, separable_instances
from multiupdate.bench import emit, run_benchmark
from multiupdate.data import normalize_labels, parse_text
from multiupdate.engine import CountingMode

GOLDEN = Path(__file__).resolve().parent / "golden"
M_VALUES = [1, 2, 4, 8, 16, 32]
RUNS = 2


def _dataset(space: str):
    if space == "binary":
        instances = separable_instances(80, 8, seed=11, margin=0.02, noise=0.2, scale=0.3)
        text = instances_to_text(instances)
    else:
        text = instances_to_text(blob_instances(80, 6, 4, seed=13, spread=1.5),
                                 multiclass=True)
    return normalize_labels(parse_text(text, name=f"golden-{space}"))


def sweep(space: str, mode: CountingMode) -> tuple[str, str, int, bool]:
    """(CSV text, trace SHA-256, audited instance checks, audit passed)."""
    trace = io.StringIO()
    result = run_benchmark(_dataset(space), "all", M_VALUES, RUNS, 0,
                           counting_mode=mode, audit=True, trace_fh=trace)
    digest = hashlib.sha256(trace.getvalue().encode("utf-8")).hexdigest()
    return emit(result, "csv"), digest, result.audited_instances, result.audit_passed


@pytest.mark.parametrize("mode", list(CountingMode), ids=lambda m: m.value)
@pytest.mark.parametrize("space", ["binary", "multiclass"])
def test_golden_sweep(space, mode, monkeypatch):
    monkeypatch.delenv("BENCH_THREADS", raising=False)
    name = f"{space}-{mode.value}"
    expected = json.loads((GOLDEN / "golden.json").read_text())[name]
    csv, digest, audited, passed = sweep(space, mode)
    assert passed
    assert csv == (GOLDEN / f"{name}.csv").read_text()
    assert digest == expected["trace_sha256"]
    assert audited == expected["audited_instances"]
