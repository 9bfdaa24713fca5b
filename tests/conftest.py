"""Shared synthetic data builders for the test suite.

Everything is generated through the package's own PRNG so datasets are
identical across platforms and runs.

multiupdate is imported before numpy: the package sets OPENBLAS_NUM_THREADS
to 1 before numpy first loads OpenBLAS, and OpenBLAS reads the variable only
then, so the in-process suite runs the one BLAS thread every CLI process does.
"""
from __future__ import annotations

import functools
import hashlib
import importlib.util
import io
import json
import math
from pathlib import Path

import multiupdate  # noqa: F401  (before numpy, as the docstring says)

import numpy as np
import pytest

from multiupdate.core import SparseVector
from multiupdate.data import Dataset, normalize_labels, parse_sparse_text
from multiupdate.multiclass import MCW
from multiupdate.rng import Xoshiro256StarStar

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def gauss_stream(rng: Xoshiro256StarStar):
    """Yield standard normals (Box-Muller, one per call)."""
    while True:
        u1 = max(rng.next_float(), 1e-12)
        u2 = rng.next_float()
        r = math.sqrt(-2.0 * math.log(u1))
        yield r * math.cos(2.0 * math.pi * u2)
        yield r * math.sin(2.0 * math.pi * u2)


def separable_instances(n: int, d: int, seed: int, *, margin: float = 0.1,
                        scale: float = 1.0, noise: float = 0.0):
    """Linearly separable +/-1 instances with directional margin >= `margin`.

    Labels come from a random unit vector; candidates inside the margin band
    are rejected, so the clean dataset is separable by construction. `noise`
    flips that fraction of labels; `scale` multiplies features (small scales
    put PA-style updates into the clipped regime where inner repeats matter).
    """
    rng = Xoshiro256StarStar(seed)
    g = gauss_stream(rng)
    w = [next(g) for _ in range(d)]
    norm = math.sqrt(sum(v * v for v in w))
    w = [v / norm for v in w]
    out = []
    while len(out) < n:
        x = [next(g) for _ in range(d)]
        xnorm = math.sqrt(sum(v * v for v in x))
        s = sum(a * b for a, b in zip(w, x)) / xnorm
        if abs(s) < margin:
            continue
        y = 1 if s > 0 else -1
        if noise > 0.0 and rng.next_float() < noise:
            y = -y
        out.append((SparseVector(list(range(d)), [v * scale for v in x]), y))
    return out


def blob_instances(n: int, d: int, k: int, seed: int, *, spread: float = 4.0):
    """k Gaussian blobs with unit jitter; labels are 0..k-1."""
    rng = Xoshiro256StarStar(seed)
    g = gauss_stream(rng)
    centers = [[spread * next(g) for _ in range(d)] for _ in range(k)]
    out = []
    for _ in range(n):
        c = int(rng.next_u64() % k)
        x = [centers[c][j] + next(g) for j in range(d)]
        out.append((SparseVector(list(range(d)), x), c))
    return out


def instances_to_text(instances, *, multiclass: bool = False) -> str:
    """Render (SparseVector, label) pairs in the sparse text format."""
    lines = []
    for x, y in instances:
        label = str(int(y) + 1) if multiclass else f"{int(y):+d}"
        feats = " ".join(f"{i + 1}:{v!r}" for i, v in x.pairs())
        lines.append(f"{label} {feats}")
    return "\n".join(lines) + "\n"


SCRATCH = frozenset({"_cycle"})
"""Learner attributes that hold scratch and bindings, not model state: the
SigmaCycle of the Sigma kinds and SOP, whose buffers and bound views change
on every cycle without changing what the learner has learned."""


def learner_state(learner) -> dict:
    """A copy of every model-state attribute of a learner (all but SCRATCH),
    for before/after comparisons."""
    return {k: np.copy(v) if isinstance(v, np.ndarray) else v
            for k, v in vars(learner).items() if k not in SCRATCH}


def same_state(a: dict, b: dict) -> bool:
    """Whether two learner_state snapshots hold the same keys and bit-equal values."""
    return a.keys() == b.keys() and all(
        np.array_equal(a[k], b[k]) if isinstance(a[k], np.ndarray) else a[k] == b[k] for k in a)


INDEFINITE_LINES = ("1 1:1 2:-1\n2 1:-0.5 2:0.6\n3 1:0.9 2:-1.1\n"
                    "1 1:-1 2:0.8\n2 1:0.7 2:-0.7\n3 1:-1.2 2:1\n")
"""A three-class d=2 file whose every row x has x^T Sigma x < 0 under
the indefinite Sigma of the indefinite_m_cw fixture."""


@pytest.fixture()
def indefinite_m_cw(monkeypatch):
    """M_CW, M_SCW1 and M_SCW2 learners (d=2) start from Sigma = [[1, 10], [10, 1]],
    whose eigenvalue along (1, -1) is -9. Forked pool workers inherit the patch."""
    init = MCW.__init__

    def indefinite_init(self, num_classes, d, hp):
        init(self, num_classes, d, hp)
        self.sigma[...] = [[1.0, 10.0], [10.0, 1.0]]

    monkeypatch.setattr(MCW, "__init__", indefinite_init)


@functools.cache
def bench_stand_in(workload: str) -> Dataset:
    """A benchmark workload's stand-in at the default seed: generated by
    perfbench/synth.py (imported by file path), checked against the SHA-256
    in perfbench/golden/golden.json and parsed like the file the benchmark
    writes."""
    spec = json.loads((PERFBENCH / "workloads.json").read_text())
    data = spec["workloads"][workload]["data"]
    assert not data["gzip"]
    synth_spec = importlib.util.spec_from_file_location("perfbench_synth", PERFBENCH / "synth.py")
    synth = importlib.util.module_from_spec(synth_spec)
    synth_spec.loader.exec_module(synth)
    blob = synth.GENERATORS[data["generator"]](data["n"], spec["default_seed"])
    golden = json.loads((PERFBENCH / "golden" / "golden.json").read_text())
    assert hashlib.sha256(blob).hexdigest() == golden[workload]["data_sha256"]
    return normalize_labels(parse_sparse_text(io.BytesIO(blob), name=workload))
