"""The BLAS thread policy: importing multiupdate sets OPENBLAS_NUM_THREADS=1
unless the variable is already set.

Each test but one runs a child process with the variable removed from its
environment (this process has imported multiupdate, so it holds the value);
the one reads OpenBLAS's thread count in this process, which conftest has
imported multiupdate into before numpy.

Past 10,000 elements OpenBLAS splits a ddot across its threads and rounds the
sum in another order, so on a machine with two or more CPUs the wide-file
trace below differs between one thread and the default without the policy.
"""
from __future__ import annotations

import inspect
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import multiupdate

SRC = str(Path(multiupdate.__file__).parents[1])


def blas_thread_count() -> int | None:
    """OpenBLAS's runtime thread count when numpy bundles scipy-openblas,
    else None. Called in this process, and in PROBE after the import."""
    import ctypes
    import glob
    import os

    import numpy
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        get = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            return get()
    return None


# Prints the variable after the import, and OpenBLAS's runtime thread count.
PROBE = inspect.getsource(blas_thread_count) + """
import json, os
import multiupdate
print(json.dumps({"env": os.environ.get("OPENBLAS_NUM_THREADS"), "blas": blas_thread_count()}))
"""

NO_COUNT = ("numpy.libs has no scipy-openblas library exporting "
            "scipy_openblas_get_num_threads64_, so the runtime count cannot be read")


def _env(threads: str | None) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("BENCH_THREADS", None)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return env


def _probe(threads: str | None) -> dict:
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                          env=_env(threads), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def unset_probe() -> dict:
    return _probe(None)


def test_import_sets_one_blas_thread(unset_probe):
    assert unset_probe["env"] == "1"


def test_openblas_runs_one_thread_after_the_import(unset_probe):
    count = unset_probe["blas"]
    if count is None:
        pytest.skip(NO_COUNT)
    assert count == 1


def test_the_test_process_runs_one_blas_thread():
    # in-process tests over more than 10,000 elements would otherwise read
    # core-count-dependent bits, and an idle worker would spin through the suite
    count = blas_thread_count()
    if count is None:
        pytest.skip(NO_COUNT)
    assert count == 1


def test_an_explicit_value_is_kept():
    assert _probe("2")["env"] == "2"


@pytest.fixture(scope="module")
def wide_file(tmp_path_factory) -> Path:
    """60 binary rows, 40 non-zeros each, d = 12,000: every w_star_norm is a
    ddot over 12,000 elements."""
    rng = random.Random(6)
    rows = []
    for i in range(60):
        mean = 0.05 if i % 2 else -0.05
        features = " ".join(f"{j + 1}:{rng.gauss(mean, 1)!r}"
                            for j in sorted(rng.sample(range(11999), 39)) + [11999])
        rows.append(f"{1 if i % 2 else -1:+d} {features}")
    path = tmp_path_factory.mktemp("wide") / "wide.txt"
    path.write_text("\n".join(rows) + "\n")
    return path


def test_wide_trace_bytes_do_not_depend_on_the_thread_default(wide_file, tmp_path):
    outputs = {}
    for name, threads in (("unset", None), ("one", "1")):
        csv, trace = tmp_path / f"{name}.csv", tmp_path / f"{name}.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "multiupdate.cli", "bench", "--data", str(wide_file),
             "--algos", "Perceptron,ROMMA", "--m", "1,4", "--format", "csv",
             "--out", str(csv), "--trace", str(trace)],
            capture_output=True, text=True, env=_env(threads), timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs[name] = csv.read_bytes(), trace.read_bytes()
    assert outputs["unset"][1]
    assert outputs["unset"] == outputs["one"]
