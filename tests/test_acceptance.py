"""Release gate: seven checks, one printed PASS/FAIL/SKIP line each.

Checks that need the published benchmark datasets (svmguide3, glass.scale,
segment.scale, covtype.binary) look for them under data/ — or under
$BENCH_DATA_DIR — and fall back to calibrated synthetic stand-ins (or SKIP,
where no honest stand-in exists) when a file is absent. Every line states
which variant ran, so a green run always says what it proved.
"""
from __future__ import annotations

import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from conftest import blob_instances, instances_to_text, separable_instances
from multiupdate.bench import run_benchmark
from multiupdate.binary import BINARY_KINDS, make_binary
from multiupdate.cli import main
from multiupdate.data import load_dataset, normalize_labels, parse_text, subsample
from multiupdate.engine import CountingMode, LoopConfig, run_sequence
from multiupdate.multiclass import MULTICLASS_KINDS, make_multiclass
from multiupdate.params import HyperParams

REPO = Path(__file__).resolve().parent.parent
DATA_DIR = Path(os.environ.get("BENCH_DATA_DIR", str(REPO / "data")))
HP = HyperParams()
FIRST = CountingMode.FIRST_PREDICTION
ALL_M = [1, 2, 4, 8, 16, 32]

# The Table-2 collapse set: binary kinds whose mistake rate the reference
# results drive to zero by m=8 on svmguide3.
COLLAPSE_KINDS = ["PA1", "PA2", "OGD", "CW", "SCW1", "ALMA", "SOP"]


@contextmanager
def criterion(num: int, name: str):
    """Prints exactly one `ACCEPTANCE <num> (<name>): ...` line, then asserts."""
    out = {"status": None, "detail": ""}

    def line(status: str) -> str:
        detail = f" [{out['detail']}]" if out["detail"] else ""
        return f"ACCEPTANCE {num} ({name}): {status}{detail}"

    try:
        yield out
    except pytest.skip.Exception:
        print(line("SKIP"))
        # Re-raise with the full line as the reason so it also appears in
        # the -rs summary (captured stdout of skipped tests is not echoed).
        pytest.skip(line("SKIP"))
    except Exception as exc:
        out["detail"] = f"crashed: {exc}"
        print(line("FAIL"))
        raise
    print(line("PASS" if out["status"] else "FAIL"))
    assert out["status"], f"acceptance {num} ({name}) failed: {out['detail']}"


def _find(name: str) -> Path | None:
    for candidate in (DATA_DIR / name, DATA_DIR / f"{name}.gz"):
        if candidate.exists():
            return candidate
    return None


def _load(path: Path):
    return normalize_labels(load_dataset(path))


def _synth(instances, *, multiclass: bool = False, name: str = "synth"):
    text = instances_to_text(instances, multiclass=multiclass)
    return normalize_labels(parse_text(text, name=name))


def _rates(ds, algos, m_values, runs, **kw):
    res = run_benchmark(ds, algos, m_values, runs, 0,
                        counting_mode=FIRST, **kw)
    return {(c.algorithm, c.m): c.mean["mistake_rate"] for c in res.cells}


def _state(learner) -> np.ndarray:
    """Copy of the audited weight state (matrix for multiclass kinds)."""
    for attr in ("W", "mu", "v", "w"):
        if hasattr(learner, attr):
            return np.array(getattr(learner, attr), copy=True)
    raise AttributeError(f"no audited state on {type(learner).__name__}")


def test_criterion_1_single_cycle_equivalence():
    with criterion(1, "single-cycle equivalence") as c:
        started = time.perf_counter()
        cfg = LoopConfig(m=1)
        mismatches = []

        def direct(learner, sequence):
            mistakes, updates = [], 0
            for x, y in sequence:
                learner.begin_instance()
                info = learner.step(x, y)
                mistakes.append(info.mispredicted)
                updates += int(info.triggered)
            return mistakes, updates

        d = 10
        bin_seq = separable_instances(200, d, seed=3, margin=0.05, noise=0.1)
        for kind in sorted(BINARY_KINDS):
            engine_learner, records, stats = run_sequence(kind, HP, bin_seq, d, cfg)
            ref = make_binary(kind, d, HP)
            ref_mistakes, ref_updates = direct(ref, bin_seq)
            if ([r.mistake for r in records] != ref_mistakes
                    or stats.updates != float(ref_updates)
                    or not np.array_equal(_state(engine_learner), _state(ref))):
                mismatches.append(kind)

        k = 4
        mc_seq = blob_instances(200, d, k, seed=5, spread=2.0)
        for kind in sorted(MULTICLASS_KINDS):
            engine_learner, records, stats = run_sequence(
                kind, HP, mc_seq, d, cfg, num_classes=k)
            ref = make_multiclass(kind, k, d, HP)
            ref_mistakes, ref_updates = direct(ref, mc_seq)
            if ([r.mistake for r in records] != ref_mistakes
                    or stats.updates != float(ref_updates)
                    or not np.array_equal(_state(engine_learner), _state(ref))):
                mismatches.append(kind)

        elapsed = time.perf_counter() - started
        c["status"] = not mismatches and elapsed < 5.0
        c["detail"] = (
            f"{len(BINARY_KINDS)} binary + {len(MULTICLASS_KINDS)} multiclass "
            f"kinds bit-exact over 200 instances, {elapsed:.1f}s"
            + (f"; mismatches: {mismatches}" if mismatches else ""))


def test_criterion_2_norm_bound_audit_sweep():
    with criterion(2, "norm-bound audit sweep") as c:
        started = time.perf_counter()
        parts, all_ok = [], True

        def audit(ds, runs):
            nonlocal all_ok
            res = run_benchmark(ds, "all", ALL_M, runs, 0, counting_mode=FIRST, audit=True)
            all_ok = all_ok and res.audit_passed
            return (f"{ds.name}: {res.audited_instances} checks, "
                    f"min slack {res.audit_min_slack:.1e}")

        real = [_find(n) for n in ("svmguide3", "glass.scale", "segment.scale")]
        for path in filter(None, real):
            parts.append(audit(_load(path), runs=20))
        if not all(real):
            parts.append(audit(_synth(
                separable_instances(400, 20, 5, margin=0.05, scale=0.5, noise=0.05),
                name="stand-in-bin"), runs=3))
            parts.append(audit(_synth(
                blob_instances(240, 10, 5, 6, spread=2.0),
                multiclass=True, name="stand-in-mc"), runs=3))

        elapsed = time.perf_counter() - started
        c["status"] = all_ok and elapsed < 600.0
        c["detail"] = "; ".join(parts) + f"; {elapsed:.0f}s"


def test_criterion_3_reference_anchor_rates():
    with criterion(3, "reference anchor rates") as c:
        path = _find("svmguide3")
        if path is None:
            c["detail"] = "svmguide3 not present; no stand-in can anchor published rates"
            pytest.skip("svmguide3 not present under data/")
        rates = _rates(_load(path), "PA1,Perceptron", [1], 20)
        pa1, perc = rates[("PA1", 1)], rates[("Perceptron", 1)]
        c["status"] = abs(pa1 - 0.2369) <= 0.03 and abs(perc - 0.3304) <= 0.03
        c["detail"] = (f"PA1 {pa1:.4f} (want 0.2369 +/- 0.03), "
                       f"Perceptron {perc:.4f} (want 0.3304 +/- 0.03)")


def test_criterion_4_mistake_rate_collapse():
    with criterion(4, "mistake-rate collapse") as c:
        started = time.perf_counter()
        parts, all_ok = [], True

        def check(label, value, gate):
            nonlocal all_ok
            ok = value <= gate
            all_ok = all_ok and ok
            parts.append(f"{label} {value:.4f}{'' if ok else f' > {gate}'}")

        svm = _find("svmguide3")
        if svm is not None:
            rates = _rates(_load(svm), ",".join(COLLAPSE_KINDS), [8], 20)
            for kind in COLLAPSE_KINDS:
                check(f"{kind}@m8", rates[(kind, 8)], 0.01)
        else:
            collapse = _synth(
                separable_instances(2500, 15, 7, margin=0.10, scale=0.1),
                name="collapse-twin")
            rates = _rates(collapse, ",".join(COLLAPSE_KINDS), [8], 3)
            for kind in COLLAPSE_KINDS:
                check(f"twin:{kind}@m8", rates[(kind, 8)], 0.01)
            grind = _synth(
                separable_instances(2000, 20, 7, margin=0.02, scale=0.1),
                name="grind-twin")
            g = _rates(grind, "OGD", [1, 8], 3)
            ok = g[("OGD", 8)] <= 0.75 * g[("OGD", 1)]
            all_ok = all_ok and ok
            parts.append(f"twin:OGD m8/m1 {g[('OGD', 8)] / g[('OGD', 1)]:.2f}"
                         + ("" if ok else " > 0.75"))

        glass = _find("glass.scale")
        if glass is not None:
            check("M_PA@m4", _rates(_load(glass), "M_PA", [4], 20)[("M_PA", 4)], 0.01)
        else:
            twin = _synth(blob_instances(900, 9, 6, 11, spread=5.0),
                          multiclass=True, name="glass-twin")
            check("twin:M_PA@m4", _rates(twin, "M_PA", [4], 3)[("M_PA", 4)], 0.01)

        segment = _find("segment.scale")
        if segment is not None:
            check("M_CW@m4", _rates(_load(segment), "M_CW", [4], 20)[("M_CW", 4)], 0.01)
        else:
            twin = _synth(blob_instances(1050, 19, 7, 11, spread=4.5),
                          multiclass=True, name="segment-twin")
            check("twin:M_CW@m4", _rates(twin, "M_CW", [4], 3)[("M_CW", 4)], 0.01)

        elapsed = time.perf_counter() - started
        c["status"] = all_ok and elapsed < 300.0
        c["detail"] = "; ".join(parts) + f"; {elapsed:.0f}s"


def test_criterion_5_subsample_improvement():
    with criterion(5, "subsample improvement") as c:
        started = time.perf_counter()
        path = _find("covtype.binary")
        if path is not None:
            ds, gate, runs, label = _load(path), 0.2, 20, "covtype"
        else:
            # Stand-in: near-duplicate groups under clipped-step updates. A
            # single cycle per visit cannot push a group to a safe margin
            # before other groups' updates disturb it again; two cycles can.
            # The synthetic geometry shows that direction cleanly (measured
            # ratio ~0.6) but not the published 5x covtype collapse, so the
            # 0.2 gate stays reserved for the real file.
            base = separable_instances(300, 10, 21, margin=0.02, scale=0.03)
            ds = _synth((base * 84)[:25000], name="capped-twin")
            gate, runs, label = 0.8, 5, "twin"
        sub = subsample(ds, 20000, 0)
        rates = _rates(sub, "PA1", [1, 2], runs)
        m1, m2 = rates[("PA1", 1)], rates[("PA1", 2)]
        elapsed = time.perf_counter() - started
        c["status"] = m2 <= gate * m1 and elapsed < 180.0
        c["detail"] = (f"{label}: PA1 m1 {m1:.4f}, m2 {m2:.4f}, "
                       f"ratio {m2 / m1:.2f} (gate {gate}); {elapsed:.0f}s")


def test_criterion_6_property_suite_budget():
    with criterion(6, "property-suite budget") as c:
        files = ["tests/test_rng.py", "tests/test_binary_learners.py",
                 "tests/test_multiclass_learners.py", "tests/test_engine.py"]
        started = time.perf_counter()
        try:
            # the budget is the timeout too, so a child that loops fails in 60 s
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", *files, "-q", "-p", "no:cacheprovider"],
                cwd=REPO, capture_output=True, text=True, timeout=60.0)
        except subprocess.TimeoutExpired:
            c["status"] = False
            c["detail"] = "timed out after 60 s"
            return
        elapsed = time.perf_counter() - started
        tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "no output"
        c["status"] = proc.returncode == 0 and elapsed < 60.0
        c["detail"] = f"{tail}; {elapsed:.0f}s"
        if proc.returncode != 0:
            c["detail"] += f"; rc={proc.returncode}"


def test_criterion_7_deterministic_csv(tmp_path, monkeypatch):
    with criterion(7, "deterministic csv") as c:
        monkeypatch.delenv("BENCH_THREADS", raising=False)
        path = _find("svmguide3")
        if path is None:
            stand_in = tmp_path / "stand-in.txt"
            stand_in.write_text(instances_to_text(
                separable_instances(400, 20, 5, margin=0.05, scale=0.5, noise=0.05)))
            path, label = stand_in, "stand-in"
        else:
            label = "svmguide3"
        outs = [tmp_path / "first.csv", tmp_path / "second.csv"]
        codes = [main(["bench", "--data", str(path), "--algos", "all",
                       "--m", "1,2,4,8,16,32", "--runs", "2", "--seed", "0",
                       "--format", "csv", "--out", str(out)]) for out in outs]
        same = outs[0].read_bytes() == outs[1].read_bytes()
        c["status"] = codes == [0, 0] and same
        c["detail"] = (f"{label}: two sweeps, exit codes {codes}, "
                       f"{'byte-identical' if same else 'OUTPUTS DIFFER'} "
                       f"({outs[0].stat().st_size} bytes)")
