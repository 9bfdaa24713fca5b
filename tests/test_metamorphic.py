"""Metamorphic relations on the whole CLI sweep (Xie et al., JSS 2011).

Each transformation mirrors every learner's state exactly in IEEE
arithmetic, so the sweep must write the same CSV and trace bytes:

- flipping every binary label mirrors w, mu and SOP's v (w -> -w) and keeps
  every margin y*s, so all 16 binary kinds are unchanged;
- negating every feature mirrors the same vectors, and the multiclass
  prototype rows W, and leaves Sigma (a sum of outer products of Sigma x)
  as it was, so all 16 binary and 13 multiclass kinds are unchanged;
- scaling every feature by a power of two (4 or 1/8) scales every state
  vector exactly and keeps every decision for the kinds that are scale-free
  in exact arithmetic (Perceptron, PA, ALMA, M_PerceptronM/U/S, M_PA), so
  their CSV rows are unchanged. Their trace norms scale, so only the CSV is
  compared. Kinds with a C cap, Sigma_0 = I or a fixed rate are not
  scale-free, and PA1, CW, ROMMA and M_PA1 keep their rows at one of the
  two scales only, by chance;
- shifting every feature index by +5 leaves five empty leading columns that
  add exact zeros to every product, so every kind keeps its CSV rows. The
  BLAS kernels round by a value's position in the vector, though: SCW2,
  M_SCW2 and M_aROMMA move rows and are expected failures until the
  products are fixed-order, and the trace keeps its bytes only for the nine
  binary kinds without Sigma.

The sweeps run every kind on the golden stand-ins with the audit and the
trace on, so the state carried across instances and runs is covered, not
only one instance.

Three further relations trade m for a hyperparameter, from the closed form
of one instance's m cycles, and are checked per run, permutations 0-5, on
the golden binary stand-in and on the binary-sweep benchmark workload's
(perfbench/synth.py's svmguide3_like, 600 noisy dense rows in d = 21):

- AROW: after k fired cycles the loss is l*r/(r + k*v) and the confidence
  r*v/(r + k*v), so an instance with a positive loss fires all m cycles,
  and they are one AROW step with arow_r / m: the same mistakes, and
  exactly m times the updates;
- PA1: a capped cycle lowers the loss by C*||x||^2, so m cycles are one
  PA1 step with the cap m*C: the same mistakes. On binary-sweep's stand-in
  the default cap C = 1 never binds, so the relation runs there at C = 0.1;
- PA2: the loss contracts by the same factor on each cycle and the steps
  sum towards PA's, so PA2 at m = 32 makes PA's mistakes.
"""
from __future__ import annotations

import functools
import tempfile
from pathlib import Path

import pytest

from conftest import bench_stand_in, blob_instances, instances_to_text, separable_instances
from multiupdate.binary import BINARY_KINDS
from multiupdate.cli import main
from multiupdate.core import SparseVector
from multiupdate.engine import LoopConfig, run_sequence
from multiupdate.multiclass import MULTICLASS_KINDS
from multiupdate.params import HyperParams
from multiupdate.rng import permutation

BINARY = separable_instances(80, 8, seed=11, margin=0.02, noise=0.2, scale=0.3)
MULTICLASS = blob_instances(80, 6, 4, seed=13, spread=1.5)


@pytest.fixture(autouse=True)
def _serial(monkeypatch):
    monkeypatch.delenv("BENCH_THREADS", raising=False)


def _sweep(instances, multiclass: bool, algos: str = "all") -> tuple[bytes, bytes]:
    """(CSV bytes, trace bytes) of `multiupdate bench` over algos."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data = tmp / "data.txt"
        data.write_text(instances_to_text(instances, multiclass=multiclass))
        rc = main(["bench", "--data", str(data), "--algos", algos, "--m", "1,4,32",
                   "--runs", "2", "--seed", "0", "--audit-theorem1", "--format", "csv",
                   "--out", str(tmp / "out.csv"), "--trace", str(tmp / "trace.jsonl")])
        assert rc == 0
        return (tmp / "out.csv").read_bytes(), (tmp / "trace.jsonl").read_bytes()


@functools.cache
def _base(multiclass: bool) -> tuple[bytes, bytes]:
    return _sweep(MULTICLASS if multiclass else BINARY, multiclass)


def _negated(x: SparseVector) -> SparseVector:
    return SparseVector(x.indices, -x.values)


def test_flipping_every_binary_label_keeps_the_sweep():
    flipped = [(x, -y) for x, y in BINARY]
    assert _sweep(flipped, multiclass=False) == _base(False)


@pytest.mark.parametrize("multiclass", [False, True], ids=["binary", "multiclass"])
def test_negating_every_feature_keeps_the_sweep(multiclass):
    instances = MULTICLASS if multiclass else BINARY
    negated = [(_negated(x), y) for x, y in instances]
    assert _sweep(negated, multiclass) == _base(multiclass)


@pytest.mark.parametrize("multiclass", [False, True], ids=["binary", "multiclass"])
def test_the_base_sweep_covers_every_kind_with_updates(multiclass):
    csv, trace = _base(multiclass)
    kinds = {row.split(",")[0] for row in csv.decode().splitlines()[1:]}
    assert len(kinds) == (13 if multiclass else 16)
    # 3 m values x 2 runs x 80 instances per kind, and some runs update
    assert trace.count(b"\n") == len(kinds) * 3 * 2 * 80
    assert b'"updates":1' in trace


SCALE_FREE = {False: ["Perceptron", "PA", "ALMA"],
              True: ["M_PerceptronM", "M_PerceptronU", "M_PerceptronS", "M_PA"]}


@pytest.mark.parametrize("factor", [4.0, 0.125], ids=["x4", "x1/8"])
@pytest.mark.parametrize("multiclass", [False, True], ids=["binary", "multiclass"])
def test_scaling_every_feature_keeps_the_scale_free_rows(multiclass, factor):
    instances = MULTICLASS if multiclass else BINARY
    scaled = [(SparseVector(x.indices, x.values * factor), y) for x, y in instances]
    kinds = SCALE_FREE[multiclass]
    csv, _ = _sweep(scaled, multiclass, algos=",".join(kinds))
    base = _base(multiclass)[0].splitlines(keepends=True)
    assert csv == b"".join(base[:1] + [row for row in base[1:]
                                      if row.split(b",")[0].decode() in kinds])
    assert csv.count(b"\n") == 1 + len(kinds) * 3 * 2


@functools.cache
def _shifted(multiclass: bool) -> tuple[bytes, bytes]:
    instances = MULTICLASS if multiclass else BINARY
    return _sweep([(SparseVector(x.indices + 5, x.values), y) for x, y in instances],
                  multiclass)


def _kind_rows(sweep: tuple[bytes, bytes], kind: str) -> tuple[list[bytes], list[bytes]]:
    """kind's CSV rows and trace rows of one sweep."""
    csv, trace = sweep
    return ([row for row in csv.splitlines() if row.split(b",")[0] == kind.encode()],
            [row for row in trace.splitlines()
             if row.startswith(b'{"algorithm":"%s",' % kind.encode())])


LAYOUT_SENSITIVE = {"SCW2", "M_SCW2", "M_aROMMA"}
WITHOUT_SIGMA = ["Perceptron", "PA", "PA1", "PA2", "OGD", "ALMA", "ROMMA", "aROMMA", "SOP"]


@pytest.mark.parametrize("kind", [
    pytest.param(kind, marks=pytest.mark.xfail(
        strict=True, reason="BLAS rounds by position (direction 1)"))
    if kind in LAYOUT_SENSITIVE else kind
    for kind in (*BINARY_KINDS, *MULTICLASS_KINDS)])
def test_shifting_every_feature_index_keeps_the_csv_rows(kind):
    multiclass = kind in MULTICLASS_KINDS
    shifted, _ = _kind_rows(_shifted(multiclass), kind)
    assert len(shifted) == 3 * 2          # m values x CSV metrics
    assert shifted == _kind_rows(_base(multiclass), kind)[0]


@pytest.mark.parametrize("kind", WITHOUT_SIGMA)
def test_shifting_every_feature_index_keeps_the_trace_without_sigma(kind):
    _, shifted = _kind_rows(_shifted(False), kind)
    assert len(shifted) == 3 * 2 * 80     # m values x runs x instances
    assert shifted == _kind_rows(_base(False), kind)[1]


HP = HyperParams()
M_VALUES = [2, 4, 8, 16, 32]
STAND_INS = ("golden", "binary-sweep")
# PA1's cap: at the default C = 1 it never binds on binary-sweep's stand-in,
# where PA1 at every m equals PA1 at m = 1, so the relation would be vacuous
PA1_C = {"golden": HP.C, "binary-sweep": 0.1}


def _per_stand_in(values) -> list:
    """(stand-in, value) cases; the golden stand-in's keep their bare ids."""
    return [pytest.param(name, v, id=str(v) if name == "golden" else f"{name}-{v}")
            for name in STAND_INS for v in values]


@functools.cache
def _stand_in(name: str) -> tuple[list, int]:
    """(instances, d) of the golden binary stand-in or of the binary-sweep
    benchmark workload's."""
    if name == "golden":
        return BINARY, max(x.max_index for x, _ in BINARY) + 1
    data = bench_stand_in(name)
    return list(data.instances), data.d


def _runs(stand_in: str, kind: str, hp: HyperParams, m: int) -> list[tuple[float, int]]:
    """(mistake rate, updates) of kind on a binary stand-in, one per
    permutation 0-5, unaudited as the benchmark runs it."""
    instances, d = _stand_in(stand_in)
    out = []
    for seed in range(6):
        permuted = [instances[i] for i in permutation(len(instances), seed)]
        _, _, stats = run_sequence(kind, hp, permuted, d, LoopConfig(m=m), audit=False)
        out.append((stats.mistake_rate, int(stats.updates)))
    return out


def _rates(runs: list[tuple[float, int]]) -> list[float]:
    return [rate for rate, _ in runs]


@pytest.mark.parametrize("stand_in, m", _per_stand_in(M_VALUES))
def test_arow_at_m_is_one_step_with_r_over_m(stand_in, m):
    one_step = _runs(stand_in, "AROW", HP.replace(arow_r=HP.arow_r / m), 1)
    assert _runs(stand_in, "AROW", HP, m) == [(rate, m * updates) for rate, updates in one_step]


def test_arow_at_m_32_keeps_its_binary_sweep_counts():
    # permutation 0: every instance with a loss fires all 32 cycles
    assert _runs("binary-sweep", "AROW", HP, 32)[0] == (226 / 600, 32 * 574)


def test_nherd_at_m_32_keeps_its_binary_sweep_counts():
    # permutation 0, binary-sweep's golden row: NHERD runs an instance's
    # cycles as one scalar recurrence, as AROW does, and must keep its counts
    assert _runs("binary-sweep", "NHERD", HP, 32)[0] == (218 / 600, 32 * 570)


@pytest.mark.parametrize("stand_in, m", _per_stand_in(M_VALUES))
def test_pa1_at_m_makes_the_mistakes_of_pa1_with_cap_m_c(stand_in, m):
    hp = HP.replace(C=PA1_C[stand_in])
    capped = _rates(_runs(stand_in, "PA1", hp, m))
    assert capped == _rates(_runs(stand_in, "PA1", hp.replace(C=hp.C * m), 1))
    assert capped != _rates(_runs(stand_in, "PA1", hp, 1))   # the cap binds on this data


def test_pa2_at_m_32_makes_the_mistakes_of_pa():
    for stand_in in STAND_INS:
        pa = _rates(_runs(stand_in, "PA", HP, 1))
        assert _rates(_runs(stand_in, "PA2", HP, 32)) == pa
        assert _rates(_runs(stand_in, "PA2", HP, 1)) != pa
