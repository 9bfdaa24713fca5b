"""The repeated-update engine and the norm-bound audit.

One instance is processed by up to m predict/update cycles on the same
(x, y) — with m=1 this reduces bit-for-bit to the classic
predict-once/update-once protocol. The cycles stop at the first one that
does not fire: the learners are deterministic, so every later cycle would
repeat its prediction and stay passive. A mistake is judged from the first
cycle's prediction (default) or fractionally over all m cycles, the skipped
ones counted as the repeats they would be; the update count is the number
of cycles that fired. Of each cycle's UpdateInfo the engine reads triggered,
mispredicted and, when auditing, delta_sq_norm.

Every processed instance leaves one InstanceRecord. When the learner
audits (its audit attribute, which run_sequence sets once per run from
whether --audit-theorem1 or --trace reads the result), the records are
enough to verify after the fact that the final state norm obeys

    ||w*|| <= ||w0|| + sqrt(M) * (sum_j ||delta_j||^2)^(1/2)

where w0/w* are the audited state vector before/after the instance's cycles
and the delta_j are the per-cycle changes of that same vector. The
inequality is Cauchy-Schwarz on the telescoped updates, so it must hold on
every engine-produced record; the audit exists to catch accounting bugs, not
to test the math. A learner that is not auditing skips that accounting: its
cycles report delta_sq_norm 0, no norm is taken, run_sequence keeps no
records, and the learner's arithmetic is the same either way.
"""
from __future__ import annotations

import enum
import json
import math
import time
from dataclasses import dataclass
from typing import Sequence

from .binary import make_binary
from .core import Learner, SparseVector
from .errors import DataError
from .multiclass import make_multiclass
from .params import HyperParams


class CountingMode(enum.Enum):
    """How inner-cycle predictions turn into the mistake statistic."""

    FIRST_PREDICTION = "first"
    PER_ITERATION = "periter"


@dataclass(frozen=True)
class LoopConfig:
    """Inner-loop shape: up to m cycles per instance, and the counting mode."""

    m: int = 1
    counting_mode: CountingMode = CountingMode.FIRST_PREDICTION

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")


@dataclass(slots=True)
class InstanceRecord:
    """What the cycles on one instance did; the norm-bound audit and the
    trace export both read these fields and nothing else."""

    mistake: bool                      # first-cycle misprediction
    updates: int                       # triggered cycles, in [0, m]
    cycles: int                        # cycles actually executed
    cycle_mispredictions: int          # for per-iteration counting
    sum_delta_sq: float                # sum over cycles of ||delta||^2 (0 unaudited)
    w0_norm: float                     # audited-vector norm before (NaN unaudited)
    w_star_norm: float                 # audited-vector norm after (NaN unaudited)


@dataclass
class RunStats:
    mistake_rate: float
    updates: float
    cpu_seconds: float


def process_instance(learner: Learner, x: SparseVector, y: int, cfg: LoopConfig,
                     w0_norm: float | None = None) -> InstanceRecord:
    """Run up to cfg.m predict/update cycles on one (x, y).

    The learner's outer clock is advanced here, once, regardless of how many
    cycles run. The loop exits after the first untriggered cycle: the
    learners are deterministic, so every further cycle would repeat the same
    prediction and stay passive. w0_norm is the learner's primary_norm() on
    entry; it is computed when the caller does not know it. A learner that
    is not auditing takes no norm, and both norms read NaN.
    """
    audit = learner.audit
    if w0_norm is None:
        w0_norm = learner.primary_norm() if audit else math.nan
    learner.begin_instance()
    updates = 0
    cycle_mistakes = 0
    sum_delta_sq = 0.0
    first_mistake = False
    for k in range(cfg.m):
        triggered, mispredicted, delta_sq_norm = learner.step(x, y)
        sum_delta_sq += delta_sq_norm
        if k == 0:
            first_mistake = mispredicted
        if mispredicted:
            cycle_mistakes += 1
        if triggered:
            updates += 1
        else:
            # The skipped cycles are provably no-ops (deterministic learner,
            # unchanged state), so they would each repeat this cycle's
            # prediction; credit those repeats so early exit never changes
            # the per-iteration mistake statistic.
            if mispredicted:
                cycle_mistakes += cfg.m - (k + 1)
            break
    return InstanceRecord(
        mistake=first_mistake,
        updates=updates,
        cycles=k + 1,                  # m >= 1, so the loop ran cycles 0..k
        cycle_mispredictions=cycle_mistakes,
        sum_delta_sq=sum_delta_sq,
        w0_norm=w0_norm,
        w_star_norm=learner.primary_norm() if audit else math.nan,
    )


def run_sequence(kind: str, hp: HyperParams, instances: Sequence[tuple[SparseVector, int]],
                 d: int, cfg: LoopConfig, num_classes: int | None = None, *,
                 audit: bool = True,
                 ) -> tuple[Learner, list[InstanceRecord] | None, RunStats]:
    """Process an ordered instance sequence from a zero-initialized learner.

    cpu_seconds covers exactly the loop below — thread CPU time, so
    harness-level parallelism does not distort it. Instance i starts from
    instance i-1's w_star_norm: begin_instance() only advances the clock, so
    the norm is taken once per instance. With audit False the learner skips
    the delta and norm accounting and the records come back as None; the
    statistics and the learner's final state are the same either way. A
    dimension whose model cannot be allocated is a DataError.
    """
    if not instances:
        raise DataError("cannot run on an empty dataset")
    try:
        if num_classes is None:
            learner: Learner = make_binary(kind, d, hp)
        else:
            learner = make_multiclass(kind, num_classes, d, hp)
    except (MemoryError, ValueError) as exc:
        # numpy says "array is too big" for a size past the address space
        if isinstance(exc, ValueError) and "too big" not in str(exc):
            raise
        raise DataError(f"{kind}: a model of dimension {d} cannot be allocated") from None
    learner.audit = audit
    records: list[InstanceRecord] | None = [] if audit else None
    per_iteration = cfg.counting_mode is CountingMode.PER_ITERATION
    mistakes = 0.0
    updates = 0
    started = time.thread_time()
    w0 = learner.primary_norm() if audit else math.nan
    for x, y in instances:
        record = process_instance(learner, x, y, cfg, w0)
        if audit:
            records.append(record)
        w0 = record.w_star_norm
        updates += record.updates
        if per_iteration:
            mistakes += record.cycle_mispredictions / cfg.m
        else:
            mistakes += 1.0 if record.mistake else 0.0
    cpu = time.thread_time() - started
    stats = RunStats(mistake_rate=mistakes / len(instances),
                     updates=float(updates), cpu_seconds=cpu)
    return learner, records, stats


@dataclass
class InstanceBound:
    index: int
    lhs: float        # ||w*||
    rhs: float        # ||w0|| + sqrt(M) * sqrt(sum ||delta||^2)
    slack: float      # rhs - lhs

    @property
    def passed(self) -> bool:
        return self.lhs <= self.rhs + 1e-9 * (1.0 + self.rhs)


@dataclass
class BoundReport:
    instances: list[InstanceBound]

    @property
    def all_passed(self) -> bool:
        return all(b.passed for b in self.instances)

    @property
    def failures(self) -> list[InstanceBound]:
        return [b for b in self.instances if not b.passed]

    @property
    def min_slack(self) -> float:
        return min((b.slack for b in self.instances), default=0.0)


def check_norm_bound(records: Sequence[InstanceRecord], m: int) -> BoundReport:
    """Verify the accumulated-update norm bound on every recorded instance.

    For instance i with pre-instance norm ||w0||, summed per-cycle squared
    deltas and post-instance norm ||w*||, checks
    ||w*|| <= ||w0|| + sqrt(M) * (sum_j ||delta_j||^2)^(1/2) with
    tolerance 1e-9 * (1 + rhs). M is the configured cycle cap (M >= the
    realized update count by construction).
    """
    results = []
    root_m = math.sqrt(m)
    for i, r in enumerate(records):
        rhs = r.w0_norm + root_m * math.sqrt(r.sum_delta_sq)
        results.append(InstanceBound(index=i, lhs=r.w_star_norm,
                                     rhs=rhs, slack=rhs - r.w_star_norm))
    return BoundReport(instances=results)


def trace_records(records: Sequence[InstanceRecord], **meta) -> list[str]:
    """Per-instance trace lines for line-delimited export, newline included.

    Each line is the JSON object of meta's keys, then instance, mistake,
    updates, sum_delta_sq, w_star_norm and w0_norm, byte for byte what
    json.dumps(row, separators=(",", ":")) writes: one template fills in the
    fields, because json.dumps writes a finite float as its repr. A row
    holding a non-finite float goes through json.dumps (NaN, Infinity).
    meta must not reuse the record's keys.

    Consecutive rows chain: instance i's initial norm equals instance i-1's
    w_star_norm (the state carries over), but both ends are included so each
    row can be audited standalone with check_norm_bound's inequality.
    """
    head = json.dumps(meta, separators=(",", ":"))[:-1] + ("," if meta else "")
    lines = []
    for i, r in enumerate(records):
        sq, w_star, w0 = r.sum_delta_sq, r.w_star_norm, r.w0_norm
        if math.isfinite(sq) and math.isfinite(w_star) and math.isfinite(w0):
            lines.append(f'{head}"instance":{i},"mistake":{"true" if r.mistake else "false"},'
                         f'"updates":{r.updates},"sum_delta_sq":{sq!r},'
                         f'"w_star_norm":{w_star!r},"w0_norm":{w0!r}}}\n')
        else:
            row = dict(meta, instance=i, mistake=bool(r.mistake), updates=r.updates,
                       sum_delta_sq=sq, w_star_norm=w_star, w0_norm=w0)
            lines.append(json.dumps(row, separators=(",", ":")) + "\n")
    return lines


def write_trace(fh, lines: list[str]) -> None:
    """Write trace_records() lines, one write per line."""
    for line in lines:
        fh.write(line)
