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

One loop, _run_cycles, runs the cycles of a whole run; process_instance is
its one-instance case. An audited run (the learner's audit attribute, which
run_sequence sets once per run from whether --audit-theorem1 or --trace
reads the result) leaves one InstanceRecord per instance, and the records
are enough to verify after the fact that the final state norm obeys

    ||w*|| <= ||w0|| + sqrt(M) * (sum_j ||delta_j||^2)^(1/2)

where w0/w* are the audited state vector before/after the instance's cycles
and the delta_j are the per-cycle changes of that same vector. The
inequality is Cauchy-Schwarz on the telescoped updates, so it must hold on
every engine-produced record; the audit exists to catch accounting bugs, not
to test the math. An unaudited run skips that accounting: its cycles report
delta_sq_norm 0, no norm is taken, the loop builds no records, and the
learner's arithmetic is the same either way.
"""
from __future__ import annotations

import enum
import json
import math
import time
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .binary import BinaryLearner, make_binary
from .core import Learner, SparseVector
from .errors import DataError, NumericalDegeneracyError
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


def _run_cycles(learner: Learner, instances: Sequence[tuple[SparseVector, int]],
                cfg: LoopConfig, w0: float,
                records: list[InstanceRecord] | None) -> tuple[int, float]:
    """Run up to cfg.m predict/update cycles on each (x, y) in order; the
    engine's one cycle loop. Returns (updates, mistakes), the mistakes a
    float total in cfg's counting mode.

    The learner's outer clock advances once per instance, however many
    cycles run, and an instance stops after its first untriggered cycle: the
    learners are deterministic, so every further cycle would repeat the same
    prediction and stay passive. step and begin_instance are read off the
    learner once, so a wrapper set on the instance is the one called. With
    records None nothing else happens per instance. With a list, one
    InstanceRecord per instance is appended, w0 being the learner's
    primary_norm() before the first; a learner that is not auditing takes no
    norm, and both norms read NaN.
    """
    m = cfg.m
    per_iteration = cfg.counting_mode is CountingMode.PER_ITERATION
    audit = learner.audit
    begin_instance = learner.begin_instance
    step = learner.step
    cycles = range(m)
    updates = 0
    first_mistakes = 0
    cycle_mistake_total = 0.0
    for x, y in instances:
        begin_instance()
        cycle_mistakes = 0
        sum_delta_sq = 0.0
        first_mistake = False
        for k in cycles:
            triggered, mispredicted, delta_sq_norm = step(x, y)
            sum_delta_sq += delta_sq_norm
            if mispredicted:
                cycle_mistakes += 1
                if k == 0:
                    first_mistake = True
            if not triggered:
                # The skipped cycles are provably no-ops (deterministic
                # learner, unchanged state), so they would each repeat this
                # cycle's prediction; credit those repeats so early exit
                # never changes the per-iteration mistake statistic.
                if mispredicted:
                    cycle_mistakes += m - (k + 1)
                break
        # every cycle before the last fired; the last one did unless it broke
        # the loop (m >= 1, so the loop ran cycles 0..k)
        instance_updates = k + 1 if triggered else k
        updates += instance_updates
        first_mistakes += first_mistake
        if per_iteration:
            # once per instance, in instance order: summing the counts and
            # dividing once would round differently when m is not a power of 2
            cycle_mistake_total += cycle_mistakes / m
        if records is not None:
            w_star = learner.primary_norm() if audit else math.nan
            records.append(InstanceRecord(
                mistake=first_mistake, updates=instance_updates, cycles=k + 1,
                cycle_mispredictions=cycle_mistakes, sum_delta_sq=sum_delta_sq,
                w0_norm=w0, w_star_norm=w_star))
            w0 = w_star
    return updates, cycle_mistake_total if per_iteration else float(first_mistakes)


def process_instance(learner: Learner, x: SparseVector, y: int, cfg: LoopConfig) -> InstanceRecord:
    """Run up to cfg.m predict/update cycles on one (x, y): the engine's cycle
    loop on a one-instance sequence, returning its record.

    w0_norm is the learner's primary_norm() on entry. A learner that is not
    auditing takes no norm, and both norms read NaN.
    """
    w0_norm = learner.primary_norm() if learner.audit else math.nan
    records: list[InstanceRecord] = []
    _run_cycles(learner, ((x, y),), cfg, w0_norm, records)
    return records[0]


def run_sequence(kind: str, hp: HyperParams, instances: Sequence[tuple[SparseVector, int]],
                 d: int, cfg: LoopConfig, num_classes: int | None = None, *,
                 audit: bool = True,
                 ) -> tuple[Learner, list[InstanceRecord] | None, RunStats]:
    """Process an ordered instance sequence from a zero-initialized learner.

    cpu_seconds covers exactly the cycle loop — thread CPU time, so
    harness-level parallelism does not distort it. Instance i starts from
    instance i-1's w_star_norm: begin_instance() only advances the clock, so
    the norm is taken once per instance. With audit False the learner skips
    the delta and norm accounting, the loop builds no records and they come
    back as None; the statistics and the learner's final state are the same
    either way. A dimension whose model cannot be allocated is a DataError,
    and a run that ends with a non-finite state a NumericalDegeneracyError.
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
    started = time.thread_time()
    w0 = learner.primary_norm() if audit else math.nan
    updates, mistakes = _run_cycles(learner, instances, cfg, w0, records)
    cpu = time.thread_time() - started
    _check_finite(learner, records)
    stats = RunStats(mistake_rate=mistakes / len(instances),
                     updates=float(updates), cpu_seconds=cpu)
    return learner, records, stats


def _check_finite(learner: Learner, records: list[InstanceRecord] | None) -> None:
    """Raise NumericalDegeneracyError unless the learner's audited vector and,
    on a binary kind, the vector it scores with (SOP's w = P v beside v) are
    finite. Once per run, not per cycle: a NaN state stays NaN, and a NaN
    score never counts as a mistake, so the run's statistics would be
    meaningless. With records, the message names the first instance whose
    w_star_norm is not finite."""
    states = [learner._audited]
    if isinstance(learner, BinaryLearner):
        states.append(learner._scored)
    if all(np.isfinite(state).all() for state in states):
        return
    where = ""
    if records is not None:
        first = next((i for i, r in enumerate(records) if not math.isfinite(r.w_star_norm)), None)
        if first is not None:
            where = f"; its norm is first non-finite at instance={first}"
    raise NumericalDegeneracyError(f"the learner state is not finite (NaN or infinity){where}")


class BoundReport(NamedTuple):
    """What check_norm_bound read off the records: the records themselves,
    the least slack rhs - ||w*|| (0.0 when there are none), and one
    (index, ||w*||, rhs) tuple per failing instance, in record order."""

    instances: Sequence[InstanceRecord]
    min_slack: float
    failures: list[tuple[int, float, float]]

    @property
    def all_passed(self) -> bool:
        return not self.failures


def check_norm_bound(records: Sequence[InstanceRecord], m: int) -> BoundReport:
    """Verify the accumulated-update norm bound on every recorded instance.

    For instance i with pre-instance norm ||w0||, summed per-cycle squared
    deltas and post-instance norm ||w*||, checks
    ||w*|| <= rhs = ||w0|| + sqrt(M) * (sum_j ||delta_j||^2)^(1/2) with
    tolerance 1e-9 * (1 + rhs); a NaN on either side fails. M is the
    configured cycle cap (M >= the realized update count by construction).
    One pass over the records gives the least slack, ordered as the builtin
    min orders it (a leading NaN stays, a later one is passed over), and the
    failures.
    """
    root_m = math.sqrt(m)
    min_slack = 0.0
    failures = []
    for i, r in enumerate(records):
        lhs = r.w_star_norm
        rhs = r.w0_norm + root_m * math.sqrt(r.sum_delta_sq)
        slack = rhs - lhs
        if i == 0 or slack < min_slack:
            min_slack = slack
        if not lhs <= rhs + 1e-9 * (1.0 + rhs):
            failures.append((i, lhs, rhs))
    return BoundReport(records, min_slack, failures)


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
