"""Benchmark harness: algorithms x m over seeded permutation runs.

Protocol: R runs per cell, run r processing the dataset in the order given
by permutation(n, base_seed + r). The permutations are computed once and
shared by every (algorithm, m) cell so columns stay comparable. Cells
aggregate mistake rate, update count, and per-run thread-CPU seconds as
mean +/- sample std (n-1 denominator; 0 when R = 1).

The sweep is one ordered stream of (algorithm, m, run) tasks, mapped once,
serially or through one process pool of check_sweep's worker count, and
consumed in task order, R results per cell. Each run owns its learner, so
pooled and serial sweeps emit identical numbers, audit totals and trace bytes;
cpu_seconds is thread time and does not see the scheduling.
"""
from __future__ import annotations

import hashlib
import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .binary import BINARY_KINDS
from .data import BINARY_SPACE, Dataset, normalize_labels
from .engine import CountingMode, LoopConfig, check_norm_bound, run_sequence, trace_records
from .errors import ConfigError, NumericalDegeneracyError
from .multiclass import MULTICLASS_KINDS
from .params import HyperParams
# bound under this module's name so a timing hook can patch bench.permute
from .rng import permutation as permute

log = logging.getLogger(__name__)

METRICS = ("mistake_rate", "updates", "cpu_seconds")
# Byte-identical CSV output is part of the contract, so the CSV view carries
# only the deterministic metrics; timings live in the table view.
CSV_METRICS = ("mistake_rate", "updates")


def resolve_algorithms(spec: str | list[str], label_space: str) -> list[str]:
    """Expand an --algos value ('all' or comma list) against the label space;
    a repeated name is kept once, at its first position."""
    catalog = BINARY_KINDS if label_space == BINARY_SPACE else MULTICLASS_KINDS
    other = MULTICLASS_KINDS if label_space == BINARY_SPACE else BINARY_KINDS
    if isinstance(spec, str):
        names = [a.strip() for a in spec.split(",") if a.strip()] if spec != "all" else list(catalog)
    else:
        names = list(spec)
    if not names:
        raise ConfigError("no algorithms requested")
    for name in names:
        if name in catalog:
            continue
        if name in other:
            raise ConfigError(
                f"algorithm {name!r} does not match the dataset's {label_space} label space"
            )
        raise ConfigError(f"unknown algorithm {name!r} (valid for {label_space}: {list(catalog)})")
    return list(dict.fromkeys(names))


@dataclass
class CellSummary:
    algorithm: str
    m: int
    mean: dict[str, float]
    std: dict[str, float]


@dataclass
class AuditFailure:
    algorithm: str
    m: int
    run: int
    instance: int
    lhs: float
    rhs: float


@dataclass
class BenchmarkResult:
    dataset_name: str
    n: int
    d: int
    num_classes: int
    runs: int
    base_seed: int
    counting_mode: CountingMode
    cells: list[CellSummary] = field(default_factory=list)
    audited_instances: int = 0
    audit_min_slack: float = math.inf
    audit_failures: list[AuditFailure] = field(default_factory=list)
    permutation_fingerprints: list[str] = field(default_factory=list)

    @property
    def audit_passed(self) -> bool:
        return not self.audit_failures


def _mean_std(values: list[float]) -> tuple[float, float]:
    r = len(values)
    mean = sum(values) / r
    if r == 1:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (r - 1)
    return mean, math.sqrt(var)


def _fingerprint(perm: list[int]) -> str:
    """The first 12 hex digits of the SHA-1 of perm as little-endian uint64s."""
    return hashlib.sha1(np.asarray(perm, dtype="<u8").tobytes()).hexdigest()[:12]


# Worker context for process-pool runs: populated in the parent before the
# pool forks, inherited read-only by the children, so per-task pickling stays
# tiny (kind, m, run index).
_CTX: dict = {}


def _run_one(kind: str, m: int, run_index: int):
    cfg = LoopConfig(m=m, counting_mode=_CTX["counting_mode"])
    try:
        _, records, stats = run_sequence(
            kind, _CTX["hp"], _CTX["sequences"][run_index], _CTX["d"], cfg,
            num_classes=_CTX["num_classes"], audit=_CTX["audit"] or _CTX["want_trace"],
        )
    except NumericalDegeneracyError as exc:
        raise NumericalDegeneracyError(f"{kind} m={m} run={run_index}: {exc}") from None
    audit_summary = None
    if _CTX["audit"]:
        report = check_norm_bound(records, m)
        audit_summary = (len(report.instances), report.min_slack,
                         [AuditFailure(kind, m, run_index, *f) for f in report.failures])
    lines = (trace_records(records, algorithm=kind, m=m, run=run_index)
             if _CTX["want_trace"] else [])
    return stats, audit_summary, lines


def check_sweep(m_values: list[int], runs: int, base_seed: int) -> tuple[list[int], int]:
    """Check a sweep's settings before any work: return the distinct m
    values in ascending order and the worker count. Run r permutes with
    base_seed + r, so every run's seed must fit in 64 bits: the generator
    would wrap a larger one onto another run's seed. The worker count is
    BENCH_THREADS (unset means 1), capped at the CPU count here, not at
    runs, because every (kind, m, run) task goes to one pool.
    run_benchmark caps it again at the task count."""
    if runs < 1:
        raise ConfigError("--runs must be >= 1")
    if not 0 <= base_seed <= 2 ** 64 - runs:
        raise ConfigError("--seed must fit in an unsigned 64-bit integer, and so must "
                          "the last run's seed, --seed + --runs - 1")
    if not m_values:
        raise ConfigError("--m needs at least one m value")
    for m in m_values:
        if m < 1:
            raise ConfigError(f"--m values must be >= 1, got {m}")
    raw = os.environ.get("BENCH_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        raise ConfigError(f"BENCH_THREADS must be an integer, got {raw!r}") from None
    return sorted(set(m_values)), max(1, min(threads, os.cpu_count() or 1))


def run_benchmark(dataset: Dataset, algorithms: str | list[str], m_values: list[int],
                  runs: int, base_seed: int, *,
                  counting_mode: CountingMode = CountingMode.FIRST_PREDICTION,
                  hp: HyperParams | None = None,
                  audit: bool = False,
                  trace_fh=None) -> BenchmarkResult:
    """Run the full sweep; cells appear in algorithm order, then ascending m.
    Trace rows stream out cell by cell, so a failed run keeps earlier rows."""
    m_values, threads = check_sweep(m_values, runs, base_seed)
    hp = hp or HyperParams()
    algorithms = resolve_algorithms(algorithms, dataset.label_space)

    instances = normalize_labels(dataset).instances
    n = len(instances)
    num_classes = dataset.num_classes if dataset.label_space != BINARY_SPACE else None

    perms = [permute(n, base_seed + r) for r in range(runs)]
    fingerprints = [_fingerprint(p) for p in perms]
    for r, fp in enumerate(fingerprints):
        log.debug("run %d permutation fingerprint %s (shared across all cells)", r, fp)
    sequences = [[instances[i] for i in perm] for perm in perms]

    _CTX.update(
        sequences=sequences, d=dataset.d, num_classes=num_classes, hp=hp,
        counting_mode=counting_mode, audit=audit, want_trace=trace_fh is not None,
    )
    result = BenchmarkResult(
        dataset_name=dataset.name or "dataset", n=n, d=dataset.d,
        num_classes=dataset.num_classes, runs=runs, base_seed=base_seed,
        counting_mode=counting_mode, permutation_fingerprints=fingerprints,
    )

    cells = [(kind, m) for kind in algorithms for m in m_values]
    tasks = [(kind, m, r) for kind, m in cells for r in range(runs)]
    workers = min(threads, len(tasks))      # a worker beyond the tasks would idle
    pool = None
    try:
        if workers > 1:
            import multiprocessing
            pool = ProcessPoolExecutor(max_workers=workers,
                                       mp_context=multiprocessing.get_context("fork"))
        # consumed in task order, so CSV, audit and trace rows keep cell order
        outputs = (map if pool is None else pool.map)(_run_one, *zip(*tasks))
        for kind, m in cells:
            per_run = [next(outputs) for _ in range(runs)]
            cell = CellSummary(algorithm=kind, m=m, mean={}, std={})
            for metric in METRICS:
                cell.mean[metric], cell.std[metric] = _mean_std(
                    [getattr(stats, metric) for stats, _, _ in per_run])
            result.cells.append(cell)
            for _, audit_summary, lines in per_run:
                if audit_summary is not None:
                    checked, min_slack, failures = audit_summary
                    result.audited_instances += checked
                    result.audit_min_slack = min(result.audit_min_slack, min_slack)
                    result.audit_failures.extend(failures)
                for line in lines:      # one write per row, so a wrapper can count rows
                    trace_fh.write(line)
    finally:
        if pool is not None:
            # a failed run must not wait for the queued tasks of later cells
            pool.shutdown(cancel_futures=True)
        _CTX.clear()
    return result


_TABLE_LABELS = {"mistake_rate": "Mistake Rate", "updates": "NB of Updates",
                 "cpu_seconds": "Cpu Time"}


def _cell_text(metric: str, mean: float, std: float) -> str:
    digits = 4 if metric == "mistake_rate" else 2
    return f"{mean:.{digits}f} +/- {std:.{digits}f}"


def emit(result: BenchmarkResult, fmt: str) -> str:
    """Render a result as an aligned table or as CSV text."""
    if fmt == "csv":
        lines = ["algorithm,m,metric,mean,std"]
        for cell in result.cells:
            for metric in CSV_METRICS:
                lines.append(f"{cell.algorithm},{cell.m},{metric},"
                             f"{cell.mean[metric]!r},{cell.std[metric]!r}")
        return "\n".join(lines) + "\n"
    if fmt != "table":
        raise ConfigError(f"unknown output format {fmt!r} (expected table or csv)")

    m_values = sorted({c.m for c in result.cells})
    algorithms = list(dict.fromkeys(c.algorithm for c in result.cells))
    by_key = {(c.algorithm, c.m): c for c in result.cells}
    header = (f"Dataset: {result.dataset_name} (n={result.n}, d={result.d}, "
              f"classes={result.num_classes})   runs: {result.runs}   "
              f"seed: {result.base_seed}   mode: {result.counting_mode.value}")
    algo_w = max(len("Algorithm"), max(len(a) for a in algorithms))
    metric_w = max(len(v) for v in _TABLE_LABELS.values())
    col_w = {}
    for m in m_values:
        cells = [_cell_text(metric, by_key[(a, m)].mean[metric], by_key[(a, m)].std[metric])
                 for a in algorithms for metric in METRICS]
        col_w[m] = max(len(f"m={m}"), max(len(c) for c in cells))
    lines = [header]
    head = f"{'Algorithm':<{algo_w}}  {'Metric':<{metric_w}}"
    for m in m_values:
        head += f"  {f'm={m}':<{col_w[m]}}"
    lines.append(head)
    lines.append("-" * len(head))
    for a in algorithms:
        for j, metric in enumerate(METRICS):
            row = f"{a if j == 0 else '':<{algo_w}}  {_TABLE_LABELS[metric]:<{metric_w}}"
            for m in m_values:
                cell = by_key[(a, m)]
                row += f"  {_cell_text(metric, cell.mean[metric], cell.std[metric]):<{col_w[m]}}"
            lines.append(row.rstrip())
        lines.append("-" * len(head))
    return "\n".join(lines) + "\n"
