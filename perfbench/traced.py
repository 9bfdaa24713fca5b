"""Run `multiupdate bench` once with per-layer timing hooks; write the layer metrics.

    python traced.py OUT.json SRC_DIR bench-args...

The hooks replace module attributes that the CLI and the sweep look up at
call time, so nothing in the package changes. A hook whose target attribute
no longer exists is skipped and the metrics it feeds are reported absent with
the reason; the rest of the run goes on. Spans stay in memory (see spans.py)
and the derived metrics are written to OUT.json after the CLI returns.
"""
from __future__ import annotations

import importlib
import json
import os
import sys
import time
from pathlib import Path

from spans import Recorder, self_times

BINARY_STEP = "binary.step_us."
MULTICLASS_STEP = "multiclass.step_us."
ENGINE_COUNTS = ["engine.cycles", "engine.updates", "engine.update_share",
                 "engine.cycles_per_visit", "engine.overhead_us_per_cycle"]


class TimedWriter:
    """File wrapper that times each write as one leaf call."""

    def __init__(self, fh, rec: Recorder):
        self._fh = fh
        self._rec = rec

    def write(self, text):
        t0 = self._rec.clock()
        n = self._fh.write(text)
        self._rec.leaf("bench.trace_write", self._rec.clock() - t0)
        return n

    def __getattr__(self, name):
        return getattr(self._fh, name)


class Hooks:
    def __init__(self, rec: Recorder):
        self.rec = rec
        self.absent: dict[str, str] = {}
        self.facts: dict = {}

    def _patch(self, module_name: str, attr: str, make_wrapper, metrics: list[str]) -> None:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        original = getattr(module, attr, None)
        if original is None:
            for metric in metrics:
                self.absent[metric] = f"{module_name}.{attr} no longer exists"
            return
        setattr(module, attr, make_wrapper(original))

    def _span(self, name: str, original, count=None, metrics: tuple[str, ...] = ()):
        """Wrap a call in a span; count(args, kwargs, result) gives its work units."""
        rec = self.rec

        def wrapper(*args, **kwargs):
            # The count is taken before the span closes: closing the last
            # open span in a pool worker flushes that worker's counters.
            idx = rec.open(name)
            try:
                result = original(*args, **kwargs)
                if count is not None:
                    try:
                        rec.counters[name + ".units"] += count(args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError) as exc:
                        for metric in metrics:
                            self.absent[metric] = f"cannot count work of {name}: {exc!r}"
            finally:
                rec.close(idx)
            return result
        return wrapper

    def _timed_learner(self, prefix: str, original):
        rec = self.rec

        def make(kind, *args, **kwargs):
            learner = original(kind, *args, **kwargs)
            step = learner.step
            name = prefix + kind

            def timed_step(x, y):
                t0 = rec.clock()
                info = step(x, y)
                rec.leaf(name, rec.clock() - t0)
                if info.triggered:
                    rec.counters["engine.updates"] += 1
                return info
            learner.step = timed_step
            return learner
        return make

    def _timed_sweep(self, original):
        rec = self.rec
        facts = self.facts

        def run_benchmark(dataset, *args, **kwargs):
            facts["entry"] = time.clock_gettime(time.CLOCK_MONOTONIC)
            if kwargs.get("trace_fh") is not None:
                kwargs["trace_fh"] = TimedWriter(kwargs["trace_fh"], rec)
            idx = rec.open("bench.run_benchmark")
            try:
                result = original(dataset, *args, **kwargs)
            finally:
                rec.close(idx)
            try:
                facts["cpu_seconds_sum"] = sum(c.mean["cpu_seconds"] for c in result.cells) * result.runs
                facts["workers"] = max(1, min(int(os.environ.get("BENCH_THREADS", "1")), result.runs))
                facts["fingerprints"] = list(result.permutation_fingerprints)
            except (AttributeError, KeyError, TypeError) as exc:
                self.absent["bench.pool_efficiency"] = f"cannot read the sweep result: {exc!r}"
            return result
        return run_benchmark

    def install(self) -> None:
        rows = lambda a, k, r: r.n  # noqa: E731 - rows of the returned Dataset
        self._patch("multiupdate.cli", "load_dataset",
                    lambda f: self._span("data.load_dataset", f, rows, ("data.parse_us_per_row",)),
                    ["data.parse_us_per_row"])
        self._patch("multiupdate.cli", "normalize_labels",
                    lambda f: self._span("data.normalize_labels", f, rows,
                                         ("data.normalize_us_per_row",)),
                    ["data.normalize_us_per_row"])
        self._patch("multiupdate.cli", "subsample",
                    lambda f: self._span("data.subsample", f), ["data.subsample_s"])
        self._patch("multiupdate.cli", "emit",
                    lambda f: self._span("bench.emit", f), ["bench.emit_s"])
        self._patch("multiupdate.cli", "run_benchmark", self._timed_sweep,
                    ["bench.self_s", "bench.pool_efficiency", "bench.trace_write_us_per_row",
                     "trace.overhead_s"])
        self._patch("multiupdate.bench", "permute",
                    lambda f: self._span("rng.permute", f, lambda a, k, r: len(r),
                                         ("rng.permutation_us_per_elem",)),
                    ["rng.permutation_us_per_elem"])
        self._patch("multiupdate.bench", "run_sequence",
                    lambda f: self._span("engine.run_sequence", f, lambda a, k, r: len(a[2]),
                                         ("engine.cycles_per_visit",)),
                    ENGINE_COUNTS)
        self._patch("multiupdate.bench", "check_norm_bound",
                    lambda f: self._span("engine.check_norm_bound", f,
                                         lambda a, k, r: len(r.instances),
                                         ("engine.audit_us_per_instance",)),
                    ["engine.audit_us_per_instance"])
        self._patch("multiupdate.bench", "trace_records",
                    lambda f: self._span("engine.trace_records", f, lambda a, k, r: len(r),
                                         ("engine.trace_records_us_per_row",)),
                    ["engine.trace_records_us_per_row"])
        self._patch("multiupdate.engine", "make_binary",
                    lambda f: self._timed_learner("binary.step.", f),
                    [BINARY_STEP + "*"] + ENGINE_COUNTS)
        self._patch("multiupdate.engine", "make_multiclass",
                    lambda f: self._timed_learner("multiclass.step.", f),
                    [MULTICLASS_STEP + "*"] + ENGINE_COUNTS)


def layer_metrics(spans: list[dict], counters: dict[str, float], facts: dict,
                  binary_kinds: list[str], multiclass_kinds: list[str]) -> dict[str, float]:
    """Per-layer metrics from merged spans and counters (times in s or µs).

    A metric whose layer was never called reads 0.
    """
    selfs = self_times(spans)
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    for s, own in zip(spans, selfs):
        total[s["name"]] = total.get(s["name"], 0.0) + s["end"] - s["start"]
        self_total[s["name"]] = self_total.get(s["name"], 0.0) + own
    c = counters.get

    def per(time_s: float, units: float, scale: float = 1e6) -> float:
        return time_s * scale / units if units else 0.0

    out: dict[str, float] = {
        "data.parse_us_per_row": per(total.get("data.load_dataset", 0.0), c("data.load_dataset.units", 0)),
        "data.normalize_us_per_row": per(total.get("data.normalize_labels", 0.0),
                                         c("data.normalize_labels.units", 0)),
        "data.subsample_s": total.get("data.subsample", 0.0),
        "rng.permutation_us_per_elem": per(total.get("rng.permute", 0.0), c("rng.permute.units", 0)),
        "bench.self_s": self_total.get("bench.run_benchmark", 0.0),
        "bench.trace_write_us_per_row": per(c("bench.trace_write.s", 0.0), c("bench.trace_write.n", 0)),
        "bench.emit_s": total.get("bench.emit", 0.0),
        "engine.audit_us_per_instance": per(total.get("engine.check_norm_bound", 0.0),
                                            c("engine.check_norm_bound.units", 0)),
        "engine.trace_records_us_per_row": per(total.get("engine.trace_records", 0.0),
                                               c("engine.trace_records.units", 0)),
    }
    wall = total.get("bench.run_benchmark", 0.0)
    out["bench.pool_efficiency"] = (facts["cpu_seconds_sum"] / (facts["workers"] * wall)
                                    if wall and "cpu_seconds_sum" in facts else 0.0)
    cycles = 0.0
    for prefix, step, kinds in (("binary.step.", BINARY_STEP, binary_kinds),
                                ("multiclass.step.", MULTICLASS_STEP, multiclass_kinds)):
        for kind in kinds:
            n = c(prefix + kind + ".n", 0)
            cycles += n
            out[step + kind] = per(c(prefix + kind + ".s", 0.0), n)
    updates = c("engine.updates", 0)
    visits = c("engine.run_sequence.units", 0)
    out["engine.cycles"] = cycles
    out["engine.updates"] = updates
    out["engine.update_share"] = updates / cycles if cycles else 0.0
    out["engine.cycles_per_visit"] = cycles / visits if visits else 0.0
    out["engine.overhead_us_per_cycle"] = per(self_total.get("engine.run_sequence", 0.0), cycles)
    return out


def main() -> int:
    out_path, src, *bench_args = sys.argv[1:]
    worker_dir = Path(out_path + ".workers")
    worker_dir.mkdir(parents=True, exist_ok=True)
    rec = Recorder(worker_dir)
    os.register_at_fork(after_in_child=rec.after_fork_in_child)

    import multiupdate.cli as cli
    if Path(src).resolve() not in Path(cli.__file__).resolve().parents:
        print(f"multiupdate imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 90
    from multiupdate.binary import BINARY_KINDS
    from multiupdate.multiclass import MULTICLASS_KINDS

    hooks = Hooks(rec)
    hooks.install()
    code = cli.main(["bench", *bench_args])
    done = time.clock_gettime(time.CLOCK_MONOTONIC)
    spans, counters = rec.merged()
    metrics = layer_metrics(spans, counters, hooks.facts, list(BINARY_KINDS), list(MULTICLASS_KINDS))
    Path(out_path).write_text(json.dumps({
        "entry": hooks.facts.get("entry"),
        # Time spent here after the CLI returned; the caller subtracts it so
        # the traced sweep time ends where the untraced one does.
        "postprocess_s": time.clock_gettime(time.CLOCK_MONOTONIC) - done,
        "fingerprints": hooks.facts.get("fingerprints", []),
        "metrics": metrics,
        "absent": hooks.absent,
        "span_count": len(spans),
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
