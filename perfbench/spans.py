"""In-memory spans for the traced run, and the self-time arithmetic.

A span is one timed call into a layer: name, start, end, the span that was
open when it began (its parent) and ``inner``, the summed time of the
high-frequency leaf calls made directly under it (learner steps, trace-file
writes). Leaf calls are too many to keep one span each, so they are counted
and timed in aggregate and charged to the innermost open span.

Spans opened in a forked pool worker are appended to a per-process JSONL
file whenever the worker's span stack empties; the parent merges those files
at the end. A worker's top-level spans take as parent the span that was open
in the parent process when it forked.
"""
from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from pathlib import Path


class Recorder:
    def __init__(self, worker_dir: Path | None = None, clock=time.perf_counter):
        self.clock = clock
        self.worker_dir = worker_dir
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.fork_parent: int | None = None
        self.in_worker = False

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else self.fork_parent
        self.spans.append({"name": name, "start": self.clock(), "end": None,
                           "parent": parent, "inner": 0.0, "local": bool(self.stack)})
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> dict:
        span = self.spans[idx]
        span["end"] = self.clock()
        popped = self.stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {span['name']} closed out of order")
        if self.in_worker and not self.stack:
            self._flush_worker()
        return span

    def leaf(self, name: str, seconds: float) -> None:
        """Charge one aggregated leaf call to its counters and to the open span."""
        self.counters[name + ".s"] += seconds
        self.counters[name + ".n"] += 1
        if self.stack:
            self.spans[self.stack[-1]]["inner"] += seconds

    def after_fork_in_child(self) -> None:
        self.fork_parent = self.stack[-1] if self.stack else None
        self.spans, self.stack = [], []
        self.counters = defaultdict(float)
        self.in_worker = True

    def _flush_worker(self) -> None:
        path = self.worker_dir / f"worker-{os.getpid()}.jsonl"
        with open(path, "a") as fh:
            fh.write(json.dumps({"spans": self.spans, "counters": self.counters}) + "\n")
        self.spans = []
        self.counters = defaultdict(float)

    def merged(self) -> tuple[list[dict], dict[str, float]]:
        """This process's spans and counters plus every flushed worker batch.

        Worker spans are renumbered after the parent's; a worker span whose
        parent lies in the same batch ("local") is re-pointed by the offset,
        one whose parent is the fork-time span keeps the parent's index.
        """
        spans = [dict(s) for s in self.spans]
        counters = defaultdict(float, self.counters)
        if self.worker_dir is not None:
            for path in sorted(self.worker_dir.glob("worker-*.jsonl")):
                for line in path.read_text().splitlines():
                    batch = json.loads(line)
                    offset = len(spans)
                    for s in batch["spans"]:
                        s = dict(s)
                        if s["local"]:
                            s["parent"] += offset
                        spans.append(s)
                    for key, value in batch["counters"].items():
                        counters[key] += value
        return spans, dict(counters)


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(i for i in intervals if i[1] > i[0]):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus its aggregated leaf time and minus the part
    of its interval that its child spans cover.

    Child spans may overlap one another (pool workers run in parallel), so
    their cover is a union, clipped to the parent's interval. Leaf time is
    assumed disjoint from child spans: both are recorded by one thread.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            children[s["parent"]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered = union_length([(max(spans[c]["start"], s["start"]), min(spans[c]["end"], s["end"]))
                                for c in children[i]])
        out.append(s["end"] - s["start"] - s["inner"] - covered)
    return out
