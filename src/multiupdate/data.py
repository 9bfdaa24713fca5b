"""Dataset ingestion: sparse SVM-light/LIBSVM text, label normalization,
and seeded subsampling.

File format, one instance per non-empty line::

    <label> <index>:<value> <index>:<value> ...   # optional comment

Indices are 1-based in the file and 0-based in memory. Values parse as
64-bit floats and no feature scaling is applied; labels must be finite, and
so must each row's squared norm (no NaN/inf values, no squares that
overflow). Explicit zeros are not stored, but their indices still count
toward the dimension d. Files whose first two bytes are the gzip magic are
decompressed transparently; a truncated or corrupt gzip stream is a DataError.
"""
from __future__ import annotations

import gzip
import io
import math
import zlib
from dataclasses import dataclass, replace
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .core import SparseVector
from .errors import DataError
from .rng import permutation

BINARY_SPACE = "binary"
MULTICLASS_SPACE = "multiclass"


@dataclass(frozen=True)
class Dataset:
    """Parsed instances plus their class count.

    Each instance's label is the raw file label, a float, until
    normalize_labels maps it to an int: -1/+1 binary, 0..K-1 multiclass.
    """

    instances: tuple[tuple[SparseVector, float | int], ...]
    d: int
    num_classes: int          # distinct labels, at least 2
    name: str = ""

    @property
    def n(self) -> int:
        return len(self.instances)

    @property
    def label_space(self) -> str:
        """BINARY_SPACE for two classes, MULTICLASS_SPACE for more."""
        return BINARY_SPACE if self.num_classes == 2 else MULTICLASS_SPACE


MAX_INDEX = 2**31 - 1
"""The largest feature index accepted: LIBSVM's C int limit. Larger indices
(which would also overflow int64 or the dense model's memory) are a
DataError naming the line."""

CHUNK_LINES = 256
"""Lines per parse chunk. Numbers convert in bulk one chunk at a time, so a
chunk's token strings are the parse's transient memory: with 21 features
per row, 1024-line chunks raised a run's peak memory by 0.8 MB and 256-line
chunks by 0.1 MB, and both parsed as fast."""

_NOT_SEPARATORS = bytes(b for b in range(256) if b not in b": ")
_PAIR_TOKENS = itemgetter(slice(1, None))


class _Rejected(Exception):
    """A bulk check failed somewhere in the chunk; the line scan names where."""


# A NaN/inf value or an overflowing square makes a row's squared norm
# non-finite; the parser reports that as a DataError, so numpy need not warn.
@np.errstate(over="ignore")
def parse_sparse_text(stream: BinaryIO, name: str = "") -> Dataset:
    """Parse the sparse text format from a byte stream.

    Malformed pairs, non-numeric fields, non-finite labels or values, values
    whose square overflows, indices < 1 or > MAX_INDEX, and duplicate
    indices raise DataError with the 1-based line number. Within-line
    indices are re-sorted, so out-of-order entries are accepted; duplicates
    are not.
    d is the largest index in the file, explicit zeros included.

    Rows are views into buffers shared by up to CHUNK_LINES lines; their
    values are read-only.
    """
    head = stream.read(2)
    raw = head + stream.read()
    if head == b"\x1f\x8b":
        try:
            raw = gzip.decompress(raw)
        except (OSError, EOFError, zlib.error) as exc:
            raise DataError(f"{name}: bad gzip stream: {exc}") from None
    try:
        lines = raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise DataError(f"{name}: not UTF-8/ASCII text: {exc}") from None
    del raw

    instances: list[tuple[SparseVector, float]] = []
    d = 1
    for start in range(0, len(lines), CHUNK_LINES):
        chunk = lines[start:start + CHUNK_LINES]
        try:
            d = max(d, _parse_chunk(chunk, instances))
        except (_Rejected, ValueError, OverflowError):
            # the scan raises the first bad line's DataError
            _scan_lines(chunk, start + 1, name)
            raise
    if not instances:
        raise DataError(f"{name}: no instances found")
    # Fewer than two distinct labels parses fine (think single-line round
    # trips); normalize_labels is where the degenerate case becomes an error.
    return Dataset(instances=tuple(instances), d=d,
                   num_classes=max(2, len({y for _, y in instances})), name=name)


def _parse_chunk(lines: list[str], out: list[tuple[SparseVector, float]]) -> int:
    """Append the chunk's rows to out; return its largest 1-based index (0 if none).

    Raises _Rejected, ValueError or OverflowError when any line is bad,
    without saying which.
    """
    rows = [f for f in (line.split("#", 1)[0].split() for line in lines) if f]
    n_rows = len(rows)
    if not n_rows:
        return 0
    labels = np.fromiter(map(float, [f[0] for f in rows]), np.float64, n_rows)
    if not np.isfinite(labels).all():
        raise _Rejected
    counts = np.fromiter(map(len, rows), np.int64, n_rows) - 1
    n_pairs = int(counts.sum())
    # Tokens hold no whitespace, so joined by spaces they are valid pairs
    # exactly when the separators alternate ':' ' ' ':' ... ':', one colon
    # per token; only then does splitting on both line the halves up. The
    # token strings are dropped once joined, so they and the halves are
    # never alive together.
    joined = " ".join(chain.from_iterable(map(_PAIR_TOKENS, rows)))
    del rows
    seps = joined.encode().translate(None, _NOT_SEPARATORS)
    if n_pairs and seps != b": " * (n_pairs - 1) + b":":
        raise _Rejected
    halves = joined.replace(" ", ":").split(":") if n_pairs else []
    del joined
    idx = np.fromiter(map(int, halves[::2]), np.int64, n_pairs)
    val = np.fromiter(map(float, halves[1::2]), np.float64, n_pairs)
    del halves
    top = int(idx.max()) if n_pairs else 0
    if n_pairs and (idx.min() < 1 or top > MAX_INDEX):
        raise _Rejected
    row_of = np.repeat(np.arange(n_rows), counts)
    same_row = row_of[1:] == row_of[:-1]
    if (same_row & (idx[1:] <= idx[:-1])).any():
        order = np.lexsort((idx, row_of))
        idx = idx[order]
        val = val[order]
        if (same_row & (idx[1:] == idx[:-1])).any():
            raise _Rejected
    keep = val != 0.0
    if not keep.all():
        idx = idx[keep]
        val = val[keep]
        counts = np.bincount(row_of[keep], minlength=n_rows)
    idx -= 1
    # Only the values are made read-only: ndarray.take copies a read-only
    # index array on every call. The multiclass scores call it with
    # x.indices on every cycle, the Sigma kinds on every cycle of a gathered
    # row (one whose indices are not 0..nnz-1).
    val.flags.writeable = False
    ends = np.cumsum(counts)
    # each row's max_index: its last stored index, or -1 when it stores none
    last = np.where(counts > 0, idx[ends - 1] if idx.size else -1, -1)
    view = SparseVector._view
    for y, a, b, m in zip(labels.tolist(), (ends - counts).tolist(), ends.tolist(), last.tolist()):
        x = view(idx[a:b], val[a:b], m)
        if not math.isfinite(x.squared_norm()):
            raise _Rejected
        out.append((x, y))
    return top


def _scan_lines(lines: list[str], first_lineno: int, name: str) -> None:
    """Check the lines one by one; raise DataError naming the first bad line."""
    for lineno, line in enumerate(lines, start=first_lineno):
        fields = line.split("#", 1)[0].split()
        if not fields:
            continue
        try:
            label = float(fields[0])
        except ValueError:
            raise DataError(f"{name}:{lineno}: bad label {fields[0]!r}") from None
        if not math.isfinite(label):
            raise DataError(f"{name}:{lineno}: non-finite label {fields[0]!r}")
        pairs = []
        for tok in fields[1:]:
            idx_s, sep, val_s = tok.partition(":")
            if not sep:
                raise DataError(f"{name}:{lineno}: malformed pair {tok!r} (expected idx:val)")
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise DataError(f"{name}:{lineno}: non-numeric pair {tok!r}") from None
            if idx < 1:
                raise DataError(f"{name}:{lineno}: index {idx} is not 1-based positive")
            if idx > MAX_INDEX:
                raise DataError(f"{name}:{lineno}: index {idx} exceeds the largest"
                                f" supported index {MAX_INDEX}")
            pairs.append((idx - 1, val))
        pairs.sort(key=lambda p: p[0])
        for (a, _), (b, _) in zip(pairs, pairs[1:]):
            if a == b:
                raise DataError(f"{name}:{lineno}: duplicate index {a + 1}")
        vec = SparseVector([p[0] for p in pairs], [p[1] for p in pairs])
        if not math.isfinite(vec.squared_norm()):
            bad = [f"{i + 1}:{v!r}" for i, v in pairs if not math.isfinite(v * v)]
            raise DataError(f"{name}:{lineno}: non-finite feature value or squared norm"
                            f" ({', '.join(bad) or 'the sum of squares overflows'})")


def load_dataset(path: str | Path) -> Dataset:
    p = Path(path)
    if not p.is_file():
        raise DataError(f"dataset file not found: {p}")
    with open(p, "rb") as fh:
        return parse_sparse_text(fh, name=p.name)


def normalize_labels(ds: Dataset) -> Dataset:
    """Map raw labels to the engine's int labels; ds itself when they already are.

    Two distinct raw labels become -1 and +1 with the larger raw value taking
    +1 (covers {-1,+1}, {0,1}, {1,2} and any other two-label coding). Three
    or more become 0..K-1 in sorted raw order.
    """
    distinct = sorted({y for _, y in ds.instances})
    if len(distinct) < 2:
        raise DataError("dataset has a single distinct label; need at least two")
    if len(distinct) == 2:
        mapping = {distinct[0]: -1, distinct[1]: 1}
    else:
        mapping = {raw: i for i, raw in enumerate(distinct)}
    if (all(raw == mapped for raw, mapped in mapping.items())
            and all(type(y) is int for _, y in ds.instances)):
        return ds
    return replace(ds, instances=tuple((x, mapping[y]) for x, y in ds.instances))


def subsample(ds: Dataset, k: int, seed: int) -> Dataset:
    """First k of a seeded permutation; falls back to per-class quotas only
    if that loses a class. A k below the number of classes is a DataError.

    The fallback gives each class the quota round(k * n_c / n), at least 1,
    then trims or extends the quotas until they sum to k, working through the
    classes from the largest down (each as far as it can go before the next
    is touched). It takes the earliest entries of each class in the permuted
    order, preserving that order overall.
    """
    n = ds.n
    if not 1 <= k <= n:
        raise DataError(f"subsample size {k} out of range [1, {n}]")
    classes = {y for _, y in ds.instances}
    if k < len(classes):
        raise DataError(f"subsample size {k} cannot keep all {len(classes)} classes")
    perm = permutation(n, seed)
    chosen = perm[:k]
    got = {ds.instances[i][1] for i in chosen}
    if got != classes:
        by_class: dict[float, list[int]] = {c: [] for c in classes}
        for i in perm:
            by_class[ds.instances[i][1]].append(i)
        quota = {c: max(1, round(k * len(by_class[c]) / n)) for c in classes}
        # trim/extend to exactly k, largest classes adjusted first
        order = sorted(classes, key=lambda c: -len(by_class[c]))
        diff = sum(quota.values()) - k
        for c in order:
            while diff > 0 and quota[c] > 1:
                quota[c] -= 1
                diff -= 1
            while diff < 0 and quota[c] < len(by_class[c]):
                quota[c] += 1
                diff += 1
        take = {c: set(by_class[c][:quota[c]]) for c in classes}
        chosen = [i for i in perm if i in take[ds.instances[i][1]]]
    return replace(ds, instances=tuple(ds.instances[i] for i in chosen),
                   name=f"{ds.name}[{k}]" if ds.name else f"subsample[{k}]")


def parse_text(text: str, name: str = "") -> Dataset:
    """Convenience wrapper over parse_sparse_text for in-memory strings."""
    return parse_sparse_text(io.BytesIO(text.encode("utf-8")), name=name)
