"""Dataset ingestion: sparse SVM-light/LIBSVM text, label normalization,
seeded permutations, and subsampling.

File format, one instance per non-empty line::

    <label> <index>:<value> <index>:<value> ...   # optional comment

Indices are 1-based in the file and 0-based in memory. Values parse as
64-bit floats and no feature scaling is applied; labels must be finite, and
so must each row's squared norm (no NaN/inf values, no squares that
overflow). Files whose first two bytes
are the gzip magic are decompressed transparently.
"""
from __future__ import annotations

import gzip
import io
import math
from dataclasses import dataclass, replace
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
    """Parsed instances plus the inferred label space.

    labels holds raw file labels until normalize_labels is applied, after
    which binary datasets use {-1, +1} and multiclass ones 0..K-1.
    """

    instances: tuple[tuple[SparseVector, float], ...]
    d: int
    label_space: str          # BINARY_SPACE or MULTICLASS_SPACE
    num_classes: int          # 2 for binary
    name: str = ""
    normalized: bool = False

    @property
    def n(self) -> int:
        return len(self.instances)


def _infer_space(labels: set[float]) -> tuple[str, int]:
    # Fewer than two distinct labels parses fine (think single-line round
    # trips); normalize_labels is where the degenerate case becomes an error.
    if len(labels) <= 2:
        return BINARY_SPACE, 2
    return MULTICLASS_SPACE, len(labels)


# A NaN/inf value or an overflowing square makes a row's squared norm
# non-finite; the parser reports that as a DataError, so numpy need not warn.
@np.errstate(over="ignore")
def parse_sparse_text(stream: BinaryIO, name: str = "") -> Dataset:
    """Parse the sparse text format from a byte stream.

    Malformed pairs, non-numeric fields, non-finite labels or values, values
    whose square overflows, indices < 1, and duplicate indices raise
    DataError with the 1-based line number. Within-line indices are
    re-sorted, so out-of-order entries are accepted; duplicates are not.
    """
    head = stream.read(2)
    rest = stream.read()
    raw = head + rest
    if head == b"\x1f\x8b":
        try:
            raw = gzip.decompress(raw)
        except OSError as exc:
            raise DataError(f"{name}: bad gzip stream: {exc}") from None
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{name}: not UTF-8/ASCII text: {exc}") from None

    instances: list[tuple[SparseVector, float]] = []
    max_index = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        fields = body.split()
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
            pairs.append((idx - 1, val))
        pairs.sort(key=lambda p: p[0])
        for (a, _), (b, _) in zip(pairs, pairs[1:]):
            if a == b:
                raise DataError(f"{name}:{lineno}: duplicate index {a + 1}")
        if pairs:
            max_index = max(max_index, pairs[-1][0] + 1)
        vec = SparseVector([p[0] for p in pairs], [p[1] for p in pairs])
        if not math.isfinite(vec.squared_norm()):
            bad = [f"{i + 1}:{v!r}" for i, v in pairs if not math.isfinite(v * v)]
            raise DataError(f"{name}:{lineno}: non-finite feature value or squared norm"
                            f" ({', '.join(bad) or 'the sum of squares overflows'})")
        instances.append((vec, label))
    if not instances:
        raise DataError(f"{name}: no instances found")
    space, k = _infer_space({y for _, y in instances})
    return Dataset(instances=tuple(instances), d=max(max_index, 1),
                   label_space=space, num_classes=k, name=name)


def load_dataset(path: str | Path) -> Dataset:
    p = Path(path)
    if not p.is_file():
        raise DataError(f"dataset file not found: {p}")
    with open(p, "rb") as fh:
        return parse_sparse_text(fh, name=p.name)


def normalize_labels(ds: Dataset) -> Dataset:
    """Map raw labels onto the canonical spaces; idempotent.

    Two distinct raw labels become {-1, +1} with the larger raw value taking
    +1 (covers {-1,+1}, {0,1}, {1,2} and any other two-label coding). Three
    or more become 0..K-1 in sorted raw order.
    """
    distinct = sorted({y for _, y in ds.instances})
    if len(distinct) < 2:
        raise DataError("dataset has a single distinct label; need at least two")
    if len(distinct) == 2:
        mapping = {distinct[0]: -1.0, distinct[1]: 1.0}
    else:
        mapping = {raw: float(i) for i, raw in enumerate(distinct)}
    if all(raw == mapped for raw, mapped in mapping.items()):
        return replace(ds, normalized=True)
    mapped_instances = tuple((x, mapping[y]) for x, y in ds.instances)
    return replace(ds, instances=mapped_instances, normalized=True)


def as_learning_instances(ds: Dataset) -> list[tuple[SparseVector, int]]:
    """Instances with integer labels ready for the engine; normalizes first if needed."""
    norm = ds if ds.normalized else normalize_labels(ds)
    return [(x, int(y)) for x, y in norm.instances]


def permute(n: int, seed: int) -> list[int]:
    """Reproducible permutation of range(n); see rng.permutation for the pinned procedure."""
    return permutation(n, seed)


def subsample(ds: Dataset, k: int, seed: int) -> Dataset:
    """First k of a seeded permutation; falls back to per-class proportional
    sampling if that loses a class.

    The proportional fallback allocates round(k * n_c / n) per class (largest
    remainder, at least 1 each) and takes the earliest entries of each class
    in the permuted order, preserving that order overall.
    """
    n = ds.n
    if not 1 <= k <= n:
        raise DataError(f"subsample size {k} out of range [1, {n}]")
    perm = permutation(n, seed)
    chosen = perm[:k]
    classes = {y for _, y in ds.instances}
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
    sub = tuple(ds.instances[i] for i in chosen)
    space, kk = _infer_space({y for _, y in sub})
    return Dataset(instances=sub, d=ds.d, label_space=space, num_classes=kk,
                   name=f"{ds.name}[{k}]" if ds.name else f"subsample[{k}]",
                   normalized=ds.normalized)


def parse_text(text: str, name: str = "") -> Dataset:
    """Convenience wrapper over parse_sparse_text for in-memory strings."""
    return parse_sparse_text(io.BytesIO(text.encode("utf-8")), name=name)
