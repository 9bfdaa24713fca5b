"""Seeded stand-in datasets for the benchmark workloads.

The published LIBSVM sets (covtype, svmguide3, segment) are not shipped with
the repository, so each workload runs on a synthetic file with the same
shape. Every draw comes from the package's pinned xoshiro256**, so one seed
gives the same bytes on every machine. The generators write LIBSVM text that
the program under test parses; they never hand it in-memory objects.

The problem itself (hyperplane, class centres) is drawn from the fixed
SHAPE_SEED and only the rows from the workload seed. Every seed is then a
fresh sample of one stand-in problem, so how often the learners update, and
with it the work per run, hardly depends on the seed.
"""
from __future__ import annotations

import gzip
import hashlib
import math
from pathlib import Path

from multiupdate.rng import Xoshiro256StarStar

SHAPE_SEED = 2018


def _gauss(rng: Xoshiro256StarStar):
    """Yield standard normals (Box-Muller, two per pair of uniforms)."""
    while True:
        u1 = max(rng.next_float(), 1e-12)
        u2 = rng.next_float()
        r = math.sqrt(-2.0 * math.log(u1))
        yield r * math.cos(2.0 * math.pi * u2)
        yield r * math.sin(2.0 * math.pi * u2)


def _pairs(features: list[tuple[int, float]]) -> str:
    return " ".join(f"{i + 1}:{v!r}" for i, v in features)


def covtype_like(n: int, seed: int) -> bytes:
    """Binary, d=54, 12 nonzeros per row: 10 Gaussian columns plus one-hot
    blocks of width 4 (columns 11-14) and 40 (columns 15-54), the layout of
    covtype's wilderness and soil indicators. Labels 1/2 come from a random
    hyperplane, with 10% of them flipped."""
    w = [v for v, _ in zip(_gauss(Xoshiro256StarStar(SHAPE_SEED)), range(54))]
    rng = Xoshiro256StarStar(seed)
    g = _gauss(rng)
    lines = []
    for _ in range(n):
        dense = [next(g) for _ in range(10)]
        a = 10 + rng.next_u64() % 4
        b = 14 + rng.next_u64() % 40
        s = sum(wj * xj for wj, xj in zip(w, dense)) + w[a] + w[b]
        y = 2 if s > 0 else 1
        if rng.next_float() < 0.10:
            y = 3 - y
        feats = list(enumerate(dense)) + [(a, 1.0), (b, 1.0)]
        lines.append(f"{y} {_pairs(feats)}")
    return ("\n".join(lines) + "\n").encode()


def svmguide3_like(n: int, seed: int) -> bytes:
    """Dense binary, d=21, labels +1/-1 from a random hyperplane with 25% of
    them flipped, so hinge-triggered learners keep firing on repeat cycles."""
    w = [v for v, _ in zip(_gauss(Xoshiro256StarStar(SHAPE_SEED)), range(21))]
    rng = Xoshiro256StarStar(seed)
    g = _gauss(rng)
    lines = []
    for _ in range(n):
        x = [next(g) for _ in range(21)]
        y = 1 if sum(wj * xj for wj, xj in zip(w, x)) > 0 else -1
        if rng.next_float() < 0.25:
            y = -y
        lines.append(f"{y:+d} {_pairs(list(enumerate(x)))}")
    return ("\n".join(lines) + "\n").encode()


def segment_like(n: int, seed: int) -> bytes:
    """Seven overlapping Gaussian blobs in d=19, labels 1..7, unit noise
    around centres drawn from N(0, 1) per axis. The overlap makes M_PA2 and
    M_AROW run several cycles per visit at m=16. (With centres at 0.7 the
    M_CW family fails on some seeds: its shared covariance loses positive
    definiteness and math.sqrt raises ValueError.)"""
    shape = _gauss(Xoshiro256StarStar(SHAPE_SEED))
    centres = [[next(shape) for _ in range(19)] for _ in range(7)]
    rng = Xoshiro256StarStar(seed)
    g = _gauss(rng)
    lines = []
    for _ in range(n):
        c = rng.next_u64() % 7
        x = [centres[c][j] + next(g) for j in range(19)]
        lines.append(f"{c + 1} {_pairs(list(enumerate(x)))}")
    return ("\n".join(lines) + "\n").encode()


GENERATORS = {
    "covtype_like": covtype_like,
    "svmguide3_like": svmguide3_like,
    "segment_like": segment_like,
}


def generator_hash() -> str:
    """Hash of this file, so a cached dataset is rebuilt when a generator changes."""
    return hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:12]


def materialize(cache_dir: Path, generator: str, n: int, seed: int, gz: bool) -> Path:
    """Write the dataset once per (generator, n, seed, generator hash); return its path."""
    suffix = ".libsvm.gz" if gz else ".libsvm"
    path = cache_dir / f"{generator}-n{n}-seed{seed}-{generator_hash()}{suffix}"
    if path.is_file():
        return path
    data = GENERATORS[generator](n, seed)
    if gz:
        # mtime=0 keeps the gzip header, and so the file's bytes, seed-determined.
        data = gzip.compress(data, compresslevel=6, mtime=0)
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(data)
    tmp.replace(path)
    return path
