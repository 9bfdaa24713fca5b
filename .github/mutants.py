#!/usr/bin/env python3
"""A fixed list of mutants of src/, each of which the test subset must kill.

Usage: python .github/mutants.py

A mutant is one (file, old text, new text) edit; the old text must occur
exactly once in the file. Each mutant is applied in a fresh temporary copy
of src/, tests/, perfbench/ and pyproject.toml, never in the checkout, and
the copy runs `pytest -x` over SUBSET with PYTHONPATH on its own src/. A
mutant is killed when pytest fails, or when it runs past TIMEOUT seconds
(a mutant that loops is caught, not waited for). Before the mutants, the
unmutated copy must pass, or every kill would prove nothing.

EQUIVALENT lists edits that no test can kill, with the reason; their old
text is still checked, but they are not run. Standard library only. Exits
1 if any listed mutant survives or any edit does not match exactly once.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
SUBSET = ["tests/test_core.py", "tests/test_entry_points.py", "tests/test_binary_learners.py",
          "tests/test_multiclass_learners.py", "tests/test_engine.py", "tests/test_golden.py",
          "tests/test_reference.py", "tests/test_metamorphic.py"]

CORE = "src/multiupdate/core.py"
BINARY = "src/multiupdate/binary.py"
MULTICLASS = "src/multiupdate/multiclass.py"
ENGINE = "src/multiupdate/engine.py"
TIMEOUT = 120.0
"""Seconds per mutant; on a 2-vCPU VM the unmutated subset takes about 26 s
and the 19 mutants about 55 s together."""

# (name, file, old text, new text)
MUTANTS = [
    ("SOP's _scored bound to v", BINARY,
     "self._w = self._scored = np.zeros(d)",
     "self._w = np.zeros(d)\n        self._scored = self.v"),
    ("first-order _scored detached from w", BINARY,
     "self.w = self._audited = self._scored = np.zeros(d)",
     "self.w = self._audited = np.zeros(d)\n        self._scored = np.zeros(d)"),
    ("downdate's guard lets a NaN gap through", CORE,
     "if not gap[gap.argmin()] > 0.0:",
     "if gap[gap.argmin()] <= 0.0:"),
    ("SOP adds y*x to v before the downdate", BINARY,
     "        cycle.downdate(1.0 / (1.0 + cycle.sigma_x(x)))\n"
     "        dsq = sparse_add(self.v, x, coef * y, self.audit)\n",
     "        dsq = sparse_add(self.v, x, coef * y, self.audit)\n"
     "        cycle.downdate(1.0 / (1.0 + cycle.sigma_x(x)))\n"),
    ("PA1's min is a max", CORE,
     "return min(hp.C, loss / xsq)",
     "return max(hp.C, loss / xsq)"),
    ("NAROW always uses arow_r", CORE,
     "return _arow_coefs(m, v, v / (b * v - 1.0) if b * v > 1.0 else hp.arow_r)",
     "return _arow_coefs(m, v, hp.arow_r)"),
    ("NHERD's Sigma factor is beta", CORE,
     "return coefs[0], (hp.C * hp.C * v + 2.0 * hp.C) / (1.0 + hp.C * v) ** 2",
     "return coefs"),
    ("SigmaStep's downdate without DIR_SQ", CORE,
     "cycle.downdate(self.DIR_SQ * beta)",
     "cycle.downdate(beta)"),
    ("romma_coefs' c and g swapped", CORE,
     "return (xsq * wsq - margin) / den, wsq * (1.0 - margin) / den",
     "return wsq * (1.0 - margin) / den, (xsq * wsq - margin) / den"),
    ("skipped cycles credited m - k", ENGINE,
     "m - (k + 1)",
     "m - k"),
    ("the binary margin's dimension check is >", BINARY,
     "if x.max_index >= self.d:",
     "if x.max_index > self.d:"),
    ("the multiclass mean add without np.negative", MULTICLASS,
     "dense_add(self.W[r], np.negative(sx, sx), audit)",
     "dense_add(self.W[r], sx, audit)"),
    ("dense_add's unaudited branch skips the add", CORE,
     "        np.add(row, inc, row)\n        return 0.0\n",
     "        return 0.0\n"),
    ("sigma_x keeps a gathered row's copies for the next cycle", CORE,
     "                self.sx_x = None\n                self.x = None\n",
     "                self.sx_x = None\n                self.x = x\n"),
    ("sigma_x binds only the first row it sees", CORE,
     "if x is not self.x:",
     "if self.x is None:"),
    ("AROW's recurrence accumulates beta*lam into B", BINARY,
     "b += beta * lam * lam",
     "b += beta * lam"),
    ("AROW's margin recurrence drops its alpha*v", BINARY,
     "            margin += alpha * v\n",
     ""),
    ("AROW's begin_instance keeps the recorded cycles", BINARY,
     "        super().begin_instance()\n        self._replay.clear()\n",
     "        super().begin_instance()\n"),
    ("a recorded cycle mispredicts only below margin 0", BINARY,
     "wrong = [mk <= 0.0 for mk in margins]",
     "wrong = [mk < 0.0 for mk in margins]"),
]

# (name, file, old text, new text, why no test can kill it)
EQUIVALENT = [
    ("PAStep's passive loss test is <", CORE,
     "if loss <= PASSIVE_EPS or xsq <= PASSIVE_EPS:",
     "if loss < PASSIVE_EPS or xsq <= PASSIVE_EPS:",
     "it differs only at a hinge loss of exactly PASSIVE_EPS (1e-15), "
     "which no test data produces"),
]


def _matches_once(file: str, old: str) -> bool:
    count = (REPO / file).read_text().count(old)
    if count != 1:
        print(f"EDIT DOES NOT MATCH ONCE ({count}x) in {file}: {old!r}")
    return count == 1


def _run(root: Path) -> tuple[str, float, str]:
    """('passed' | 'failed' | 'timed out', seconds, output tail) of SUBSET in root."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *SUBSET],
            cwd=root, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timed out", time.perf_counter() - started, ""
    tail = "\n".join(proc.stdout.strip().splitlines()[-3:])
    return ("passed" if proc.returncode == 0 else "failed"), time.perf_counter() - started, tail


def _in_copy(edit: tuple[str, str, str] | None) -> tuple[str, float, str]:
    """Run SUBSET in a fresh copy of the repository, with edit applied if given."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        root = Path(tmp)
        for name in COPIED:
            src = REPO / name
            if src.is_dir():
                shutil.copytree(src, root / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, root / name)
        if edit is not None:
            file, old, new = edit
            path = root / file
            path.write_text(path.read_text().replace(old, new, 1))
        return _run(root)


def main() -> int:
    ok = all([_matches_once(file, old) for _, file, old, *_ in MUTANTS + EQUIVALENT])
    for name, _, _, _, why in EQUIVALENT:
        print(f"equivalent, not run: {name} ({why})")

    verdict, seconds, tail = _in_copy(None)
    print(f"unmutated copy: {verdict} in {seconds:.1f}s")
    if verdict != "passed":
        print(tail)
        return 1

    started = time.perf_counter()
    survivors = []
    for name, file, old, new in MUTANTS:
        verdict, seconds, tail = _in_copy((file, old, new))
        if verdict == "passed":
            survivors.append(name)
            print(f"SURVIVED  {name} ({seconds:.1f}s)\n{tail}")
        else:
            print(f"killed    {name} ({verdict}, {seconds:.1f}s)")
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed "
          f"in {time.perf_counter() - started:.0f}s")
    return 0 if ok and not survivors else 1


if __name__ == "__main__":
    sys.exit(main())
