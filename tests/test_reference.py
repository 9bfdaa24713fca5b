"""A 60-digit reference for what m repeated cycles do, first-order kinds.

The reference runs Perceptron, PA, PA1, PA2, ROMMA and aROMMA in plain
Python decimal arithmetic at 60 significant digits, with no numpy: every
input float is converted exactly with Decimal(float), and the package's own
PASSIVE_EPS and ROMMA_EPS decide whether a cycle fires or degenerates. It
follows the engine's protocol: a zero-initialized model, up to m cycles per
instance that stop at the first cycle that does not fire, and the mistake
taken from the first cycle's prediction. Its per-run update counts and
mistakes must equal run_sequence's on the golden binary stand-in.

A count that differs is rounding in floats, and the mistakes agree in every
run. aROMMA's update lands exactly on its margin in exact arithmetic; in
floats it leaves a residual of about 1e-15 there, and the next cycle fires
on it again (42 updates against 47 on permutation 0 at m = 4 and 32). PA2's
hinge loss shrinks by a constant factor per cycle, and in floats it falls
below PASSIVE_EPS a cycle early on two instances of permutation 1 at m = 32.
Each gap measured here is an expected failure that records both counts.
"""
from __future__ import annotations

import decimal
from decimal import Decimal

import pytest

from conftest import instances_to_text, separable_instances
from multiupdate.core import PASSIVE_EPS, ROMMA_EPS
from multiupdate.data import normalize_labels, parse_text
from multiupdate.engine import LoopConfig, run_sequence
from multiupdate.params import HyperParams
from multiupdate.rng import permutation

HP = HyperParams()
GOLDEN_BINARY = normalize_labels(parse_text(instances_to_text(
    separable_instances(80, 8, seed=11, margin=0.02, noise=0.2, scale=0.3))))

ZERO, ONE = Decimal(0), Decimal(1)
EPS, R_EPS, C = Decimal(PASSIVE_EPS), Decimal(ROMMA_EPS), Decimal(HP.C)
PA_TAU = {
    "PA": lambda loss, xsq: loss / xsq,
    "PA1": lambda loss, xsq: min(C, loss / xsq),
    "PA2": lambda loss, xsq: loss / (xsq + ONE / (2 * C)),
}


def _dot(a: list[Decimal], b: list[Decimal]) -> Decimal:
    return sum((p * q for p, q in zip(a, b)), ZERO)


def _cycle(kind: str, w: list[Decimal], x: list[Decimal], y: int,
           xsq: Decimal) -> tuple[bool, bool]:
    """One predict/maybe-update cycle on w in place: (fired, mispredicted)."""
    margin = y * _dot(w, x)
    mistake = margin <= 0
    # Perceptron and ROMMA fire on a mistake, the others on a hinge loss
    # above PASSIVE_EPS; an all-zero row never fires
    fired = mistake if kind in ("Perceptron", "ROMMA") else ONE - margin > EPS
    if not fired or xsq <= EPS:
        return False, mistake
    c = g = ONE                                  # w' = c*w + g*y*x
    if kind in PA_TAU:
        g = PA_TAU[kind](ONE - margin, xsq)
    elif kind != "Perceptron":                   # ROMMA's step unless it degenerates
        wsq = _dot(w, w)
        den = xsq * wsq - margin * margin
        if wsq > R_EPS and abs(den) >= R_EPS:
            c, g = (xsq * wsq - margin) / den, wsq * (ONE - margin) / den
    w[:] = [c * wi + g * y * xi for wi, xi in zip(w, x)]
    return True, mistake


def reference_run(kind: str, instances, d: int, m: int) -> tuple[int, int]:
    """(updates, first-prediction mistakes) of one run at 60 digits."""
    updates = mistakes = 0
    with decimal.localcontext(decimal.Context(prec=60)):
        w = [ZERO] * d
        for x, y in instances:
            dense = [ZERO] * d
            for i, v in x.pairs():
                dense[i] = Decimal(v)
            xsq = _dot(dense, dense)
            for k in range(m):
                fired, mistake = _cycle(kind, w, dense, y, xsq)
                if k == 0:
                    mistakes += mistake
                if not fired:
                    break
                updates += 1
    return updates, mistakes


def float_run(kind: str, instances, d: int, m: int) -> tuple[int, int]:
    _, records, _ = run_sequence(kind, HP, instances, d, LoopConfig(m=m))
    return sum(r.updates for r in records), sum(r.mistake for r in records)


# (kind, m, permutation seed): the measured (updates, mistakes) of the
# reference and of the floats, where they differ
ROUNDING_GAPS = {
    ("PA2", 32, 1): ((1896, 32), (1894, 32)),
    ("aROMMA", 4, 0): ((42, 27), (47, 27)),
    ("aROMMA", 4, 1): ((43, 32), (58, 32)),
    ("aROMMA", 32, 0): ((42, 27), (47, 27)),
    ("aROMMA", 32, 1): ((43, 32), (86, 32)),
}
CASES = [(kind, m, seed) for kind in ("Perceptron", *PA_TAU, "ROMMA", "aROMMA")
         for m in (1, 4, 32) for seed in (0, 1)]


@pytest.mark.parametrize("kind, m, seed", [
    pytest.param(*case, marks=pytest.mark.xfail(
        strict=True, reason="reference (updates, mistakes) %s against floats %s"
        % ROUNDING_GAPS[case])) if case in ROUNDING_GAPS else case
    for case in CASES])
def test_float_counts_equal_the_60_digit_reference(kind, m, seed):
    data = GOLDEN_BINARY
    instances = [data.instances[i] for i in permutation(len(data.instances), seed)]
    assert float_run(kind, instances, data.d, m) == reference_run(kind, instances, data.d, m)
