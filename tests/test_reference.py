"""A 60-digit reference for what m repeated cycles do.

The reference runs Perceptron, PA, PA1, PA2, OGD, ROMMA and aROMMA, the Sigma
kinds CW, SCW1, SCW2, AROW, NAROW and NHERD, and SOP, in plain Python decimal
arithmetic at 60 significant digits, with no numpy: every input float is
converted exactly with Decimal(float), square roots are Decimal.sqrt, and
the package's own PASSIVE_EPS, ROMMA_EPS, HyperParams defaults and CW
quantile phi decide whether a cycle fires or degenerates. It follows the
engine's protocol: a zero-initialized model (mu = 0 and Sigma = I for the
Sigma kinds), up to m cycles per instance that stop at the first cycle that
does not fire, and the mistake taken from the first cycle's prediction. Its
per-run update counts and mistakes must equal run_sequence's on the golden
binary stand-in; the Sigma kinds also run on that stand-in with every value
times 4, which is exact in floats and is where NAROW's adaptive regularizer
(b * x^T Sigma x > 1) fires on many cycles.

A count that differs is rounding in floats. In the first-order kinds the
mistakes agree in every run. aROMMA's update lands exactly on its margin in
exact arithmetic; in floats it leaves a residual of about 1e-15 there, and
the next cycle fires on it again (42 updates against 47 on permutation 0 at
m = 4 and 32). PA2's hinge loss shrinks by a constant factor per cycle, and
in floats it falls below PASSIVE_EPS a cycle early on two instances of
permutation 1 at m = 32. At scale 4, CW and SCW1 take one more update in
floats on permutation 0, SCW2 one fewer at m = 32, and NAROW's rounding
moves the first-prediction mistakes as well as the updates. Each gap
measured here is an expected failure that records both counts.

The first-order multiclass kinds (the M_Perceptron M, U and S triple, M_PA,
M_PA1, M_PA2, M_OGD, M_ROMMA and M_aROMMA) run the same way on the golden
multiclass stand-in: K score rows, argmax ties to the lowest index, the
runner-up r over c != y, the difference vector's DIR_SQ = 2 and U's and S's
exact 1/|E| split of the -x mass. Their gaps mirror the binary ones: M_PA2
stops two cycles early on permutation 1 at m = 32, and M_aROMMA re-fires on
its float residual at m = 4 and 32. OGD and M_OGD, whose step eta0 / sqrt(t)
reads the 1-based instance index t of the run, agree in all twelve cases
(m = 1, 4 and 32, permutations 0 and 1, each label space).

The multiclass Sigma kinds M_CW, M_SCW1, M_SCW2 and M_AROW run on the same
stand-in through the binary Sigma steps, with K mean rows and one shared
Sigma: the confidence of the difference vector is DIR_SQ * x^T Sigma x, rows
y and r move by +/- alpha * Sigma x and the rank-1 decrement is doubled.
M_CW, M_SCW1 and M_AROW agree in every case; M_SCW2 takes one or two more
updates in floats at m = 32, with the same mistakes.

The same four also run on the multiclass-audit benchmark workload's
segment-like stand-in, generated by perfbench/synth.py and checked against
its golden SHA-256. There every kind agrees at m = 1, M_SCW2 at m = 4 and
M_AROW at m = 1 and 4, and the mistakes agree everywhere. M_CW and M_SCW1
(identical numbers) take 5-9 more updates in floats at m = 4 and 16, M_SCW2
11-15 more at m = 16: floats re-fire on residuals where the reference
settles (227 updates at m = 4 on permutation 0, against 235).

SOP runs on the golden binary stand-in as w = P v, with P_0 = I/a exact and
the Sherman-Morrison step on each mistake. Its counts agree in all six cases
(m = 1, 4 and 32, permutations 0 and 1).
"""
from __future__ import annotations

import decimal
from decimal import Decimal

import pytest

from conftest import bench_stand_in, blob_instances, instances_to_text, separable_instances
from multiupdate.core import PASSIVE_EPS, ROMMA_EPS, SparseVector
from multiupdate.data import normalize_labels, parse_text
from multiupdate.engine import LoopConfig, run_sequence
from multiupdate.numerics import inv_norm_cdf
from multiupdate.params import HyperParams
from multiupdate.rng import permutation

HP = HyperParams()
GOLDEN_BINARY = normalize_labels(parse_text(instances_to_text(
    separable_instances(80, 8, seed=11, margin=0.02, noise=0.2, scale=0.3))))

ZERO, ONE = Decimal(0), Decimal(1)
EPS, R_EPS, C = Decimal(PASSIVE_EPS), Decimal(ROMMA_EPS), Decimal(HP.C)
ETA0 = Decimal(HP.eta0)
# the step of the PA family and OGD from the hinge loss, the direction's
# squared norm and the 1-based instance index t of the run
PA_TAU = {
    "PA": lambda loss, xsq, t: loss / xsq,
    "PA1": lambda loss, xsq, t: min(C, loss / xsq),
    "PA2": lambda loss, xsq, t: loss / (xsq + ONE / (2 * C)),
    "OGD": lambda loss, xsq, t: ETA0 / Decimal(t).sqrt(),
}


def _dot(a: list[Decimal], b: list[Decimal]) -> Decimal:
    return sum((p * q for p, q in zip(a, b)), ZERO)


def _cycle(kind: str, w: list[Decimal], x: list[Decimal], y: int,
           xsq: Decimal, t: int) -> tuple[bool, bool]:
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
        g = PA_TAU[kind](ONE - margin, xsq, t)
    elif kind != "Perceptron":                   # ROMMA's step unless it degenerates
        wsq = _dot(w, w)
        den = xsq * wsq - margin * margin
        if wsq > R_EPS and abs(den) >= R_EPS:
            c, g = (xsq * wsq - margin) / den, wsq * (ONE - margin) / den
    w[:] = [c * wi + g * y * xi for wi, xi in zip(w, x)]
    return True, mistake


def reference_run(kind: str, instances, d: int, m: int,
                  num_classes: int | None = None) -> tuple[int, int]:
    """(updates, first-prediction mistakes) of one run at 60 digits; with
    num_classes, of a multiclass kind on that many score rows."""
    updates = mistakes = 0
    with decimal.localcontext(decimal.Context(prec=60)):
        if num_classes is None:
            state, cycle = [ZERO] * d, _cycle
        else:
            state, cycle = [[ZERO] * d for _ in range(num_classes)], _multi_cycle
        for t, (x, y) in enumerate(instances, 1):
            dense = [ZERO] * d
            for i, v in x.pairs():
                dense[i] = Decimal(v)
            xsq = _dot(dense, dense)
            for k in range(m):
                fired, mistake = cycle(kind, state, dense, y, xsq, t)
                if k == 0:
                    mistakes += mistake
                if not fired:
                    break
                updates += 1
    return updates, mistakes


def float_run(kind: str, instances, d: int, m: int,
              num_classes: int | None = None) -> tuple[int, int]:
    _, records, _ = run_sequence(kind, HP, instances, d, LoopConfig(m=m), num_classes)
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


PHI = Decimal(inv_norm_cdf(HP.cw_eta))
SCW_C, AROW_R, NAROW_B = Decimal(HP.scw_C), Decimal(HP.arow_r), Decimal(HP.narow_b)


def _cw_alpha(m: Decimal, v: Decimal) -> Decimal:
    psi, zeta = ONE + PHI * PHI / 2, ONE + PHI * PHI
    return max(ZERO, (-m * psi + (m * m * PHI ** 4 / 4 + v * PHI * PHI * zeta).sqrt())
               / (v * zeta))


def _scw2_alpha(m: Decimal, v: Decimal) -> Decimal:
    n, phi2 = v + ONE / (2 * SCW_C), PHI * PHI
    num = -(2 * m * n + phi2 * m * v) + PHI * (
        phi2 * m * m * v * v + 4 * n * v * (n + v * phi2)).sqrt()
    return max(ZERO, num / (2 * (n * n + n * v * phi2)))


CW_ALPHA = {
    "CW": _cw_alpha,
    "SCW1": lambda m, v: min(SCW_C, _cw_alpha(m, v)),
    "SCW2": _scw2_alpha,
}


def _sigma_steps(kind: str, margin: Decimal, v: Decimal) -> tuple[Decimal, Decimal] | None:
    """(alpha, coefficient of the rank-1 downdate) of a firing cycle, or None."""
    if kind in CW_ALPHA:
        if v <= EPS or max(ZERO, PHI * v.sqrt() - margin) <= EPS:
            return None
        alpha = CW_ALPHA[kind](margin, v)
        if alpha <= 0:
            return None
        u = (-alpha * v * PHI + (alpha * alpha * v * v * PHI * PHI + 4 * v).sqrt()) ** 2 / 4
        return alpha, alpha * PHI / (u.sqrt() + v * alpha * PHI)
    loss = max(ZERO, ONE - margin)
    if loss <= EPS or v <= EPS:
        return None
    if kind == "NHERD":
        beta = ONE / (v + ONE / C)
        return loss * beta, (C * C * v + 2 * C) / (1 + C * v) ** 2
    r = v / (NAROW_B * v - 1) if kind == "NAROW" and NAROW_B * v > 1 else AROW_R
    beta = ONE / (v + r)
    return loss * beta, beta


def reference_sigma_run(kind: str, instances, d: int, m: int,
                        num_classes: int | None = None) -> tuple[int, int]:
    """(updates, first-prediction mistakes) of one Sigma-kind run at 60 digits:
    mu += alpha*y*Sigma x and Sigma -= coef*(Sigma x)(Sigma x)^T per update.
    With num_classes, of a multiclass kind on that many mean rows and one
    shared Sigma: the confidence is v = DIR_SQ * x^T Sigma x, rows y and r
    move by +alpha*Sigma x and -alpha*Sigma x, and the decrement is doubled."""
    updates = mistakes = 0
    dir_sq = 1 if num_classes is None else DIR_SQ
    with decimal.localcontext(decimal.Context(prec=60)):
        rows = [[ZERO] * d for _ in range(num_classes or 1)]
        sigma = [[ONE if i == j else ZERO for j in range(d)] for i in range(d)]
        for x, y in instances:
            dense = [ZERO] * d
            for i, v in x.pairs():
                dense[i] = Decimal(v)
            xsq = _dot(dense, dense)
            for k in range(m):
                s = [_dot(row, dense) for row in rows]
                if num_classes is None:
                    margin, moves = y * s[0], {0: y}
                    mistake = margin <= 0
                else:
                    r = _argmax(s, skip=y)
                    margin, moves = s[y] - s[r], {y: 1, r: -1}
                    mistake = _argmax(s) != y
                if k == 0:
                    mistakes += mistake
                sx = [_dot(row, dense) for row in sigma]
                steps = None if xsq <= EPS else _sigma_steps(
                    kind.removeprefix("M_"), margin, dir_sq * _dot(sx, dense))
                if steps is None:
                    break
                alpha, coef = steps
                coef *= dir_sq
                for row, si in zip(sigma, sx):
                    row[:] = [e - coef * si * sj for e, sj in zip(row, sx)]
                for c, sign in moves.items():
                    rows[c][:] = [wi + alpha * sign * si for wi, si in zip(rows[c], sx)]
                updates += 1
    return updates, mistakes


# (kind, m, permutation seed, scale): the measured (updates, mistakes) of the
# reference and of the floats, where they differ
SIGMA_GAPS = {
    ("CW", 4, 0, 4): ((55, 30), (56, 30)),
    ("CW", 32, 0, 4): ((55, 30), (56, 30)),
    ("SCW1", 4, 0, 4): ((56, 30), (57, 30)),
    ("SCW1", 32, 0, 4): ((56, 30), (57, 30)),
    ("SCW2", 32, 0, 4): ((988, 30), (987, 30)),
    ("NAROW", 4, 0, 4): ((296, 31), (296, 32)),
    ("NAROW", 4, 1, 4): ((280, 27), (292, 25)),
    ("NAROW", 32, 0, 4): ((2272, 30), (2272, 29)),
    ("NAROW", 32, 1, 4): ((2336, 27), (2336, 24)),
}
SIGMA_CASES = [(kind, m, seed, scale) for scale in (1, 4)
               for kind in (*CW_ALPHA, "AROW", "NAROW", "NHERD")
               for m in (1, 4, 32) for seed in (0, 1)]


@pytest.mark.parametrize("kind, m, seed, scale", [
    pytest.param(*case, marks=pytest.mark.xfail(
        strict=True, reason="reference (updates, mistakes) %s against floats %s"
        % SIGMA_GAPS[case])) if case in SIGMA_GAPS else case
    for case in SIGMA_CASES])
def test_sigma_float_counts_equal_the_60_digit_reference(kind, m, seed, scale):
    data = GOLDEN_BINARY
    instances = [(SparseVector(x.indices, x.values * scale), y)
                 for x, y in (data.instances[i] for i in permutation(len(data.instances), seed))]
    assert (float_run(kind, instances, data.d, m)
            == reference_sigma_run(kind, instances, data.d, m))


A = Decimal(HP.sop_a)


def reference_sop_run(instances, d: int, m: int) -> tuple[int, int]:
    """(updates, first-prediction mistakes) of one SOP run at 60 digits: the
    prediction is the sign of w.x with w = P v and P_0 = I/a, and a cycle
    fires on a mistake on a non-zero row, where v += y*x and P takes the
    Sherman-Morrison step P -= (P x)(P x)^T / (1 + x^T P x)."""
    updates = mistakes = 0
    with decimal.localcontext(decimal.Context(prec=60)):
        v, w = [ZERO] * d, [ZERO] * d
        P = [[ONE / A if i == j else ZERO for j in range(d)] for i in range(d)]
        for x, y in instances:
            dense = [ZERO] * d
            for i, xi in x.pairs():
                dense[i] = Decimal(xi)
            xsq = _dot(dense, dense)
            for k in range(m):
                mistake = y * _dot(w, dense) <= 0
                if k == 0:
                    mistakes += mistake
                if not mistake or xsq <= EPS:
                    break
                px = [_dot(row, dense) for row in P]
                coef = ONE / (ONE + _dot(px, dense))
                for row, pi in zip(P, px):
                    row[:] = [e - coef * pi * pj for e, pj in zip(row, px)]
                v = [vi + y * xi for vi, xi in zip(v, dense)]
                w = [_dot(row, v) for row in P]
                updates += 1
    return updates, mistakes


@pytest.mark.parametrize("m", (1, 4, 32))
@pytest.mark.parametrize("seed", (0, 1))
def test_sop_float_counts_equal_the_60_digit_reference(m, seed):
    data = GOLDEN_BINARY
    instances = [data.instances[i] for i in permutation(len(data.instances), seed)]
    assert float_run("SOP", instances, data.d, m) == reference_sop_run(instances, data.d, m)


GOLDEN_MULTICLASS = normalize_labels(parse_text(instances_to_text(
    blob_instances(80, 6, 4, seed=13, spread=1.5), multiclass=True)))
DIR_SQ = 2
AHEAD = {"M_PerceptronU": lambda sc, sy: sc >= sy, "M_PerceptronS": lambda sc, sy: sc > sy}


def _argmax(scores: list[Decimal], skip: int | None = None) -> int:
    """Index of the largest score, ties to the lowest index, skip excluded."""
    best = None
    for c, sc in enumerate(scores):
        if c != skip and (best is None or sc > scores[best]):
            best = c
    return best


def _multi_cycle(kind: str, W: list[list[Decimal]], x: list[Decimal], y: int,
                 xsq: Decimal, t: int) -> tuple[bool, bool]:
    """One multiclass cycle on the K score rows W in place: (fired, mispredicted)."""
    s = [_dot(row, x) for row in W]
    r = _argmax(s, skip=y)
    margin = s[y] - s[r]
    mistake = _argmax(s) != y
    if kind.startswith("M_Perceptron"):
        fired = mistake
    elif kind == "M_ROMMA":
        fired = margin <= 0
    else:
        fired = ONE - margin > EPS
    if not fired or xsq <= EPS:
        return False, mistake
    losers, c, g = [r], ONE, ONE         # W' = c*W, then W_y += g*x, W_loser -= g*x/|E|
    if kind in AHEAD:
        losers = [k for k in range(len(W)) if k != y and AHEAD[kind](s[k], s[y])] or [r]
    elif kind[2:] in PA_TAU:
        g = PA_TAU[kind[2:]](ONE - margin, DIR_SQ * xsq, t)
    elif kind != "M_PerceptronM":        # ROMMA's step unless it degenerates
        wsq = sum((_dot(row, row) for row in W), ZERO)
        den = DIR_SQ * xsq * wsq - margin * margin
        if wsq > R_EPS and abs(den) >= R_EPS:
            c, g = (DIR_SQ * xsq * wsq - margin) / den, wsq * (ONE - margin) / den
    share = g / len(losers)
    for k, row in enumerate(W):
        step = g if k == y else -share if k in losers else ZERO
        row[:] = [c * wi + step * xi for wi, xi in zip(row, x)]
    return True, mistake


MULTI_KINDS = ("M_PerceptronM", "M_PerceptronU", "M_PerceptronS", "M_PA", "M_PA1", "M_PA2",
               "M_OGD", "M_ROMMA", "M_aROMMA")
MULTI_CASES = [(kind, m, seed) for kind in MULTI_KINDS for m in (1, 4, 32) for seed in (0, 1)]
MULTI_GAPS = {
    ("M_PA2", 32, 1): ((507, 21), (505, 21)),
    ("M_aROMMA", 4, 0): ((24, 19), (26, 19)),
    ("M_aROMMA", 4, 1): ((22, 18), (35, 18)),
    ("M_aROMMA", 32, 0): ((24, 19), (26, 19)),
    ("M_aROMMA", 32, 1): ((22, 18), (32, 18)),
}


@pytest.mark.parametrize("kind, m, seed", [
    pytest.param(*case, marks=pytest.mark.xfail(
        strict=True, reason="reference (updates, mistakes) %s against floats %s"
        % MULTI_GAPS[case])) if case in MULTI_GAPS else case
    for case in MULTI_CASES])
def test_multiclass_float_counts_equal_the_60_digit_reference(kind, m, seed):
    data = GOLDEN_MULTICLASS
    instances = [data.instances[i] for i in permutation(len(data.instances), seed)]
    assert (float_run(kind, instances, data.d, m, data.num_classes)
            == reference_run(kind, instances, data.d, m, data.num_classes))


MULTI_SIGMA_CASES = [(kind, m, seed) for kind in ("M_CW", "M_SCW1", "M_SCW2", "M_AROW")
                     for m in (1, 4, 32) for seed in (0, 1)]
MULTI_SIGMA_GAPS = {
    ("M_SCW2", 32, 0): ((690, 22), (691, 22)),
    ("M_SCW2", 32, 1): ((689, 18), (691, 18)),
}


@pytest.mark.parametrize("kind, m, seed", [
    pytest.param(*case, marks=pytest.mark.xfail(
        strict=True, reason="reference (updates, mistakes) %s against floats %s"
        % MULTI_SIGMA_GAPS[case])) if case in MULTI_SIGMA_GAPS else case
    for case in MULTI_SIGMA_CASES])
def test_multiclass_sigma_float_counts_equal_the_60_digit_reference(kind, m, seed):
    data = GOLDEN_MULTICLASS
    instances = [data.instances[i] for i in permutation(len(data.instances), seed)]
    assert (float_run(kind, instances, data.d, m, data.num_classes)
            == reference_sigma_run(kind, instances, data.d, m, data.num_classes))


# The Sigma slice on the multiclass-audit workload's segment-like stand-in
# (300 rows, 7 overlapping classes, d = 19). M_AROW stops at m = 4: one case
# at m = 16 takes about 2 s.
SEGMENT_CASES = ([(kind, m, seed) for kind in ("M_CW", "M_SCW1", "M_SCW2")
                  for m in (1, 4, 16) for seed in (0, 1)]
                 + [("M_AROW", m, seed) for m in (1, 4) for seed in (0, 1)])
SEGMENT_GAPS = {
    ("M_CW", 4, 0): ((227, 29), (235, 29)),
    ("M_CW", 4, 1): ((225, 30), (230, 30)),
    ("M_CW", 16, 0): ((238, 29), (245, 29)),
    ("M_CW", 16, 1): ((228, 30), (237, 30)),
    ("M_SCW1", 4, 0): ((227, 29), (235, 29)),
    ("M_SCW1", 4, 1): ((225, 30), (230, 30)),
    ("M_SCW1", 16, 0): ((238, 29), (245, 29)),
    ("M_SCW1", 16, 1): ((228, 30), (237, 30)),
    ("M_SCW2", 16, 0): ((1350, 28), (1365, 28)),
    ("M_SCW2", 16, 1): ((1404, 30), (1415, 30)),
}


@pytest.mark.parametrize("kind, m, seed", [
    pytest.param(*case, marks=pytest.mark.xfail(
        strict=True, reason="reference (updates, mistakes) %s against floats %s"
        % SEGMENT_GAPS[case])) if case in SEGMENT_GAPS else case
    for case in SEGMENT_CASES])
def test_multiclass_sigma_counts_on_the_segment_like_stand_in(kind, m, seed):
    data = bench_stand_in("multiclass-audit")
    instances = [data.instances[i] for i in permutation(len(data.instances), seed)]
    assert (float_run(kind, instances, data.d, m, data.num_classes)
            == reference_sigma_run(kind, instances, data.d, m, data.num_classes))
