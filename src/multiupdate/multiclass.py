"""Multiclass catalog: per-class prototype rows with max-score decoding.

Prediction is argmax over W @ x with ties broken toward the lowest class
index. Updates work on the margin between the true class y and the top wrong
class r = argmax_{c != y} score_c: the multiclass hinge is
max(0, 1 - (s_y - s_r)), and the difference-vector feature representation
(x in block y, -x in block r) has squared norm DIR_SQ*||x||^2 = 2*||x||^2.
The PA, ROMMA, CW and AROW families and the three perceptrons run core's
shared steps on it (U and S with a loser set in place of r), which is where
the PA-family step sizes get their doubled denominator.

Second-order kinds keep one shared d x d covariance across classes (the
block-diagonal reduction with equal blocks), so the confidence of the
difference vector is v = DIR_SQ * x^T Sigma x and the mean rows move by
+/- alpha * Sigma x. The shared matrix receives one rank-1 decrement per
update with the binary coefficient times DIR_SQ:
Sigma -= 2*beta*(Sigma x)(Sigma x)^T makes the difference-vector confidence
contract to v - beta*v^2, exactly what the binary closed form prescribes (a
single-beta decrement would halve the contraction and leave the attained
margin short of the solved constraint).

The audited state vector is the whole prototype matrix W (Frobenius norm).
"""
from __future__ import annotations

import operator

import numpy as np

from .core import (Learner, PAStep, PerceptronStep, RommaStep, SigmaCycle, SigmaStep,
                   SparseVector, arow_rule, cw_rule, dense_add, dimension_error, ogd_tau, pa1_tau,
                   pa2_tau, scw1_rule, scw2_rule, sparse_add)
from .errors import ConfigError
from .params import HyperParams


def _two_sided_row_update(W, x: SparseVector, y: int, losers, gain: float,
                          share: float, audit: bool) -> float:
    """Row y gains gain*x, each loser row loses share*x; returns the realized
    squared change of W (measured after float absorption, so the reported
    delta always matches the state the audit later re-norms), or 0.0 when
    audit is False."""
    dsq = sparse_add(W[y], x, gain, audit)
    for c in losers:
        dsq += sparse_add(W[c], x, -share, audit)
    return dsq


class MulticlassLearner(Learner):
    """A learner with one prototype row per class, decoded by max score,
    updated along the difference vector of y and r."""

    DIR_SQ = 2.0

    def __init__(self, num_classes: int, d: int, hp: HyperParams):
        if num_classes < 2:
            raise ConfigError("multiclass learner needs num_classes >= 2")
        super().__init__(d, hp)
        self.K = num_classes
        self.W = np.zeros((num_classes, d))
        self._audited = self.W.reshape(-1)

    def scores(self, x: SparseVector) -> np.ndarray:
        if x.max_index >= self.d:
            raise dimension_error(x, self.d)
        # Same F-ordered operand as W[:, x.indices], so the same rounding.
        return self.W.T.take(x.indices, axis=0).T.dot(x.values)

    def predict(self, x: SparseVector) -> int:
        """Max-score class; ties go to the lowest index (argmax's rule)."""
        return int(self.scores(x).argmax())

    def _margin_parts(self, x: SparseVector, y: int):
        """(scores, predicted, runner-up r)."""
        s = self.scores(x)
        pred = int(s.argmax())
        masked = s.copy()
        masked[y] = -np.inf
        return s, pred, int(masked.argmax())

    def _margin(self, x, y):
        s, pred, r = self._margin_parts(x, y)
        return pred != y, float(s[y] - s[r]), r

    def _add_x(self, x, y, r, coef):
        return _two_sided_row_update(self.W, x, y, [r], coef, coef, self.audit)

    def _add_dense(self, sx, y, r, coef):
        audit = self.audit
        return (dense_add(self.W[y], np.multiply(sx, coef, sx), audit)
                + dense_add(self.W[r], np.negative(sx, sx), audit))

    def _sq_norm(self):
        return float(np.sum(self.W * self.W))

    def _rescale_add(self, x, y, r, c, g):
        old = self.W.copy() if self.audit else None
        self.W *= c
        self.W[y, x.sel] += g * x.values
        self.W[r, x.sel] -= g * x.values
        if old is None:
            return 0.0
        delta = self.W - old
        return float(np.sum(delta * delta))


class MPA(PAStep, MulticlassLearner):
    """PA family on the difference vector: W_y += tau*x, W_r -= tau*x."""

    kind = "M_PA"


class MPA1(MPA):
    kind = "M_PA1"
    tau_rule = staticmethod(pa1_tau)


class MPA2(MPA):
    kind = "M_PA2"
    tau_rule = staticmethod(pa2_tau)


class MOGD(MPA):
    """Gradient step on the multiclass hinge: the two-row update with the
    OGD rate eta0 / sqrt(t) (t = outer instances)."""

    kind = "M_OGD"
    tau_rule = staticmethod(ogd_tau)


class _MPerceptronSplit(PerceptronStep, MulticlassLearner):
    """Ultraconservative additive family: on a misprediction the true row
    gains +x and the -x mass is split over the loser set, the classes c != y
    whose score is ahead(s_c, s_y)."""

    def _margin(self, x, y):
        s, pred, r = self._margin_parts(x, y)
        mis, losers = pred != y, None
        if mis:
            # With no class ahead, y lost purely by tie-break (the all-zero start is the
            # one common case). Blame the top wrong class so the learner can leave the
            # tie; staying passive here would freeze the zero state forever.
            losers = [c for c in range(self.K) if c != y and self.ahead(s[c], s[y])] or [r]
        return mis, float(s[y] - s[r]), losers

    def _add_x(self, x, y, losers, coef):
        return _two_sided_row_update(self.W, x, y, losers, coef, coef / len(losers), self.audit)


class MPerceptronM(PerceptronStep, MulticlassLearner):
    """All -x mass on the top wrong class: the perceptron's difference-vector step."""

    kind = "M_PerceptronM"


class MPerceptronU(_MPerceptronSplit):
    """-x mass split uniformly over every class scoring >= the true class."""

    kind = "M_PerceptronU"
    ahead = staticmethod(operator.ge)


class MPerceptronS(_MPerceptronSplit):
    """-x mass split over classes scoring strictly above the true class."""

    kind = "M_PerceptronS"
    ahead = staticmethod(operator.gt)


class MROMMA(RommaStep, MulticlassLearner):
    """ROMMA on the difference vector: W *= c, then W_y += g*x, W_r -= g*x."""

    kind = "M_ROMMA"


class MAROMMA(MROMMA):
    kind = "M_aROMMA"
    aggressive = True


class _MSecondOrderBase(MulticlassLearner):
    """W rows as per-class means plus one shared d x d Sigma. The doubled
    decrement keeps it positive: 2*beta*(x^T Sigma x) = beta*v < 1."""

    def __init__(self, num_classes, d, hp):
        super().__init__(num_classes, d, hp)
        self.sigma = np.eye(d)
        self._cycle = SigmaCycle(self.sigma)


class MAROW(SigmaStep, _MSecondOrderBase):
    kind = "M_AROW"
    sigma_rule = staticmethod(arow_rule)


class MCW(SigmaStep, _MSecondOrderBase):
    kind = "M_CW"
    sigma_rule = staticmethod(cw_rule)


class MSCW1(MCW):
    kind = "M_SCW1"
    sigma_rule = staticmethod(scw1_rule)


class MSCW2(MCW):
    kind = "M_SCW2"
    sigma_rule = staticmethod(scw2_rule)


MULTICLASS_KINDS: dict[str, type[MulticlassLearner]] = {
    cls.kind: cls
    for cls in (MPerceptronM, MPerceptronU, MPerceptronS, MOGD,
                MPA, MPA1, MPA2, MROMMA, MAROMMA, MCW, MSCW1, MSCW2, MAROW)
}


def make_multiclass(kind: str, num_classes: int, d: int, hp: HyperParams) -> MulticlassLearner:
    try:
        cls = MULTICLASS_KINDS[kind]
    except KeyError:
        raise ConfigError(
            f"unknown multiclass learner {kind!r} (valid: {list(MULTICLASS_KINDS)})"
        ) from None
    return cls(num_classes, d, hp)
