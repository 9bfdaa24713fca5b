"""Multiclass catalog: per-class prototype rows with max-score decoding.

Prediction is argmax over W @ x with ties broken toward the lowest class
index. Updates work on the margin between the true class y and the top wrong
class r = argmax_{c != y} score_c: the multiclass hinge is
max(0, 1 - (s_y - s_r)), and the difference-vector feature representation
(x in block y, -x in block r) has squared norm 2*||x||^2, which is where the
PA-family step sizes get their doubled denominator.

Second-order kinds keep one shared d x d covariance across classes (the
block-diagonal reduction with equal blocks), so the confidence of the
difference vector is v = 2 * x^T Sigma x and the mean rows move by +/- alpha
* Sigma x. The shared matrix receives one rank-1 decrement per update with
the binary coefficient doubled: Sigma -= 2*beta*(Sigma x)(Sigma x)^T makes
the difference-vector confidence contract to v - beta*v^2, exactly what the
binary closed form prescribes (a single-beta decrement would halve the
contraction and leave the attained margin short of the solved constraint).

The audited state vector is the whole prototype matrix W (Frobenius norm).
"""
from __future__ import annotations

import numpy as np

from .core import (PASSIVE_EPS, Learner, SparseVector, UpdateInfo, arow_step, cw_alpha,
                   cw_step, dense_add, downdate, ogd_tau, pa1_tau, pa2_tau, pa_tau, passive,
                   romma_coefs, scw1_alpha, scw2_alpha, sigma_x, sparse_add)
from .errors import ConfigError, DimensionMismatchError
from .numerics import inv_norm_cdf
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
    """A learner with one prototype row per class, decoded by max score."""

    def __init__(self, num_classes: int, d: int, hp: HyperParams):
        if num_classes < 2:
            raise ConfigError("multiclass learner needs num_classes >= 2")
        super().__init__(d, hp)
        self.K = num_classes
        self.W = np.zeros((num_classes, d))

    def scores(self, x: SparseVector) -> np.ndarray:
        if x.max_index >= self.d:
            raise DimensionMismatchError(
                f"feature index {x.max_index} out of range for dimension {self.d}"
            )
        if not x.indices.size:
            return np.zeros(self.K)
        # Same F-ordered operand as W[:, x.indices], so the same rounding.
        return self.W.T.take(x.indices, axis=0).T @ x.values

    def predict(self, x: SparseVector) -> int:
        """Max-score class; ties go to the lowest index (np.argmax's rule)."""
        return int(np.argmax(self.scores(x)))

    def primary_norm(self) -> float:
        return float(np.linalg.norm(self.W))

    def _margin_parts(self, x: SparseVector, y: int):
        """(scores, predicted, runner-up r, margin s_y - s_r, hinge loss)."""
        s = self.scores(x)
        pred = int(np.argmax(s))
        masked = s.copy()
        masked[y] = -np.inf
        r = int(np.argmax(masked))
        margin = float(s[y] - s[r])
        return s, pred, r, margin, max(0.0, 1.0 - margin)


class _MPABase(MulticlassLearner):
    """PA family on the difference vector: W_y += tau*x, W_r -= tau*x."""

    tau_rule = staticmethod(pa_tau)

    def step(self, x, y):
        _, pred, r, _, loss = self._margin_parts(x, y)
        mis = pred != y
        xsq = x.squared_norm()
        # Losses within rounding distance of zero count as satisfied so an
        # exactly-attained margin does not re-trigger on repeat cycles.
        if loss <= PASSIVE_EPS or xsq <= PASSIVE_EPS:
            return passive(mis)
        tau = self.tau_rule(loss, 2.0 * xsq, self.hp, self.t)
        dsq = _two_sided_row_update(self.W, x, y, [r], tau, tau, self.audit)
        return UpdateInfo(True, mis, dsq)


class MPA(_MPABase):
    kind = "M_PA"


class MPA1(_MPABase):
    kind = "M_PA1"
    tau_rule = staticmethod(pa1_tau)


class MPA2(_MPABase):
    kind = "M_PA2"
    tau_rule = staticmethod(pa2_tau)


class MOGD(_MPABase):
    """Gradient step on the multiclass hinge: the two-row update with the
    OGD rate eta0 / sqrt(t) (t = outer instances)."""

    kind = "M_OGD"
    tau_rule = staticmethod(ogd_tau)


class _MPerceptronBase(MulticlassLearner):
    """Ultraconservative additive family: on a misprediction the true row
    gains +x and the -x mass is split over a violator set E."""

    def _violators(self, s: np.ndarray, y: int, r: int) -> list[int]:
        raise NotImplementedError

    def step(self, x, y):
        s, pred, r, _, _ = self._margin_parts(x, y)
        mis = pred != y
        if not mis or x.squared_norm() <= PASSIVE_EPS:
            return passive(mis)
        violators = self._violators(s, y, r)
        if not violators:
            # Mispredicted purely by tie-break with no class strictly ahead
            # of y (the all-zero start is the one common case). Blame the top
            # wrong class so the learner can leave the tie; staying passive
            # here would freeze the zero state forever.
            violators = [r]
        share = 1.0 / len(violators)
        dsq = _two_sided_row_update(self.W, x, y, violators, 1.0, share, self.audit)
        return UpdateInfo(True, mis, dsq)


class MPerceptronM(_MPerceptronBase):
    """All -x mass on the single top wrong class."""

    kind = "M_PerceptronM"

    def _violators(self, s, y, r):
        return [r]


class MPerceptronU(_MPerceptronBase):
    """-x mass split uniformly over every class scoring >= the true class."""

    kind = "M_PerceptronU"

    def _violators(self, s, y, r):
        return [c for c in range(self.K) if c != y and s[c] >= s[y]]


class MPerceptronS(_MPerceptronBase):
    """-x mass split over classes scoring strictly above the true class."""

    kind = "M_PerceptronS"

    def _violators(self, s, y, r):
        return [c for c in range(self.K) if c != y and s[c] > s[y]]


class _MRommaBase(MulticlassLearner):
    """ROMMA on the difference vector phi = Phi(x,y) - Phi(x,r): the whole W
    is rescaled by c and the two rows move by +/- g*x. Bootstraps with a
    perceptron-style step from the zero state or a vanishing denominator."""

    aggressive = False

    def step(self, x, y):
        _, pred, r, margin, loss = self._margin_parts(x, y)
        mis = pred != y
        triggered = loss > PASSIVE_EPS if self.aggressive else margin <= 0.0
        xsq = x.squared_norm()
        if not triggered or xsq <= PASSIVE_EPS:
            return passive(mis)
        coefs = romma_coefs(2.0 * xsq, float(np.sum(self.W * self.W)), margin)
        if coefs is None:
            dsq = _two_sided_row_update(self.W, x, y, [r], 1.0, 1.0, self.audit)
            return UpdateInfo(True, mis, dsq)
        c, g = coefs
        old = self.W.copy() if self.audit else None
        self.W *= c
        self.W[y, x.indices] += g * x.values
        self.W[r, x.indices] -= g * x.values
        dsq = 0.0
        if old is not None:
            delta = self.W - old
            dsq = float(np.sum(delta * delta))
        return UpdateInfo(True, mis, dsq)


class MROMMA(_MRommaBase):
    kind = "M_ROMMA"
    aggressive = False


class MAROMMA(_MRommaBase):
    kind = "M_aROMMA"
    aggressive = True


class _MSecondOrderBase(MulticlassLearner):
    """Shared-covariance second-order base: W rows as per-class means plus one
    d x d Sigma; margin/confidence come from the difference-vector reduction."""

    def __init__(self, num_classes, d, hp):
        super().__init__(num_classes, d, hp)
        self.sigma = np.eye(d)

    def _commit(self, y: int, r: int, sx: np.ndarray, alpha: float, rank1_coef: float) -> float:
        # rank1_coef arrives on the shared-Sigma scale (2x the binary beta);
        # positivity holds because 2*beta*(x^T Sigma x) = beta*v < 1 for both
        # the AROW and CW coefficient families.
        downdate(self.sigma, sx, rank1_coef)
        return (dense_add(self.W[y], sx, alpha, self.audit)
                + dense_add(self.W[r], sx, -alpha, self.audit))


class MAROW(_MSecondOrderBase):
    kind = "M_AROW"

    def step(self, x, y):
        _, pred, r, _, loss = self._margin_parts(x, y)
        mis = pred != y
        if loss <= PASSIVE_EPS or x.squared_norm() <= PASSIVE_EPS:
            return passive(mis)
        sx, vx = sigma_x(self.sigma, x)
        v = 2.0 * vx
        if v <= PASSIVE_EPS:
            return passive(mis)
        alpha, beta = arow_step(loss, v, self.hp.arow_r)
        return UpdateInfo(True, mis, self._commit(y, r, sx, alpha, 2.0 * beta))


class MCW(_MSecondOrderBase):
    kind = "M_CW"
    alpha_rule = staticmethod(cw_alpha)

    def __init__(self, num_classes, d, hp):
        super().__init__(num_classes, d, hp)
        self._phi = inv_norm_cdf(hp.cw_eta)

    def step(self, x, y):
        _, pred, r, margin, _ = self._margin_parts(x, y)
        mis = pred != y
        if x.squared_norm() <= PASSIVE_EPS:
            return passive(mis)
        sx, vx = sigma_x(self.sigma, x)
        alpha, beta = cw_step(self.alpha_rule, margin, 2.0 * vx, self._phi, self.hp)
        if alpha <= 0.0:
            return passive(mis)
        return UpdateInfo(True, mis, self._commit(y, r, sx, alpha, 2.0 * beta))


class MSCW1(MCW):
    kind = "M_SCW1"
    alpha_rule = staticmethod(scw1_alpha)


class MSCW2(MCW):
    kind = "M_SCW2"
    alpha_rule = staticmethod(scw2_alpha)


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
