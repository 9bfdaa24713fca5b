"""Binary classification catalog: sixteen online learners behind the
core.Learner contract, each adding score(x) -> float, the current
prediction score <w_eff, x>.

The Perceptron, PA, ROMMA, CW and AROW families take their steps from core;
this module supplies the binary hooks: the margin y*s, the update direction
y*x (DIR_SQ = 1), and adds on w or on the mean mu. ALMA, SOP and IELLIP keep
their own steps.

The audited state vector (whose per-cycle change is reported in
delta_sq_norm and whose norm primary_norm() returns) is w for first-order
kinds, the mean mu for the confidence-weighted family, and the accumulator v
for the second-order perceptron.
"""
from __future__ import annotations

import math

import numpy as np

from .core import (PASSIVE_EPS, ArowStep, CWStep, Learner, PAStep, PerceptronStep, RommaStep,
                   SparseVector, UpdateInfo, dense_add, downdate, ogd_tau, pa1_tau, pa2_tau,
                   passive, predict_linear, scw1_alpha, scw2_alpha, sigma_x, sparse_add)
from .errors import ConfigError
from .params import HyperParams


def _sq_change(w: np.ndarray, old: np.ndarray | None) -> float:
    """||w - old||^2 for a whole-vector update, or 0.0 when old was not kept."""
    if old is None:
        return 0.0
    delta = w - old
    return float(delta @ delta)


class BinaryLearner(Learner):
    """A learner whose prediction is the sign of score(x)."""

    def score(self, x: SparseVector) -> float:
        raise NotImplementedError

    def _margin(self, x, y):
        m = y * self.score(x)
        return m <= 0, m, y


class FirstOrderLearner(BinaryLearner):
    def __init__(self, d, hp):
        super().__init__(d, hp)
        self.w = np.zeros(d)

    def score(self, x):
        return predict_linear(self.w, x)

    def primary_norm(self):
        return float(np.linalg.norm(self.w))

    def _add_x(self, x, y, r, coef):
        return sparse_add(self.w, x, coef * y, self.audit)

    def _sq_norm(self):
        return float(self.w @ self.w)

    def _rescale_add(self, x, y, r, c, g):
        old = self.w.copy() if self.audit else None
        self.w *= c
        self.w[x.indices] += g * y * x.values
        return _sq_change(self.w, old)


class Perceptron(PerceptronStep, FirstOrderLearner):
    """Rosenblatt's rule: on a sign mistake, w += y*x."""

    kind = "Perceptron"


class PA(PAStep, FirstOrderLearner):
    kind = "PA"


class PA1(PA):
    kind = "PA1"
    tau_rule = staticmethod(pa1_tau)


class PA2(PA):
    kind = "PA2"
    tau_rule = staticmethod(pa2_tau)


class OGD(PA):
    """Online gradient descent on the hinge loss with eta_t = eta0 / sqrt(t).

    t is the outer-instance counter: it advances once per instance, so the
    rate is constant across one instance's repeated update cycles.
    """

    kind = "OGD"
    tau_rule = staticmethod(ogd_tau)


class ALMA(FirstOrderLearner):
    """Approximate large-margin algorithm (p = 2).

    Works on direction only: the instance is normalized by its norm, the
    weight is kept inside the unit ball, and both the margin threshold
    (1 - alpha) * B / sqrt(k) and the step C / sqrt(k) shrink with the
    correction counter k.
    """

    kind = "ALMA"

    def __init__(self, d, hp):
        super().__init__(d, hp)
        self.k = 1

    def step(self, x, y):
        s = self.score(x)
        mis = y * s <= 0
        xsq = x.squared_norm()
        if xsq <= PASSIVE_EPS:
            return passive(mis)
        xnorm = math.sqrt(xsq)
        theta = self.hp.alma_B / math.sqrt(self.k)
        if y * s / xnorm > (1.0 - self.hp.alma_alpha) * theta:
            return passive(mis)
        eta = self.hp.alma_C / math.sqrt(self.k)
        old = self.w.copy() if self.audit else None
        self.w[x.indices] += eta * y * x.values / xnorm
        wnorm = float(np.linalg.norm(self.w))
        if wnorm > 1.0:
            self.w /= wnorm
        self.k += 1
        return UpdateInfo(True, mis, _sq_change(self.w, old))


class ROMMA(RommaStep, FirstOrderLearner):
    """Relaxed online maximum-margin: w' = c*w + g*y*x."""

    kind = "ROMMA"


class AROMMA(ROMMA):
    kind = "aROMMA"
    aggressive = True


class SOP(BinaryLearner):
    """Second-order perceptron: v accumulates y*x on mistakes, S accumulates
    x x^T, and predictions use w = (S + a*I)^-1 v.

    S itself is not stored: P = (S + a*I)^-1 starts at I/a and takes a
    rank-1 Sherman-Morrison update on each mistake, after which w = P v is
    recomputed. sigma_x gathers rows of P in place of columns, which relies
    on P staying exactly symmetric; every update subtracts a multiple of an
    outer product, so it does.
    """

    kind = "SOP"

    def __init__(self, d, hp):
        super().__init__(d, hp)
        self.v = np.zeros(d)
        self._w = np.zeros(d)
        self._P = np.eye(d) / hp.sop_a

    def score(self, x):
        return predict_linear(self._w, x)

    def primary_norm(self):
        return float(np.linalg.norm(self.v))

    def step(self, x, y):
        mis = y * self.score(x) <= 0
        if not mis or x.squared_norm() <= PASSIVE_EPS:
            return passive(mis)
        dsq = sparse_add(self.v, x, float(y), self.audit)
        px, q = sigma_x(self._P, x)
        self._P -= np.outer(px, px) / (1.0 + q)
        self._w = self._P @ self.v
        return UpdateInfo(True, mis, dsq)


class SecondOrderLearner(BinaryLearner):
    """Gaussian-state family: mean mu plus covariance Sigma, initialized N(0, I)."""

    def __init__(self, d, hp):
        super().__init__(d, hp)
        self.mu = np.zeros(d)
        self.sigma = np.eye(d)

    def score(self, x):
        return predict_linear(self.mu, x)

    def primary_norm(self):
        return float(np.linalg.norm(self.mu))

    def _add_dense(self, sx, y, r, coef):
        return dense_add(self.mu, sx, coef * y, self.audit)


class CW(CWStep, SecondOrderLearner):
    """Confidence-weighted learning: fires while y*<mu,x> < phi*sqrt(x^T Sigma x)."""

    kind = "CW"


class SCW1(CW):
    """Soft confidence-weighted, variant I: the CW step capped at C."""

    kind = "SCW1"
    alpha_rule = staticmethod(scw1_alpha)


class SCW2(CW):
    """Soft confidence-weighted, variant II: the CW step damped by a slack term."""

    kind = "SCW2"
    alpha_rule = staticmethod(scw2_alpha)


class AROW(ArowStep, SecondOrderLearner):
    kind = "AROW"


class NAROW(AROW):
    """AROW with the adaptive regularizer r_t = chi/(b*chi - 1) whenever
    b*chi > 1 (chi = x^T Sigma x); otherwise the fixed r is used."""

    kind = "NAROW"

    def _r(self, v):
        b = self.hp.narow_b
        if b * v > 1.0:
            return v / (b * v - 1.0)
        return self.hp.arow_r


class NHERD(AROW):
    """Gaussian herding (full-matrix projection variant).

    Mean moves like AROW with r = 1/C; the covariance contracts by the
    factor (C^2 v + 2C)/(1 + Cv)^2 on the (Sigma x) direction, which keeps
    Sigma positive definite since that factor times v is 1 - 1/(1+Cv)^2 < 1.
    """

    kind = "NHERD"

    def _r(self, v):
        return 1.0 / self.hp.C

    def _shrink(self, v, beta):
        C = self.hp.C
        return (C * C * v + 2.0 * C) / (1.0 + C * v) ** 2


class IELLIP(SecondOrderLearner):
    """Ellipsoid-method learner: on a mistake the center moves along Sigma*x
    and the ellipsoid contracts by the constant factors b (global) and c
    (along the update direction). With g = y*x/sqrt(x^T Sigma x) the rank-1
    term satisfies g^T Sigma g = 1, so c <= 1 keeps Sigma positive definite.
    """

    kind = "IELLIP"

    def step(self, x, y):
        s = self.score(x)
        mis = y * s <= 0
        if not mis or x.squared_norm() <= PASSIVE_EPS:
            return passive(mis)
        sx, v = sigma_x(self.sigma, x)
        if v <= PASSIVE_EPS:
            return passive(mis)
        root_v = math.sqrt(v)
        alpha = (1.0 - y * s) / root_v
        sg = y * sx / root_v                      # Sigma @ g
        downdate(self.sigma, sg, self.hp.iellip_c)
        self.sigma *= self.hp.iellip_b
        return UpdateInfo(True, mis, dense_add(self.mu, sg, alpha, self.audit))


BINARY_KINDS: dict[str, type[BinaryLearner]] = {
    cls.kind: cls
    for cls in (Perceptron, PA, PA1, PA2, OGD, ALMA, ROMMA, AROMMA,
                SOP, CW, AROW, NAROW, NHERD, SCW1, SCW2, IELLIP)
}


def make_binary(kind: str, d: int, hp: HyperParams) -> BinaryLearner:
    try:
        cls = BINARY_KINDS[kind]
    except KeyError:
        raise ConfigError(f"unknown binary learner {kind!r} (valid: {list(BINARY_KINDS)})") from None
    return cls(d, hp)
