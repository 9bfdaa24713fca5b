"""Binary classification catalog: sixteen online learners behind the
core.Learner contract, each adding score(x) -> float, the current
prediction score <w_eff, x>.

The audited state vector (whose per-cycle change is reported in
delta_sq_norm and whose norm primary_norm() returns) is w for first-order
kinds, the mean mu for the confidence-weighted family, and the accumulator v
for the second-order perceptron.
"""
from __future__ import annotations

import math

import numpy as np

from .core import (PASSIVE_EPS, Learner, SparseVector, UpdateInfo, arow_step, cw_alpha,
                   cw_step, dense_add, downdate, hinge_loss, ogd_tau, pa1_tau, pa2_tau, pa_tau,
                   passive, predict_linear, romma_coefs, scw1_alpha, scw2_alpha, sigma_x,
                   sparse_add)
from .errors import ConfigError
from .numerics import inv_norm_cdf
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


class FirstOrderLearner(BinaryLearner):
    def __init__(self, d, hp):
        super().__init__(d, hp)
        self.w = np.zeros(d)

    def score(self, x):
        return predict_linear(self.w, x)

    def primary_norm(self):
        return float(np.linalg.norm(self.w))


class Perceptron(FirstOrderLearner):
    """Rosenblatt's rule: on a sign mistake, w += y*x."""

    kind = "Perceptron"

    def step(self, x, y):
        mis = y * self.score(x) <= 0
        if not mis or x.squared_norm() <= PASSIVE_EPS:
            return passive(mis)
        return UpdateInfo(True, mis, sparse_add(self.w, x, float(y), self.audit))


class _PABase(FirstOrderLearner):
    """Passive-aggressive: step size tau chosen so the instance reaches margin 1,
    optionally truncated; update fires whenever hinge loss is positive."""

    tau_rule = staticmethod(pa_tau)

    def step(self, x, y):
        s = self.score(x)
        loss = hinge_loss(y, s)
        mis = y * s <= 0
        xsq = x.squared_norm()
        # A loss within rounding distance of zero means the margin constraint
        # is already met (an uncapped step lands on it exactly); treating it
        # as positive would re-trigger zero-size updates on repeat cycles.
        if loss <= PASSIVE_EPS or xsq <= PASSIVE_EPS:
            return passive(mis)
        tau = self.tau_rule(loss, xsq, self.hp, self.t)
        return UpdateInfo(True, mis, sparse_add(self.w, x, tau * y, self.audit))


class PA(_PABase):
    kind = "PA"


class PA1(_PABase):
    kind = "PA1"
    tau_rule = staticmethod(pa1_tau)


class PA2(_PABase):
    kind = "PA2"
    tau_rule = staticmethod(pa2_tau)


class OGD(_PABase):
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


class _RommaBase(FirstOrderLearner):
    """Relaxed online maximum-margin: w' = c*w + g*y*x with the closed-form
    coefficients; degenerate cases (zero weight, vanishing denominator) fall
    back to a plain perceptron step."""

    aggressive = False

    def step(self, x, y):
        s = self.score(x)
        mis = y * s <= 0
        triggered = hinge_loss(y, s) > PASSIVE_EPS if self.aggressive else mis
        xsq = x.squared_norm()
        if not triggered or xsq <= PASSIVE_EPS:
            return passive(mis)
        coefs = romma_coefs(xsq, float(self.w @ self.w), y * s)
        if coefs is None:
            return UpdateInfo(True, mis, sparse_add(self.w, x, float(y), self.audit))
        c, g = coefs
        old = self.w.copy() if self.audit else None
        self.w *= c
        self.w[x.indices] += g * y * x.values
        return UpdateInfo(True, mis, _sq_change(self.w, old))


class ROMMA(_RommaBase):
    kind = "ROMMA"
    aggressive = False


class AROMMA(_RommaBase):
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


class CW(SecondOrderLearner):
    """Confidence-weighted learning (exact convex closed form).

    phi is the normal quantile of the confidence level; an update fires when
    the margin falls short of phi standard deviations, i.e.
    y*<mu,x> < phi*sqrt(x^T Sigma x).
    """

    kind = "CW"
    alpha_rule = staticmethod(cw_alpha)

    def __init__(self, d, hp):
        super().__init__(d, hp)
        self._phi = inv_norm_cdf(hp.cw_eta)

    def step(self, x, y):
        s = self.score(x)
        mis = y * s <= 0
        if x.squared_norm() <= PASSIVE_EPS:
            return passive(mis)
        sx, v = sigma_x(self.sigma, x)
        alpha, beta = cw_step(self.alpha_rule, y * s, v, self._phi, self.hp)
        if alpha <= 0.0:
            return passive(mis)
        downdate(self.sigma, sx, beta)
        return UpdateInfo(True, mis, dense_add(self.mu, sx, alpha * y, self.audit))


class SCW1(CW):
    """Soft confidence-weighted, variant I: the CW step capped at C."""

    kind = "SCW1"
    alpha_rule = staticmethod(scw1_alpha)


class SCW2(CW):
    """Soft confidence-weighted, variant II: the CW step damped by a slack term."""

    kind = "SCW2"
    alpha_rule = staticmethod(scw2_alpha)


class AROW(SecondOrderLearner):
    """Adaptive regularization of weights: hinge-triggered, with
    beta = 1/(x^T Sigma x + r), alpha = loss * beta, and Sigma shrunk by beta
    along Sigma x."""

    kind = "AROW"

    def _r(self, v: float) -> float:
        return self.hp.arow_r

    def _shrink(self, v: float, beta: float) -> float:
        return beta

    def step(self, x, y):
        s = self.score(x)
        loss = hinge_loss(y, s)
        mis = y * s <= 0
        if loss <= PASSIVE_EPS or x.squared_norm() <= PASSIVE_EPS:
            return passive(mis)
        sx, v = sigma_x(self.sigma, x)
        if v <= PASSIVE_EPS:
            return passive(mis)
        alpha, beta = arow_step(loss, v, self._r(v))
        downdate(self.sigma, sx, self._shrink(v, beta))
        return UpdateInfo(True, mis, dense_add(self.mu, sx, alpha * y, self.audit))


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
