"""Binary classification catalog: sixteen online learners behind one contract.

Every learner exposes

    begin_instance()          advance the outer clock (once per instance)
    score(x) -> float         current prediction score <w_eff, x>
    step(x, y) -> UpdateInfo  one predict -> maybe-update cycle
    primary_norm() -> float   L2 norm of the audited state vector

step() is deterministic, so once a cycle reports triggered=False every
further cycle on the same (x, y) is a no-op — the property the engine's
early-exit relies on.

The audited state vector (whose per-cycle change is reported in
delta_sq_norm and whose norm primary_norm() returns) is w for first-order
kinds, the mean mu for the confidence-weighted family, and the accumulator v
for the second-order perceptron. Measuring norms and deltas on the same
vector makes the accumulated-update norm bound hold on traces by
construction.
"""
from __future__ import annotations

import math

import numpy as np

from .core import (PASSIVE_EPS, SparseVector, UpdateInfo, arow_step, cw_alpha, cw_step,
                   dense_add, downdate, hinge_loss, ogd_tau, pa1_tau, pa2_tau, pa_tau, passive,
                   predict_linear, romma_coefs, scw1_alpha, scw2_alpha, sigma_x, sparse_add)
from .errors import ConfigError
from .numerics import inv_norm_cdf
from .params import HyperParams


def _sq_change(w: np.ndarray, old: np.ndarray | None) -> float:
    """||w - old||^2 for a whole-vector update, or 0.0 when old was not kept."""
    if old is None:
        return 0.0
    delta = w - old
    return float(delta @ delta)


class BinaryLearner:
    """Base: holds the dimension, hyperparameters, and the outer-instance clock t."""

    kind: str = "?"
    audit: bool = True
    """Whether step() measures delta_sq_norm; False reports 0.0 instead.
    The engine sets it once per run, from whether anything reads the audit."""

    def __init__(self, d: int, hp: HyperParams):
        if d < 1:
            raise ConfigError("learner dimension must be >= 1")
        self.d = d
        self.hp = hp
        self.t = 0

    def begin_instance(self) -> None:
        self.t += 1

    def score(self, x: SparseVector) -> float:
        raise NotImplementedError

    def step(self, x: SparseVector, y: int) -> UpdateInfo:
        raise NotImplementedError

    def primary_norm(self) -> float:
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
        s = self.score(x)
        loss = hinge_loss(y, s)
        mis = y * s <= 0
        if not mis or x.squared_norm() <= PASSIVE_EPS:
            return passive(loss, mis)
        dsq = sparse_add(self.w, x, float(y), self.audit)
        return UpdateInfo(loss=loss, triggered=True, delta_sq_norm=dsq,
                          tau=1.0, mispredicted=mis)


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
            return passive(loss, mis)
        tau = self.tau_rule(loss, xsq, self.hp, self.t)
        dsq = sparse_add(self.w, x, tau * y, self.audit)
        return UpdateInfo(loss=loss, triggered=True, delta_sq_norm=dsq,
                          tau=tau, mispredicted=mis)


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
        loss = hinge_loss(y, s)
        mis = y * s <= 0
        xsq = x.squared_norm()
        if xsq <= PASSIVE_EPS:
            return passive(loss, mis)
        xnorm = math.sqrt(xsq)
        theta = self.hp.alma_B / math.sqrt(self.k)
        if y * s / xnorm > (1.0 - self.hp.alma_alpha) * theta:
            return passive(loss, mis)
        eta = self.hp.alma_C / math.sqrt(self.k)
        old = self.w.copy() if self.audit else None
        self.w[x.indices] += eta * y * x.values / xnorm
        wnorm = float(np.linalg.norm(self.w))
        if wnorm > 1.0:
            self.w /= wnorm
        self.k += 1
        return UpdateInfo(loss=loss, triggered=True, delta_sq_norm=_sq_change(self.w, old),
                          tau=eta, mispredicted=mis)


class _RommaBase(FirstOrderLearner):
    """Relaxed online maximum-margin: w' = c*w + g*y*x with the closed-form
    coefficients; degenerate cases (zero weight, vanishing denominator) fall
    back to a plain perceptron step."""

    aggressive = False

    def step(self, x, y):
        s = self.score(x)
        loss = hinge_loss(y, s)
        mis = y * s <= 0
        triggered = loss > PASSIVE_EPS if self.aggressive else mis
        xsq = x.squared_norm()
        if not triggered or xsq <= PASSIVE_EPS:
            return passive(loss, mis)
        coefs = romma_coefs(xsq, float(self.w @ self.w), y * s)
        if coefs is None:
            dsq = sparse_add(self.w, x, float(y), self.audit)
            return UpdateInfo(loss=loss, triggered=True, delta_sq_norm=dsq,
                              tau=1.0, mispredicted=mis)
        c, g = coefs
        old = self.w.copy() if self.audit else None
        self.w *= c
        self.w[x.indices] += g * y * x.values
        return UpdateInfo(loss=loss, triggered=True, delta_sq_norm=_sq_change(self.w, old),
                          tau=g, mispredicted=mis)


class ROMMA(_RommaBase):
    kind = "ROMMA"
    aggressive = False


class AROMMA(_RommaBase):
    kind = "aROMMA"
    aggressive = True


class SOP(BinaryLearner):
    """Second-order perceptron: v accumulates y*x on mistakes, S accumulates
    x x^T, and predictions use w = (S + a*I)^-1 v.

    For small d the solve is done per prediction; above d=64 the inverse is
    maintained incrementally (rank-1 Sherman-Morrison), which is the standard
    large-d trade.
    """

    kind = "SOP"
    _SOLVE_LIMIT = 64

    def __init__(self, d, hp):
        super().__init__(d, hp)
        self.v = np.zeros(d)
        self._w = None
        if d <= self._SOLVE_LIMIT:
            self._S = np.zeros((d, d))
            self._P = None
        else:
            self._S = None
            self._P = np.eye(d) / hp.sop_a

    def _effective_w(self) -> np.ndarray:
        """w = (S + a*I)^-1 v, kept until the next update changes v and S."""
        if self._w is None:
            if self._P is not None:
                self._w = self._P @ self.v
            else:
                self._w = np.linalg.solve(self._S + self.hp.sop_a * np.eye(self.d), self.v)
        return self._w

    def score(self, x):
        return predict_linear(self._effective_w(), x)

    def primary_norm(self):
        return float(np.linalg.norm(self.v))

    def step(self, x, y):
        s = self.score(x)
        loss = hinge_loss(y, s)
        mis = y * s <= 0
        xsq = x.squared_norm()
        if not mis or xsq <= PASSIVE_EPS:
            return passive(loss, mis)
        dsq = sparse_add(self.v, x, float(y), self.audit)
        self._w = None
        if self._P is not None:
            px = self._P[:, x.indices] @ x.values
            denom = 1.0 + float(px[x.indices] @ x.values)
            self._P -= np.outer(px, px) / denom
        else:
            xi, xv = x.indices, x.values
            self._S[np.ix_(xi, xi)] += np.outer(xv, xv)
        return UpdateInfo(loss=loss, triggered=True, delta_sq_norm=dsq,
                          tau=1.0, mispredicted=mis)


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
            return passive(hinge_loss(y, s), mis)
        sx, v = sigma_x(self.sigma, x)
        loss, alpha, beta = cw_step(self.alpha_rule, y * s, v, self._phi, self.hp)
        if alpha <= 0.0:
            return passive(loss, mis)
        downdate(self.sigma, sx, beta)
        dsq = dense_add(self.mu, sx, alpha * y, self.audit)
        return UpdateInfo(loss=loss, triggered=True, delta_sq_norm=dsq,
                          tau=alpha, mispredicted=mis)


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
            return passive(loss, mis)
        sx, v = sigma_x(self.sigma, x)
        if v <= PASSIVE_EPS:
            return passive(loss, mis)
        alpha, beta = arow_step(loss, v, self._r(v))
        downdate(self.sigma, sx, self._shrink(v, beta))
        dsq = dense_add(self.mu, sx, alpha * y, self.audit)
        return UpdateInfo(loss=loss, triggered=True, delta_sq_norm=dsq,
                          tau=alpha, mispredicted=mis)


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
        loss = hinge_loss(y, s)
        mis = y * s <= 0
        if not mis or x.squared_norm() <= PASSIVE_EPS:
            return passive(loss, mis)
        sx, v = sigma_x(self.sigma, x)
        if v <= PASSIVE_EPS:
            return passive(loss, mis)
        root_v = math.sqrt(v)
        alpha = (1.0 - y * s) / root_v
        sg = y * sx / root_v                      # Sigma @ g
        downdate(self.sigma, sg, self.hp.iellip_c)
        self.sigma *= self.hp.iellip_b
        dsq = dense_add(self.mu, sg, alpha, self.audit)
        return UpdateInfo(loss=loss, triggered=True, delta_sq_norm=dsq,
                          tau=alpha, mispredicted=mis)


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
