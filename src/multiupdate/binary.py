"""Binary classification catalog: sixteen online learners behind the
core.Learner contract, adding score(x) -> float, the current prediction
score <state, x> on the vector a step predicts from.

The Perceptron, PA and ROMMA families, SOP and the Sigma kinds (CW, SCW1,
SCW2, AROW, NAROW, NHERD) take their steps from core; this module supplies
the binary hooks: the margin y*s, the update direction y*x (DIR_SQ = 1), and
adds on w, on SOP's v or on the mean mu. ALMA and IELLIP keep their own steps.

The audited state vector (whose per-cycle change is reported in
delta_sq_norm and whose norm primary_norm() returns) is w for first-order
kinds, the mean mu for the confidence-weighted family, and the accumulator v
for the second-order perceptron.
"""
from __future__ import annotations

import math

import numpy as np

from .core import (PASSIVE_EPS, Learner, PAStep, PerceptronStep, RommaStep, SigmaCycle,
                   SigmaStep, SparseVector, arow_rule, cw_rule, dense_add, dimension_error, fired,
                   narow_rule, nherd_rule, ogd_tau, pa1_tau, pa2_tau, passive, scw1_rule,
                   scw2_rule, sparse_add)
from .errors import ConfigError
from .params import HyperParams


def _sq_change(w: np.ndarray, old: np.ndarray | None) -> float:
    """||w - old||^2 for a whole-vector update, or 0.0 when old was not kept."""
    if old is None:
        return 0.0
    delta = w - old
    return float(delta.dot(delta))


class BinaryLearner(Learner):
    """A learner whose prediction is the sign of score(x) = <_scored, x>.

    Each state base binds _scored once in __init__, like _audited: w for the
    first-order kinds, SOP's w = P v, and the mean mu. Every update writes it
    in place, so score reads the state step predicts from. _margin is the
    one place a row is checked against d and scored; score is its margin
    at y = 1.
    """

    def score(self, x: SparseVector) -> float:
        return self._margin(x, 1)[1]

    def _margin(self, x, y):
        if x.max_index >= self.d:
            raise dimension_error(x, self.d)
        m = y * float(self._scored[x.sel].dot(x.values))
        return m <= 0, m, y


class FirstOrderLearner(BinaryLearner):
    def __init__(self, d, hp):
        super().__init__(d, hp)
        self.w = self._audited = self._scored = np.zeros(d)

    def _add_x(self, x, y, r, coef):
        return sparse_add(self.w, x, coef * y, self.audit)

    def _sq_norm(self):
        return float(self.w.dot(self.w))

    def _rescale_add(self, x, y, r, c, g):
        old = self.w.copy() if self.audit else None
        self.w *= c
        self.w[x.sel] += g * y * x.values
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

    t is the instance counter: it advances once per instance, so the
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
        mis, margin, _ = self._margin(x, y)
        xsq = x.squared_norm()
        if xsq <= PASSIVE_EPS:
            return passive(mis)
        xnorm = math.sqrt(xsq)
        theta = self.hp.alma_B / math.sqrt(self.k)
        if margin / xnorm > (1.0 - self.hp.alma_alpha) * theta:
            return passive(mis)
        eta = self.hp.alma_C / math.sqrt(self.k)
        old = self.w.copy() if self.audit else None
        self.w[x.sel] += eta * y * x.values / xnorm
        wnorm = math.sqrt(self.w.dot(self.w))
        if wnorm > 1.0:
            self.w /= wnorm
        self.k += 1
        return fired(mis, _sq_change(self.w, old))


class ROMMA(RommaStep, FirstOrderLearner):
    """Relaxed online maximum-margin: w' = c*w + g*y*x."""

    kind = "ROMMA"


class AROMMA(ROMMA):
    kind = "aROMMA"
    aggressive = True


class SOP(PerceptronStep, BinaryLearner):
    """Second-order perceptron: the perceptron step on v, which accumulates
    y*x on mistakes; S accumulates x x^T, and predictions use w = (S + a*I)^-1 v.

    S itself is not stored: P = (S + a*I)^-1 starts at I/a and takes the
    rank-1 Sherman-Morrison update P -= (P x)(P x)^T / (1 + x^T P x) on each
    mistake through the Sigma family's SigmaCycle.downdate, whose guard
    rejects it before v, P or w change. v then takes y*x and w = P v is
    recomputed. SigmaCycle reads rows of P in place of columns; that relies
    on P staying exactly symmetric, and every update subtracts a multiple of
    (P x)(P x)^T, so it does.
    """

    kind = "SOP"

    def __init__(self, d, hp):
        super().__init__(d, hp)
        self.v = self._audited = np.zeros(d)
        self._w = self._scored = np.zeros(d)
        self._P = np.eye(d) / hp.sop_a
        self._cycle = SigmaCycle(self._P)

    def _add_x(self, x, y, r, coef):
        cycle = self._cycle
        cycle.downdate(1.0 / (1.0 + cycle.sigma_x(x)))
        dsq = sparse_add(self.v, x, coef * y, self.audit)
        self._P.dot(self.v, out=self._w)
        return dsq


class SecondOrderLearner(BinaryLearner):
    """Gaussian-state family: mean mu plus covariance Sigma, initialized N(0, I)."""

    def __init__(self, d, hp):
        super().__init__(d, hp)
        self.mu = self._audited = self._scored = np.zeros(d)
        self.sigma = np.eye(d)
        self._cycle = SigmaCycle(self.sigma)

    def _add_dense(self, sx, y, r, coef):
        return dense_add(self.mu, np.multiply(sx, coef * y, sx), self.audit)


class CW(SigmaStep, SecondOrderLearner):
    """Confidence-weighted learning: fires while y*<mu,x> < phi*sqrt(x^T Sigma x)."""

    kind = "CW"
    sigma_rule = staticmethod(cw_rule)


class SCW1(CW):
    """Soft confidence-weighted, variant I: the CW step capped at C."""

    kind = "SCW1"
    sigma_rule = staticmethod(scw1_rule)


class SCW2(CW):
    """Soft confidence-weighted, variant II: the CW step damped by a slack term."""

    kind = "SCW2"
    sigma_rule = staticmethod(scw2_rule)


class AROW(SigmaStep, SecondOrderLearner):
    kind = "AROW"
    sigma_rule = staticmethod(arow_rule)


class NAROW(AROW):
    kind = "NAROW"
    sigma_rule = staticmethod(narow_rule)


class NHERD(AROW):
    kind = "NHERD"
    sigma_rule = staticmethod(nherd_rule)


class IELLIP(SecondOrderLearner):
    """Ellipsoid-method learner: on a mistake the center moves along Sigma*x
    and the ellipsoid contracts by the constant factors b (global) and c
    (along the update direction). With g = y*x/sqrt(x^T Sigma x) the rank-1
    term satisfies g^T Sigma g = 1, so c <= 1 keeps Sigma positive definite.
    """

    kind = "IELLIP"

    def step(self, x, y):
        mis, margin, _ = self._margin(x, y)
        if not mis or x.squared_norm() <= PASSIVE_EPS:
            return passive(mis)
        cycle = self._cycle
        v = cycle.sigma_x(x)
        if v <= PASSIVE_EPS:
            return passive(mis)
        root_v = math.sqrt(v)
        alpha = (1.0 - margin) / root_v
        # Sigma x / sqrt(v) in place: Sigma @ g up to the sign y, which cancels
        # in the rank-1 term and goes into the mean add's coefficient
        sg = cycle.sx
        np.divide(sg, root_v, sg)
        cycle.downdate(self.hp.iellip_c)
        self.sigma *= self.hp.iellip_b
        return fired(mis, self._add_dense(sg, y, None, alpha))


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
