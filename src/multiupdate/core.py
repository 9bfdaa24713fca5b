"""Shared domain types, loss functions, linear prediction, the closed-form
update rules, and the five update steps both catalogs share.

A multiclass PA, ROMMA, CW or AROW kind, and M_PerceptronM, is its binary
rule on the difference vector Phi(x, y) - Phi(x, r) (Crammer et al., JMLR
2006; LIBOL, Hoi, Wang & Zhao, JMLR 2014), so each such step is written once
here and a label space supplies only the hooks listed on Learner.

Conventions used throughout the package:

- Binary labels are plain ints in {-1, +1}; multiclass labels ints in [0, K).
- Feature indices are 1-based in dataset files and 0-based everywhere in
  memory; the parser does the shift exactly once.
- A binary prediction is correct iff y * score > 0 — a score of exactly 0
  counts as a mistake, so a zero-initialized model's first prediction is
  always wrong.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DimensionMismatchError, NumericalDegeneracyError
from .numerics import inv_norm_cdf
from .params import HyperParams


class SparseVector:
    """An instance's features as parallel (index, value) arrays.

    Indices are 0-based, strictly increasing; explicit zeros are dropped at
    construction so the stored entries are exactly the nonzero support.
    max_index is the largest stored index, or -1 for an all-zero vector.
    """

    __slots__ = ("indices", "values", "max_index", "_sq_norm")

    def __init__(self, indices, values):
        idx = np.asarray(indices, dtype=np.int64)
        val = np.asarray(values, dtype=np.float64)
        if idx.shape != val.shape or idx.ndim != 1:
            raise ValueError("indices and values must be 1-d arrays of equal length")
        if idx.size:
            if idx.min() < 0:
                raise ValueError("feature indices must be >= 0")
            if np.any(np.diff(idx) <= 0):
                raise ValueError("feature indices must be strictly increasing")
        keep = val != 0.0
        if not keep.all():
            idx = idx[keep]
            val = val[keep]
        self.indices = idx
        self.values = val
        self.max_index = int(idx[-1]) if idx.size else -1
        self._sq_norm = float(val @ val)

    @classmethod
    def _view(cls, indices: np.ndarray, values: np.ndarray, max_index: int) -> SparseVector:
        """Wrap arrays the caller has already checked, without copying them.

        The parser uses this for rows that are slices of its shared buffers:
        int64 indices, strictly increasing and >= 0, float64 values with no
        zeros, and max_index equal to the last index (-1 if empty).
        """
        x = object.__new__(cls)
        x.indices = indices
        x.values = values
        x.max_index = max_index
        x._sq_norm = float(values @ values)
        return x

    def squared_norm(self) -> float:
        return self._sq_norm

    def pairs(self):
        """Entries as (index, value) tuples, 0-based."""
        return list(zip(self.indices.tolist(), self.values.tolist()))

    def __repr__(self):
        inside = ", ".join(f"{i}:{v:g}" for i, v in self.pairs())
        return f"SparseVector({{{inside}}})"

    def __eq__(self, other):
        if not isinstance(other, SparseVector):
            return NotImplemented
        return (np.array_equal(self.indices, other.indices)
                and np.array_equal(self.values, other.values))

    def __hash__(self):
        return hash((self.indices.tobytes(), self.values.tobytes()))


def predict_linear(w: np.ndarray, x: SparseVector) -> float:
    """Sparse dot product <w, x>; the score's sign is the predicted binary label."""
    if x.max_index >= len(w):
        raise DimensionMismatchError(
            f"feature index {x.max_index} out of range for dimension {len(w)}"
        )
    if not x.indices.size:
        return 0.0
    return float(w[x.indices] @ x.values)


def hinge_loss(y: int, score: float) -> float:
    """max(0, 1 - y*score): zero only with correct sign and margin >= 1."""
    return max(0.0, 1.0 - y * score)


class UpdateInfo(NamedTuple):
    """What one predict/maybe-update cycle did, as far as the engine reads it.

    mispredicted reflects the cycle's own pre-update prediction.
    delta_sq_norm is the squared L2 change of the learner's audited vector
    (w, mu, v, or W depending on the kind); it is 0 when nothing fired, and
    also when the learner is not auditing (its audit attribute is False),
    because then nobody reads it.
    """

    triggered: bool
    mispredicted: bool
    delta_sq_norm: float = 0.0


PASSIVE_EPS = 1e-15
"""Below this squared norm an instance is treated as all-zero and skipped."""

_PASSIVE_HIT = UpdateInfo(False, False)
_PASSIVE_MISS = UpdateInfo(False, True)


def passive(mispredicted: bool) -> UpdateInfo:
    """An untriggered cycle: no state change, zero delta."""
    return _PASSIVE_MISS if mispredicted else _PASSIVE_HIT


class Learner:
    """The contract both catalogs implement, binary and multiclass:

        begin_instance()          advance the outer clock t (once per instance)
        step(x, y) -> UpdateInfo  one predict -> maybe-update cycle
        primary_norm() -> float   L2 norm of the audited state vector

    step() reports only what the engine reads: whether the cycle fired,
    whether its pre-update prediction was wrong, and the squared change of
    the audited vector. It is deterministic, so once a cycle reports
    triggered=False every further cycle on the same (x, y) is a no-op; the
    engine therefore always stops an instance at its first passive cycle.

    delta_sq_norm and primary_norm() measure the same audited vector, which
    makes the accumulated-update norm bound hold on traces by construction.
    """

    kind: str = "?"
    audit: bool = True
    """Whether step() measures delta_sq_norm; False reports 0.0 instead.
    The engine sets it once per run, from whether anything reads the audit."""

    # Hooks the shared steps below read; r is the label an update moves away
    # from (y binary, the top wrong class multiclass). DIR_SQ is the update
    # direction's squared norm per ||x||^2 (2 for the difference vector);
    # _margin(x, y) -> (mispredicted, margin, r); _add_x(x, y, r, coef) and
    # _add_dense(sx, y, r, coef) add coef times the direction built on x or
    # on Sigma x and return the realized squared change (0.0 unaudited);
    # ROMMA's _sq_norm() and _rescale_add(x, y, r, c, g) read ||state||^2 and
    # set state = c*state + g*direction.
    DIR_SQ = 1.0

    def __init__(self, d: int, hp: HyperParams):
        if d < 1:
            raise ConfigError("learner dimension must be >= 1")
        self.d = d
        self.hp = hp
        self.t = 0

    def begin_instance(self) -> None:
        self.t += 1

    def step(self, x: SparseVector, y: int) -> UpdateInfo:
        raise NotImplementedError

    def primary_norm(self) -> float:
        raise NotImplementedError


def sparse_add(row: np.ndarray, x: SparseVector, coef: float, audit: bool = True) -> float:
    """row += coef * x on x's support; returns the realized squared change,
    or 0.0 without computing it when audit is False.

    Measured from the committed values rather than coef^2 * ||x||^2 so the
    reported delta matches the state the audit later re-norms even when the
    increment is partly absorbed by rounding against large coordinates.
    Both paths store the same sums: x's indices are unique.
    """
    if not audit:
        row[x.indices] += coef * x.values
        return 0.0
    old = row[x.indices]
    new = old + coef * x.values
    row[x.indices] = new
    d = new - old
    return float(np.add.reduce(d * d))


def dense_add(row: np.ndarray, v: np.ndarray, coef: float, audit: bool = True) -> float:
    """row += coef * v in place; returns the realized squared change, or 0.0
    without computing it when audit is False."""
    if not audit:
        row += coef * v
        return 0.0
    new = row + coef * v
    d = new - row
    row[...] = new
    return float(np.add.reduce(d * d))


# Step-size rules of the passive-aggressive family (Crammer et al., JMLR
# 2006) plus OGD: tau from the hinge loss, the squared norm DIR_SQ*||x||^2 of
# the update direction, the hyperparameters and the outer clock t.

def pa_tau(loss: float, xsq: float, hp: HyperParams, t: int) -> float:
    return loss / xsq


def pa1_tau(loss: float, xsq: float, hp: HyperParams, t: int) -> float:
    return min(hp.C, loss / xsq)


def pa2_tau(loss: float, xsq: float, hp: HyperParams, t: int) -> float:
    return loss / (xsq + 1.0 / (2.0 * hp.C))


def ogd_tau(loss: float, xsq: float, hp: HyperParams, t: int) -> float:
    """eta0 / sqrt(t): constant across one instance's cycles, since t is the outer clock."""
    return hp.eta0 / math.sqrt(t if t >= 1 else 1)


# Confidence-weighted family (CW exact form; SCW1/SCW2 of Wang, Zhao & Hoi,
# ICML 2012): alpha from the margin m, the confidence v = DIR_SQ*x^T Sigma x
# of the update direction and phi, the normal quantile of the confidence level.

def cw_alpha(m: float, v: float, phi: float, hp: HyperParams) -> float:
    psi = 1.0 + phi * phi / 2.0
    zeta = 1.0 + phi * phi
    return max(0.0, (-m * psi + math.sqrt(m * m * phi ** 4 / 4.0 + v * phi * phi * zeta))
               / (v * zeta))


def scw1_alpha(m: float, v: float, phi: float, hp: HyperParams) -> float:
    """The CW step capped at scw_C."""
    return min(hp.scw_C, cw_alpha(m, v, phi, hp))


def scw2_alpha(m: float, v: float, phi: float, hp: HyperParams) -> float:
    """The CW step damped by a slack term of weight scw_C."""
    n = v + 1.0 / (2.0 * hp.scw_C)
    phi2 = phi * phi
    num = -(2.0 * m * n + phi2 * m * v) + phi * math.sqrt(
        phi2 * m * m * v * v + 4.0 * n * v * (n + v * phi2))
    return max(0.0, num / (2.0 * (n * n + n * v * phi2)))


def cw_step(alpha_rule, m: float, v: float, phi: float,
            hp: HyperParams) -> tuple[float, float]:
    """(alpha, beta) of one CW-family update at margin m and confidence v.

    The update fires when the shortfall max(0, phi*sqrt(v) - m) exceeds
    PASSIVE_EPS; alpha == 0 means the cycle stays passive. A v in [-PASSIVE_EPS, 0) is
    rounding noise on a direction Sigma has collapsed along; it counts as 0,
    which is passive. A NaN or a v below -PASSIVE_EPS can only come from a
    covariance that is no longer positive definite, so it raises
    NumericalDegeneracyError rather than failing inside the square root.
    """
    if not v >= -PASSIVE_EPS:
        raise NumericalDegeneracyError(
            f"x^T Sigma x = {v!r}: the covariance lost positive definiteness")
    if v < 0.0:
        v = 0.0
    if max(0.0, phi * math.sqrt(v) - m) <= PASSIVE_EPS or v <= PASSIVE_EPS:
        return 0.0, 0.0
    alpha = alpha_rule(m, v, phi, hp)
    if alpha <= 0.0:
        return 0.0, 0.0
    u = 0.25 * (-alpha * v * phi + math.sqrt(alpha * alpha * v * v * phi * phi + 4.0 * v)) ** 2
    beta = alpha * phi / (math.sqrt(u) + v * alpha * phi)
    return alpha, beta


def sigma_x(sigma: np.ndarray, x: SparseVector) -> tuple[np.ndarray, float]:
    """(Sigma @ x, x^T Sigma x) without densifying x.

    The gathered rows, transposed, equal sigma[:, x.indices] because Sigma
    stays exactly symmetric (it starts at I and every downdate and scale is
    symmetric in IEEE arithmetic), and they have the same F-ordered layout,
    so the product takes the same BLAS path and rounds the same way. A
    C-ordered column gather would round differently.
    """
    sx = sigma.take(x.indices, axis=0).T @ x.values
    return sx, float(sx[x.indices] @ x.values)


def downdate(sigma: np.ndarray, sx: np.ndarray, coef: float) -> None:
    """Sigma -= coef * (Sigma x)(Sigma x)^T in place, validated before it is applied.

    A non-positive diagonal after the update means the closed form
    degenerated numerically: NumericalDegeneracyError is raised and Sigma is
    left untouched.
    """
    upd = np.multiply.outer(sx, sx)
    upd *= coef
    if (sigma.diagonal() - upd.diagonal()).min() <= 0.0:
        raise NumericalDegeneracyError("covariance update lost positive definiteness")
    sigma -= upd


ROMMA_EPS = 1e-12
"""Below this squared weight norm or |denominator| ROMMA takes a perceptron step."""


def romma_coefs(xsq: float, wsq: float, margin: float) -> tuple[float, float] | None:
    """ROMMA's (c, g) for w' = c*w + g*x_dir, or None when degenerate.

    margin is the signed margin of the update direction (y*s binary,
    s_y - s_r multiclass) and xsq its squared norm (2*||x||^2 multiclass).
    """
    den = xsq * wsq - margin * margin
    if wsq <= ROMMA_EPS or abs(den) < ROMMA_EPS:
        return None
    return (xsq * wsq - margin) / den, wsq * (1.0 - margin) / den


def arow_step(loss: float, v: float, r: float) -> tuple[float, float]:
    """AROW's (alpha, beta): beta = 1/(v + r), alpha = loss * beta."""
    beta = 1.0 / (v + r)
    return loss * beta, beta


class PerceptronStep:
    """On a mistake, one unit step along the update direction."""

    def step(self, x, y):
        mis, _, r = self._margin(x, y)
        if not mis or x.squared_norm() <= PASSIVE_EPS:
            return passive(mis)
        return UpdateInfo(True, mis, self._add_x(x, y, r, 1.0))


class PAStep:
    """Passive-aggressive: tau reaches margin 1, optionally truncated; the
    update fires whenever the hinge loss is positive."""

    tau_rule = staticmethod(pa_tau)

    def step(self, x, y):
        mis, margin, r = self._margin(x, y)
        loss = max(0.0, 1.0 - margin)
        xsq = x.squared_norm()
        # A loss within rounding distance of zero means the margin constraint
        # is already met (an uncapped step lands on it exactly); treating it
        # as positive would re-trigger zero-size updates on repeat cycles.
        if loss <= PASSIVE_EPS or xsq <= PASSIVE_EPS:
            return passive(mis)
        tau = self.tau_rule(loss, self.DIR_SQ * xsq, self.hp, self.t)
        return UpdateInfo(True, mis, self._add_x(x, y, r, tau))


class RommaStep:
    """Relaxed online maximum-margin: state' = c*state + g*direction, or a
    perceptron step when romma_coefs degenerates. The aggressive variant
    fires on a positive hinge loss, the plain one on a margin <= 0."""

    aggressive = False

    def step(self, x, y):
        mis, margin, r = self._margin(x, y)
        triggered = 1.0 - margin > PASSIVE_EPS if self.aggressive else margin <= 0.0
        xsq = x.squared_norm()
        if not triggered or xsq <= PASSIVE_EPS:
            return passive(mis)
        coefs = romma_coefs(self.DIR_SQ * xsq, self._sq_norm(), margin)
        if coefs is None:
            return UpdateInfo(True, mis, self._add_x(x, y, r, 1.0))
        c, g = coefs
        return UpdateInfo(True, mis, self._rescale_add(x, y, r, c, g))


class CWStep:
    """Confidence-weighted learning (exact convex closed form), and SCW1/SCW2
    through alpha_rule: an update fires when the margin falls short of phi
    standard deviations of the update direction."""

    alpha_rule = staticmethod(cw_alpha)

    def __init__(self, *args):
        super().__init__(*args)
        self._phi = inv_norm_cdf(self.hp.cw_eta)

    def step(self, x, y):
        mis, margin, r = self._margin(x, y)
        if x.squared_norm() <= PASSIVE_EPS:
            return passive(mis)
        sx, v = sigma_x(self.sigma, x)
        alpha, beta = cw_step(self.alpha_rule, margin, self.DIR_SQ * v, self._phi, self.hp)
        if alpha <= 0.0:
            return passive(mis)
        downdate(self.sigma, sx, self.DIR_SQ * beta)
        return UpdateInfo(True, mis, self._add_dense(sx, y, r, alpha))


class ArowStep:
    """Adaptive regularization of weights: hinge-triggered, with beta =
    1/(v + r), alpha = loss * beta, and Sigma shrunk by _shrink along Sigma x."""

    def _r(self, v: float) -> float:
        return self.hp.arow_r

    def _shrink(self, v: float, beta: float) -> float:
        return beta

    def step(self, x, y):
        mis, margin, r = self._margin(x, y)
        loss = max(0.0, 1.0 - margin)
        if loss <= PASSIVE_EPS or x.squared_norm() <= PASSIVE_EPS:
            return passive(mis)
        sx, v = sigma_x(self.sigma, x)
        v = self.DIR_SQ * v
        if v <= PASSIVE_EPS:
            return passive(mis)
        alpha, beta = arow_step(loss, v, self._r(v))
        downdate(self.sigma, sx, self.DIR_SQ * self._shrink(v, beta))
        return UpdateInfo(True, mis, self._add_dense(sx, y, r, alpha))
