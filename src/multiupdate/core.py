"""Shared domain types, the closed-form update rules, and the five update
steps both catalogs share.

A multiclass PA, ROMMA, CW or AROW kind, and M_PerceptronM, is its binary
rule on the difference vector Phi(x, y) - Phi(x, r) (Crammer et al., JMLR
2006; LIBOL, Hoi, Wang & Zhao, JMLR 2014), so each such step is written once
here and a label space supplies only the hooks listed on Learner.
M_PerceptronU/S (r a loser set) and SOP (on v) take the perceptron step too.

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
import numbers
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
    sel indexes a dense vector at x's support: slice(0, nnz) when the indices
    are exactly 0..nnz-1 (every full-support row, and the empty one), so the
    selection is a view, and otherwise the index array itself.
    """

    __slots__ = ("indices", "values", "max_index", "sel", "_sq_norm")

    def __init__(self, indices, values):
        idx = np.asarray(indices)
        # numpy holds Python ints at or past 2**63 as uint64, as float64 beside
        # smaller ints, and as objects past 2**64; each is out of int64's range
        too_wide = "feature indices must fit in 64 bits"
        if idx.dtype.kind == "f" and not np.all((abs(idx) < 2.0 ** 63) & (idx == np.trunc(idx))):
            if all(isinstance(i, numbers.Integral) for i in np.asarray(indices, dtype=object).flat):
                raise ValueError(too_wide)
            raise ValueError("feature indices must be integers")
        if idx.dtype.kind == "u" and idx.size and idx.max() >= 2 ** 63:
            raise ValueError(too_wide)
        try:
            idx = idx.astype(np.int64, copy=False)
        except OverflowError:
            raise ValueError(too_wide) from None
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
        self.sel = _selector(idx, self.max_index)
        self._sq_norm = float(val.dot(val))

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
        x.sel = _selector(indices, max_index)
        x._sq_norm = float(values.dot(values))
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


def dimension_error(x: SparseVector, d: int) -> DimensionMismatchError:
    """The error for a row whose largest index does not fit dimension d. Each
    check stays inline (x.max_index >= d) and builds this only on failure, so
    a cycle whose row fits makes no extra call."""
    return DimensionMismatchError(f"feature index {x.max_index} out of range for dimension {d}")


def _selector(indices: np.ndarray, max_index: int) -> slice | np.ndarray:
    """SparseVector.sel: strictly increasing indices >= 0 are 0..nnz-1 exactly
    when the last one is nnz - 1."""
    return slice(0, indices.size) if max_index == indices.size - 1 else indices


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
_FIRED_HIT = UpdateInfo(True, False)
_FIRED_MISS = UpdateInfo(True, True)


def passive(mispredicted: bool) -> UpdateInfo:
    """An untriggered cycle: no state change, zero delta."""
    return _PASSIVE_MISS if mispredicted else _PASSIVE_HIT


def fired(mispredicted: bool, delta_sq_norm: float) -> UpdateInfo:
    """A triggered cycle. A zero delta (every unaudited cycle) returns a shared
    constant, so such a cycle allocates no result."""
    if delta_sq_norm == 0.0:
        return _FIRED_MISS if mispredicted else _FIRED_HIT
    return UpdateInfo(True, mispredicted, delta_sq_norm)


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

    # Hooks the shared steps below read. r is opaque to them: the label space's
    # _margin returns it and its adds take it (y binary, the top wrong class
    # multiclass, the loser set for M_PerceptronU/S). DIR_SQ is the update
    # direction's squared norm per ||x||^2 (2 for the difference vector);
    # _margin(x, y) -> (mispredicted, margin, r); _add_x(x, y, r, coef) and
    # _add_dense(sx, y, r, coef) add coef times the direction built on x or on
    # Sigma x and return the realized squared change (0.0 unaudited, when
    # _add_dense scales sx, the cycle's scratch, in place); ROMMA's _sq_norm()
    # and _rescale_add(x, y, r, c, g) read ||state||^2 and set
    # state = c*state + g*direction. The CW and AROW steps also read sigma and
    # its SigmaCycle _cycle, which they bind before calling _margin.
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
        """L2 norm of the audited vector (Frobenius for a matrix), computed as
        math.sqrt(v.dot(v)) on the flat vector: the same ddot and the same
        correctly rounded square root np.linalg.norm uses for ord=None, so
        the same bits, without its Python-level dispatch. Each state base
        binds v = self._audited once in __init__ (w, SOP's v, mu, or the view
        W.reshape(-1)); every update writes in place and nothing rebinds them
        after __init__, and the tests against np.linalg.norm catch a stale view."""
        return math.sqrt(self._audited.dot(self._audited))


def sparse_add(row: np.ndarray, x: SparseVector, coef: float, audit: bool) -> float:
    """row += coef * x on x's support; returns the realized squared change,
    or 0.0 without computing it when audit is False.

    Measured from the committed values rather than coef^2 * ||x||^2 so the
    reported delta matches the state the audit later re-norms even when the
    increment is partly absorbed by rounding against large coordinates.
    Both paths store the same sums: x's indices are unique.
    """
    if not audit:
        row[x.sel] += coef * x.values
        return 0.0
    old = row[x.sel]
    new = old + coef * x.values
    d = new - old               # before the store: a slice makes old a view
    row[x.sel] = new
    return float(np.add.reduce(d * d))


def dense_add(row: np.ndarray, v: np.ndarray, coef: float) -> float:
    """row += coef * v in place; returns the realized squared change. Only an
    audited add comes here: an unaudited one scales its SigmaCycle's sx in
    place and adds that, the same sums."""
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

    The update fires when v and the shortfall max(0, phi*sqrt(v) - m) both
    exceed PASSIVE_EPS and alpha_rule gives a positive alpha; the caller
    keeps a cycle with alpha 0 passive. A v in [-PASSIVE_EPS, 0) is rounding
    noise on a direction Sigma has collapsed along, passive like any small v;
    v is tested before its square root is taken. A NaN or a v below
    -PASSIVE_EPS can only come from a covariance that is no longer positive
    definite, so it raises NumericalDegeneracyError.
    """
    if not v >= -PASSIVE_EPS:
        raise NumericalDegeneracyError(
            f"x^T Sigma x = {v!r}: the covariance lost positive definiteness")
    if v <= PASSIVE_EPS or max(0.0, phi * math.sqrt(v) - m) <= PASSIVE_EPS:
        return 0.0, 0.0
    alpha = alpha_rule(m, v, phi, hp)
    u = 0.25 * (-alpha * v * phi + math.sqrt(alpha * alpha * v * v * phi * phi + 4.0 * v)) ** 2
    beta = alpha * phi / (math.sqrt(u) + v * alpha * phi)
    return alpha, beta


class SigmaCycle:
    """The Sigma cycle's arithmetic on one covariance matrix, in scratch
    allocated once: the d-vector Sigma x buffer sx with its column and row
    views, the d x d rank-1 buffer with its diagonal view, and the views
    bound to the current instance.

    Every cycle on one instance has the same x, and the state is only ever
    updated in place, so bind(sigma, x) takes what depends only on x and the
    matrix once: for a row whose sel is a slice, x's block of rows,
    transposed, x's slice of sx and, when a mean vector was given, x's slice
    of it. A learner calls bind at the top of every cycle; it rebinds only
    when x or the matrix object differs from the bound one (a caller may
    rebind learner.sigma). It holds strong references, so its `is` checks
    cannot match a recycled id. A gathered row (sel an index array) would
    bind copies, so that binding is dropped after the cycle and the next one
    gathers again.

    The block of rows, transposed, equals sigma[:, x.indices] because Sigma
    stays exactly symmetric (it starts at I and every downdate and scale is
    symmetric in IEEE arithmetic). It has the F-ordered layout of
    sigma.take(x.indices, axis=0).T, so the product takes the same BLAS path
    and rounds the same way; a C-ordered column gather would round
    differently. The products go through ndarray.dot with out=, and the
    rest of the rank-1 update through ufuncs with a positional out: the same
    gemv, ddot and elementwise loops, so the same bits, as the allocating
    forms. The rank-1 term sx sx^T is one BLAS product of the column and row
    views (no broadcast iterator buffers); each entry is a single product,
    rounded once, so only the sign of a zero can differ from the elementwise
    form, and Sigma, which never holds -0.0, subtracts either to the same bits.
    """

    __slots__ = ("mean", "sx", "col", "row", "outer", "outer_diag", "sigma", "diag", "x",
                 "rows_t", "sx_x", "mean_x")

    def __init__(self, sigma: np.ndarray, mean: np.ndarray | None = None):
        d = len(sigma)
        self.mean = mean
        self.sx = np.empty(d)
        self.col = self.sx[:, None]
        self.row = self.sx[None, :]
        self.outer = np.empty((d, d))
        self.outer_diag = self.outer.diagonal()
        self.sigma, self.diag, self.x = sigma, sigma.diagonal(), None

    def bind(self, sigma: np.ndarray, x: SparseVector) -> None:
        """Bind the views for x on sigma, unless they are bound already."""
        if x is self.x and sigma is self.sigma:
            return
        if x.max_index >= len(self.sx):
            raise dimension_error(x, len(self.sx))
        sel = x.sel
        if isinstance(sel, slice):
            self.rows_t = sigma[sel].T
            self.sx_x = self.sx[sel]
            self.x = x
        else:
            self.rows_t = sigma.take(sel, axis=0).T
            self.sx_x = None
            self.x = None
        self.mean_x = None if self.mean is None else self.mean[sel]
        self.sigma, self.diag = sigma, sigma.diagonal()

    def sigma_x(self, x: SparseVector) -> float:
        """x^T Sigma x for the bound x, leaving Sigma x in sx."""
        self.rows_t.dot(x.values, out=self.sx)
        sx_x = self.sx_x
        if sx_x is None:
            sx_x = self.sx[x.sel]
        return float(sx_x.dot(x.values))

    def downdate(self, coef: float) -> None:
        """Sigma -= coef * sx sx^T in place, validated before it is applied.

        sx is Sigma x after sigma_x, or whatever vector the caller wrote into
        it since. A non-positive diagonal after the update means the closed
        form degenerated numerically: NumericalDegeneracyError is raised and
        Sigma is left untouched. A NaN in the diagonal gap does not raise:
        the check reads gap[gap.argmin()], and argmin picks the first NaN,
        which compares False.
        """
        outer = self.outer
        np.dot(self.col, self.row, out=outer)
        np.multiply(outer, coef, outer)
        gap = self.diag - self.outer_diag
        if gap[gap.argmin()] <= 0.0:
            raise NumericalDegeneracyError("covariance update lost positive definiteness")
        np.subtract(self.sigma, outer, self.sigma)


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


class PerceptronStep:
    """On a mistake, one unit step along the update direction."""

    def step(self, x, y):
        mis, _, r = self._margin(x, y)
        if not mis or x.squared_norm() <= PASSIVE_EPS:
            return passive(mis)
        return fired(mis, self._add_x(x, y, r, 1.0))


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
        return fired(mis, self._add_x(x, y, r, tau))


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
            return fired(mis, self._add_x(x, y, r, 1.0))
        c, g = coefs
        return fired(mis, self._rescale_add(x, y, r, c, g))


class CWStep:
    """Confidence-weighted learning (exact convex closed form), and SCW1/SCW2
    through alpha_rule: an update fires when the margin falls short of phi
    standard deviations of the update direction."""

    alpha_rule = staticmethod(cw_alpha)

    def __init__(self, *args):
        super().__init__(*args)
        self._phi = inv_norm_cdf(self.hp.cw_eta)

    def step(self, x, y):
        cycle = self._cycle
        cycle.bind(self.sigma, x)
        mis, margin, r = self._margin(x, y)
        if x.squared_norm() <= PASSIVE_EPS:
            return passive(mis)
        v = self.DIR_SQ * cycle.sigma_x(x)
        alpha, beta = cw_step(self.alpha_rule, margin, v, self._phi, self.hp)
        if alpha <= 0.0:
            return passive(mis)
        cycle.downdate(self.DIR_SQ * beta)
        return fired(mis, self._add_dense(cycle.sx, y, r, alpha))


class ArowStep:
    """Adaptive regularization of weights: hinge-triggered, with beta =
    1/(v + r), alpha = loss * beta, and Sigma shrunk by _shrink along Sigma x."""

    def _r(self, v: float) -> float:
        return self.hp.arow_r

    def _shrink(self, v: float, beta: float) -> float:
        return beta

    def step(self, x, y):
        cycle = self._cycle
        cycle.bind(self.sigma, x)
        mis, margin, r = self._margin(x, y)
        loss = max(0.0, 1.0 - margin)
        if loss <= PASSIVE_EPS or x.squared_norm() <= PASSIVE_EPS:
            return passive(mis)
        v = self.DIR_SQ * cycle.sigma_x(x)
        if v <= PASSIVE_EPS:
            return passive(mis)
        beta = 1.0 / (v + self._r(v))
        cycle.downdate(self.DIR_SQ * self._shrink(v, beta))
        return fired(mis, self._add_dense(cycle.sx, y, r, loss * beta))
