"""Exception taxonomy shared across the package.

EXIT_CODES, at the end, maps each error onto the CLI's process exit code.
"""


class ConfigError(Exception):
    """Invalid configuration: unknown algorithm, bad hyperparameter, learner/label-space mismatch."""


class DataError(Exception):
    """Invalid or missing input data: parse failures, degenerate datasets, bad subsample sizes."""


class BoundAuditError(Exception):
    """The per-instance norm-bound audit found a violated instance."""


class DimensionMismatchError(ConfigError):
    """A feature index fell outside the model's dimension."""


class NumericalDegeneracyError(RuntimeError):
    """A learner's arithmetic left the finite, positive-definite range.

    A second-order learner's matrix (the covariance Sigma, or SOP's
    P = (S + a*I)^-1) raises it before the degenerate update is committed:
    the proposed matrix has a non-positive or NaN diagonal entry, the CW
    family's x^T Sigma x is NaN or below -PASSIVE_EPS (one in
    [-PASSIVE_EPS, 0) is rounding noise: a passive cycle), or NHERD's factor
    (1 + Cv)^2 overflows. The engine raises it after a run whose learner ends
    with a state vector (the audited one, or the one a binary kind scores
    with) that holds a NaN or an infinity: a NaN score never counts as a
    mistake, so the run's statistics would be meaningless.
    """


EXIT_CODES = {NumericalDegeneracyError: 4, BoundAuditError: 3, DataError: 2, ConfigError: 1}
"""The CLI's exit code per error: the first entry the error is an instance
of, so DimensionMismatchError, a ConfigError, exits 1."""
