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
    """A second-order learner's covariance lost positive definiteness.

    Raised before the degenerate update is committed: either the proposed
    covariance has a non-positive diagonal entry, or x^T Sigma x < 0 for the
    current instance (the CW family would take its square root).
    """


EXIT_CODES = {NumericalDegeneracyError: 4, BoundAuditError: 3, DataError: 2, ConfigError: 1}
"""The CLI's exit code per error: the first entry the error is an instance
of, so DimensionMismatchError, a ConfigError, exits 1."""
