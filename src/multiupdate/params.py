"""Hyperparameters shared by the whole learner catalog.

The benchmark protocol never tunes these; the defaults below are the common
toolkit defaults and every one of them can be overridden per run
(CLI: --set name=value).
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class HyperParams:
    C: float = 1.0            # aggressiveness cap / slack weight (PA1, PA2, NHERD)
    eta0: float = 1.0         # OGD base rate: eta_t = eta0 / sqrt(t)
    alma_alpha: float = 0.9   # ALMA accuracy parameter, in (0, 1]
    alma_B: float = 1.0 / 0.9
    alma_C: float = math.sqrt(2.0)
    cw_eta: float = 0.7       # confidence level, in (0.5, 1)
    arow_r: float = 1.0
    narow_b: float = 1.0
    scw_C: float = 1.0
    sop_a: float = 1.0        # ridge added to the correlation accumulator
    iellip_b: float = 0.3     # ellipsoid shrink factor, in (0, 1]
    iellip_c: float = 0.1     # ellipsoid rank-1 factor, in (0, 1]

    def __post_init__(self):
        positive = ("C", "eta0", "alma_B", "alma_C", "arow_r", "narow_b", "scw_C", "sop_a")
        for name in positive:
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"hyperparameter {name} must be > 0 and finite")
        if not 0.0 < self.alma_alpha <= 1.0:
            raise ConfigError("alma_alpha must be in (0, 1]")
        if not 0.5 < self.cw_eta < 1.0:
            raise ConfigError("cw_eta must be in (0.5, 1)")
        for name in ("iellip_b", "iellip_c"):
            if not 0.0 < getattr(self, name) <= 1.0:
                raise ConfigError(f"hyperparameter {name} must be in (0, 1]")

    def replace(self, **overrides) -> "HyperParams":
        """New HyperParams with the given fields changed; unknown names are a ConfigError."""
        valid = {f.name for f in dataclasses.fields(self)}
        for key in overrides:
            if key not in valid:
                raise ConfigError(f"unknown hyperparameter {key!r} (valid: {sorted(valid)})")
        return dataclasses.replace(self, **overrides)
