"""Hyperparameter container: defaults, validation, replace semantics."""
from __future__ import annotations

import dataclasses
import math

import pytest

from multiupdate.errors import ConfigError
from multiupdate.params import HyperParams


def test_defaults():
    hp = HyperParams()
    assert hp.C == 1.0
    assert hp.eta0 == 1.0
    assert hp.alma_alpha == 0.9
    assert hp.alma_B == pytest.approx(1.0 / 0.9)
    assert hp.alma_C == pytest.approx(math.sqrt(2.0))
    assert hp.cw_eta == 0.7
    assert hp.arow_r == 1.0
    assert hp.narow_b == 1.0
    assert hp.scw_C == 1.0
    assert hp.sop_a == 1.0
    assert hp.iellip_b == 0.3
    assert hp.iellip_c == 0.1


def test_replace_returns_new_instance():
    base = HyperParams()
    tweaked = base.replace(C=0.25, cw_eta=0.9)
    assert tweaked.C == 0.25
    assert tweaked.cw_eta == 0.9
    # original untouched
    assert base.C == 1.0
    assert base.cw_eta == 0.7
    assert tweaked is not base


def test_replace_unknown_name():
    with pytest.raises(ConfigError, match="unknown hyperparameter"):
        HyperParams().replace(gamma=0.5)


def test_frozen():
    hp = HyperParams()
    with pytest.raises(dataclasses.FrozenInstanceError):
        hp.C = 2.0  # type: ignore[misc]


@pytest.mark.parametrize(
    "overrides",
    [
        {"C": 0.0},
        {"C": -1.0},
        {"eta0": 0.0},
        {"alma_alpha": 0.0},
        {"alma_alpha": 1.5},
        {"alma_B": -0.1},
        {"cw_eta": 0.5},    # boundary excluded
        {"cw_eta": 1.0},    # boundary excluded
        {"cw_eta": 0.3},
        {"arow_r": 0.0},
        {"narow_b": -2.0},
        {"scw_C": 0.0},
        {"sop_a": 0.0},
        {"iellip_b": 0.0},
        {"iellip_b": 1.1},
        {"iellip_c": -0.5},
    ],
)
def test_invalid_ranges(overrides):
    with pytest.raises(ConfigError):
        HyperParams(**overrides)
    # same validation path through replace()
    with pytest.raises(ConfigError):
        HyperParams().replace(**overrides)


def test_boundary_values_accepted():
    # closed upper ends that are legal
    assert HyperParams(alma_alpha=1.0).alma_alpha == 1.0
    assert HyperParams(iellip_b=1.0).iellip_b == 1.0
    assert HyperParams(iellip_c=1.0).iellip_c == 1.0
    # cw_eta strictly inside its interval
    assert HyperParams(cw_eta=0.51).cw_eta == 0.51
    assert HyperParams(cw_eta=0.99).cw_eta == 0.99


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(HyperParams)])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_non_finite_rejected(name, value):
    with pytest.raises(ConfigError, match=rf"\b{name}\b"):
        HyperParams().replace(**{name: value})
