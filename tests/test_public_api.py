"""The package surface is the union of its modules' `__all__`, each name
bound to the module's own object; and SamplerConfig.to_dict keeps the
mapping it wrote field by field."""

from __future__ import annotations

import importlib
import inspect
import itertools
import math
import sys

import numpy as np
import pytest

import cohopt
from cohopt import SamplerConfig

MODULES = (
    "errors",
    "systems",
    "coherence",
    "samplers",
    "analysis",
    "experiments",
    "checks",
    "fileio",
)


def _module(name: str):
    return importlib.import_module(f"cohopt.{name}")


@pytest.mark.parametrize("name", MODULES)
def test_every_declared_name_is_exported_as_the_modules_own_object(name):
    module = _module(name)
    for attr in module.__all__:
        assert getattr(cohopt, attr) is getattr(module, attr), attr


def test_every_public_attribute_is_declared_by_some_module():
    declared = set().union(*(_module(name).__all__ for name in MODULES))
    public = {
        attr
        for attr in dir(cohopt)
        if not attr.startswith("_") and not inspect.ismodule(getattr(cohopt, attr))
    }
    assert public - declared == set()


def test_coherence_is_the_function_and_its_module_stays_reachable():
    assert inspect.isfunction(cohopt.coherence)
    assert cohopt.coherence.__module__ == "cohopt.coherence"
    module = sys.modules["cohopt.coherence"]
    assert inspect.ismodule(module)
    assert module.coherence is cohopt.coherence


def test_star_import():
    namespace: dict = {}
    exec("from cohopt import *", namespace)
    for name in MODULES:
        for attr in _module(name).__all__:
            assert namespace[attr] is getattr(cohopt, attr), attr


def _old_to_dict(config: SamplerConfig) -> dict:
    """The mapping to_dict wrote field by field before it became asdict."""
    return {
        "beta": float(config.beta),
        "steps": config.steps,
        "seed": config.seed,
        "gamma": float(config.gamma),
        "anchor_weight": float(config.anchor_weight),
        "burn_in": config.burn_in,
    }


BETAS = (2, 1, np.float64(0.5), np.int64(3), math.inf, np.float64(np.inf))
GAMMAS = (0.85, 0.5, np.float64(0.25))
ANCHOR_WEIGHTS = (0, 1, 0.5)


@pytest.mark.parametrize(
    "beta, gamma, anchor_weight", itertools.product(BETAS, GAMMAS, ANCHOR_WEIGHTS)
)
def test_to_dict_matches_the_old_mapping(beta, gamma, anchor_weight):
    config = SamplerConfig(
        beta=beta, steps=7, seed=np.int64(3), gamma=gamma, anchor_weight=anchor_weight,
        burn_in=2,
    )
    data = config.to_dict()
    assert data == _old_to_dict(config)
    assert list(data) == list(_old_to_dict(config))
    for key in ("beta", "gamma", "anchor_weight"):
        assert type(data[key]) is float, key
        assert type(getattr(config, key)) is float, key
    for key in ("steps", "seed", "burn_in"):
        assert type(data[key]) is int, key
    assert SamplerConfig.from_dict(data) == config
