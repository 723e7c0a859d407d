"""What every pipeline run on one scenario computes alike (the greedy start,
the labels' coherence chi_pre and the truth's optimality gap) is computed
once per Scenario and shared: each method's report must equal (==) the one
from a fresh Scenario that has computed nothing yet, and a cell of methods
on one scenario must call infer fewer times than one fresh scenario per
method does."""

from __future__ import annotations

import dataclasses
import importlib
import math

import pytest

from cohopt import SamplerConfig, generate_scenario, run_semi_supervised
from cohopt import experiments

# a semi-supervised benchmark cell's scenario and sampler settings
SCENARIO = dict(
    context_size=3, n_latents=2, emission_concentration=5.0,
    unsupervised_fraction=0.5, truth_beta=math.inf,
)
CACHED = ("_greedy_start", "_chi_pre_bits", "_optimality_gap")


def _config(method, seed, beta):
    return SamplerConfig(beta=beta, steps=500 if method == "tf-gibbs" else 2000, seed=seed)


def _fresh(scenario):
    fresh = dataclasses.replace(scenario)
    assert fresh == scenario and not set(CACHED) & set(vars(fresh))
    return fresh


@pytest.mark.parametrize("beta", [0.5, 2.0, math.inf])
@pytest.mark.parametrize("n_contexts, seed", [(12, 201), (12, 202), (6, 203)])
def test_shared_reports_equal_fresh_ones(n_contexts, seed, beta):
    scenario = generate_scenario(n_contexts, seed=seed, **SCENARIO)
    methods = experiments.METHODS if n_contexts == 6 else (
        "gibbs", "tf-gibbs", "bootstrap", "icm", "erm"
    )
    for method in methods:
        config = _config(method, seed, beta)
        shared = run_semi_supervised(scenario, method, config)
        assert set(CACHED) <= set(vars(scenario))
        assert shared == run_semi_supervised(_fresh(scenario), method, config), method


def _count_infer(monkeypatch):
    calls = [0]
    shipped = experiments.infer

    def counted(*args):
        calls[0] += 1
        return shipped(*args)

    monkeypatch.setattr(experiments, "infer", counted)
    # the package's name coherence is the function; its module holds infer
    monkeypatch.setattr(importlib.import_module("cohopt.coherence"), "infer", counted)
    return calls


def test_a_shared_cell_calls_infer_less(monkeypatch):
    scenario = generate_scenario(12, seed=204, **SCENARIO)
    methods = ("gibbs", "tf-gibbs", "bootstrap", "icm", "erm")
    calls = _count_infer(monkeypatch)
    for method in methods:
        run_semi_supervised(_fresh(scenario), method, _config(method, 204, 2.0))
    fresh = calls[0]
    calls[0] = 0
    for method in methods:
        run_semi_supervised(scenario, method, _config(method, 204, 2.0))
    # the greedy start asks infer once per unsupervised context and chi_pre
    # once per label; the four later methods now ask neither
    saved = (len(methods) - 1) * (len(scenario.unsupervised) + len(scenario.supervised))
    assert calls[0] == fresh - saved
    assert calls[0] < fresh
