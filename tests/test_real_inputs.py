"""Every real-valued parameter of a public callable goes through one check.
A value that is not a real number, an int past the float range, and NaN or
any value outside the parameter's interval raise ValidationError (exit code
2 at the CLI): never a TypeError, ValueError or OverflowError, and never a
result that fails later. Each interval keeps the words of its message."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from cohopt import checks
from cohopt import (
    DPolicy,
    PolicyState,
    SamplerConfig,
    ValidationError,
    accuracy_lower_bound,
    bootstrap_exact_distribution,
    bound_validity_trials,
    check_beta,
    coherence,
    conjectured_posttrain_count,
    equivalence_study,
    exact_conditional_distribution,
    from_joint_table,
    generate_scenario,
    generic_partition,
    gibbs_step_probability,
    random_mixture_system,
    regularization_bound_rhs,
    softmax_over_coherence,
    srm_select,
    sweep_chain_rule,
    sweep_change_of_prior,
    sweep_order_invariance,
    sweep_prior_encodes_samples,
    temper,
    tempered_infer,
    ternary_search_sample_count,
    uniform_convergence_bound,
)

SYSTEM = random_mixture_system(generic_partition([3, 3, 3]), 2, np.random.default_rng(0))
ZERO = PolicyState.zero()
START = DPolicy((0, 0, 0))

# one call per (entry point, parameter), each valid at the parameter's default
CALLS = {
    "check_beta": lambda v: check_beta(v),
    "temper beta": lambda v: temper(np.array([0.2, 0.8]), v),
    "tempered_infer beta": lambda v: tempered_infer(SYSTEM, ZERO, 0, v),
    "softmax_over_coherence beta": lambda v: softmax_over_coherence(SYSTEM, v),
    "gibbs_step_probability beta": lambda v: gibbs_step_probability(
        SYSTEM, START, DPolicy((0, 0, 1)), v
    ),
    "exact_conditional_distribution beta": lambda v: exact_conditional_distribution(
        SYSTEM, v
    ),
    "bootstrap_exact_distribution beta": lambda v: bootstrap_exact_distribution(
        SYSTEM, [0, 1, 2], v
    ),
    "SamplerConfig beta": lambda v: SamplerConfig(beta=v),
    "SamplerConfig gamma": lambda v: SamplerConfig(gamma=v),
    "SamplerConfig anchor_weight": lambda v: SamplerConfig(anchor_weight=v),
    "from_joint_table epsilon": lambda v: from_joint_table(
        generic_partition([2]), [0.5, 0.5], v
    ),
    "random_mixture_system emission_concentration": lambda v: random_mixture_system(
        generic_partition([2]), 1, np.random.default_rng(0), v
    ),
    "generate_scenario emission_concentration": lambda v: generate_scenario(
        4, 3, 2, emission_concentration=v
    ),
    "generate_scenario unsupervised_fraction": lambda v: generate_scenario(
        4, 3, 2, unsupervised_fraction=v
    ),
    "generate_scenario label_noise": lambda v: generate_scenario(4, 3, 2, label_noise=v),
    "generate_scenario truth_beta": lambda v: generate_scenario(4, 3, 2, truth_beta=v),
    "uniform_convergence_bound chi": lambda v: uniform_convergence_bound(v, 10, 0.1),
    "uniform_convergence_bound delta": lambda v: uniform_convergence_bound(-1.0, 10, v),
    "accuracy_lower_bound G": lambda v: accuracy_lower_bound(v, 10, 0.1),
    "accuracy_lower_bound delta": lambda v: accuracy_lower_bound(2.0, 10, v),
    "srm_select delta": lambda v: srm_select(SYSTEM, ZERO, None, [], delta=v),
    "equivalence_study delta": lambda v: equivalence_study(
        [1], [0], n_contexts=3, context_size=2, delta=v
    ),
    "bound_validity_trials delta": lambda v: bound_validity_trials(1, delta=v),
    "regularization_bound_rhs alphaQ": lambda v: regularization_bound_rhs(
        v, 3.0, 1.0, 100, 0.05
    ),
    "regularization_bound_rhs H": lambda v: regularization_bound_rhs(
        0.8, v, 1.0, 100, 0.05
    ),
    "regularization_bound_rhs KL": lambda v: regularization_bound_rhs(
        0.8, 3.0, v, 100, 0.05
    ),
    "regularization_bound_rhs delta": lambda v: regularization_bound_rhs(
        0.8, 3.0, 1.0, 100, v
    ),
    "conjectured_posttrain_count mean_pretrain_coh": lambda v: conjectured_posttrain_count(
        v, -1.0, 0.1, 10
    ),
    "conjectured_posttrain_count mean_posttrain_coh": lambda v: conjectured_posttrain_count(
        -2.0, v, 0.1, 10
    ),
    "conjectured_posttrain_count pretrain_error": lambda v: conjectured_posttrain_count(
        -2.0, -1.0, v, 10
    ),
    "sweep_chain_rule tolerance": lambda v: sweep_chain_rule(2, 0, v),
    "sweep_order_invariance tolerance": lambda v: sweep_order_invariance(2, 0, v),
    "sweep_change_of_prior tolerance": lambda v: sweep_change_of_prior(2, 0, v),
    "sweep_prior_encodes_samples tolerance": lambda v: sweep_prior_encodes_samples(
        2, 0, v
    ),
}

NOT_NUMBERS = ["x", None, 1j, [0.5], 10**400, math.nan]


@pytest.mark.parametrize("value", NOT_NUMBERS, ids=repr)
@pytest.mark.parametrize("call", sorted(CALLS))
def test_rejected(call, value):
    with pytest.raises(ValidationError):
        CALLS[call](value)


# a value outside each interval, with the exact message it gets
OUT_OF_RANGE = [
    ("check_beta", 0, "beta must be positive, got 0"),
    ("generate_scenario truth_beta", -1, "truth_beta must be positive, got -1"),
    ("SamplerConfig gamma", 1, "gamma must be in (0, 1), got 1"),
    ("SamplerConfig anchor_weight", -0.5, "anchor_weight must be in [0, 1], got -0.5"),
    ("from_joint_table epsilon", 1.0, "epsilon must be in [0, 1), got 1.0"),
    (
        "random_mixture_system emission_concentration",
        math.inf,
        "emission_concentration must be in (0, inf), got inf",
    ),
    (
        "generate_scenario unsupervised_fraction",
        1.5,
        "unsupervised_fraction must be in [0, 1], got 1.5",
    ),
    ("generate_scenario label_noise", 2, "label_noise must be in [0, 1], got 2"),
    ("uniform_convergence_bound chi", 1.0, "chi must be <= 0, got 1.0"),
    ("uniform_convergence_bound delta", 0, "delta must be in (0, 1], got 0"),
    ("accuracy_lower_bound G", math.nan, "G must be in [-inf, inf], got nan"),
    ("regularization_bound_rhs KL", math.nan, "KL must be in [-inf, inf], got nan"),
    ("regularization_bound_rhs alphaQ", math.inf, "alphaQ must be finite, got inf"),
    ("regularization_bound_rhs delta", 1, "delta must be in (0, 1), got 1"),
    (
        "conjectured_posttrain_count pretrain_error",
        1,
        "pretrain_error must be in [0, 1), got 1",
    ),
    ("sweep_chain_rule tolerance", -1, "tolerance must be in [0, inf], got -1"),
]


@pytest.mark.parametrize("call, value, message", OUT_OF_RANGE, ids=lambda x: str(x))
def test_out_of_range_message(call, value, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        CALLS[call](value)


def test_non_number_message_names_the_parameter():
    with pytest.raises(
        ValidationError, match=r"^label_noise must be a number in the float range, got 'x'$"
    ):
        CALLS["generate_scenario label_noise"]("x")


def test_ints_past_the_floats_fail_the_interval():
    with pytest.raises(ValidationError, match="^emission_concentration must be in"):
        CALLS["random_mixture_system emission_concentration"](10**400)
    with pytest.raises(ValidationError, match="^beta must be a number in the float range"):
        check_beta(10**400)


@pytest.mark.parametrize(
    "call, value",
    [
        ("check_beta", math.inf),
        ("check_beta", np.float32(2.0)),
        ("SamplerConfig gamma", np.float64(0.5)),
        ("from_joint_table epsilon", 0),
        ("random_mixture_system emission_concentration", 2),
        ("uniform_convergence_bound delta", 1),
        ("accuracy_lower_bound G", math.inf),
        ("regularization_bound_rhs KL", math.inf),
        ("sweep_chain_rule tolerance", math.inf),
    ],
)
def test_accepted(call, value):
    CALLS[call](value)


def test_chi_takes_a_coherence_value_but_not_a_string():
    chi = coherence(SYSTEM, ZERO, START)
    assert uniform_convergence_bound(chi, 10, 0.1) == uniform_convergence_bound(
        chi.bits, 10, 0.1
    )
    with pytest.raises(ValidationError, match="^chi must be a number"):
        uniform_convergence_bound("-1", 10, 0.1)


def test_sweep_rejects_its_tolerance_before_any_case(monkeypatch):
    def no_case(rng):
        raise AssertionError("a case was drawn")

    monkeypatch.setattr(checks, "_random_system", no_case)
    with pytest.raises(ValidationError, match="^tolerance"):
        sweep_chain_rule(10, 0, "x")


@pytest.mark.parametrize("sizes", [[2.5], [2, "3"], [np.float64(2.0)]])
def test_generic_partition_sizes_are_integers(sizes):
    with pytest.raises(ValidationError, match="^context size .* must be an integer$"):
        generic_partition(sizes)


def test_generic_partition_size_zero_has_no_behaviors():
    with pytest.raises(ValidationError, match="has no behaviors"):
        generic_partition([0])
    assert generic_partition([np.int64(2)]).sizes == (2,)


@pytest.mark.parametrize("lo, hi", [("1", 10), (1, "10"), (0.5, 10), (1, None)])
def test_ternary_search_bracket_is_integers(lo, hi):
    with pytest.raises(ValidationError, match="must be an integer$"):
        ternary_search_sample_count(lambda n: -((n - 4) ** 2), lo, hi)


def test_ternary_search_takes_numpy_ints():
    objective = lambda n: -((n - 4) ** 2)  # noqa: E731
    assert ternary_search_sample_count(objective, np.int64(1), np.int32(10)) == 4
