"""Every count and seed argument goes through one integer check.

Counts and seeds must be integers, numpy's included: -1, 2.5, a float64
holding an integer and None each raise ValidationError (exit 2 through the
CLI) before anything is drawn, and numpy integers give exactly the
results that the equal Python ints give.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from cohopt import (
    PolicyState,
    SamplerConfig,
    ValidationError,
    accuracy_lower_bound,
    bound_validity_trials,
    conjectured_posttrain_count,
    debate_run,
    empirical_distribution,
    enumerate_policy_masses,
    equivalence_study,
    generate_scenario,
    generic_partition,
    gibbs_run,
    icm_hill_climb,
    random_mixture_system,
    regularization_bound_rhs,
    run_all_sweeps,
    simple_bootstrap_run,
    srm_select,
    sweep_chain_rule,
    sweep_change_of_prior,
    sweep_order_invariance,
    sweep_prior_encodes_samples,
    ternary_search_sample_count,
    training_friendly_gibbs_run,
    uniform_convergence_bound,
)
from cohopt.cli import main

CONDIMENTS = str(
    Path(__file__).resolve().parents[1] / "demos" / "scenarios" / "condiments.json"
)
BAD = (-1, 2.5, np.float64(3), None)
PARTITION = generic_partition((3, 4))  # debate needs two contexts
SYSTEM = random_mixture_system(PARTITION, 2, np.random.default_rng(11))
START = PARTITION.policy_at(0)
RECORD = gibbs_run(SYSTEM, START, SamplerConfig(steps=30, seed=1))


class _NoDraws:
    """A generator stand-in that fails the test on any draw."""

    def __getattr__(self, name):
        raise AssertionError(f"drew from the generator ({name})")


def _no_draws(*_args, **_kwargs):
    """Stands in for np.random.default_rng and np.random.SeedSequence."""
    return _NoDraws()


def _chains(**knobs) -> tuple:
    """The config and every sampler run that it drives."""
    config = SamplerConfig(**{"steps": 20, "seed": 5, **knobs})
    runs = [
        gibbs_run(SYSTEM, START, config),
        training_friendly_gibbs_run(SYSTEM, START, config),
        debate_run(SYSTEM, config),
    ]
    return (
        config.to_dict(),
        [run.trajectory.tolist() for run in runs],
        simple_bootstrap_run(SYSTEM, "random", config).policy,
        empirical_distribution(runs[0], "burnin-thinned").masses.tolist(),
    )


def _scenario(*args, **kwargs) -> tuple:
    s = generate_scenario(*args, **kwargs)
    return (
        s.system.latent_weights.tolist(), s.ground_truth, s.supervised,
        s.unsupervised, s.seed,
    )


def _system(system) -> tuple:
    return (
        system.latent_weights.tolist(),
        [system.emissions(c).tolist() for c in range(PARTITION.n_contexts)],
    )


MESSAGE_NAMES = {"cap": "enumeration cap", "lattice_point": "lattice point"}


def _entry(name, call, good, bad=BAD):
    """One checked argument, named after the last '-' of name as its
    messages name it."""
    argument = name.rsplit("-", 1)[1]
    argument = MESSAGE_NAMES.get(argument, argument)
    return pytest.param(call, argument, good, bad, id=name)


SWEEPS = {
    "sweep_chain_rule": sweep_chain_rule,
    "sweep_order_invariance": sweep_order_invariance,
    "sweep_change_of_prior": sweep_change_of_prior,
    "sweep_prior_encodes_samples": sweep_prior_encodes_samples,
    "run_all_sweeps": run_all_sweeps,
}

# call(value, rng) passes value as the one checked argument and returns
# something whose repr tells results apart (a numpy int left in a result
# shows in its repr); good is a valid value, bad the values to reject
ENTRY_POINTS = [
    _entry("uniform_convergence_bound-N",
           lambda v, rng: uniform_convergence_bound(-1.0, v, 0.05), 100),
    _entry("accuracy_lower_bound-N",
           lambda v, rng: accuracy_lower_bound(2.0, v, 0.05), 100),
    _entry("regularization_bound_rhs-N",
           lambda v, rng: regularization_bound_rhs(0.8, 3.0, 1.0, v, 0.05), 100),
    _entry("conjectured_posttrain_count-pretrain_count",
           lambda v, rng: conjectured_posttrain_count(-2.0, -1.0, 0.1, v), 10),
    # N=None means the number of samples
    _entry("srm_select-N",
           lambda v, rng: srm_select(
               SYSTEM, PolicyState.zero(), None, [(0, 1), (1, 3)], N=v
           ),
           40, BAD[:-1]),
    _entry("empirical_distribution-thin",
           lambda v, rng: empirical_distribution(
               RECORD, "burnin-thinned", thin=v
           ).masses.tolist(),
           3),
    _entry("ternary_search_sample_count-iters",
           lambda v, rng: ternary_search_sample_count(
               lambda x: -((x - 7) ** 2), 0, 40, iters=v
           ),
           3),
    _entry("bound_validity_trials-seed",
           lambda v, rng: bound_validity_trials(3, seed=v, n_train=5), 4),
    _entry("SamplerConfig-steps", lambda v, rng: _chains(steps=v), 12),
    _entry("SamplerConfig-seed", lambda v, rng: _chains(seed=v), 3),
    _entry("SamplerConfig-burn_in", lambda v, rng: _chains(burn_in=v), 4),
    _entry("SamplerConfig.from_dict-steps",
           lambda v, rng: SamplerConfig.from_dict({"steps": v}).to_dict(), 7),
    _entry("SamplerConfig.from_dict-seed",
           lambda v, rng: SamplerConfig.from_dict({"seed": v}).to_dict(), 7),
    _entry("SamplerConfig.from_dict-burn_in",
           lambda v, rng: SamplerConfig.from_dict({"burn_in": v}).to_dict(), 7),
    _entry("icm_hill_climb-max_iters",
           lambda v, rng: icm_hill_climb(SYSTEM, START, max_iters=v), 2),
    _entry("icm_hill_climb-restarts",
           lambda v, rng: icm_hill_climb(SYSTEM, START, restarts=v), 3),
    _entry("icm_hill_climb-seed",
           lambda v, rng: icm_hill_climb(SYSTEM, START, seed=v), 9),
    _entry("random_mixture_system-n_latents",
           lambda v, rng: _system(random_mixture_system(PARTITION, v, rng)), 3),
    _entry("enumerate_policy_masses-cap",
           lambda v, rng: enumerate_policy_masses(SYSTEM, cap=v).tolist(), 18),
    _entry("generate_scenario-n_contexts",
           lambda v, rng: _scenario(v, 3, 2), 4),
    _entry("generate_scenario-context_size",
           lambda v, rng: _scenario(4, v, 2), 2),
    _entry("generate_scenario-n_latents",
           lambda v, rng: _scenario(4, 3, v), 3),
    # unsupervised_count=None means the fraction's share
    _entry("generate_scenario-unsupervised_count",
           lambda v, rng: _scenario(4, 3, 2, unsupervised_count=v), 1, BAD[:-1]),
    _entry("generate_scenario-seed",
           lambda v, rng: _scenario(4, 3, 2, seed=v), 6),
    _entry("equivalence_study-lattice_point",
           lambda v, rng: equivalence_study([v], [0], n_contexts=3), 1),
    _entry("equivalence_study-seed",
           lambda v, rng: equivalence_study([1, 2], [v], n_contexts=3), 2),
    _entry("equivalence_study-n_contexts",
           lambda v, rng: equivalence_study([1], [0], n_contexts=v), 3),
    *(
        _entry(f"{name}-{argument}",
               lambda v, rng, sweep=sweep, argument=argument: sweep(
                   **{"cases": 2, "seed": 1, argument: v}
               ),
               2)
        for name, sweep in SWEEPS.items()
        for argument in ("cases", "seed")
    ),
]


@pytest.mark.parametrize("call,argument,good,bad", ENTRY_POINTS)
def test_counts_and_seeds_are_integers(monkeypatch, call, argument, good, bad):
    with monkeypatch.context() as patch:
        patch.setattr(np.random, "default_rng", _no_draws)
        patch.setattr(np.random, "SeedSequence", _no_draws)
        for value in bad:
            with pytest.raises(ValidationError, match=rf"^{argument} must be"):
                call(value, _NoDraws())
    expected = repr(call(good, np.random.default_rng(7)))
    for kind in (np.int64, np.uint32):
        assert repr(call(kind(good), np.random.default_rng(7))) == expected


@pytest.mark.parametrize("bound,first", [
    (uniform_convergence_bound, -1.0), (accuracy_lower_bound, 2.0),
])
def test_a_bound_rejects_the_n_it_would_not_compute_with(bound, first):
    """2.5 was echoed as N = 2 while the value used 2.5."""
    with pytest.raises(ValidationError, match="N must be an integer, got 2.5"):
        bound(first, 2.5, 0.05)


@pytest.mark.parametrize("concentration", [-1.0, 0.0, math.nan, math.inf])
def test_emission_concentration_must_be_positive_and_finite(concentration):
    with pytest.raises(ValidationError, match="emission_concentration"):
        random_mixture_system(PARTITION, 2, _NoDraws(), concentration)


@pytest.mark.parametrize("fraction", [math.nan, math.inf, -math.inf, -0.1, 1.1])
def test_unsupervised_fraction_must_lie_in_the_unit_interval(monkeypatch, fraction):
    monkeypatch.setattr(np.random, "default_rng", _no_draws)
    with pytest.raises(ValidationError, match="unsupervised_fraction"):
        generate_scenario(4, 3, 2, unsupervised_fraction=fraction)


@pytest.mark.parametrize("lattice,seeds", [([], [0]), ([1], []), ([], [])])
def test_an_empty_study_is_rejected(lattice, seeds):
    with pytest.raises(ValidationError, match="at least one lattice point"):
        equivalence_study(lattice, seeds, n_contexts=3)


EQUIV = ["equiv", "--lattice", "0,1", "--n-seeds", "1", "--n-contexts", "3"]


@pytest.mark.parametrize("argv,message", [
    (["run", CONDIMENTS, "--steps", "5", "--seed", "-1"], "seed must be at least 0"),
    (["run", CONDIMENTS, "--method", "icm", "--seed", "-1"], "seed must be at least 0"),
    (["mc", "--trials", "3", "--seed", "-1"], "seed must be at least 0"),
    ([*EQUIV, "--seed", "-1"], "seed must be at least 0"),
    (["equiv", "--lattice", ",", "--n-contexts", "3"], "need at least one lattice point"),
    ([*EQUIV, "--n-seeds", "0"], "need at least one lattice point"),
    ([*EQUIV, "--n-seeds", "-2"], "need at least one lattice point"),
    ([*EQUIV, "--emission-concentration", "-1"], "emission_concentration"),
    ([*EQUIV, "--emission-concentration", "0"], "emission_concentration"),
], ids=[
    "run", "run-icm", "mc", "equiv", "equiv-empty-lattice", "equiv-no-seeds",
    "equiv-negative-seeds", "equiv-negative-concentration",
    "equiv-zero-concentration",
])
def test_bad_input_exits_2_and_writes_nothing(tmp_path, argv, message):
    out = tmp_path / "out"
    result = CliRunner().invoke(main, [*argv, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert f"error: {message}" in result.output
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["--seed", "-1"], "seed must be at least 0"),
    (["--cases", "0"], "cases must be at least 1"),
], ids=["seed", "cases"])
def test_check_rejects_a_bad_seed_or_case_count(argv, message):
    result = CliRunner().invoke(main, ["check", "--cases", "2", *argv])
    assert result.exit_code == 2, result.output
    assert f"error: {message}" in result.output
    assert "PASS" not in result.output
