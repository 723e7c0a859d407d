"""Positivity is decided on supports (Conditioned.zero_mass_index), by
check_ergodicity and by every chain start alike: a sub-policy has mass if and
only if some latent of positive prior likelihood has a nonzero emission at
every covered position, so a mass that underflows the float range is still a
mass. Where nothing underflows, the verdict, the witness and the chain-start
warning are those of a test-local float enumeration."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from cohopt import (
    Conditioned,
    DPolicy,
    MixtureBayesSystem,
    PolicyState,
    PositivityWarning,
    SamplerConfig,
    check_ergodicity,
    debate_run,
    enumerate_policy_masses,
    generic_partition,
    gibbs_run,
    random_mixture_system,
    training_friendly_gibbs_run,
)
from cohopt import systems

from conftest import condiments_system


def _no_positivity_warning(run):
    with warnings.catch_warnings():
        warnings.simplefilter("error", PositivityWarning)
        return run()


def _tiny_emission_system():
    """18 binary contexts, one latent, the row (1 - 1e-20, 1e-20) in each:
    every policy has mass, but the all-b1 product, 1e-360, underflows."""
    row = np.array([[1.0 - 1e-20, 1e-20]])
    return MixtureBayesSystem(generic_partition([2] * 18), [1.0], [row] * 18)


def _underflowing_prior():
    """Latent 1 keeps prior weight about 1e-500 after 100 observations of
    behavior 0, and it alone gives mass to the b1 behaviors of contexts 1
    and 2."""
    sharp = np.array([[1.0 - 1e-5, 1e-5], [1e-5, 1.0 - 1e-5]])
    half = np.array([[1.0, 0.0], [0.5, 0.5]])
    system = MixtureBayesSystem(
        generic_partition([2, 2, 2]), [0.5, 0.5], [sharp, half, half]
    )
    return system, PolicyState({0: 100})


class TestUnderflowIsNotZeroMass:
    def test_check_ergodicity_is_positive_on_tiny_emissions(self):
        system = _tiny_emission_system()
        assert enumerate_policy_masses(system)[-1] == 0.0  # the float product
        report = check_ergodicity(system)
        assert report.positive
        assert report.witness is None

    @pytest.mark.parametrize(
        "run",
        [gibbs_run, training_friendly_gibbs_run],
        ids=["gibbs", "tf-gibbs"],
    )
    def test_chains_start_without_warning_on_tiny_emissions(self, run):
        start = DPolicy((1,) * 18)
        config = SamplerConfig(beta=0.5, steps=5, seed=3)
        record = _no_positivity_warning(
            lambda: run(_tiny_emission_system(), start, config)
        )
        assert len(record) == 6

    def test_underflowing_prior_weight_still_counts(self):
        system, prior = _underflowing_prior()
        core = Conditioned(system, prior, (1, 2))
        assert np.count_nonzero(core.masses() == 0.0) == 3  # the float table
        assert core.zero_mass_index() is None

    @pytest.mark.parametrize("kind", ["gibbs", "tf-gibbs", "debate"])
    def test_chains_start_without_warning_on_underflowing_prior(self, kind):
        system, prior = _underflowing_prior()
        start = DPolicy((0, 0))
        config = SamplerConfig(steps=5, seed=1, gamma=0.5)
        runs = {
            "gibbs": lambda: gibbs_run(
                system, start, config, prior=prior, contexts=(1, 2)
            ),
            "tf-gibbs": lambda: training_friendly_gibbs_run(
                system, start, config, prior=prior, contexts=(1, 2)
            ),
            "debate": lambda: debate_run(
                system, config, prior=prior, contexts=(1, 2)
            ),
        }
        record = _no_positivity_warning(runs[kind])
        assert record.kind == kind


class TestNoEnumerationOnFullSupport:
    @pytest.fixture
    def calls(self, monkeypatch):
        counted = []
        kernel = systems._enumerate_masses

        def counting(*args):
            counted.append(args)
            return kernel(*args)

        monkeypatch.setattr(systems, "_enumerate_masses", counting)
        return counted

    def test_chain_start_on_a_dirichlet_system(self, calls):
        system = random_mixture_system(
            generic_partition([3, 3, 3]), 2, np.random.default_rng(5)
        )
        gibbs_run(
            system, DPolicy((0, 0, 0)), SamplerConfig(steps=10), check_positivity=True
        )
        assert check_ergodicity(system).positive
        assert calls == []
        # zero emissions fall back to the enumerator, which the count sees
        assert not check_ergodicity(condiments_system(0.0))
        assert len(calls) == 1


def _sparse_rows(rng, shape):
    """Rows of the integers 0-2, normalized, each with a nonzero entry:
    exact zeros, and no mass small enough to underflow."""
    rows = rng.integers(0, 3, size=shape).astype(np.float64)
    empty = np.nonzero(rows.sum(axis=-1) == 0.0)
    rows[(*empty, rng.integers(0, shape[-1], size=empty[0].size))] = 1.0
    return rows / rows.sum(axis=-1, keepdims=True)


def _float_masses(weights, emissions):
    """Σ_θ w_θ · Π_j emissions[j][θ, π(j)] in linear floats, by per-latent
    outer products in mixed-radix order (position 0 most significant)."""
    total = np.zeros(math.prod(table.shape[1] for table in emissions))
    for theta, weight in enumerate(weights):
        row = np.array([weight])
        for table in emissions:
            row = np.multiply.outer(row, table[theta]).reshape(-1)
        total += row
    return total


def _first_zero(masses):
    zero = np.flatnonzero(masses <= 0.0)
    return int(zero[0]) if zero.size else None


def _seeded_case(seed):
    """A system with exact zeros in its weights and emissions, a prior of up
    to two behaviors that a live latent supports, and a context subset in a
    shuffled order."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 4, size=int(rng.integers(1, 5))).tolist()
    latents = int(rng.integers(1, 9))
    partition = generic_partition(sizes)
    weights = _sparse_rows(rng, (1, latents))[0]
    emissions = [_sparse_rows(rng, (latents, size)) for size in sizes]
    system = MixtureBayesSystem(partition, weights, emissions)
    theta = int(rng.choice(np.flatnonzero(weights)))
    behaviors = []
    for _ in range(int(rng.integers(0, 3))):
        c = int(rng.integers(0, len(sizes)))
        a = int(rng.choice(np.flatnonzero(emissions[c][theta])))
        behaviors.append(partition.global_index(c, a))
    order = rng.permutation(len(sizes))
    contexts = tuple(order[: int(rng.integers(1, len(sizes) + 1))].tolist())
    return system, PolicyState.from_behaviors(behaviors), contexts


def test_seeded_systems_match_a_float_enumeration():
    outcomes = {"full support": 0, "positive by counts": 0, "zero mass": 0}
    for seed in range(1200):
        system, prior, contexts = _seeded_case(seed)
        weights = system.latent_weights
        emissions = [system.emissions(c) for c in range(system.partition.n_contexts)]

        zero = _first_zero(_float_masses(weights, emissions))
        report = check_ergodicity(system)
        assert report.positive == (zero is None), seed
        expected = None if zero is None else system.partition.policy_at(zero)
        assert report.witness == expected, seed

        posterior = weights.copy()
        for key, count in prior.counts.items():
            c, a = system.partition.locate(key)
            posterior = posterior * emissions[c][:, a] ** count
        covered = [emissions[c] for c in contexts]
        masses = _float_masses(posterior, covered)
        zero = _first_zero(masses)
        core = Conditioned(system, prior, contexts)
        assert core.zero_mass_index() == zero, seed

        start = DPolicy(np.unravel_index(int(masses.argmax()), core.sizes))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", PositivityWarning)
            gibbs_run(
                system, start, SamplerConfig(steps=1, seed=seed),
                prior=prior, contexts=contexts,
            )
        warned = [w for w in caught if w.category is PositivityWarning]
        assert len(warned) == (zero is not None), seed

        full = posterior > 0.0
        for table in covered:
            full &= np.all(table > 0.0, axis=1)
        if zero is not None:
            outcomes["zero mass"] += 1
        elif full.any():
            outcomes["full support"] += 1
        else:
            outcomes["positive by counts"] += 1
    # every branch of the check is exercised
    assert min(outcomes.values()) >= 50, outcomes
