"""The block sampler and the sequential bootstrap against test-local copies
of their earlier loops, which summed log numerators by hand; plus the
numerator methods of Conditioned and the shared chain set-up."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cohopt import (
    Conditioned,
    DPolicy,
    MixtureBayesSystem,
    PositivityWarning,
    SamplerConfig,
    debate_run,
    generic_partition,
    gibbs_run,
    random_mixture_system,
    simple_bootstrap_run,
    training_friendly_gibbs_run,
)
from cohopt.errors import DegenerateConditioningError
from cohopt.samplers import _draw
from cohopt.systems import _tempered_weights

from conftest import condiments_partition, condiments_system


def _reference_block_run(system, initial, config):
    """The block sampler with the retained rows added in set order."""
    core = Conditioned(system)
    assignment = core.validate(initial)
    k = len(core.contexts)
    keep = int(math.floor(config.gamma * k))
    rng = np.random.default_rng(config.seed)
    lam = config.anchor_weight
    trajectory = np.empty((config.steps + 1, k), dtype=np.int64)
    coherence_bits = np.empty(config.steps + 1)
    trajectory[0] = assignment
    coherence_bits[0] = core.coherence_bits(assignment)
    moves = np.empty((config.steps, k - keep), dtype=np.int64)
    anchor_p = None
    for t in range(config.steps):
        kept_set = set(int(j) for j in rng.permutation(k)[:keep])
        numerators = core.base.copy()
        for j in kept_set:
            numerators += core.log_emissions[j][:, assignment[j]]
        weights = np.exp(numerators - float(numerators.max()))
        if t == 0 and lam > 0.0:
            anchor_p = [weights @ core.emissions[j] for j in range(k)]
        resampled = tuple(j for j in range(k) if j not in kept_set)
        for j in resampled:
            use_anchor = False
            if lam > 0.0:
                use_anchor = lam >= 1.0 or rng.random() < lam
            p = anchor_p[j] if use_anchor else weights @ core.emissions[j]
            assignment[j] = _draw(
                _tempered_weights(p, config.beta), float(rng.random())
            )
        trajectory[t + 1] = assignment
        coherence_bits[t + 1] = core.coherence_bits(assignment)
        moves[t] = resampled
    return trajectory, coherence_bits, moves


def _reference_bootstrap(system, order, config):
    """The sequential bootstrap with each visited row added by hand."""
    core = Conditioned(system)
    rng = np.random.default_rng(config.seed)
    if order == "random":
        order = tuple(int(j) for j in rng.permutation(len(core.contexts)))
    assignment = np.zeros(len(core.contexts), dtype=np.int64)
    numerators = core.base.copy()
    trace = []
    for j in order:
        p, _ = core.predictive(numerators, j)
        weights = _tempered_weights(p, config.beta)
        a = _draw(weights, float(rng.random()))
        trace.append(float(weights[a] / weights.sum()))
        assignment[j] = a
        numerators = numerators + core.log_emissions[j][:, a]
    return tuple(int(a) for a in assignment), tuple(order), trace


def _system(k: int, size: int, n_latents: int, seed: int):
    rng = np.random.default_rng(seed)
    return random_mixture_system(
        generic_partition([size] * k), n_latents, rng, emission_concentration=0.5
    )


# (k, behaviors per context, latents, gamma, anchor weight, beta)
BLOCK_CASES = [
    (3, 3, 2, 0.5, 0.0, 1.0),
    (3, 3, 2, 0.5, 0.5, 1.0),
    (3, 3, 2, 0.5, 1.0, 1.0),
    (3, 3, 4, 0.5, 0.5, math.inf),
    (6, 3, 3, 0.85, 0.0, 2.0),
    (6, 3, 3, 0.85, 0.5, 1.0),
    (40, 4, 32, 0.85, 0.5, 1.0),
    (40, 4, 32, 0.85, 0.0, 0.5),
]


@pytest.mark.parametrize("k,size,n_latents,gamma,anchor,beta", BLOCK_CASES)
def test_block_sampler_matches_reference_bitwise(
    k, size, n_latents, gamma, anchor, beta
):
    for seed in (0, 1, 2):
        system = _system(k, size, n_latents, 100 + seed)
        config = SamplerConfig(
            beta=beta, steps=40, seed=seed, gamma=gamma, anchor_weight=anchor
        )
        initial = DPolicy(tuple(j % size for j in range(k)))
        record = training_friendly_gibbs_run(
            system, initial, config, check_positivity=False
        )
        trajectory, bits, moves = _reference_block_run(system, initial, config)
        assert np.array_equal(record.trajectory, trajectory)
        assert np.array_equal(record.coherence_bits, bits)
        assert np.array_equal(record.moves, moves)


@pytest.mark.parametrize("k,size,n_latents", [(3, 3, 2), (6, 3, 3), (40, 4, 32)])
@pytest.mark.parametrize("beta", [0.5, 1.0, math.inf])
def test_bootstrap_matches_reference_bitwise(k, size, n_latents, beta):
    for seed in (0, 1, 2):
        system = _system(k, size, n_latents, 200 + seed)
        config = SamplerConfig(beta=beta, seed=seed)
        explicit = tuple(int(j) for j in np.random.default_rng(seed).permutation(k))
        for order in ("random", explicit):
            result = simple_bootstrap_run(system, order, config)
            policy, visited, trace = _reference_bootstrap(system, order, config)
            assert result.policy.assignment == policy
            assert result.order == visited
            assert np.array_equal(np.array(result.step_probabilities), np.array(trace))


class TestConditionedNumerators:
    def test_skip_collection_drops_those_positions(self):
        system = _system(5, 3, 3, 7)
        core = Conditioned(system)
        assignment = np.array([2, 0, 1, 1, 0])
        expected = core.base.copy()
        for j in (0, 2, 4):
            expected += core.log_emissions[j][:, assignment[j]]
        assert np.array_equal(core.numerators(assignment, skip={1, 3}), expected)
        assert np.array_equal(
            core.numerators(assignment, skip=(1,)),
            core.numerators(assignment, skip=[1]),
        )

    @pytest.mark.parametrize("k,size,n_latents,gamma", [(3, 3, 2, 0.5), (6, 3, 3, 0.85), (40, 4, 32, 0.85)])
    def test_retained_rows_in_position_order_match_set_order(
        self, k, size, n_latents, gamma
    ):
        # a trajectory rarely shows an ulp change in the block weights, so
        # the retained-row sum is compared directly, for kept sets drawn as
        # the block sampler draws them
        core = Conditioned(_system(k, size, n_latents, 11))
        keep = int(math.floor(gamma * k))
        rng = np.random.default_rng(12)
        for _ in range(50):
            assignment = rng.integers(0, size, size=k)
            kept_set = set(int(j) for j in rng.permutation(k)[:keep])
            expected = core.base.copy()
            for j in kept_set:
                expected += core.log_emissions[j][:, assignment[j]]
            resampled = [j for j in range(k) if j not in kept_set]
            assert np.array_equal(
                core.numerators(assignment, skip=resampled), expected
            )

    def test_extend_adds_one_visited_position(self):
        system = _system(3, 3, 2, 8)
        core = Conditioned(system)
        grown = core.extend(core.extend(core.base, 0, 2), 1, 1)
        assert np.array_equal(
            grown, core.numerators(np.array([2, 1, 0]), skip=(2,))
        )

    def test_posterior_weights_are_max_shifted(self):
        system = _system(3, 3, 4, 9)
        core = Conditioned(system)
        numerators = core.numerators(np.array([0, 1, 2]))
        weights, top = core.posterior_weights(numerators)
        assert top == float(numerators.max())
        assert float(weights.max()) == 1.0
        assert np.array_equal(weights, np.exp(numerators - top))

    def test_all_zero_likelihood_raises(self):
        core = Conditioned(_system(2, 2, 2, 10))
        with pytest.raises(DegenerateConditioningError):
            core.posterior_weights(np.full(2, -math.inf))


def test_block_sampler_raises_on_zero_likelihood_retained_state():
    partition = generic_partition([2, 2, 2])
    system = MixtureBayesSystem(
        partition,
        [1.0],
        [np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]])],
    )
    with pytest.raises(DegenerateConditioningError):
        training_friendly_gibbs_run(
            system,
            DPolicy((1, 1, 1)),
            SamplerConfig(steps=3, gamma=0.5),
            check_positivity=False,
        )


@pytest.mark.parametrize(
    "run",
    [
        lambda s, p, c: gibbs_run(s, p, c),
        lambda s, p, c: training_friendly_gibbs_run(s, p, c),
        lambda s, p, c: debate_run(s, c),
    ],
    ids=["gibbs", "tf-gibbs", "debate"],
)
def test_positivity_warning_points_at_the_caller(run):
    partition = condiments_partition()
    start = partition.policy_from_names(["burger_mayo", "fries_mayo"])
    with pytest.warns(PositivityWarning) as caught:
        run(condiments_system(0.0), start, SamplerConfig(steps=5, gamma=0.5))
    assert caught[0].filename == __file__
