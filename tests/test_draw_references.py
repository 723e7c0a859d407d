"""The block sampler and the sequential bootstrap against reference loops
that share neither the draw nor the log-emission table with the samplers:
each draws by its own inverse CDF (np.searchsorted with side="right", then
a step back off zero weights) and adds np.log of the per-context emissions
by hand. Every comparison is bitwise."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cohopt import (
    Conditioned,
    DPolicy,
    SamplerConfig,
    from_joint_table,
    generic_partition,
    random_mixture_system,
    simple_bootstrap_run,
    training_friendly_gibbs_run,
)
from cohopt.systems import LN2, _tempered_weights


def _draw(weights, u):
    cum = np.cumsum(weights)
    idx = min(int(np.searchsorted(cum, u * cum[-1], side="right")), weights.size - 1)
    while weights[idx] == 0.0 and idx > 0:
        idx -= 1
    return idx


def _logs(system):
    with np.errstate(divide="ignore"):
        return [np.log(system.emissions(c)) for c in range(system.partition.n_contexts)]


def _numerators(core, logs, assignment, skip=()):
    """Prior log numerators plus each position outside skip, in position
    order."""
    out = core.base.copy()
    for j, c in enumerate(core.contexts):
        if j not in skip:
            out += logs[c][:, assignment[j]]
    return out


def _weights(numerators):
    return np.exp(numerators - float(numerators.max()))


def _bits(core, numerators):
    top = float(numerators.max())
    if top == -math.inf:
        return -math.inf
    value = top + math.log(float(np.exp(numerators - top).sum()))
    return (value - core.log_prior_ml) / LN2


def _reference_block_run(system, initial, config):
    core = Conditioned(system)
    logs = _logs(system)
    emissions = [system.emissions(c) for c in core.contexts]
    rng = np.random.default_rng(config.seed)
    k = len(core.contexts)
    keep = int(math.floor(config.gamma * k))
    lam = config.anchor_weight
    assignment = np.array(initial.assignment, dtype=np.int64)
    trajectory = [assignment.copy()]
    bits = [_bits(core, _numerators(core, logs, assignment))]
    moves = []
    anchor_p = None
    for t in range(config.steps):
        kept = set(rng.permutation(k)[:keep].tolist())
        resampled = tuple(j for j in range(k) if j not in kept)
        weights = _weights(_numerators(core, logs, assignment, skip=resampled))
        if t == 0 and lam > 0.0:
            anchor_p = [weights @ emissions[j] for j in range(k)]
        for j in resampled:
            use_anchor = lam > 0.0 and (lam >= 1.0 or rng.random() < lam)
            p = anchor_p[j] if use_anchor else weights @ emissions[j]
            assignment[j] = _draw(_tempered_weights(p, config.beta), rng.random())
        trajectory.append(assignment.copy())
        bits.append(_bits(core, _numerators(core, logs, assignment)))
        moves.append(resampled)
    return np.array(trajectory), np.array(bits), np.array(moves, dtype=np.int64)


def _reference_bootstrap(system, order, config):
    core = Conditioned(system)
    logs = _logs(system)
    rng = np.random.default_rng(config.seed)
    if order == "random":
        order = tuple(int(j) for j in rng.permutation(len(core.contexts)))
    assignment = [0] * len(core.contexts)
    numerators = core.base.copy()
    trace = []
    for j in order:
        p = _weights(numerators) @ system.emissions(core.contexts[j])
        weights = _tempered_weights(p, config.beta)
        a = _draw(weights, rng.random())
        trace.append(float(weights[a] / weights.sum()))
        assignment[j] = a
        numerators = numerators + logs[core.contexts[j]][:, a]
    return tuple(assignment), tuple(order), trace


def _systems(k, size, n_latents, seed):
    """A seeded mixture and an epsilon-0 joint table on k contexts."""
    rng = np.random.default_rng(seed)
    partition = generic_partition([size] * k)
    yield random_mixture_system(partition, n_latents, rng, emission_concentration=0.5)
    if size**k <= 729:
        yield from_joint_table(partition, rng.dirichlet([1.0] * size**k), 0.0)


@pytest.mark.parametrize("anchor", [0.0, 0.5, 1.0])
@pytest.mark.parametrize(
    "k,size,n_latents,gamma", [(3, 3, 2, 0.5), (6, 3, 3, 0.85), (40, 4, 16, 0.85)]
)
@pytest.mark.parametrize("beta", [0.5, 1.0, math.inf])
def test_block_sampler_matches_independent_reference(
    anchor, k, size, n_latents, gamma, beta
):
    for seed in (0, 1):
        for system in _systems(k, size, n_latents, 300 + seed):
            config = SamplerConfig(
                beta=beta, steps=30, seed=seed, gamma=gamma, anchor_weight=anchor
            )
            initial = DPolicy(tuple(j % size for j in range(k)))
            record = training_friendly_gibbs_run(
                system, initial, config, check_positivity=False
            )
            trajectory, bits, moves = _reference_block_run(system, initial, config)
            assert np.array_equal(record.trajectory, trajectory)
            assert np.array_equal(record.coherence_bits, bits)
            assert np.array_equal(record.moves, moves)


@pytest.mark.parametrize("k,size,n_latents", [(3, 3, 2), (6, 3, 3), (40, 4, 16)])
@pytest.mark.parametrize("beta", [0.5, 1.0, math.inf])
def test_bootstrap_matches_independent_reference(k, size, n_latents, beta):
    for seed in (0, 1, 2):
        for system in _systems(k, size, n_latents, 400 + seed):
            config = SamplerConfig(beta=beta, seed=seed)
            explicit = tuple(
                int(j) for j in np.random.default_rng(seed).permutation(k)
            )
            for order in ("random", explicit):
                result = simple_bootstrap_run(system, order, config)
                policy, visited, trace = _reference_bootstrap(system, order, config)
                assert result.policy.assignment == policy
                assert result.order == visited
                assert np.array_equal(
                    np.array(result.step_probabilities), np.array(trace)
                )
