"""Conditioned.numerators folds its stack of rows with add.reduce down the
slow axis from two latents on, and with add.accumulate at one latent.
Both are checked bitwise against a left fold written in Python floats, one
latent at a time, over more positions than numpy's pairwise sum takes in
one unrolled block, with skips and with -inf rows. A wide single-site
chain, every step of which folds a state's numerators, is checked against
a step loop that folds them in Python floats."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cohopt import (
    Conditioned,
    DPolicy,
    MixtureBayesSystem,
    SamplerConfig,
    generic_partition,
    gibbs_run,
    random_mixture_system,
    state_of_policy,
)
from cohopt.samplers import _draw
from cohopt.systems import LN2, _tempered_weights

LATENTS = [2, 3, 4, 5, 7, 8, 9, 16, 33]
SIZES = (3, 2, 4, 3, 1, 2, 3, 4, 2, 3, 3, 2, 4, 2, 3, 2, 3, 4, 2, 3, 2, 4, 3, 2)


def _system(rng, latents, sizes, zeros):
    """A mixture whose emission rows, where zeros is set, hold one exact zero
    per latent in every context of two or more behaviors, so that the log
    rows hold -inf."""
    weights = rng.dirichlet(np.ones(latents))
    emissions = []
    for size in sizes:
        rows = rng.dirichlet(np.full(size, 0.7), size=latents)
        if zeros and size > 1:
            rows[np.arange(latents), rng.integers(size, size=latents)] = 0.0
            rows /= rows.sum(axis=1, keepdims=True)
        emissions.append(rows)
    return MixtureBayesSystem(generic_partition(sizes), weights, emissions)


def _python_fold(core, assignment, skip=()):
    """base + row_0 + row_1 + ... per latent, in Python floats and in
    position order, leaving out the skipped positions."""
    out = []
    for latent, total in enumerate(core.base.tolist()):
        for j, a in enumerate(assignment):
            if j not in skip:
                total += float(core.log_emissions[j][latent, a])
        out.append(total)
    return np.array(out)


def _same_bits(got, expected):
    return got.dtype == expected.dtype and np.array_equal(
        got.view(np.uint64), expected.view(np.uint64)
    )


def _skips(n):
    return [(), (0,), (n // 2,), (n - 1,), (0, 3, 4, n - 1), tuple(range(1, n, 2))]


@pytest.mark.parametrize("zeros", [False, True])
@pytest.mark.parametrize("latents", LATENTS)
def test_numerators_are_the_python_left_fold(latents, zeros):
    rng = np.random.default_rng(200 + latents)
    system = _system(rng, latents, SIZES, zeros)
    k = len(SIZES)
    # the whole space, and 21 positions in a scrambled order under a prior
    # that latent 0 gives mass
    prior_policy = DPolicy(
        tuple(int(system.emissions(c)[0].argmax()) for c in range(k))
    )
    subset = tuple(int(c) for c in rng.permutation(k)[:21])
    cores = [
        Conditioned(system),
        Conditioned(
            system,
            state_of_policy(system.partition, prior_policy, [1, 4, 6, 7]),
            subset,
        ),
    ]
    hit_neginf = False
    for core in cores:
        n = len(core.contexts)
        assert n >= 20
        for _ in range(8):
            assignment = [int(rng.integers(s)) for s in core.sizes]
            for skip in _skips(n):
                got = core.numerators(assignment, skip)
                expected = _python_fold(core, assignment, skip)
                assert _same_bits(got, expected), (assignment, skip)
                hit_neginf |= bool(np.isneginf(got).any())
    assert hit_neginf == zeros


@pytest.mark.parametrize("zeros", [False, True])
def test_one_latent_forty_positions_are_the_python_left_fold(zeros):
    sizes = (2, 3, 4, 2) * 10
    rng = np.random.default_rng(41)
    core = Conditioned(_system(rng, 1, sizes, zeros))
    for _ in range(10):
        assignment = [int(rng.integers(s)) for s in sizes]
        for skip in _skips(len(sizes)):
            got = core.numerators(assignment, skip)
            assert got.shape == (1,)
            assert _same_bits(got, _python_fold(core, assignment, skip)), skip


def _reference_gibbs(system, initial, config):
    """gibbs_run's single-site chain with each state's numerators folded in
    Python floats: the trajectory and the coherence of every row."""
    core = Conditioned(system)
    k = len(core.contexts)
    rng = np.random.default_rng(config.seed)
    picks = rng.integers(0, k, size=config.steps).tolist()
    uniforms = rng.random(config.steps).tolist()
    assignment = list(initial.assignment)
    trajectory = [list(assignment)]
    bits = [core.coherence_from(_python_fold(core, assignment))]
    for j, u in zip(picks, uniforms):
        p, top = core.predictive(_python_fold(core, assignment, (j,)), j)
        a = _draw(_tempered_weights(p, config.beta), u)
        assignment[j] = a
        trajectory.append(list(assignment))
        bits.append((top + math.log(p[a]) - core.log_prior_ml) / LN2)
    return np.array(trajectory), np.array(bits)


@pytest.mark.parametrize("beta", [1.0, 2.0])
def test_wide_single_site_chain_matches_a_python_fold_step_loop(beta):
    rng = np.random.default_rng(4032)
    system = random_mixture_system(generic_partition([4] * 40), 32, rng)
    initial = system.partition.policy_at(0)
    config = SamplerConfig(beta=beta, steps=300, seed=11)
    record = gibbs_run(system, initial, config, check_positivity=False)
    trajectory, bits = _reference_gibbs(system, initial, config)
    assert np.array_equal(record.trajectory, trajectory)
    assert _same_bits(record.coherence_bits, bits)
    # the chain moves, so the steps fold many different states
    assert len({tuple(row) for row in trajectory.tolist()}) > 100
