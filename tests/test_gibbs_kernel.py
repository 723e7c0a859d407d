"""The single-site Gibbs kernel (per-run draw tables over a stacked-row
numerator gather) against test-local copies of the loops it replaced: the
position-by-position numerator sum, the searchsorted draw, and the
gibbs_run and debate_run step loops. Every comparison is bitwise."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cohopt import (
    Conditioned,
    DPolicy,
    SamplerConfig,
    debate_run,
    from_joint_table,
    generic_partition,
    gibbs_run,
    random_mixture_system,
    state_of_policy,
)
from cohopt import samplers
from cohopt.errors import DegenerateConditioningError, ValidationError
from cohopt.samplers import _single_site_draws
from cohopt.systems import LN2, _tempered_weights

BETAS = [0.5, 1.0, 2.0, math.inf]


def _reference_numerators(core, assignment, skip=()):
    out = core.base.copy()
    for j in range(len(core.contexts)):
        if j not in skip:
            out += core.log_emissions[j][:, assignment[j]]
    return out


def _reference_draw(weights, u):
    cum = np.cumsum(weights)
    idx = int(np.searchsorted(cum, u * cum[-1], side="right"))
    idx = min(idx, weights.size - 1)
    while weights[idx] == 0.0 and idx > 0:
        idx -= 1
    return idx


def _reference_predictive(core, numerators, position):
    top = float(numerators.max())
    if top == -math.inf:
        raise DegenerateConditioningError("every latent has zero likelihood")
    return np.exp(numerators - top) @ core.emissions[position], top


def _reference_bits(core, assignment):
    numerators = _reference_numerators(core, assignment)
    top = float(numerators.max())
    if top == -math.inf:
        return -math.inf
    value = top + math.log(float(np.exp(numerators - top).sum()))
    return (value - core.log_prior_ml) / LN2


def _reference_gibbs(system, initial, config, prior=None, contexts=None):
    core = Conditioned(system, prior, contexts)
    rng = np.random.default_rng(config.seed)
    assignment = core.validate(initial)
    trajectory = np.empty((config.steps + 1, len(core.contexts)), dtype=np.int64)
    bits = np.empty(config.steps + 1)
    trajectory[0] = assignment
    bits[0] = _reference_bits(core, assignment)
    picks = rng.integers(0, len(core.contexts), size=config.steps)
    uniforms = rng.random(config.steps)
    for t in range(config.steps):
        j = int(picks[t])
        numerators = _reference_numerators(core, assignment, skip=(j,))
        p, top = _reference_predictive(core, numerators, j)
        a_new = _reference_draw(_tempered_weights(p, config.beta), float(uniforms[t]))
        assignment[j] = a_new
        trajectory[t + 1] = assignment
        bits[t + 1] = (top + math.log(float(p[a_new])) - core.log_prior_ml) / LN2
    return trajectory, bits


def _reference_debate(system, config, prior=None, contexts=None):
    core = Conditioned(system, prior, contexts)
    rng = np.random.default_rng(config.seed)

    def draw(p):
        return _reference_draw(_tempered_weights(p, config.beta), float(rng.random()))

    def leave_one_out(state, position):
        numerators = _reference_numerators(core, state, skip=(position,))
        return _reference_predictive(core, numerators, position)[0]

    state = np.zeros(2, dtype=np.int64)
    state[0] = draw(_reference_predictive(core, core.base, 0)[0])
    state[1] = draw(leave_one_out(state, 1))
    trajectory = np.empty((config.steps + 1, 2), dtype=np.int64)
    bits = np.empty(config.steps + 1)
    trajectory[0] = state
    bits[0] = _reference_bits(core, state)
    for t in range(config.steps):
        for position in (1, 0):
            state[position] = draw(leave_one_out(state, position))
        trajectory[t + 1] = state
        bits[t + 1] = _reference_bits(core, state)
    return trajectory, bits


def _mixture(sizes, n_latents, seed):
    rng = np.random.default_rng(seed)
    return random_mixture_system(
        generic_partition(sizes), n_latents, rng, emission_concentration=0.5
    )


def _sparse_joint_system(seed):
    """A from_joint_table system at epsilon 0 (-inf log emissions) whose
    policy 0 has positive mass and about a third of the others none."""
    rng = np.random.default_rng(seed)
    partition = generic_partition((3, 3, 2))
    table = rng.random(partition.policy_count())
    table[rng.random(table.size) < 0.35] = 0.0
    table[0] = 1.0
    return from_joint_table(partition, table / table.sum(), epsilon=0.0)


def _assert_gibbs_matches(system, initial, config, prior=None, contexts=None):
    record = gibbs_run(
        system, initial, config, prior=prior, contexts=contexts,
        check_positivity=False,
    )
    trajectory, bits = _reference_gibbs(system, initial, config, prior, contexts)
    assert np.array_equal(record.trajectory, trajectory)
    assert np.array_equal(record.coherence_bits, bits)


@pytest.mark.parametrize("beta", BETAS)
def test_gibbs_dense_matches_reference(beta):
    for seed in (0, 1, 2):
        system = _mixture((3, 3, 3), 2, 300 + seed)
        config = SamplerConfig(beta=beta, steps=600, seed=seed)
        _assert_gibbs_matches(system, DPolicy((0, 1, 2)), config)


@pytest.mark.parametrize("beta", [1.0, math.inf])
def test_gibbs_wide_matches_reference(beta):
    system = _mixture((4,) * 40, 32, 310)
    config = SamplerConfig(beta=beta, steps=150, seed=4)
    _assert_gibbs_matches(system, DPolicy(tuple(j % 4 for j in range(40))), config)


@pytest.mark.parametrize("k", [9, 12])
@pytest.mark.parametrize("beta", BETAS)
def test_gibbs_single_latent_matches_reference(k, beta):
    # over one latent a plain sum of the k + 1 rows would run pairwise
    system = _mixture((3,) * k, 1, 320 + k)
    config = SamplerConfig(beta=beta, steps=300, seed=k)
    _assert_gibbs_matches(system, DPolicy((0,) * k), config)


@pytest.mark.parametrize("beta", BETAS)
def test_gibbs_joint_table_epsilon_zero_matches_reference(beta):
    for seed in (0, 1, 2):
        system = _sparse_joint_system(330 + seed)
        config = SamplerConfig(beta=beta, steps=400, seed=seed)
        _assert_gibbs_matches(system, DPolicy((0, 0, 0)), config)


@pytest.mark.parametrize("beta", BETAS)
def test_gibbs_prior_over_reversed_subset_matches_reference(beta):
    system = _mixture((3, 2, 4, 3, 2), 4, 340)
    prior = state_of_policy(system.partition, DPolicy((2, 1, 0, 0, 1)), [0, 2])
    contexts = (4, 3, 1)
    config = SamplerConfig(beta=beta, steps=500, seed=5)
    _assert_gibbs_matches(system, DPolicy((1, 2, 0)), config, prior, contexts)


@pytest.mark.parametrize("beta", BETAS)
def test_debate_matches_reference(beta):
    cases = [
        (_mixture((3, 4), 3, 350), None, None),
        (_mixture((3, 3, 3), 2, 351), None, (2, 0)),
        (_sparse_joint_system(352), None, (1, 0)),
    ]
    system = _mixture((3, 2, 4), 3, 353)
    prior = state_of_policy(system.partition, DPolicy((1, 0, 0)), [0])
    cases.append((system, prior, (2, 1)))
    for system, prior, contexts in cases:
        config = SamplerConfig(beta=beta, steps=300, seed=6)
        record = debate_run(
            system, config, prior=prior, contexts=contexts, check_positivity=False
        )
        trajectory, bits = _reference_debate(system, config, prior, contexts)
        assert np.array_equal(record.trajectory, trajectory)
        assert np.array_equal(record.coherence_bits, bits)


@pytest.mark.parametrize(
    "system",
    [
        _mixture((3, 3, 3), 2, 360),
        _mixture((4,) * 40, 32, 361),
        _mixture((3,) * 12, 1, 362),
        _sparse_joint_system(363),
    ],
    ids=["dense", "wide", "single-latent", "joint-epsilon-0"],
)
def test_numerators_match_reference_for_every_skip_kind(system):
    core = Conditioned(system)
    k = len(core.contexts)
    rng = np.random.default_rng(364)
    for _ in range(20):
        assignment = np.array([rng.integers(0, s) for s in core.sizes])
        picked = [int(j) for j in rng.permutation(k)[: max(2, k // 3)]]
        for skip in ((), (picked[0],), picked, set(picked), tuple(range(k))):
            assert np.array_equal(
                core.numerators(assignment, skip),
                _reference_numerators(core, assignment, skip),
            )
        # a DPolicy's tuple of ints reads as the same assignment
        assert np.array_equal(
            core.numerators(tuple(int(a) for a in assignment)),
            _reference_numerators(core, assignment),
        )


def test_numerators_over_no_contexts_are_the_base():
    core = Conditioned(_mixture((3, 3), 2, 370), contexts=())
    assert np.array_equal(core.numerators(()), core.base)


def _impossible_leave_one_out():
    """A from_joint_table system where fries = 1 rules out every burger."""
    partition = generic_partition((2, 2))
    table = np.array([[0.5, 0.0], [0.5, 0.0]])
    return Conditioned(from_joint_table(partition, table, epsilon=0.0))


def test_impossible_leave_one_out_raises_on_every_call():
    core = _impossible_leave_one_out()
    draw = _single_site_draws(core, 1.0)
    state = np.array([0, 1], dtype=np.int64)
    for _ in range(3):
        with pytest.raises(DegenerateConditioningError):
            core.leave_one_out(state, 0)
        with pytest.raises(DegenerateConditioningError):
            draw(state, 0, 0.5)
    # the other position's conditional is possible and drawn as before
    behavior, mass, top = draw(state, 1, 0.5)
    p, expected_top = core.leave_one_out(state, 1)
    assert behavior == _reference_draw(p, 0.5) == 0
    assert (mass, top) == (float(p[0]), expected_top)
    with pytest.raises(DegenerateConditioningError):
        draw(state, 0, 0.5)



def test_gibbs_matches_reference_when_tables_are_dropped(monkeypatch):
    # a cap of 2 drops the tables every few misses, and blocks of 7 steps
    # end mid-run, so both boundaries fall inside the chain
    monkeypatch.setattr(samplers, "_DRAW_TABLE_CAP", 2)
    monkeypatch.setattr(samplers, "_STEP_BLOCK", 7)
    for beta in BETAS:
        config = SamplerConfig(beta=beta, steps=400, seed=8)
        _assert_gibbs_matches(_mixture((3, 3, 3), 2, 380), DPolicy((0, 1, 2)), config)
        _assert_gibbs_matches(_sparse_joint_system(381), DPolicy((0, 0, 0)), config)
    config = SamplerConfig(steps=300, seed=9)
    record = debate_run(_mixture((3, 4), 3, 382), config, check_positivity=False)
    trajectory, bits = _reference_debate(_mixture((3, 4), 3, 382), config)
    assert np.array_equal(record.trajectory, trajectory)
    assert np.array_equal(record.coherence_bits, bits)


@pytest.mark.parametrize(
    "assignment",
    [(0, 3, 0), (0, 0, -1), np.array([0, 0, 9]), (0.0, 1.0, 0.0), (1,), (0, 0),
     (0, 0, 0, 0)],
    ids=["past-end", "negative", "array-past-end", "floats", "length-1",
         "short", "long"],
)
def test_checked_entries_reject_a_bad_assignment(assignment):
    core = Conditioned(_mixture((3, 3, 3), 2, 390))
    with pytest.raises(ValidationError):
        core.coherence_bits(assignment)
    with pytest.raises(ValidationError):
        core.leave_one_out(assignment, 0)
