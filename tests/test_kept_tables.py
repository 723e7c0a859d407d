"""The kept draw tables of the Markov chains against test-local loops that
recompute everything every round: long block chains, whose retained states
repeat and whose anchor tables are reused, and single-site Gibbs chains,
whose trajectory is forward-filled a block of steps at a time. Each runs as
it ships and with the table cap at 2, so that tables are dropped mid-run.
Every comparison is bitwise."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cohopt import (
    Conditioned,
    DPolicy,
    SamplerConfig,
    generic_partition,
    gibbs_run,
    random_mixture_system,
    training_friendly_gibbs_run,
)
from cohopt import samplers
from cohopt.systems import LN2, _tempered_weights

CAPS = [None, 2]  # None: the shipped _DRAW_TABLE_CAP


def _mixture(sizes, n_latents, seed):
    rng = np.random.default_rng(seed)
    return random_mixture_system(
        generic_partition(sizes), n_latents, rng, emission_concentration=0.5
    )


def _numerators(core, assignment, skip=()):
    """The prior's log numerators plus each position outside skip, added in
    position order."""
    out = core.base.copy()
    for j, emissions in enumerate(core.emissions):
        if j not in skip:
            out += np.log(emissions[:, assignment[j]])
    return out


def _tempered_draw(p, beta, u):
    weights = _tempered_weights(p, beta)
    cum = np.cumsum(weights)
    idx = min(int(np.searchsorted(cum, u * cum[-1], side="right")), p.size - 1)
    while weights[idx] == 0.0 and idx > 0:
        idx -= 1
    return idx


def _bits(core, assignment):
    numerators = _numerators(core, assignment)
    top = float(numerators.max())
    value = top + math.log(float(np.exp(numerators - top).sum()))
    return (value - core.log_prior_ml) / LN2


def _reference_block(system, initial, config):
    """Every round: the permutation, the retained state's posterior, and
    per resampled position the anchor uniform and the draw uniform."""
    core = Conditioned(system)
    rng = np.random.default_rng(config.seed)
    k = len(core.contexts)
    keep = int(math.floor(config.gamma * k))
    lam = config.anchor_weight
    assignment = np.array(initial.assignment, dtype=np.int64)
    trajectory, bits, moves = [assignment.copy()], [_bits(core, assignment)], []
    anchor_weights = None
    for t in range(config.steps):
        kept = set(rng.permutation(k)[:keep].tolist())
        resampled = [j for j in range(k) if j not in kept]
        numerators = _numerators(core, assignment, skip=resampled)
        weights = np.exp(numerators - float(numerators.max()))
        if t == 0:
            anchor_weights = weights
        for j in resampled:
            use_anchor = lam > 0.0 and (lam >= 1.0 or rng.random() < lam)
            source = anchor_weights if use_anchor else weights
            p = source @ core.emissions[j]
            assignment[j] = _tempered_draw(p, config.beta, rng.random())
        trajectory.append(assignment.copy())
        bits.append(_bits(core, assignment))
        moves.append(resampled)
    return np.array(trajectory), np.array(bits), np.array(moves, dtype=np.int64)


def _reference_gibbs(system, initial, config):
    """Every step: the leave-one-out conditional, its draw, one new row."""
    core = Conditioned(system)
    rng = np.random.default_rng(config.seed)
    picks = rng.integers(0, len(core.contexts), size=config.steps)
    uniforms = rng.random(config.steps)
    assignment = np.array(initial.assignment, dtype=np.int64)
    trajectory, bits = [assignment.copy()], [_bits(core, assignment)]
    for j, u in zip(picks.tolist(), uniforms.tolist()):
        numerators = _numerators(core, assignment, skip=(j,))
        top = float(numerators.max())
        p = np.exp(numerators - top) @ core.emissions[j]
        assignment[j] = a = _tempered_draw(p, config.beta, u)
        trajectory.append(assignment.copy())
        bits.append((top + math.log(float(p[a])) - core.log_prior_ml) / LN2)
    return np.array(trajectory), np.array(bits), picks[:, None]


def _assert_matches(record, reference):
    trajectory, bits, moves = reference
    assert np.array_equal(record.trajectory, trajectory)
    assert np.array_equal(record.coherence_bits, bits)
    assert np.array_equal(record.moves, moves)


def _set_cap(monkeypatch, cap):
    if cap is not None:
        monkeypatch.setattr(samplers, "_DRAW_TABLE_CAP", cap)


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, math.inf])
@pytest.mark.parametrize("anchor", [0.0, 0.5, 1.0])
def test_long_dense_block_chain_matches_reference(monkeypatch, cap, beta, anchor):
    _set_cap(monkeypatch, cap)
    system = _mixture((3, 3, 3), 2, 500)
    initial = DPolicy((0, 1, 2))
    config = SamplerConfig(
        beta=beta, steps=2_000, seed=11, gamma=0.5, anchor_weight=anchor
    )
    record = training_friendly_gibbs_run(system, initial, config)
    _assert_matches(record, _reference_block(system, initial, config))
    # the 9 retained states of a 3x3x3 chain repeat: the kept tables served
    # most rounds, and every position was resampled
    assert np.unique(record.policy_indices()).size <= 27
    assert set(record.moves.ravel().tolist()) == {0, 1, 2}


@pytest.mark.parametrize("cap", CAPS)
def test_wide_block_chain_matches_reference(monkeypatch, cap):
    _set_cap(monkeypatch, cap)
    system = _mixture((4,) * 40, 16, 501)
    initial = DPolicy(tuple(j % 4 for j in range(40)))
    config = SamplerConfig(
        beta=1.0, steps=200, seed=12, gamma=0.85, anchor_weight=0.5
    )
    record = training_friendly_gibbs_run(
        system, initial, config, check_positivity=False
    )
    _assert_matches(record, _reference_block(system, initial, config))


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("beta", [0.5, 1.0, math.inf])
def test_gibbs_trajectory_fills_across_step_blocks(monkeypatch, cap, beta):
    _set_cap(monkeypatch, cap)
    monkeypatch.setattr(samplers, "_STEP_BLOCK", 7)
    for system, initial in (
        (_mixture((3, 3, 3), 2, 502), DPolicy((2, 0, 1))),
        (_mixture((2, 5, 3, 4), 3, 503), DPolicy((1, 4, 0, 3))),
    ):
        # 7 does not divide 100: the last block holds two steps
        config = SamplerConfig(beta=beta, steps=100, seed=13)
        record = gibbs_run(system, initial, config)
        _assert_matches(record, _reference_gibbs(system, initial, config))


@pytest.mark.parametrize("steps", [1, 6, 7, 8])
def test_gibbs_trajectory_at_block_edges(monkeypatch, steps):
    monkeypatch.setattr(samplers, "_STEP_BLOCK", 7)
    system = _mixture((3, 4), 2, 504)
    config = SamplerConfig(steps=steps, seed=14)
    record = gibbs_run(system, DPolicy((1, 2)), config)
    _assert_matches(record, _reference_gibbs(system, DPolicy((1, 2)), config))
