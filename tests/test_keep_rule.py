"""The one keep rule of a block chain's retained states and coherences: in a
covered space of at most _DRAW_TABLE_CAP policies a chain keeps each on
first sight, so it computes each retained state once; in a wider space it
keeps one only once its key comes round a second time, so a wide chain,
whose states never repeat, holds no memo of either."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from cohopt import (
    Conditioned,
    DPolicy,
    SamplerConfig,
    generate_scenario,
    generic_partition,
    random_mixture_system,
    training_friendly_gibbs_run,
)
from cohopt.experiments import _greedy_assignment
from cohopt.systems import LN2


def _tempered_draw(p, beta, u):
    """Masked tempering and a searchsorted inverse-CDF draw."""
    weights = np.zeros_like(p)
    positive = p > 0
    weights[positive] = np.exp(
        beta * (np.log(p[positive]) - math.log(float(p.max())))
    )
    cum = np.cumsum(weights)
    idx = min(int(np.searchsorted(cum, u * cum[-1], side="right")), p.size - 1)
    while weights[idx] == 0.0 and idx > 0:
        idx -= 1
    return idx


def _reference_block(core, initial, config):
    """The block chain recomputing every round's retained state."""
    rng = np.random.default_rng(config.seed)
    k = len(core.contexts)
    keep = int(math.floor(config.gamma * k))
    lam = config.anchor_weight

    def numerators(skip=()):
        out = core.base.copy()
        for j, emissions in enumerate(core.emissions):
            if j not in skip:
                out += np.log(emissions[:, assignment[j]])
        return out

    def bits():
        n = numerators()
        top = float(n.max())
        return (top + math.log(float(np.exp(n - top).sum())) - core.log_prior_ml) / LN2

    assignment = np.array(initial.assignment, dtype=np.int64)
    trajectory, coherence, moves = [assignment.copy()], [bits()], []
    for t in range(config.steps):
        kept = set(rng.permutation(k)[:keep].tolist())
        resampled = [j for j in range(k) if j not in kept]
        n = numerators(skip=resampled)
        weights = np.exp(n - float(n.max()))
        if t == 0:
            anchor = weights
        for j in resampled:
            use_anchor = lam > 0.0 and (lam >= 1.0 or rng.random() < lam)
            p = (anchor if use_anchor else weights) @ core.emissions[j]
            assignment[j] = _tempered_draw(p, config.beta, rng.random())
        trajectory.append(assignment.copy())
        coherence.append(bits())
        moves.append(resampled)
    return np.array(trajectory), np.array(coherence), np.array(moves, dtype=np.int64)


def _count_posterior_weights(monkeypatch):
    calls = [0]
    shipped = Conditioned.posterior_weights

    def counted(log_numerators):
        calls[0] += 1
        return shipped(log_numerators)

    monkeypatch.setattr(Conditioned, "posterior_weights", staticmethod(counted))
    return calls


@pytest.mark.parametrize("seed", [101, 102])
@pytest.mark.parametrize("anchor", [0.0, 0.5])
def test_study_loop_chain_computes_each_retained_state_once(
    monkeypatch, seed, anchor
):
    # conditioned as run_semi_supervised conditions: the supervised labels
    # as prior, the 6 unsupervised contexts (729 policies) covered
    scenario = generate_scenario(
        12, 3, 2, emission_concentration=5.0, unsupervised_fraction=0.5,
        truth_beta=math.inf, seed=seed,
    )
    system, prior, contexts = scenario.system, scenario.prior_state, scenario.unsupervised
    assert len(contexts) == 6
    initial = _greedy_assignment(system, prior, contexts)
    config = SamplerConfig(beta=2.0, steps=500, seed=seed, anchor_weight=anchor)
    calls = _count_posterior_weights(monkeypatch)
    record = training_friendly_gibbs_run(
        system, initial, config, prior=prior, contexts=contexts,
        check_positivity=False,
    )
    # only retained() weighs the posterior in a chain that skips positivity
    strides = [3 ** (5 - j) for j in range(6)]
    keys = set()
    for row, resampled in zip(record.trajectory[:-1].tolist(), record.moves.tolist()):
        rest = sum(row[j] * strides[j] for j in range(6) if j not in resampled)
        keys.add((tuple(resampled), rest))
    assert len(keys) < config.steps  # retained states repeat in this space
    assert calls[0] == len(keys)

    monkeypatch.undo()
    trajectory, coherence, moves = _reference_block(
        Conditioned(system, prior, contexts), initial, config
    )
    assert np.array_equal(record.trajectory, trajectory)
    assert np.array_equal(record.coherence_bits, coherence)
    assert np.array_equal(record.moves, moves)


def test_wide_block_chain_holds_no_coherence_memo():
    # the chain of test_kept_memory: 40 contexts, 4^40 policies
    system = random_mixture_system(
        generic_partition((4,) * 40), 32, np.random.default_rng(7),
        emission_concentration=0.5,
    )
    initial = DPolicy(tuple(j % 4 for j in range(40)))
    config = SamplerConfig(
        beta=1.0, steps=5_000, seed=3, gamma=0.85, anchor_weight=0.5
    )
    tracemalloc.start()
    try:
        record = training_friendly_gibbs_run(
            system, initial, config, check_positivity=False
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = (
        record.trajectory.nbytes + record.coherence_bits.nbytes
        + record.moves.nbytes
    )
    # beyond its 1.9 MB record the chain holds about 0.38 MB, the hashes of
    # the keys it has seen once; a coherence memo of every visited index
    # held about 0.78 MB
    assert peak - outputs < 0.55e6
