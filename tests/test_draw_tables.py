"""The one builder of a per-state draw table, _draw_table, against
np.cumsum and tolist() by float.hex; the kept conditionals and block
predictives it fills, against test-local per-state references; wide
single-site, block and debate chains away from beta 1, bitwise against
test-local chains; the 1-D posterior gemv as weights.dot(emissions) against
weights @ emissions on the core's own emission arrays; and two entry
points past the int64 range: generate_scenario past 2^63 policies, and the
visit indices and empirical distribution of a chain past int64 or past a
cap."""

from __future__ import annotations

import math

import numpy as np
import pytest
from click.testing import CliRunner

from cohopt import (
    Conditioned,
    DPolicy,
    SamplerConfig,
    debate_run,
    generate_scenario,
    generic_partition,
    gibbs_run,
    random_mixture_system,
    training_friendly_gibbs_run,
)
from cohopt.analysis import empirical_distribution
from cohopt.cli import main
from cohopt.errors import EnumerationCapError
from cohopt.samplers import _draw_table, _kept_tables, _KeptTables
from cohopt.systems import LN2, _tempered_weights

BETAS = [0.5, 1.0, 2.0, math.inf]
OFF_ONE = [0.5, 2.0, math.inf]

ROWS = [
    [0.2, 0.5, 0.3],
    [1.0],
    [0.0, 0.7, 0.0, 0.3],  # zeros
    [5e-324, 1e-310, 0.5, 2.5e-308],  # subnormals
    [0.25, 0.25, 0.25, 0.25],  # ties
    [0.4, 0.1, 0.4, 0.1],
    [0.0, 0.0, 1.0],  # one-hot
    [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3.0e-17, 0.9, 1e-300, 0.1, 0.1 + 1e-16],
]


def _hex(values) -> list[str]:
    return [float.hex(float(v)) for v in values]


def _rows():
    rng = np.random.default_rng(31)
    rows = [np.array(row) for row in ROWS]
    for size in range(1, 9):
        for scale in (1.0, 1e-200, 1e200):
            row = rng.random(size) * scale
            row[rng.random(size) < 0.3] = 0.0
            row[rng.integers(size)] = scale  # a positive maximum
            rows.append(row)
    return rows


@pytest.mark.parametrize("beta", BETAS)
def test_draw_table_is_cumsum_and_tolist(beta):
    for p in _rows():
        w = _tempered_weights(p, beta)
        cum, weights, masses = _draw_table(p, beta)
        assert all(type(v) is float for v in (*cum, *weights, *masses))
        assert _hex(cum) == _hex(np.cumsum(w).tolist())
        assert _hex(weights) == _hex(w.tolist())
        assert _hex(masses) == _hex(p.tolist())
        # one list at beta 1, where the weights are the masses themselves
        assert (weights is masses) == (beta == 1.0)


def _mixture(sizes, n_latents, seed):
    rng = np.random.default_rng(seed)
    return random_mixture_system(
        generic_partition(sizes), n_latents, rng, emission_concentration=0.5
    )


def _numerators(core, assignment, skip=()):
    """The prior's log numerators plus each position outside skip, added in
    position order."""
    out = core.base.copy()
    for j in range(len(core.contexts)):
        if j not in skip:
            out += core.log_emissions[j][:, assignment[j]]
    return out


def _predictive(core, numerators, position):
    top = float(numerators.max())
    return np.exp(numerators - top) @ core.emissions[position], top


def _reference_table(p, beta):
    w = _tempered_weights(p, beta)
    return np.cumsum(w).tolist(), w.tolist(), p.tolist()


def _reference_draw(p, beta, u):
    weights = _tempered_weights(p, beta)
    cum = np.cumsum(weights)
    idx = min(int(np.searchsorted(cum, u * cum[-1], side="right")), p.size - 1)
    while weights[idx] == 0.0 and idx > 0:
        idx -= 1
    return idx


@pytest.mark.parametrize("beta", BETAS)
def test_kept_conditional_is_the_per_state_reference(beta):
    core = Conditioned(_mixture((4,) * 40, 32, 410))
    kept = _kept_tables(core, beta)
    assert type(kept) is _KeptTables  # every miss builds one state's table
    rng = np.random.default_rng(411)
    for _ in range(20):
        assignment = rng.integers(0, 4, size=40)
        state = assignment.tolist()
        index = kept.index(state)
        j = int(rng.integers(40))
        rest = index - state[j] * kept.strides[j]
        p, top = _predictive(core, _numerators(core, assignment, (j,)), j)
        for _ in range(2):  # the miss, then the kept table
            cum, weights, masses, got_top = kept.conditional(assignment, j, rest)
            assert [_hex(cum), _hex(weights), _hex(masses)] == [
                _hex(part) for part in _reference_table(p, beta)
            ]
            assert float.hex(got_top) == float.hex(top)
            assert (weights is masses) == (beta == 1.0)


@pytest.mark.parametrize("beta", BETAS)
def test_kept_block_predictive_is_the_per_state_reference(beta):
    core = Conditioned(_mixture((4,) * 40, 32, 420))
    kept = _kept_tables(core, beta)
    rng = np.random.default_rng(421)
    for _ in range(10):
        assignment = rng.integers(0, 4, size=40)
        resampled = tuple(sorted(rng.choice(40, size=6, replace=False).tolist()))
        state = assignment.tolist()
        rest = kept.index(state) - sum(state[j] * kept.strides[j] for j in resampled)
        retained = kept.retained(assignment, resampled, rest)
        numerators = _numerators(core, assignment, resampled)
        for j in resampled:
            p, _ = _predictive(core, numerators, j)
            table = kept.predictive(retained, j)
            assert [_hex(part) for part in table] == [
                _hex(part) for part in _reference_table(p, beta)
            ]
            assert kept.predictive(retained, j) is table  # built once


def _bits(core, assignment):
    numerators = _numerators(core, assignment)
    top = float(numerators.max())
    value = top + math.log(float(np.exp(numerators - top).sum()))
    return (value - core.log_prior_ml) / LN2


def _reference_gibbs(system, initial, config):
    core = Conditioned(system)
    rng = np.random.default_rng(config.seed)
    assignment = core.validate(initial)
    bits = [_bits(core, assignment)]
    picks = rng.integers(0, len(core.contexts), size=config.steps)
    uniforms = rng.random(config.steps)
    rows = [assignment.copy()]
    for j, u in zip(picks.tolist(), uniforms.tolist()):
        p, top = _predictive(core, _numerators(core, assignment, (j,)), j)
        a = _reference_draw(p, config.beta, u)
        assignment[j] = a
        rows.append(assignment.copy())
        bits.append((top + math.log(float(p[a])) - core.log_prior_ml) / LN2)
    return np.array(rows), np.array(bits)


def _reference_block(system, initial, config):
    core = Conditioned(system)
    rng = np.random.default_rng(config.seed)
    assignment = core.validate(initial)
    k = len(core.contexts)
    keep = int(math.floor(config.gamma * k))
    lam = config.anchor_weight
    rows, bits = [assignment.copy()], [_bits(core, assignment)]
    for t in range(config.steps):
        resampled = sorted(rng.permutation(k)[keep:].tolist())
        numerators = _numerators(core, assignment, resampled)
        if t == 0:
            anchor = numerators  # round 0's retained state
        for j in resampled:
            use_anchor = lam > 0.0 and (lam >= 1.0 or rng.random() < lam)
            p, _ = _predictive(core, anchor if use_anchor else numerators, j)
            assignment[j] = _reference_draw(p, config.beta, rng.random())
        rows.append(assignment.copy())
        bits.append(_bits(core, assignment))
    return np.array(rows), np.array(bits)


def _reference_debate(system, config):
    core = Conditioned(system)
    rng = np.random.default_rng(config.seed)

    def draw(state, position):
        p, _ = _predictive(core, _numerators(core, state, (position,)), position)
        return _reference_draw(p, config.beta, rng.random())

    state = np.zeros(2, dtype=np.int64)
    state[0] = _reference_draw(
        _predictive(core, core.base, 0)[0], config.beta, rng.random()
    )
    state[1] = draw(state, 1)
    rows = [state.copy()]
    for _ in range(config.steps):
        for position in (1, 0):
            state[position] = draw(state, position)
        rows.append(state.copy())
    return np.array(rows), np.array([_bits(core, row) for row in rows])


WIDE_START = DPolicy(tuple(j % 4 for j in range(40)))


@pytest.mark.parametrize("beta", OFF_ONE)
def test_wide_gibbs_matches_reference(beta):
    system = _mixture((4,) * 40, 32, 430)
    config = SamplerConfig(beta=beta, steps=150, seed=5)
    record = gibbs_run(system, WIDE_START, config, check_positivity=False)
    trajectory, bits = _reference_gibbs(system, WIDE_START, config)
    assert np.array_equal(record.trajectory, trajectory)
    assert _hex(record.coherence_bits) == _hex(bits)


@pytest.mark.parametrize("anchor", [0.0, 0.5])
@pytest.mark.parametrize("beta", OFF_ONE)
def test_wide_block_chain_matches_reference(beta, anchor):
    system = _mixture((4,) * 40, 32, 440)
    config = SamplerConfig(
        beta=beta, steps=30, seed=6, gamma=0.85, anchor_weight=anchor
    )
    record = training_friendly_gibbs_run(
        system, WIDE_START, config, check_positivity=False
    )
    trajectory, bits = _reference_block(system, WIDE_START, config)
    assert np.array_equal(record.trajectory, trajectory)
    assert _hex(record.coherence_bits) == _hex(bits)


@pytest.mark.parametrize("beta", OFF_ONE)
def test_wide_debate_matches_reference(beta):
    # 6,400 policies: past the batched tables, so every table is per state
    system = _mixture((80, 80), 32, 450)
    assert type(_kept_tables(Conditioned(system), beta)) is _KeptTables
    config = SamplerConfig(beta=beta, steps=120, seed=7)
    record = debate_run(system, config, check_positivity=False)
    trajectory, bits = _reference_debate(system, config)
    assert np.array_equal(record.trajectory, trajectory)
    assert _hex(record.coherence_bits) == _hex(bits)


@pytest.mark.parametrize("n_latents", [1, 2, 3, 5, 8, 13, 16, 31, 32, 33, 64])
def test_posterior_gemv_dot_is_matmul(n_latents):
    rng = np.random.default_rng(460 + n_latents)
    system = random_mixture_system(
        generic_partition([1, 2, 3, 4, 5, 6]), n_latents, rng, emission_concentration=0.5
    )
    core = Conditioned(system)
    for c, emissions in enumerate(core.emissions):
        assert emissions is system.emissions(c)  # systems._predictive's arrays
        for _ in range(20):
            numerators = rng.normal(scale=30.0, size=n_latents)
            numerators[rng.random(n_latents) < 0.2] = -math.inf
            numerators[rng.integers(n_latents)] = 0.0
            weights, _ = core.posterior_weights(numerators)
            assert weights.dot(emissions).tobytes() == (weights @ emissions).tobytes()


def test_generate_scenario_past_int64_policies_hits_the_cap():
    with pytest.raises(EnumerationCapError):
        generate_scenario(40, 3, 2, truth_beta=math.inf)
    result = CliRunner().invoke(
        main,
        ["equiv", "--n-contexts", "40", "--truth-beta", "inf", "--lattice", "1",
         "--n-seeds", "1"],
    )
    assert result.exit_code == 4, result.output


def test_visit_indices_past_int64_hit_the_cap():
    partition = generic_partition([4] * 40)
    system = random_mixture_system(partition, 2, np.random.default_rng(480))
    record = gibbs_run(
        system, partition.policy_at(0), SamplerConfig(steps=3, seed=1),
        check_positivity=False,
    )
    with pytest.raises(EnumerationCapError):
        record.policy_indices()
    with pytest.raises(EnumerationCapError):
        empirical_distribution(record)


def test_empirical_distribution_checks_its_cap():
    system = _mixture((3, 3, 3), 2, 490)
    record = gibbs_run(system, DPolicy((0, 0, 0)), SamplerConfig(steps=3, seed=1))
    with pytest.raises(EnumerationCapError):
        empirical_distribution(record, cap=10)
    counts = np.bincount(record.policy_indices(), minlength=27)
    dist = empirical_distribution(record, cap=27)
    assert np.array_equal(dist.masses, counts / counts.sum())
