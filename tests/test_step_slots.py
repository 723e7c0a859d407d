"""gibbs_run's two step bodies against a test-local step loop, bit for bit:
the slot table, taken where a chain has at least as many steps as (state,
position) keys, and the inline body elsewhere; with and without the int64
state that the kept tables read on a miss where they fold a conditional per
state. Also the empty covered space, which the single-site kernel rejects."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cohopt import (
    Conditioned,
    DPolicy,
    SamplerConfig,
    from_joint_table,
    generate_scenario,
    generic_partition,
    gibbs_run,
    gibbs_step_probability,
    random_mixture_system,
)
from cohopt import samplers
from cohopt.errors import DegenerateConditioningError, ValidationError
from cohopt.systems import LN2, _tempered_weights

BETAS = (0.5, 1.0, 2.0, math.inf)
DENSE = (3, 3, 3)
DENSE_KEYS = len(DENSE) * math.prod(DENSE)  # 81


def _numerators(core, assignment, j):
    """The log numerators of every position but j, added in position order."""
    out = core.base.copy()
    for i, a in enumerate(assignment):
        if i != j:
            out += core.log_emissions[i][:, a]
    return out


def _draw(weights, u):
    cum = np.cumsum(weights)
    idx = min(int(np.searchsorted(cum, u * cum[-1], side="right")), weights.size - 1)
    while weights[idx] == 0.0 and idx > 0:
        idx -= 1
    return idx


def _reference_chain(system, initial, config, prior=None, contexts=None):
    """Trajectory, coherence bits and moves of a single-site chain, one step
    at a time from the numerators; raises DegenerateConditioningError at an
    impossible conditional."""
    core = Conditioned(system, prior, contexts)
    rng = np.random.default_rng(config.seed)
    assignment = [int(a) for a in initial.assignment]
    k = len(assignment)
    picks = rng.integers(0, k, size=config.steps).tolist()
    uniforms = rng.random(config.steps).tolist()
    trajectory = [list(assignment)]
    bits = [core.coherence_bits(np.array(assignment))]
    for j, u in zip(picks, uniforms):
        numerators = _numerators(core, assignment, j)
        top = float(numerators.max())
        if top == -math.inf:
            raise DegenerateConditioningError("every latent has zero likelihood")
        p = np.exp(numerators - top) @ core.emissions[j]
        a = _draw(_tempered_weights(p, config.beta), u)
        assignment[j] = a
        trajectory.append(list(assignment))
        bits.append((top + math.log(float(p[a])) - core.log_prior_ml) / LN2)
    return np.array(trajectory), bits, picks


def _assert_matches(system, initial, config, prior=None, contexts=None):
    record = gibbs_run(
        system, initial, config, prior=prior, contexts=contexts,
        check_positivity=False,
    )
    trajectory, bits, picks = _reference_chain(system, initial, config, prior, contexts)
    assert np.array_equal(record.trajectory, trajectory)
    assert [float(b).hex() for b in record.coherence_bits] == [b.hex() for b in bits]
    assert record.moves[:, 0].tolist() == picks
    return record


def _mixture(sizes, n_latents, seed):
    rng = np.random.default_rng(seed)
    return random_mixture_system(
        generic_partition(sizes), n_latents, rng, emission_concentration=0.5
    )


class _CountingMath:
    """The math module, counting calls of log."""

    def __init__(self) -> None:
        self.logs = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def log(self, x):
        self.logs += 1
        return math.log(x)


def _watch_conditionals(monkeypatch, share=False):
    """Patch samplers._kept_tables so that every conditional() call is
    logged as (assignment copy or None, position, rest, raised); with
    share, every chain gets the first chain's kept tables."""
    calls = []
    made = []
    make = samplers._kept_tables

    def watched(core, beta=1.0):
        if share and made:
            return made[0]
        kept = make(core, beta)
        conditional = kept.conditional

        def logged(assignment, position, rest):
            copy = None if assignment is None else assignment.tolist()
            try:
                table = conditional(assignment, position, rest)
            except DegenerateConditioningError:
                calls.append((copy, position, rest, True))
                raise
            calls.append((copy, position, rest, False))
            return table

        kept.conditional = logged
        made.append(kept)
        return kept

    monkeypatch.setattr(samplers, "_kept_tables", watched)
    return calls, made


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize(
    "steps", [DENSE_KEYS, DENSE_KEYS - 1], ids=["keys", "keys+1"]
)
def test_chain_at_the_gate_edge_matches_and_logs_once_per_key_in_slots(
    monkeypatch, beta, steps
):
    system = _mixture(DENSE, 2, 21)
    shim = _CountingMath()
    monkeypatch.setattr(samplers, "math", shim)
    config = SamplerConfig(beta=beta, steps=steps, seed=3)
    record = _assert_matches(system, DPolicy((0, 1, 2)), config)
    keys = set(zip(record.policy_indices()[1:].tolist(), record.moves[:, 0].tolist()))
    # the slot table takes one log per visited key, the inline body one per step
    assert shim.logs == (len(keys) if steps == DENSE_KEYS else steps)
    assert len(keys) < steps


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("steps", [600, 60], ids=["slots", "inline"])
def test_synced_chain_matches_and_hands_its_current_state_to_a_miss(
    monkeypatch, beta, steps
):
    # a numerator table budget of 8 entries folds no conditional of a
    # 3x3x3 two-latent space as a table, so every miss reads the state
    monkeypatch.setattr(samplers, "_BLOCK_ENTRIES", 8)
    calls, made = _watch_conditionals(monkeypatch)
    config = SamplerConfig(beta=beta, steps=steps, seed=4)
    _assert_matches(_mixture(DENSE, 2, 22), DPolicy((2, 0, 1)), config)
    (kept,) = made
    assert type(kept) is samplers._KeptTables and not kept.foldable
    assert calls
    for assignment, j, rest, raised in calls:
        assert not raised
        assert kept.index(assignment) - assignment[j] * kept.strides[j] == rest


@pytest.mark.parametrize("beta", BETAS)
def test_chains_converted_seven_steps_at_a_time_match(monkeypatch, beta):
    monkeypatch.setattr(samplers, "_STEP_BLOCK", 7)
    system = _mixture(DENSE, 2, 23)
    start = DPolicy((1, 1, 0))
    for steps in (500, DENSE_KEYS - 1):
        _assert_matches(system, start, SamplerConfig(beta=beta, steps=steps, seed=5))
    monkeypatch.setattr(samplers, "_BLOCK_ENTRIES", 8)
    _assert_matches(system, start, SamplerConfig(beta=beta, steps=500, seed=5))


def _impossible_joint():
    """A joint table at epsilon 0 whose cells (b, 1, 1) are all zero, so
    that from the start (0, 1, 1) position 0's conditional is impossible
    and positions 1 and 2 have possible ones."""
    rng = np.random.default_rng(24)
    cube = rng.random((3, 3, 2)) + 0.1
    cube[:, 1, 1] = 0.0
    cube[2, 2, 0] = 0.0
    table = (cube / cube.sum()).ravel()
    system = from_joint_table(generic_partition((3, 3, 2)), table, 0.0)
    return system, DPolicy((0, 1, 1))


@pytest.mark.parametrize("beta", BETAS)
def test_impossible_conditional_raises_on_every_visit_and_is_never_kept(
    monkeypatch, beta
):
    system, start = _impossible_joint()
    # every chain shares one kept tables, so that a kept conditional would
    # serve a later chain's visit instead of raising
    calls, made = _watch_conditionals(monkeypatch, share=True)
    raised = 0
    for seed in range(24):  # seeds 11, 14, 21 and 23 pick position 0 first
        config = SamplerConfig(beta=beta, steps=60, seed=seed)  # 54 keys
        try:
            _reference_chain(system, start, config)
        except DegenerateConditioningError:
            with pytest.raises(DegenerateConditioningError):
                gibbs_run(system, start, config, check_positivity=False)
            raised += 1
        else:
            _assert_matches(system, start, config)
    (kept,) = made
    assert raised == 4
    # each raise is position 0's conditional at rest 3 (the start's index
    # 0·6 + 1·2 + 1 with position 0 zeroed), handed no state, never kept
    assert [call for call in calls if call[3]] == [(None, 0, 3, True)] * raised
    assert 3 * 3 + 0 not in kept.tables


def test_unsynced_chains_hand_none_to_every_miss(monkeypatch):
    calls, made = _watch_conditionals(monkeypatch)
    config = SamplerConfig(steps=400, seed=6)
    _assert_matches(_mixture(DENSE, 2, 25), DPolicy((0, 0, 0)), config)
    scenario = generate_scenario(12, 3, 2, seed=3)
    # the study shape: 6 * 3^6 = 4,374 keys over 2,000 steps, inline
    _assert_matches(
        scenario.system, scenario._greedy_start, SamplerConfig(steps=2_000, seed=7),
        scenario.prior_state, scenario.unsupervised,
    )
    assert len(made) == 2 and all(kept.foldable for kept in made)
    assert calls and all(call[0] is None for call in calls)


def test_gibbs_run_over_no_contexts_raises_validation_error():
    system = _mixture(DENSE, 2, 26)
    with pytest.raises(ValidationError, match="at least one covered context"):
        gibbs_run(system, DPolicy(()), SamplerConfig(steps=10, seed=1), contexts=[])


def test_gibbs_step_probability_over_no_contexts_raises_validation_error():
    system = _mixture(DENSE, 2, 27)
    with pytest.raises(ValidationError, match="at least one covered context"):
        gibbs_step_probability(system, DPolicy(()), DPolicy(()), 1.0, contexts=[])
