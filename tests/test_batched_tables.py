"""The batched kept tables of a small covered space: _BatchedTables builds
the conditionals or leave-one-outs of every state of one skipped position,
and the coherences of every state, in one stacked pass each.

Every value must be bitwise (compared as 64-bit patterns) what a test-local
one-row reference gives: the per-state fold, posterior_weights, one gemv,
_tempered_weights, cumsum and tolist, one sum and coherence_from. Cases run
over 1, 2, 3, 4, 7 and 32 latents, beta 0.5, 1, 2 and inf, priors over
reversed context subsets, and joint tables at epsilon 0, whose degenerate
leave-one-out states must raise on every visit and never be kept. A table
cap of 2 and a wide space take the per-state tables and build no batch.
Study-loop gibbs, tf-gibbs and icm runs must equal reference loops that
weigh one state at a time."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from cohopt import (
    Conditioned,
    DegenerateConditioningError,
    DPolicy,
    PolicyState,
    SamplerConfig,
    from_joint_table,
    generate_scenario,
    generic_partition,
    gibbs_run,
    icm_hill_climb,
    random_mixture_system,
    training_friendly_gibbs_run,
)
from cohopt import samplers
from cohopt.samplers import _BatchedTables, _KeptTables, _kept_tables
from cohopt.systems import LN2, _tempered_rows, _tempered_weights

LATENTS = (1, 2, 3, 4, 7, 32)
BETAS = (0.5, 1.0, 2.0, math.inf)


def _mixture(sizes, n_latents, seed):
    rng = np.random.default_rng(seed)
    return random_mixture_system(
        generic_partition(sizes), n_latents, rng, emission_concentration=0.5
    )


def _joint(sizes, seed):
    """A joint table at epsilon 0 with about three fifths of its cells zero."""
    rng = np.random.default_rng(seed)
    table = rng.random(math.prod(sizes)) * (rng.random(math.prod(sizes)) > 0.6)
    table[0] = 1.0  # never all zero
    return from_joint_table(generic_partition(sizes), table / table.sum(), 0.0)


def _cores():
    """(name, core): full spaces, priors over reversed context subsets, and
    joint tables at epsilon 0 with and without a prior."""
    for n_latents in LATENTS:
        system = _mixture((3, 2, 4, 3), n_latents, 40 + n_latents)
        yield f"mixture-{n_latents}", Conditioned(system)
        system = _mixture((2, 3, 3, 2, 4), n_latents, 50 + n_latents)
        prior = PolicyState({0: 1, 2: 2})  # behaviors of context 0 and 1
        yield f"reversed-{n_latents}", Conditioned(system, prior, (4, 3, 2))
    for seed in (60, 63, 64):  # each with and without a prior has degenerate rows
        system = _joint((3, 2, 3), seed)
        yield f"joint-{seed}", Conditioned(system)
        yield f"joint-prior-{seed}", Conditioned(system, PolicyState({3: 1}), (2, 0))


CORES = list(_cores())
IDS = [name for name, _ in CORES]


def _states(sizes):
    for values in itertools.product(*(range(size) for size in sizes)):
        yield np.array(values, dtype=np.int64)


def _same(got, expected):
    """Bitwise equality of two floats or two lists of floats (so 0.0 and
    -0.0 differ, and a NaN never passes for a number)."""
    got, expected = np.atleast_1d(got), np.atleast_1d(expected)
    return (
        got.dtype == expected.dtype == np.float64
        and np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    )


# --- one-row references ------------------------------------------------------


def _one_row(core, assignment, j):
    """Position j's predictive given every other position, one state at a
    time: the fold, posterior_weights and one gemv."""
    weights, top = Conditioned.posterior_weights(core.numerators(assignment, (j,)))
    return weights @ core.emissions[j], top


def _conditional(core, assignment, j, beta):
    p, top = _one_row(core, assignment, j)
    tempered = _tempered_weights(p, beta)
    return np.cumsum(tempered).tolist(), tempered.tolist(), p.tolist(), top


def _leave_one_out(core, assignment, j):
    p, _ = _one_row(core, assignment, j)
    return p.tolist(), float(p.sum())


def _coherence(core, assignment):
    return core.coherence_from(core.numerators(assignment))


def _outcome(function, *args):
    try:
        return function(*args)
    except DegenerateConditioningError as error:
        return type(error)


def _count_tables(monkeypatch):
    built = [0]
    shipped = Conditioned.numerator_table

    def counted(self, skip=()):
        built[0] += 1
        return shipped(self, skip)

    monkeypatch.setattr(Conditioned, "numerator_table", counted)
    return built


# --- every row of every batch ------------------------------------------------


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("name, core", CORES, ids=IDS)
def test_conditionals_are_the_one_row_reference(monkeypatch, name, core, beta):
    built = _count_tables(monkeypatch)
    kept = _kept_tables(core, beta)
    assert type(kept) is _BatchedTables
    degenerate = 0
    for assignment in _states(core.sizes):
        state = assignment.tolist()
        index = kept.index(state)
        for j in range(len(core.sizes)):
            rest = index - state[j] * kept.strides[j]
            expected = _outcome(_conditional, core, assignment, j, beta)
            if expected is DegenerateConditioningError:
                degenerate += 1
                for _ in range(2):  # on every visit
                    with pytest.raises(DegenerateConditioningError):
                        kept.conditional(assignment, j, rest)
                assert rest * len(core.sizes) + j not in kept.tables
                continue
            for _ in range(2):  # the miss, then the kept table
                got = kept.conditional(assignment, j, rest)
                assert len(got) == 4 and type(got[3]) is float
                for part, want in zip(got, expected):
                    assert _same(part, want), (name, beta, state, j)
    assert set(kept.draws) == set(range(len(core.sizes)))
    if "joint" in name:
        assert degenerate  # these tables do have impossible states
    else:
        assert built[0] == len(core.sizes)  # one batch per position


@pytest.mark.parametrize("name, core", CORES, ids=IDS)
def test_leave_one_outs_are_the_one_row_reference(monkeypatch, name, core):
    built = _count_tables(monkeypatch)
    kept = _kept_tables(core)
    assert type(kept) is _BatchedTables
    for assignment in _states(core.sizes):
        state = assignment.tolist()
        index = kept.index(state)
        for j in range(len(core.sizes)):
            rest = index - state[j] * kept.strides[j]
            expected = _outcome(_leave_one_out, core, assignment, j)
            if expected is DegenerateConditioningError:
                for _ in range(2):
                    with pytest.raises(DegenerateConditioningError):
                        kept.leave_one_out(assignment, j, rest)
                assert rest * len(core.sizes) + j not in kept.leave_one_outs
                continue
            p, total = kept.leave_one_out(assignment, j, rest)
            assert _same(p, expected[0]) and _same(total, expected[1])
            assert type(total) is float
    if "joint" not in name:
        assert built[0] == len(core.sizes)


@pytest.mark.parametrize("name, core", CORES, ids=IDS)
def test_coherences_are_coherence_from(monkeypatch, name, core):
    built = _count_tables(monkeypatch)
    kept = _kept_tables(core)
    impossible = 0
    for assignment in _states(core.sizes):
        index = kept.index(assignment.tolist())
        expected = _coherence(core, assignment)
        impossible += expected == -math.inf
        for _ in range(2):
            got = kept.coherence(assignment, index)
            assert type(got) is float and _same(got, expected), (name, assignment)
    assert built[0] == 1  # one table for every state
    if "joint" in name:
        assert impossible


def test_icm_scores_are_the_one_row_reference():
    # mutual_predictability over batched leave-one-outs, -inf where one raises
    for name, core in CORES:
        kept = _kept_tables(core)
        for assignment in _states(core.sizes):
            state = assignment.tolist()
            expected = 0.0
            try:
                for j, a in enumerate(state):
                    p, total = _leave_one_out(core, assignment, j)
                    mass = p[a] / total
                    if mass <= 0.0:
                        expected = -math.inf
                        break
                    expected += math.log2(mass)
            except DegenerateConditioningError:
                expected = -math.inf
            got = kept.score(assignment, state, kept.index(state))
            assert _same(got, expected), (name, state)


# --- which spaces batch ------------------------------------------------------


def test_wide_and_capped_spaces_build_no_batch(monkeypatch):
    # 4^8 policies: past the cap, so no key need come round again
    wide = Conditioned(_mixture((4,) * 8, 32, 1))
    assert type(_kept_tables(wide)) is _KeptTables
    # 4^6 policies of 32 latents: within the cap, the full table past the
    # kernel's budget
    roomy = Conditioned(_mixture((4,) * 6, 32, 2))
    assert 4**6 <= samplers._DRAW_TABLE_CAP
    assert type(_kept_tables(roomy)) is _KeptTables
    small = Conditioned(_mixture((3,) * 6, 2, 3))
    assert type(_kept_tables(small)) is _BatchedTables
    monkeypatch.setattr(samplers, "_DRAW_TABLE_CAP", 2)
    kept = _kept_tables(small)
    assert type(kept) is _KeptTables
    assert not hasattr(kept, "draws")


# --- the stacked matmul ------------------------------------------------------


def test_stacked_matmul_is_the_per_row_gemv():
    # the contract _predictive_rows rests on: numpy runs a matmul of a stack
    # of one-row matrices as one gemv per row, which is what w @ E runs for
    # a row w, view or copy; a numpy or BLAS upgrade that broke it fails here
    rng = np.random.default_rng(19)
    for latents in (1, 2, 3, 4, 7, 8, 16, 32, 33, 64):
        for behaviors in range(2, 9):
            emissions = rng.dirichlet(np.full(behaviors, 0.5), size=latents)
            for rows in (1, 2, 27, 243):
                table = rng.normal(scale=5.0, size=(rows, latents))
                weights = np.exp(table - table.max(axis=1)[:, None])
                stacked = np.matmul(weights[:, None], emissions)[:, 0]
                copied = np.matmul(weights[:, None].copy(), emissions)[:, 0]
                for r in range(rows):
                    view = weights[r] @ emissions
                    copy = weights[r].copy() @ emissions
                    assert _same(stacked[r], view) and _same(copied[r], view)
                    assert _same(copy, view), (latents, behaviors, rows, r)


@pytest.mark.parametrize("beta", BETAS)
def test_tempered_rows_are_tempered_weights(beta):
    # many row maxima, so that a vectorized log of them, which rounds about
    # one input in a few hundred otherwise than math.log, would show; zero
    # masses and exact ties included
    rng = np.random.default_rng(7)
    masses = rng.random((4000, 3)) * (rng.random((4000, 3)) > 0.2)
    masses[::5, 1] = masses[::5, 0]
    masses = masses[masses.max(axis=1) > 0.0]
    with np.errstate(divide="ignore", invalid="ignore"):
        rows = _tempered_rows(masses, beta)
    assert rows.shape == masses.shape
    for got, p in zip(rows, masses):
        assert _same(got, _tempered_weights(p, beta)), (beta, p)


# --- study-loop runs against one-state-at-a-time loops -----------------------


def _draw(cum, weights, u):
    idx = min(int(np.searchsorted(cum, u * cum[-1], side="right")), len(weights) - 1)
    while weights[idx] == 0.0 and idx > 0:
        idx -= 1
    return idx


def _reference_gibbs(core, initial, config):
    rng = np.random.default_rng(config.seed)
    picks = rng.integers(0, len(core.sizes), size=config.steps)
    uniforms = rng.random(config.steps)
    assignment = np.array(initial.assignment, dtype=np.int64)
    trajectory, bits = [assignment.copy()], [_coherence(core, assignment)]
    for j, u in zip(picks.tolist(), uniforms.tolist()):
        cum, weights, p, top = _conditional(core, assignment, j, config.beta)
        a = _draw(cum, weights, u)
        assignment[j] = a
        trajectory.append(assignment.copy())
        bits.append((top + math.log(p[a]) - core.log_prior_ml) / LN2)
    return np.array(trajectory), np.array(bits)


def _reference_block(core, initial, config):
    rng = np.random.default_rng(config.seed)
    k = len(core.sizes)
    keep = int(math.floor(config.gamma * k))
    assignment = np.array(initial.assignment, dtype=np.int64)
    trajectory, bits = [assignment.copy()], [_coherence(core, assignment)]
    for t in range(config.steps):
        kept = set(rng.permutation(k)[:keep].tolist())
        resampled = [j for j in range(k) if j not in kept]
        weights, _ = Conditioned.posterior_weights(core.numerators(assignment, resampled))
        for j in resampled:
            tempered = _tempered_weights(weights @ core.emissions[j], config.beta)
            assignment[j] = _draw(np.cumsum(tempered), tempered, rng.random())
        trajectory.append(assignment.copy())
        bits.append(_coherence(core, assignment))
    return np.array(trajectory), np.array(bits)


def _score(core, assignment):
    total = 0.0
    try:
        for j, a in enumerate(assignment.tolist()):
            p, psum = _leave_one_out(core, assignment, j)
            mass = p[a] / psum
            if mass <= 0.0:
                return -math.inf
            total += math.log2(mass)
    except DegenerateConditioningError:
        return -math.inf
    return total


def _reference_climb(core, initial, max_iters, seed, restarts):
    rng = np.random.default_rng(seed)
    starts = [np.array(initial.assignment, dtype=np.int64)]
    for _ in range(restarts - 1):
        starts.append(np.array([rng.integers(0, s) for s in core.sizes], dtype=np.int64))
    best, best_score = starts[0].copy(), -math.inf
    for current in starts:
        current_score = _score(core, current)
        for _ in range(max_iters):
            move, move_score = None, current_score
            for j, size in enumerate(core.sizes):
                original = current[j]
                for a in range(size):
                    if a != original:
                        current[j] = a
                        candidate = _score(core, current)
                        if candidate > move_score:
                            move, move_score = (j, a), candidate
                current[j] = original
            if move is None:
                break
            current[move[0]] = move[1]
            current_score = move_score
        if current_score > best_score:
            best, best_score = current.copy(), current_score
    return DPolicy(tuple(int(a) for a in best))


def _study_loop(seed):
    """A semi-supervised benchmark cell's 12-context scenario, conditioned
    as run_semi_supervised conditions it: 6 unsupervised contexts covered."""
    scenario = generate_scenario(
        12, 3, 2, emission_concentration=5.0, unsupervised_fraction=0.5,
        truth_beta=math.inf, seed=seed,
    )
    prior, contexts = scenario.prior_state, scenario.unsupervised
    core = Conditioned(scenario.system, prior, contexts)
    assert type(_kept_tables(core)) is _BatchedTables
    return scenario.system, prior, contexts, core, scenario._greedy_start


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("seed", [104, 105])
def test_study_loop_chains_match_one_state_loops(seed, beta):
    system, prior, contexts, core, initial = _study_loop(seed)
    config = SamplerConfig(beta=beta, steps=2000, seed=seed)
    record = gibbs_run(
        system, initial, config, prior=prior, contexts=contexts,
        check_positivity=False,
    )
    trajectory, bits = _reference_gibbs(core, initial, config)
    assert np.array_equal(record.trajectory, trajectory)
    assert _same(record.coherence_bits, bits)

    config = SamplerConfig(beta=beta, steps=500, seed=seed)
    record = training_friendly_gibbs_run(
        system, initial, config, prior=prior, contexts=contexts,
        check_positivity=False,
    )
    trajectory, bits = _reference_block(core, initial, config)
    assert np.array_equal(record.trajectory, trajectory)
    assert _same(record.coherence_bits, bits)


@pytest.mark.parametrize("seed", [104, 105, 106])
def test_study_loop_climbs_match_one_state_loop(seed):
    system, prior, contexts, core, initial = _study_loop(seed)
    got = icm_hill_climb(
        system, initial, max_iters=50, seed=seed, restarts=4,
        prior=prior, contexts=contexts,
    )
    assert got == _reference_climb(core, initial, 50, seed, 4)
