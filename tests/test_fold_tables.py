"""Numerator tables: Conditioned.numerator_table folds the log numerators of
every assignment of a covered space with one position skipped, or none, and
the chains and ICM climbs of a small space read their misses from it.

Every table row must be bitwise (np.array_equal) the per-state fold
core.numerators(assignment, skip), over 1, 2, 3, 4 and 7 latents, with
priors and reversed context subsets, and on joint tables at epsilon 0,
whose rows hold -inf and may be degenerate. Tables must come out C-ordered:
the system's log-emission table is Fortran-ordered, and a broadcast add
keeps that order unless told otherwise. Only the fold is batched; chains
and climbs must still equal test-local loops that fold, weigh and draw one
state at a time."""

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
    debate_run,
    from_joint_table,
    generic_partition,
    gibbs_run,
    icm_hill_climb,
    random_mixture_system,
    training_friendly_gibbs_run,
)
from cohopt.samplers import _KeptTables
from cohopt.systems import LN2, _BLOCK_ENTRIES

LATENTS = (1, 2, 3, 4, 7)


def _mixture(sizes, n_latents, seed):
    rng = np.random.default_rng(seed)
    return random_mixture_system(
        generic_partition(sizes), n_latents, rng, emission_concentration=0.5
    )


def _joint(sizes, seed, epsilon=0.0):
    """A joint table with about a third of its cells zero."""
    rng = np.random.default_rng(seed)
    table = rng.random(math.prod(sizes)) * (rng.random(math.prod(sizes)) > 0.35)
    table[0] = 1.0  # never all zero
    return from_joint_table(generic_partition(sizes), table / table.sum(), epsilon)


def _cores():
    """(name, core): full spaces, priors over reversed context subsets, and
    joint tables at epsilon 0 with and without a prior."""
    for n_latents in LATENTS:
        system = _mixture((3, 2, 4, 3), n_latents, 10 + n_latents)
        yield f"mixture-{n_latents}", Conditioned(system)
        system = _mixture((2, 3, 3, 2, 4), n_latents, 20 + n_latents)
        prior = PolicyState({0: 1, 2: 2})  # behaviors of context 0 and 1
        yield f"reversed-{n_latents}", Conditioned(system, prior, (4, 3, 2))
    for seed in range(3):
        system = _joint((3, 2, 3), 30 + seed)
        yield f"joint-{seed}", Conditioned(system)
        yield f"joint-prior-{seed}", Conditioned(system, PolicyState({3: 1}), (2, 0))


CORES = list(_cores())
IDS = [name for name, _ in CORES]


def _skips(k):
    return [(), *((j,) for j in range(k))]


def _assignments(sizes, skip):
    """Every assignment of the positions outside skip in mixed-radix order
    (the first most significant); a skipped position holds behavior 0."""
    ranges = [range(1) if j in skip else range(size) for j, size in enumerate(sizes)]
    for values in itertools.product(*ranges):
        yield np.array(values, dtype=np.int64)


@pytest.mark.parametrize("name, core", CORES, ids=IDS)
def test_every_row_is_the_per_state_fold(name, core):
    for skip in _skips(len(core.sizes)):
        table = core.numerator_table(skip)
        rows = list(_assignments(core.sizes, skip))
        assert table.flags.c_contiguous, (name, skip)
        assert table.dtype == np.float64
        assert table.shape == (len(rows), core.base.size)
        for row, assignment in zip(table, rows):
            assert np.array_equal(row, core.numerators(assignment, skip)), (
                name, skip, assignment,
            )
            # what sits at a skipped position does not matter
            for j in skip:
                moved = assignment.copy()
                moved[j] = core.sizes[j] - 1
                assert np.array_equal(row, core.numerators(moved, skip))


@pytest.mark.parametrize("name, core", CORES, ids=IDS)
def test_kept_rows_match_the_per_state_fold(name, core):
    # every state, every skip of one position or none, keyed by its rest
    kept = _KeptTables(core)
    assert kept.foldable == set(_skips(len(core.sizes)))
    for assignment in _assignments(core.sizes, ()):
        state = assignment.tolist()
        index = kept.index(state)
        for skip in _skips(len(core.sizes)):
            rest = index - sum(state[j] * kept.strides[j] for j in skip)
            got = kept.numerators(assignment, skip, rest)
            assert np.array_equal(got, core.numerators(assignment, skip))
    assert set(kept.folds) == kept.foldable
    for skip, table in kept.folds.items():
        assert table.flags.c_contiguous, skip


def _outcome(function, *args):
    try:
        return function(*args)
    except DegenerateConditioningError as error:
        return type(error)


@pytest.mark.parametrize("name, core", [c for c in CORES if "joint" in c[0]],
                         ids=[i for i in IDS if "joint" in i])
def test_degenerate_rows_raise_as_the_per_state_fold_does(name, core):
    degenerate = 0
    for skip in _skips(len(core.sizes)):
        table = core.numerator_table(skip)
        for row, assignment in zip(table, _assignments(core.sizes, skip)):
            expected = _outcome(
                core.posterior_weights, core.numerators(assignment, skip)
            )
            got = _outcome(core.posterior_weights, row)
            if expected is DegenerateConditioningError:
                degenerate += 1
                assert got is DegenerateConditioningError
                assert np.all(row == -math.inf)
            else:
                assert np.array_equal(got[0], expected[0]) and got[1] == expected[1]
    assert degenerate  # the joint tables do have impossible states


def test_budget_and_key_rules():
    # a skip-one table over 4^8 / 4 rows of 32 latents is past the budget,
    # the full table of 3^6 policies of 2 latents within it
    wide = Conditioned(_mixture((4,) * 8, 32, 1))
    assert 4**7 * 32 > _BLOCK_ENTRIES
    assert _KeptTables(wide).foldable == set()
    small = Conditioned(_mixture((3,) * 6, 2, 2))
    assert _KeptTables(small).foldable == set(_skips(6))
    assert _KeptTables(small, fold=False).foldable == set()
    # two skipped positions have no table: the state is folded alone
    kept = _KeptTables(small)
    assignment = np.array([2, 1, 0, 2, 1, 1], dtype=np.int64)
    state = assignment.tolist()
    rest = kept.index(state) - state[1] * kept.strides[1] - state[4] * kept.strides[4]
    got = kept.numerators(assignment, (1, 4), rest)
    assert np.array_equal(got, small.numerators(assignment, (1, 4)))
    assert kept.folds == {}


# --- chains and climbs against one-state-at-a-time loops --------------------


def _weights(p, beta):
    """p tempered by beta, masked, with the maximum scaled to 1."""
    if beta == 1.0:
        return p
    weights = np.zeros_like(p)
    positive = p > 0
    weights[positive] = np.exp(beta * (np.log(p[positive]) - math.log(float(p.max()))))
    return weights


def _draw(weights, u):
    cum = np.cumsum(weights)
    idx = min(int(np.searchsorted(cum, u * cum[-1], side="right")), weights.size - 1)
    while weights[idx] == 0.0 and idx > 0:
        idx -= 1
    return idx


def _bits(core, assignment):
    n = core.numerators(assignment)
    top = float(n.max())
    if top == -math.inf:
        return -math.inf
    value = top + math.log(float(np.exp(n - top).sum()))
    return (value - core.log_prior_ml) / LN2


def _predictive(core, assignment, j):
    n = core.numerators(assignment, skip=(j,))
    top = float(n.max())
    if top == -math.inf:
        raise DegenerateConditioningError("impossible leave-one-out state")
    return np.exp(n - top) @ core.emissions[j], top


def _reference_gibbs(core, initial, config):
    rng = np.random.default_rng(config.seed)
    k = len(core.contexts)
    picks = rng.integers(0, k, size=config.steps)
    uniforms = rng.random(config.steps)
    assignment = np.array(initial.assignment, dtype=np.int64)
    trajectory, bits = [assignment.copy()], [_bits(core, assignment)]
    for j, u in zip(picks.tolist(), uniforms.tolist()):
        p, top = _predictive(core, assignment, j)
        a = _draw(_weights(p, config.beta), u)
        assignment[j] = a
        trajectory.append(assignment.copy())
        bits.append((top + math.log(float(p[a])) - core.log_prior_ml) / LN2)
    return np.array(trajectory), np.array(bits)


def _reference_block(core, initial, config):
    rng = np.random.default_rng(config.seed)
    k = len(core.contexts)
    keep = int(math.floor(config.gamma * k))
    lam = config.anchor_weight
    assignment = np.array(initial.assignment, dtype=np.int64)
    trajectory, bits = [assignment.copy()], [_bits(core, assignment)]
    for t in range(config.steps):
        kept = set(rng.permutation(k)[:keep].tolist())
        resampled = [j for j in range(k) if j not in kept]
        n = core.numerators(assignment, skip=resampled)
        weights = np.exp(n - float(n.max()))
        if t == 0:
            anchor = weights
        for j in resampled:
            use_anchor = lam > 0.0 and (lam >= 1.0 or rng.random() < lam)
            p = (anchor if use_anchor else weights) @ core.emissions[j]
            assignment[j] = _draw(_weights(p, config.beta), rng.random())
        trajectory.append(assignment.copy())
        bits.append(_bits(core, assignment))
    return np.array(trajectory), np.array(bits)


def _reference_debate(core, config):
    rng = np.random.default_rng(config.seed)
    assignment = np.zeros(2, dtype=np.int64)
    n = core.base
    p = np.exp(n - float(n.max())) @ core.emissions[0]
    assignment[0] = _draw(_weights(p, config.beta), float(rng.random()))
    assignment[1] = _draw(
        _weights(_predictive(core, assignment, 1)[0], config.beta), float(rng.random())
    )
    trajectory, bits = [assignment.copy()], [_bits(core, assignment)]
    for _ in range(config.steps):
        for j in (1, 0):
            p, _ = _predictive(core, assignment, j)
            assignment[j] = _draw(_weights(p, config.beta), rng.random())
        trajectory.append(assignment.copy())
        bits.append(_bits(core, assignment))
    return np.array(trajectory), np.array(bits)


def _score(core, assignment):
    total = 0.0
    try:
        for j in range(len(core.contexts)):
            p, _ = _predictive(core, assignment, j)
            mass = float(p[assignment[j]]) / float(p.sum())
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


def _count_tables(monkeypatch):
    built = [0]
    shipped = Conditioned.numerator_table

    def counted(self, skip=()):
        built[0] += 1
        return shipped(self, skip)

    monkeypatch.setattr(Conditioned, "numerator_table", counted)
    return built


CHAIN_CASES = [
    # (sizes, latents, prior, contexts)
    ((3, 3, 3, 3), 4, None, None),
    ((3, 3, 3, 3), 7, None, None),
    ((2, 3, 4, 3, 3), 4, PolicyState({0: 1}), (4, 3, 2, 1)),
    ((2, 3, 4, 3, 3), 7, PolicyState({1: 2}), (4, 2, 1)),
]


@pytest.mark.parametrize("beta", [1.0, 2.0])
@pytest.mark.parametrize("sizes, latents, prior, contexts", CHAIN_CASES)
def test_chains_match_one_state_loops(monkeypatch, beta, sizes, latents, prior, contexts):
    system = _mixture(sizes, latents, sum(sizes) * latents)
    core = Conditioned(system, prior, contexts)
    initial = DPolicy(tuple(size - 1 for size in core.sizes))
    built = _count_tables(monkeypatch)
    # gamma keeps all positions but one: the retained states skip one
    for anchor in (0.0, 0.5):
        config = SamplerConfig(beta=beta, steps=400, seed=latents, gamma=0.8, anchor_weight=anchor)
        assert int(math.floor(config.gamma * len(core.sizes))) == len(core.sizes) - 1
        record = training_friendly_gibbs_run(
            system, initial, config, prior=prior, contexts=contexts
        )
        trajectory, bits = _reference_block(core, initial, config)
        assert np.array_equal(record.trajectory, trajectory)
        assert np.array_equal(record.coherence_bits, bits)
    config = SamplerConfig(beta=beta, steps=600, seed=latents)
    record = gibbs_run(system, initial, config, prior=prior, contexts=contexts)
    trajectory, bits = _reference_gibbs(core, initial, config)
    assert np.array_equal(record.trajectory, trajectory)
    assert np.array_equal(record.coherence_bits, bits)
    assert built[0] > 0  # the chains did read tables


@pytest.mark.parametrize("latents", [2, 4, 7])
def test_debate_matches_one_state_loop(monkeypatch, latents):
    system = _mixture((3, 4, 2), latents, latents)
    prior = PolicyState({7: 1})
    core = Conditioned(system, prior, (1, 0))
    built = _count_tables(monkeypatch)
    for beta in (1.0, 2.0):
        config = SamplerConfig(beta=beta, steps=300, seed=latents)
        record = debate_run(system, config, prior=prior, contexts=(1, 0))
        trajectory, bits = _reference_debate(core, config)
        assert np.array_equal(record.trajectory, trajectory)
        assert np.array_equal(record.coherence_bits, bits)
    assert built[0] > 0


CLIMB_CASES = [
    ("mixture-4", _mixture((3, 3, 3, 3), 4, 5), None, None),
    ("mixture-7", _mixture((3, 2, 4, 3), 7, 6), None, None),
    ("reversed-4", _mixture((2, 3, 4, 3, 3), 4, 7), PolicyState({1: 1}), (4, 3, 2)),
    ("joint", _joint((3, 2, 3), 8), None, None),
    ("joint-smoothed", _joint((3, 2, 3), 9, epsilon=0.05), None, None),
]


@pytest.mark.parametrize("name, system, prior, contexts", CLIMB_CASES,
                         ids=[case[0] for case in CLIMB_CASES])
def test_climbs_match_one_state_loop(monkeypatch, name, system, prior, contexts):
    core = Conditioned(system, prior, contexts)
    built = _count_tables(monkeypatch)
    starts = list(_assignments(core.sizes, ()))[::7]
    for seed, start in enumerate(starts):
        initial = DPolicy(tuple(int(a) for a in start))
        got = icm_hill_climb(
            system, initial, max_iters=50, seed=seed, restarts=4,
            prior=prior, contexts=contexts,
        )
        assert got == _reference_climb(core, initial, 50, seed, 4), (name, initial)
    assert built[0] > 0
