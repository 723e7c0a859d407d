"""ICM on kept leave-one-outs and kept scores against test-local copies of
the loops that recompute every leave-one-out for every candidate: the
chosen policies and every mutual-predictability float must be equal (==),
and an impossible leave-one-out state must raise the same exception type.
Systems are seeded mixtures, joint tables with and without smoothing (at
epsilon 0 leave-one-outs raise), and a prior over a reversed context
subset; climbs run at several restart and sweep counts, with the shipped
table cap and with a cap of 2."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from cohopt import (
    Conditioned,
    DegenerateConditioningError,
    DPolicy,
    MixtureBayesSystem,
    PolicyState,
    from_joint_table,
    generic_partition,
    icm_hill_climb,
    mutual_predictability,
    random_mixture_system,
)
from cohopt import samplers

CLIMBS = [(1, 1), (4, 50), (8, 3)]  # (restarts, max_iters)
CAPS = [None, 2]  # None: the shipped _DRAW_TABLE_CAP


def _reference_mp(core, assignment):
    total = 0.0
    for j in range(len(core.contexts)):
        p, _ = core.predictive(core.numerators(assignment, skip=(j,)), j)
        mass = float(p[assignment[j]]) / float(p.sum())
        if mass <= 0.0:
            return -math.inf
        total += math.log2(mass)
    return total


def _reference_score(core, assignment):
    try:
        return _reference_mp(core, assignment)
    except DegenerateConditioningError:
        return -math.inf


def _reference_climb(system, initial, max_iters, seed, restarts, prior, contexts):
    """The climb with every candidate scored from scratch; also returns
    whether some restart hit the sweep cap."""
    core = Conditioned(system, prior, contexts)
    k = len(core.contexts)
    rng = np.random.default_rng(seed)
    starts = [core.validate(initial)]
    for _ in range(restarts - 1):
        starts.append(
            np.array([rng.integers(0, s) for s in core.sizes], dtype=np.int64)
        )
    capped = False
    best_assignment = starts[0].copy()
    best_score = -math.inf
    for start in starts:
        current = start.copy()
        current_score = _reference_score(core, current)
        for _ in range(max_iters):
            move = None
            move_score = current_score
            for j in range(k):
                original = current[j]
                for a in range(core.sizes[j]):
                    if a == original:
                        continue
                    current[j] = a
                    candidate = _reference_score(core, current)
                    if candidate > move_score:
                        move, move_score = (j, a), candidate
                current[j] = original
            if move is None:
                break
            current[move[0]] = move[1]
            current_score = move_score
        else:
            capped = True
        if current_score > best_score:
            best_assignment = current.copy()
            best_score = current_score
    return DPolicy(tuple(int(a) for a in best_assignment)), capped


def _outcome(function, *args, **kwargs):
    """The value, or the type of the exception raised."""
    try:
        return function(*args, **kwargs)
    except DegenerateConditioningError as exc:
        return type(exc)


def _seeded_mixture(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 6))
    sizes = tuple(int(s) for s in rng.integers(1, 4, size=k))
    n_latents = int(rng.integers(1, 5))
    return random_mixture_system(
        generic_partition(sizes), n_latents, rng, emission_concentration=0.3
    )


def _joint_table(seed, epsilon):
    rng = np.random.default_rng(seed)
    partition = generic_partition((3, 2, 3))
    joint = rng.dirichlet(np.full(partition.policy_count(), 0.3))
    joint[rng.random(joint.size) < 0.5] = 0.0  # zero rows: impossible states
    joint[0] += 0.1
    return from_joint_table(partition, joint / joint.sum(), epsilon)


def _reversed_subset(seed):
    """A system, a prior labelling two contexts, and the other contexts in
    reverse order."""
    rng = np.random.default_rng(seed)
    partition = generic_partition((3, 2, 3, 3, 2, 3))
    system = random_mixture_system(partition, 3, rng, emission_concentration=0.5)
    prior = PolicyState.from_behaviors(
        [partition.global_index(1, 1), partition.global_index(4, 0)]
    )
    return system, prior, (5, 3, 2, 0)


def _cases():
    for seed in range(30):
        yield f"mixture-{seed}", _seeded_mixture(600 + seed), None, None
    for epsilon in (0.0, 0.05):
        for seed in range(3):
            yield (
                f"joint-{epsilon}-{seed}", _joint_table(700 + seed, epsilon),
                None, None,
            )
    for seed in range(3):
        system, prior, contexts = _reversed_subset(800 + seed)
        yield f"reversed-{seed}", system, prior, contexts


CASES = list(_cases())


def _set_cap(monkeypatch, cap):
    if cap is not None:
        monkeypatch.setattr(samplers, "_DRAW_TABLE_CAP", cap)


def _policies(system, contexts):
    sizes = system.partition.sizes
    if contexts is not None:
        sizes = [sizes[c] for c in contexts]
    for assignment in itertools.product(*map(range, sizes)):
        yield DPolicy(assignment)


@pytest.mark.parametrize("cap", CAPS)
@pytest.mark.parametrize("name, system, prior, contexts", CASES,
                         ids=[case[0] for case in CASES])
def test_mutual_predictability_matches_reference(
    monkeypatch, cap, name, system, prior, contexts
):
    _set_cap(monkeypatch, cap)
    core = Conditioned(system, prior, contexts)
    for policy in _policies(system, contexts):
        expected = _outcome(_reference_mp, core, core.validate(policy))
        got = _outcome(
            mutual_predictability, system, policy, prior=prior, contexts=contexts
        )
        assert got == expected, (name, policy)


@pytest.mark.parametrize("cap", CAPS)
def test_climbs_match_reference(monkeypatch, cap):
    _set_cap(monkeypatch, cap)
    capped = raised = 0
    for name, system, prior, contexts in CASES:
        for seed, (restarts, iters) in enumerate(CLIMBS):
            for initial in itertools.islice(_policies(system, contexts), 0, None, 5):
                expected, hit_cap = _reference_climb(
                    system, initial, iters, seed, restarts, prior, contexts
                )
                got = icm_hill_climb(
                    system, initial, max_iters=iters, seed=seed,
                    restarts=restarts, prior=prior, contexts=contexts,
                )
                assert got == expected, (name, initial, restarts, iters)
                capped += hit_cap and iters == 3
        core = Conditioned(system, prior, contexts)
        raised += any(
            _outcome(_reference_mp, core, core.validate(policy))
            is DegenerateConditioningError
            for policy in _policies(system, contexts)
        )
    # the cases reach the sweep cap and the degenerate leave-one-outs
    assert capped > 0 and raised > 0


def test_tied_moves_take_the_first_found():
    # behaviors 1 and 2 of context 0 emit alike, so moving there from 0
    # scores the same, and better than any move of context 1
    partition = generic_partition((3, 2))
    emissions = [
        np.array([[0.02, 0.49, 0.49], [0.1, 0.45, 0.45]]),
        np.array([[0.5, 0.5], [0.45, 0.55]]),
    ]
    system = MixtureBayesSystem(partition, np.array([0.5, 0.5]), emissions)
    for behavior in (0, 1):
        initial = DPolicy((0, behavior))
        one = DPolicy((1, behavior))
        assert mutual_predictability(system, one) == mutual_predictability(
            system, DPolicy((2, behavior))
        )
        assert mutual_predictability(system, one) > mutual_predictability(
            system, DPolicy((0, 1 - behavior))
        )
        expected, _ = _reference_climb(system, initial, 1, 0, 1, None, None)
        got = icm_hill_climb(system, initial, max_iters=1, seed=0, restarts=1)
        assert got == expected
        assert got.assignment[0] == 1
