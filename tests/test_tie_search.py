"""The beta = +inf ground truth by a pruned search (systems._tie_search): its
ties are those that _ties picks from the whole _enumerate_masses table, on
seeded systems with exact zeros, zero weights and exact ties, and on
policies built to pass the tie threshold by an ulp; it returns None, and
generate_scenario enumerates, where it cannot decide. generate_scenario's
12- and 13-context truths are those of a test-local full-enumeration draw."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cohopt import (
    EnumerationCapError,
    MixtureBayesSystem,
    generate_scenario,
    generic_partition,
    random_mixture_system,
)
from cohopt import experiments, systems
from cohopt.systems import _enumerate_masses, _ties, _tie_search

CAP = 1_000_000
CONCENTRATIONS = [0.05, 0.2, 0.5, 1.0, 5.0]


def _enumerated_ties(weights, emissions):
    sizes = [table.shape[1] for table in emissions]
    masses = _enumerate_masses(weights, emissions, sizes, CAP)
    return np.flatnonzero(_ties(masses, float(masses.max())))


def _search(weights, emissions):
    return _tie_search(weights, emissions, [t.shape[1] for t in emissions], CAP)


def _rows(rng, concentration, shape):
    rows = rng.dirichlet([concentration] * shape[-1], size=shape[:-1])
    return rows / rows.sum(axis=-1, keepdims=True)


def _seeded_case(seed):
    """Weights and emission tables of mixed sizes; by seed, with zero
    weights, exact zeros, identical or permuted latents, or uniform rows."""
    rng = np.random.default_rng(seed)
    concentration = CONCENTRATIONS[seed % len(CONCENTRATIONS)]
    latents = int(rng.integers(1, 9))
    sizes = rng.integers(1, 5, size=int(rng.integers(1, 10))).tolist()
    while math.prod(sizes) > 3**9:
        sizes.pop()
    weights = rng.dirichlet([1.0] * latents)
    emissions = [_rows(rng, concentration, (latents, size)) for size in sizes]
    kind = seed % 6
    if kind == 1 and latents > 1:  # zero weights
        weights[rng.random(latents) < 0.5] = 0.0
        weights[int(rng.integers(0, latents))] = 1.0
        weights /= weights.sum()
    elif kind == 2:  # exact zeros
        for table in emissions:
            table[rng.random(table.shape) < 0.3] = 0.0
            table[np.arange(latents), rng.integers(0, table.shape[1], latents)] = 1.0
            table /= table.sum(axis=1, keepdims=True)
    elif kind == 3 and latents > 1:  # identical latents of equal weight
        weights[1] = weights[0]
        for table in emissions:
            table[1] = table[0]
    elif kind == 4 and latents > 1:  # latent 1 is latent 0 with rows permuted
        weights[1] = weights[0]
        for table in emissions:
            table[1] = table[0][rng.permutation(table.shape[1])]
    elif kind == 5:  # uniform rows at some positions
        for table in emissions:
            if rng.random() < 0.4:
                table[:] = 1.0 / table.shape[1]
    return weights, emissions


def test_seeded_systems_match_the_enumerated_ties():
    decided = 0
    for seed in range(600):
        weights, emissions = _seeded_case(seed)
        ties = _search(weights, emissions)
        if ties is None:
            continue
        decided += 1
        assert np.array_equal(ties, _enumerated_ties(weights, emissions)), seed
    assert decided >= 550, decided


def test_exact_ties_are_all_found():
    # two identical latents and a uniform row: every tie has one equal mass
    rng = np.random.default_rng(4)
    table = _rows(rng, 0.5, (1, 3))
    emissions = [np.repeat(table, 2, axis=0) for _ in range(6)]
    emissions.insert(2, np.full((2, 4), 0.25))
    ties = _search(np.array([0.5, 0.5]), emissions)
    assert ties.size == 4
    assert np.array_equal(ties, _enumerated_ties(np.array([0.5, 0.5]), emissions))


def _edge_case(rng, k):
    """One latent over k positions of three behaviors, and the policy that
    leaves the argmax at one position for the smallest emission that still
    makes its kernel mass pass the tie threshold: a tie by about an ulp,
    which rounding of any bound not allowed for would prune."""
    tops = rng.uniform(0.34, 0.49, size=k)
    j = int(rng.integers(0, k))

    def mass(v):
        total = 1.0
        for i, top in enumerate(tops):
            total *= v if i == j else top
        return total

    threshold = mass(tops[j]) * 2.0 ** (-systems.PROB_ATOL)
    v = tops[j] * 2.0 ** (-systems.PROB_ATOL)
    while mass(v) < threshold:
        v = np.nextafter(v, 1.0)
    while mass(np.nextafter(v, 0.0)) >= threshold:
        v = np.nextafter(v, 0.0)
    emissions = []
    for i, top in enumerate(tops):
        # below top, and leaving the third entry below top too
        second = v if i == j else rng.uniform(1.0 - 2.0 * top, top - 0.01)
        emissions.append(np.array([[top, second, 1.0 - top - second]]))
    return emissions, j


def test_policies_tied_by_an_ulp_are_kept():
    rng = np.random.default_rng(11)
    for trial in range(300):
        k = int(rng.integers(2, 13))
        emissions, j = _edge_case(rng, k)
        ties = _search(np.ones(1), emissions)
        expected = _enumerated_ties(np.ones(1), emissions)
        # the argmax (index 0) and the policy moved at position j
        assert np.array_equal(expected, [0, 3 ** (k - 1 - j)]), trial
        assert np.array_equal(ties, expected), trial


class TestUndecided:
    def test_a_level_past_the_block_bound(self):
        # uniform rows: every policy ties, and the last level would hold
        # 3^11 entries
        emissions = [np.full((1, 3), 1.0 / 3)] * 11
        assert _search(np.ones(1), emissions) is None
        # 3^10 entries fit the bound: the search enumerates the ties itself
        ties = _search(np.ones(1), emissions[:10])
        assert np.array_equal(ties, np.arange(3**10))

    def test_near_uniform_rows(self):
        rng = np.random.default_rng(2)
        emissions = [_rows(rng, 1e20, (2, 3)) for _ in range(11)]
        assert _search(np.array([0.5, 0.5]), emissions) is None

    def test_a_floor_near_the_float_range(self):
        # 18 binary contexts of the row (1 - 1e-20, 1e-20): the maximum is
        # 1, so the ties are decided though the smallest masses underflow
        row = np.array([[1.0 - 1e-20, 1e-20]])
        emissions = [row] * 18
        system = MixtureBayesSystem(generic_partition([2] * 18), [1.0], emissions)
        ties = _search(system.latent_weights, emissions)
        assert np.array_equal(ties, [0])
        assert np.array_equal(ties, _enumerated_ties(np.ones(1), emissions))
        # the same tables at weight 1e-302: a maximum near the subnormals
        assert _search(np.array([1e-302]), emissions) is None
        assert np.array_equal(_search(np.array([1e-299]), emissions), [0])
        assert _search(np.array([2.0**-1070]), emissions) is None

    def test_cap(self):
        emissions = [np.full((1, 2), 0.5)] * 4
        with pytest.raises(EnumerationCapError):
            _tie_search(np.ones(1), emissions, [2] * 4, 15)


def _full_enumeration_draw(system, u):
    """The ground-truth pick at truth_beta = +inf: every mass by per-latent
    outer products added in latent order, the ties within 1e-12 bits of the
    maximum, and the first index whose cumulative share of the ties reaches
    u over the whole table."""
    n = system.partition.n_contexts
    masses = np.zeros(system.partition.policy_count())
    for theta, weight in enumerate(system.latent_weights):
        row = np.array([weight])
        for c in range(n):
            row = np.multiply.outer(row, system.emissions(c)[theta]).reshape(-1)
        masses += row
    ties = masses >= float(masses.max()) * 2.0**-1e-12
    cum = np.cumsum(ties / np.count_nonzero(ties))
    return min(int(np.searchsorted(cum, u)), masses.size - 1)


@pytest.fixture
def enumerations(monkeypatch):
    counted = []
    enumerate_masses = experiments.enumerate_policy_masses

    def counting(*args, **kwargs):
        counted.append(args)
        return enumerate_masses(*args, **kwargs)

    monkeypatch.setattr(experiments, "enumerate_policy_masses", counting)
    return counted


@pytest.mark.parametrize(
    "n_contexts, size, latents, concentration, seeds",
    [(12, 3, 2, 5.0, 12), (12, 3, 3, 0.5, 4), (13, 2, 10, 0.5, 12)],
)
def test_scenario_truths_match_a_full_enumeration_draw(
    enumerations, n_contexts, size, latents, concentration, seeds
):
    for seed in range(seeds):
        scenario = generate_scenario(
            n_contexts, size, latents, emission_concentration=concentration,
            truth_beta=math.inf, seed=seed,
        )
        # generate_scenario's stream: the system, then the uniform
        rng = np.random.default_rng(seed)
        system = random_mixture_system(
            generic_partition([size] * n_contexts), latents, rng,
            emission_concentration=concentration,
        )
        index = _full_enumeration_draw(system, rng.random())
        assert scenario.ground_truth == system.partition.policy_at(index), seed
    assert enumerations == []  # every truth came from the search


def test_undecided_scenarios_enumerate(enumerations):
    # near-uniform rows: the search gives up and the whole table is drawn from
    for seed in range(2):
        scenario = generate_scenario(
            11, 3, 2, emission_concentration=1e20, truth_beta=math.inf, seed=seed
        )
        rng = np.random.default_rng(seed)
        system = random_mixture_system(
            generic_partition([3] * 11), 2, rng, emission_concentration=1e20
        )
        index = _full_enumeration_draw(system, rng.random())
        assert scenario.ground_truth == system.partition.policy_at(index), seed
    assert len(enumerations) == 2


def test_small_spaces_and_finite_beta_enumerate(enumerations):
    # 3^9 policies × 2 latents fit one block; finite beta always enumerates
    generate_scenario(9, 3, 2, truth_beta=math.inf, seed=1)
    generate_scenario(12, 3, 2, truth_beta=2.0, seed=1)
    assert len(enumerations) == 2


def test_past_the_cap_the_scenario_raises():
    with pytest.raises(EnumerationCapError):
        generate_scenario(13, 3, 2, truth_beta=math.inf, seed=0)
