"""systems._tie_search keeps its memory within _BLOCK_ENTRIES: it gives up
before it builds its latents × latents argmax table where that table would
pass the budget, and generate_scenario then enumerates. A 3,000-latent
truth at truth_beta = +inf is the full-enumeration draw, drawn within a
small tracemalloc peak."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np

from cohopt import generate_scenario, generic_partition, random_mixture_system
from cohopt.systems import _BLOCK_ENTRIES, _enumerate_masses, _ties, _tie_search


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


def test_many_latents_draw_the_enumerated_truth_in_little_memory():
    generate_scenario(3, 3, 30, truth_beta=math.inf)  # first-call allocations
    tracemalloc.start()
    try:
        scenario = generate_scenario(
            3, 3, 3000, emission_concentration=0.5, truth_beta=math.inf, seed=0
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak  # the argmax table alone is 72 MB
    rng = np.random.default_rng(0)  # generate_scenario's stream
    system = random_mixture_system(
        generic_partition([3, 3, 3]), 3000, rng, emission_concentration=0.5
    )
    index = _full_enumeration_draw(system, rng.random())
    assert scenario.ground_truth == system.partition.policy_at(index)


def _peaked(latents, rng):
    """A system of 3 contexts of 4 behaviors whose latents all favour one
    policy, so the search prunes and decides."""
    weights = rng.dirichlet([1.0] * latents)
    emissions = []
    for _ in range(3):
        rows = np.full((latents, 4), 0.01)
        rows[:, 0] = 0.97
        emissions.append(rows)
    return weights, emissions


def test_the_search_runs_up_to_the_budget_and_gives_up_past_it():
    side = math.isqrt(_BLOCK_ENTRIES)
    rng = np.random.default_rng(2)
    weights, emissions = _peaked(side, rng)
    masses = _enumerate_masses(weights, emissions, [4, 4, 4], 1000)
    ties = _tie_search(weights, emissions, [4, 4, 4], 1000)
    assert np.array_equal(ties, np.flatnonzero(_ties(masses, float(masses.max()))))
    weights, emissions = _peaked(side + 1, rng)
    assert _tie_search(weights, emissions, [4, 4, 4], 1000) is None
    # zero weights do not count: the table holds the live latents only
    weights[0] = 0.0
    weights /= weights.sum()
    assert _tie_search(weights, emissions, [4, 4, 4], 1000) is not None
