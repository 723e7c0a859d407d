"""The ground-truth draw of generate_scenario: the first policy whose
cumulative tempered mass reaches the uniform. At truth_beta = +inf only the
ties are summed; the picks must be those of the full cumulative sum over
every policy (a test-local copy of that draw, below), and no uniform may
pick a policy of zero tempered mass."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cohopt import enumerate_policy_masses, generate_scenario, generic_partition
from cohopt import random_mixture_system
from cohopt.experiments import _draw_truth

BETAS = [0.5, 1.0, 2.0, math.inf]


def _tempered(masses, beta):
    """masses^beta over the positive masses, normalized; the ties within
    1e-12 bits of the maximum at beta = +inf."""
    if beta == 1.0:
        weights = masses
    elif math.isinf(beta):
        weights = (masses >= float(masses.max()) * 2.0**-1e-12).astype(np.float64)
    else:
        weights = np.zeros_like(masses)
        positive = masses > 0
        weights[positive] = np.exp(
            beta * (np.log(masses[positive]) - math.log(float(masses.max())))
        )
    return weights / weights.sum()


def _full_cumsum_draw(masses, beta, u):
    index = int(np.searchsorted(np.cumsum(_tempered(masses, beta)), u))
    return min(index, masses.size - 1)


@pytest.mark.parametrize("beta", BETAS)
def test_scenario_truths_match_the_full_cumulative_draw(beta):
    for seed in range(150):
        scenario = generate_scenario(
            5, 3, 2, emission_concentration=5.0 if seed % 2 else 0.5,
            truth_beta=beta, seed=seed,
        )
        # generate_scenario's stream: the system, then the uniform
        rng = np.random.default_rng(seed)
        system = random_mixture_system(
            generic_partition([3] * 5), 2, rng,
            emission_concentration=5.0 if seed % 2 else 0.5,
        )
        index = _full_cumsum_draw(enumerate_policy_masses(system), beta, rng.random())
        expected = system.partition.policy_at(index)
        assert scenario.ground_truth == expected, seed


@pytest.mark.parametrize("beta", BETAS)
def test_picks_match_the_full_cumulative_draw(beta):
    rng = np.random.default_rng(3)
    for trial in range(50):
        masses = rng.random(int(rng.integers(1, 200)))
        masses[rng.random(masses.size) < 0.3] = 0.0
        if trial % 5 == 0:  # exact ties at the maximum
            masses[rng.random(masses.size) < 0.2] = masses.max()
        if not masses.any():
            continue
        masses /= masses.sum()
        cum = np.cumsum(_tempered(masses, beta))
        for u in [*rng.random(40), *cum[:5], float(cum[-1])]:
            if 0.0 < u <= cum[-1]:
                assert _draw_truth(masses, beta, u) == _full_cumsum_draw(masses, beta, u)


@pytest.mark.parametrize("beta", BETAS)
def test_zero_mass_is_never_drawn(beta):
    # zero masses at both ends; seven equal masses sum short of one
    masses = np.array([0.0, *([1.0 / 7] * 7), 0.0, 0.0])
    positive = np.flatnonzero(masses)
    cum = np.cumsum(_tempered(masses, beta))
    past = float(np.nextafter(cum[-1], 2.0))
    assert _full_cumsum_draw(masses, beta, 0.0) == 0  # the full cumsum's pick
    assert _full_cumsum_draw(masses, beta, past) == masses.size - 1
    assert _draw_truth(masses, beta, 0.0) == positive[0]
    assert _draw_truth(masses, beta, past) == positive[-1]
    if math.isinf(beta):
        assert cum[-1] < float(np.nextafter(1.0, 0.0))  # a uniform can pass it
