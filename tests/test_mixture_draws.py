"""random_mixture_system draws each run of equal-size contexts in one
Dirichlet call; against a test-local loop of one call per context, the
weights and every emission table are bitwise equal and the generator is
left at the same point of its stream."""

from __future__ import annotations

import numpy as np
import pytest

from cohopt import generic_partition, random_mixture_system


def _per_context(partition, n_latents, rng, concentration):
    weights = rng.dirichlet([1.0] * n_latents)
    weights = weights / weights.sum()
    emissions = []
    for size in partition.sizes:
        rows = rng.dirichlet([concentration] * size, size=n_latents)
        emissions.append(rows / rows.sum(axis=1, keepdims=True))
    return weights, emissions


SIZES = [
    (3,) * 12,
    (4,) * 40,
    (2, 3, 3, 1, 4, 4, 4, 2, 2, 5),
    (1, 1, 2),
    (6,),
]


# 0.5, 1.0 and 5.0 are the concentrations the package passes; 0.05 takes
# numpy's small-alpha Dirichlet path
@pytest.mark.parametrize("concentration", [0.05, 0.5, 1.0, 5.0])
@pytest.mark.parametrize("sizes", SIZES)
@pytest.mark.parametrize("n_latents", [1, 2, 32])
def test_batched_draws_match_one_call_per_context(concentration, sizes, n_latents):
    partition = generic_partition(sizes)
    rng, reference_rng = np.random.default_rng(9), np.random.default_rng(9)
    system = random_mixture_system(partition, n_latents, rng, concentration)
    weights, emissions = _per_context(partition, n_latents, reference_rng, concentration)
    assert np.array_equal(system.latent_weights, weights)
    for c, table in enumerate(emissions):
        assert np.array_equal(system.emissions(c), table)
        assert np.array_equal(np.signbit(system.emissions(c)), np.signbit(table))
    assert rng.random() == reference_rng.random()
