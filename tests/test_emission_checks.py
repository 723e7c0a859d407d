"""MixtureBayesSystem checks its emission tables in one stacked pass per run
of consecutive equal-size contexts. Each error must still name the first
offending context, and for a row sum the first offending row, as a
per-context loop (test-local, below) names them: within one context the
shape comes first, then the entries, then the row sums."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cohopt import (
    MixtureBayesSystem,
    ValidationError,
    generic_partition,
    random_mixture_system,
)
from cohopt.systems import PROB_ATOL

SIZES = (2, 2, 3, 3, 3, 4, 2)  # runs of 2, 3, 1 and 1 contexts


def _reference_message(sizes, n_latents, emissions):
    """The message of a per-context check loop, or None."""
    for c, table in enumerate(emissions):
        arr = np.array(table, dtype=np.float64)
        if arr.shape != (n_latents, sizes[c]):
            return f"emissions[{c}] has shape {arr.shape}, expected {(n_latents, sizes[c])}"
        if not np.all(np.isfinite(arr) & (arr >= 0)):
            return f"emissions[{c}] has negative or non-finite entries"
        sums = arr.sum(axis=1)
        bad = np.nonzero(np.abs(sums - 1.0) > PROB_ATOL)[0]
        if bad.size:
            return (
                f"emissions[{c}] row {bad[0]} sums to {sums[bad[0]]!r}, "
                f"expected 1 ± {PROB_ATOL}"
            )
    return None


def _message(system_args):
    try:
        MixtureBayesSystem(*system_args)
    except ValidationError as error:
        return str(error)
    return None


def _valid(n_latents=3, seed=0):
    rng = np.random.default_rng(seed)
    system = random_mixture_system(generic_partition(SIZES), n_latents, rng)
    emissions = [np.array(system.emissions(c)) for c in range(len(SIZES))]
    return system.partition, system.latent_weights, emissions


def test_pinned_messages():
    partition, weights, emissions = _valid()
    bad = [table.copy() for table in emissions]
    bad[3] = np.ones((3, 2)) / 2
    assert _message((partition, weights, bad)) == (
        "emissions[3] has shape (3, 2), expected (3, 3)"
    )

    bad = [table.copy() for table in emissions]
    bad[4][2, 1] = math.nan
    assert _message((partition, weights, bad)) == (
        "emissions[4] has negative or non-finite entries"
    )

    bad = [table.copy() for table in emissions]
    bad[1][0] = [-0.5, 1.5]  # sums to 1
    assert _message((partition, weights, bad)) == (
        "emissions[1] has negative or non-finite entries"
    )

    bad = [table.copy() for table in emissions]
    bad[5][2] = [0.25, 0.25, 0.25, 0.2]
    assert _message((partition, weights, bad)) == (
        f"emissions[5] row 2 sums to {np.float64(0.95)!r}, expected 1 ± {PROB_ATOL}"
    )

    bad = [table.copy() for table in emissions]
    bad[2] = [[0.5, 0.5, 0.0], [0.3, 0.3, 0.3], [0.1, 0.1, 0.1]]  # a nested list
    assert _message((partition, weights, bad)) == (
        f"emissions[2] row 1 sums to {np.float64(0.3) * 3!r}, expected 1 ± {PROB_ATOL}"
    )


def test_first_offending_context_wins():
    partition, weights, emissions = _valid()
    # a row sum in context 2 before a NaN in context 4 of the same run
    bad = [table.copy() for table in emissions]
    bad[2][1] *= 2
    bad[4][0, 0] = math.nan
    assert _message((partition, weights, bad)).startswith("emissions[2] row 1 sums")
    # within one context the entries come before the sums
    bad = [table.copy() for table in emissions]
    bad[3][0] *= 2
    bad[3][2, 2] = -1.0
    assert _message((partition, weights, bad)) == (
        "emissions[3] has negative or non-finite entries"
    )
    # a NaN in context 2 before a wrong shape in context 4 of its run
    bad = [table.copy() for table in emissions]
    bad[2][0, 0] = math.inf
    bad[4] = np.ones((3, 4)) / 4
    assert _message((partition, weights, bad)) == (
        "emissions[2] has negative or non-finite entries"
    )
    # a wrong shape in context 3 before a bad sum in context 4
    bad = [table.copy() for table in emissions]
    bad[3] = np.ones((2, 3)) / 3
    bad[4][0] *= 3
    assert _message((partition, weights, bad)).startswith("emissions[3] has shape")


@pytest.mark.parametrize("seed", range(40))
def test_messages_match_per_context_loop(seed):
    rng = np.random.default_rng(seed)
    n_latents = int(rng.integers(1, 5))
    partition, weights, emissions = _valid(n_latents, seed)
    bad = [table.copy() for table in emissions]
    for _ in range(int(rng.integers(1, 4))):
        c = int(rng.integers(len(SIZES)))
        kind = rng.integers(5)
        if kind == 0:
            bad[c] = np.ones((n_latents, SIZES[c] + 1)) / (SIZES[c] + 1)
        elif kind == 1:
            bad[c][rng.integers(n_latents), rng.integers(SIZES[c])] = math.nan
        elif kind == 2:
            bad[c][rng.integers(n_latents), rng.integers(SIZES[c])] = -0.25
        elif kind == 3:
            bad[c][rng.integers(n_latents)] *= 1 + 1e-9
        else:
            bad[c][rng.integers(n_latents), rng.integers(SIZES[c])] = math.inf
    expected = _reference_message(SIZES, n_latents, bad)
    assert expected is not None
    assert _message((partition, weights, bad)) == expected


def test_valid_tables_are_kept_bitwise_and_frozen():
    partition, weights, emissions = _valid(4, 7)
    system = MixtureBayesSystem(partition, weights, emissions)
    for c, table in enumerate(emissions):
        kept = system.emissions(c)
        assert np.array_equal(kept, table) and kept is not table
        assert kept.flags.c_contiguous and not kept.flags.writeable
