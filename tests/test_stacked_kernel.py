"""The enumeration kernel on stacks of systems: masses of shape (..., count)
from weights of shape (..., latents) and tables of shape (..., latents,
size), against one call per system. Every comparison is bitwise, sign bits
included; a stack may take other block sizes and other level paths than
its systems' own calls do."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cohopt import systems
from cohopt.systems import _enumerate_masses

BLOCK = systems._BLOCK_ENTRIES
COLUMN = systems._COLUMN_ENTRIES
CAP = systems.DEFAULT_ENUMERATION_CAP


def _stack(rng, stack, sizes, latents, concentration=1.0):
    weights = rng.dirichlet([1.0] * latents, size=stack)
    emissions = [
        rng.dirichlet([concentration] * size, size=(*stack, latents))
        for size in sizes
    ]
    return weights, emissions


def _check_stack(weights, emissions, sizes):
    got = _enumerate_masses(weights, emissions, sizes, CAP)
    assert got.shape == (*weights.shape[:-1], math.prod(sizes))
    for s in np.ndindex(weights.shape[:-1]):
        tables = [table[s] for table in emissions]
        one = _enumerate_masses(weights[s], tables, sizes, CAP)
        assert np.array_equal(got[s], one)
        assert np.array_equal(np.signbit(got[s]), np.signbit(one))


@pytest.mark.parametrize("stack", [(1,), (5,), (2, 3)])
@pytest.mark.parametrize("sizes", [(3, 3, 3), (2, 5, 1, 3), (4,), ()])
@pytest.mark.parametrize("latents", [1, 2, 7])
def test_stacks_match_one_call_per_system(stack, sizes, latents):
    rng = np.random.default_rng(len(sizes) + 10 * latents)
    _check_stack(*_stack(rng, stack, sizes, latents), sizes)


def test_zero_weight_and_negative_zero_entries_in_one_system():
    rng = np.random.default_rng(1)
    sizes = (3, 2, 4)
    weights, emissions = _stack(rng, (4,), sizes, 3, concentration=0.3)
    # latent 2 has zero weight in every system, so the stack skips it;
    # system 2 gives latent 1 zero weight and system 3 gives latent 0 -0.0,
    # where the other systems keep them
    weights[:, 2] = 0.0
    weights[2, 1] = 0.0
    weights[3, 0] = -0.0
    emissions[0][2, 0, 1] = -0.0
    emissions[0][2, 1, :] = -0.0
    emissions[1][2, :, 0] = -0.0
    emissions[2][3, 0, :2] = 0.0
    emissions[2][0, 1, 3] = -0.0
    _check_stack(weights, emissions, sizes)
    got = _enumerate_masses(weights, emissions, sizes, CAP)
    assert not np.signbit(got).any()
    assert (got[2] == 0.0).any() and (got[2] > 0.0).any()


def test_zero_one_tables():
    # _zero_mass_index counts live latents on 0/1 tables
    rng = np.random.default_rng(2)
    sizes = (3, 3, 2, 4)
    weights, emissions = _stack(rng, (6,), sizes, 5, concentration=0.2)
    live = (rng.random(weights.shape) < 0.7).astype(np.float64)
    ones = [(table > 0.05).astype(np.float64) for table in emissions]
    _check_stack(live, ones, sizes)
    counts = _enumerate_masses(live, ones, sizes, CAP)
    assert np.array_equal(counts, np.round(counts))


def test_broadcast_and_column_levels():
    rng = np.random.default_rng(3)
    # each system's levels stay under the column threshold; the stack's do not
    sizes = (3, 3, 3)
    assert 2 * math.prod(sizes) < COLUMN <= 64 * 2 * 9
    _check_stack(*_stack(rng, (64,), sizes, 2), sizes)
    # both paths within each system's own call, and within the stack's
    for sizes in ((COLUMN - 1, 2), (COLUMN + 1, 3), (2,) * (COLUMN.bit_length() + 1)):
        _check_stack(*_stack(rng, (3,), sizes, 3), sizes)


def test_more_latents_than_one_block_holds():
    rng = np.random.default_rng(4)
    # the stack takes blocks of 64 latents, each system one block of 256
    sizes = (4, 4, 4, 4)
    assert BLOCK // (4 * math.prod(sizes)) == 64
    weights, emissions = _stack(rng, (4,), sizes, 100)
    weights[1, 60:70] = 0.0
    _check_stack(weights, emissions, sizes)
    # every system's own call takes several blocks too
    sizes = (8, 8, 8, 8)
    _check_stack(*_stack(rng, (3,), sizes, 40), sizes)
