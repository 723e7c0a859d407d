"""Tempering at finite beta other than 1 against a test-local copy of the
masked form it replaced: exp(beta·(log p − log max)) over the positive
entries and 0.0 elsewhere. The shipped form takes the log of every entry
in one buffer; each comparison is bitwise, sign bits included, and no
warning may be raised."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from cohopt import enumerate_policy_masses, generic_partition, random_mixture_system
from cohopt.systems import _tempered_weights, temper

BETAS = [0.01, 0.5, 2.0, 3.7, 1e3]
TINY = 5e-324  # the smallest subnormal


def _masked(p, beta):
    out = np.zeros_like(p)
    positive = p > 0
    out[positive] = np.exp(beta * (np.log(p[positive]) - math.log(float(p.max()))))
    return out


def _assert_bitwise(p, beta):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _tempered_weights(p, beta)
        weights = temper(p, beta)
    expected = _masked(p, beta)
    assert got is not p
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))
    assert np.array_equal(weights, expected / expected.sum())


def _special_rows():
    rows = [
        [1.0],
        [TINY],
        [0.0, 1.0],
        [0.25, 0.0, 0.75],
        [0.0, 0.0, 0.5, 0.0],
        [1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.5, 0.5],
        [0.3, 0.3, 0.3, 0.1],
        [TINY, 1.0, 0.0],
        [TINY, TINY, 0.0],
        [4 * TINY, TINY, 2.2e-308],
        [1e-300, 1e-310, 0.0, 1e-320],
        [0.2, TINY, 0.2, 0.0, 0.6],
    ]
    rng = np.random.default_rng(2)
    for size in (7, 16, 33, 70):
        row = rng.random(size)
        row[rng.choice(size, size // 3, replace=False)] = 0.0
        row[rng.choice(size, 2, replace=False)] = TINY
        rows.append(row)
    return [np.array(row) for row in rows]


@pytest.mark.parametrize("beta", BETAS)
def test_seeded_rows_of_every_length(beta):
    # lengths 1-70 cover every vector tail of the elementwise loops
    rng = np.random.default_rng(1)
    for size in range(1, 71):
        for _ in range(5):
            _assert_bitwise(rng.dirichlet([0.3] * size), beta)
            _assert_bitwise(rng.random(size) * 10.0 ** rng.integers(-300, 3), beta)


@pytest.mark.parametrize("beta", BETAS)
def test_zeros_subnormals_ties_and_one_hot_rows(beta):
    for row in _special_rows():
        _assert_bitwise(row, beta)


def test_zero_entries_give_exact_zero():
    got = _tempered_weights(np.array([0.0, 0.4, 0.0, TINY, 0.6]), 1e3)
    assert got[0] == 0.0 and got[2] == 0.0 and got[3] == 0.0
    assert not np.signbit(got).any()


@pytest.mark.parametrize("beta", [0.5, 2.0])
def test_full_policy_mass_vector(beta):
    # the 3^12 masses generate_scenario tempers at a finite truth_beta
    system = random_mixture_system(
        generic_partition((3,) * 12), 2, np.random.default_rng(3),
        emission_concentration=5.0,
    )
    masses = enumerate_policy_masses(system)
    assert masses.size == 531_441
    _assert_bitwise(masses, beta)
