"""The system's log-emission row table and the numerator fold that gathers
from it. The table is C-ordered, so a gather copies whole rows, and holds the
bits of the Fortran-ordered table it replaced. numerators() is checked bitwise
against a left fold written in Python floats, one latent at a time: a fold
with sum(axis=0) would sum one latent's column pairwise and fail here."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cohopt import (
    Conditioned,
    DPolicy,
    MixtureBayesSystem,
    generic_partition,
    state_of_policy,
)

LATENTS = [1, 2, 32]
SIZES = (3, 2, 4, 3, 1, 2, 3, 4, 2, 3, 3, 2, 4, 2, 3, 2, 3)


def _system(rng, latents, sizes, zeros):
    """A mixture whose emission rows, where zeros is set, hold one exact zero
    per latent in every context of two or more behaviors, so that the log
    rows hold -inf."""
    weights = rng.dirichlet(np.ones(latents))
    emissions = []
    for size in sizes:
        rows = rng.dirichlet(np.full(size, 0.7), size=latents)
        if zeros and size > 1:
            rows[np.arange(latents), rng.integers(size, size=latents)] = 0.0
            rows /= rows.sum(axis=1, keepdims=True)
        emissions.append(rows)
    return MixtureBayesSystem(generic_partition(sizes), weights, emissions)


def _fortran_table(system):
    """The row table as the parent built it: the log of a concatenation of
    transposed emission tables, which comes out Fortran-ordered."""
    tables = [system.emissions(c) for c in range(system.partition.n_contexts)]
    with np.errstate(divide="ignore"):
        return np.log(
            np.concatenate([*(t.T for t in tables), np.ones((1, system.n_latents))])
        )


def _python_fold(core, assignment, skip):
    """base + row_0 + row_1 + ... per latent, in Python floats and in
    position order, leaving out the skipped positions."""
    out = []
    for latent, total in enumerate(core.base.tolist()):
        for j, a in enumerate(assignment):
            if j not in skip:
                total += float(core.log_emissions[j][latent, a])
        out.append(total)
    return np.array(out)


def _same_bits(got, expected):
    return got.dtype == expected.dtype and np.array_equal(
        got.view(np.uint64), expected.view(np.uint64)
    )


@pytest.mark.parametrize("zeros", [False, True])
@pytest.mark.parametrize("latents", LATENTS)
def test_row_table_is_c_ordered_with_the_fortran_tables_bits(latents, zeros):
    system = _system(np.random.default_rng(latents), latents, SIZES, zeros)
    table = system._log_emission_rows
    expected = _fortran_table(system)
    assert table.flags.c_contiguous and not table.flags.writeable
    assert table.shape == (system.partition.n_behaviors + 1, latents)
    assert np.array_equal(table, expected)
    assert _same_bits(table, expected)
    assert np.all(table[-1] == 0.0)
    assert np.isneginf(table).any() == zeros


@pytest.mark.parametrize("zeros", [False, True])
@pytest.mark.parametrize("latents", LATENTS)
def test_numerators_are_the_python_left_fold(latents, zeros):
    rng = np.random.default_rng(100 + latents)
    system = _system(rng, latents, SIZES, zeros)
    partition = system.partition
    k = len(SIZES)
    skips = [(), (0,), (k // 2,), (k - 1,), (0, 3, 4, k - 1), tuple(range(1, k, 2))]
    # the whole space, and a subset in a scrambled order under a prior that
    # latent 0 gives mass
    prior_policy = DPolicy(
        tuple(int(system.emissions(c)[0].argmax()) for c in range(k))
    )
    subset = (5, 0, 16, 2, 9, 11, 3)
    cores = [
        Conditioned(system),
        Conditioned(
            system,
            state_of_policy(partition, prior_policy, [1, 4, 6, 7]),
            subset,
        ),
    ]
    hit_neginf = False
    for core in cores:
        n = len(core.contexts)
        for _ in range(12):
            assignment = [int(rng.integers(s)) for s in core.sizes]
            for skip in skips:
                skip = tuple(j for j in skip if j < n)
                got = core.numerators(assignment, skip)
                expected = _python_fold(core, assignment, skip)
                assert _same_bits(got, expected), (assignment, skip)
                hit_neginf |= bool(np.isneginf(got).any())
    assert hit_neginf == zeros


def test_one_latent_sums_that_a_pairwise_sum_rounds_differently():
    """Over one latent, the fold's rows sum in position order; the inputs
    are chosen so that numpy's pairwise sum of the same column differs."""
    rng = np.random.default_rng(7)
    sizes = (2,) * 40
    system = _system(rng, 1, sizes, False)
    core = Conditioned(system)
    differs = 0
    for _ in range(20):
        assignment = [int(rng.integers(2)) for _ in sizes]
        got = core.numerators(assignment)
        assert _same_bits(got, _python_fold(core, assignment, ()))
        column = [core.base] + [
            core.log_emissions[j][:, a] for j, a in enumerate(assignment)
        ]
        differs += not _same_bits(got, np.sum(column, axis=0))
    assert differs > 0


def test_all_latents_dead_gives_an_all_neginf_fold():
    sizes = (2, 3, 2)
    emissions = [
        np.array([[0.0, 1.0], [0.0, 1.0]]),
        np.array([[0.5, 0.5, 0.0], [0.25, 0.25, 0.5]]),
        np.array([[1.0, 0.0], [0.5, 0.5]]),
    ]
    system = MixtureBayesSystem(generic_partition(sizes), [0.5, 0.5], emissions)
    core = Conditioned(system)
    got = core.numerators([0, 2, 1])
    assert _same_bits(got, _python_fold(core, [0, 2, 1], ()))
    assert np.all(got == -math.inf)
    # leaving the dead position out leaves finite numerators
    got = core.numerators([0, 0, 0], (0,))
    assert _same_bits(got, _python_fold(core, [0, 0, 0], (0,)))
    assert np.all(np.isfinite(got))
