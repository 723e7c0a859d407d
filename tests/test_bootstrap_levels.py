"""bootstrap_exact_distribution walks the path tree one level at a time, in
blocks of nodes, and must give bitwise (compared as 64-bit patterns) the
masses of a test-local depth-first walk that tempers one node at a time.

Cases run over beta 0.5, 1, 2 and inf (with exact ties at inf), priors and
reversed context subsets, zero latent weights and one-hot emission rows
(whose zero steps are pruned), and a joint table at epsilon 0. A level that
spans several blocks is forced by a smaller _BLOCK_ENTRIES. The cap error
comes before any work, beta is checked on the empty subset too, and the
peak memory of a walk whose widest level would hold 2^22 numerators stays
within a stated number of blocks."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from cohopt import (
    Conditioned,
    EnumerationCapError,
    MixtureBayesSystem,
    PolicyState,
    ValidationError,
    bootstrap_exact_distribution,
    from_joint_table,
    generic_partition,
    random_mixture_system,
    temper,
)
from cohopt import samplers

BETAS = (0.5, 1.0, 2.0, math.inf)


def _depth_first(system, order, beta, prior=None, contexts=None):
    """The walk node by node: one predictive and one temper() per node
    reached by positive steps, children pushed in behavior order."""
    core = Conditioned(system, prior, contexts)
    sizes = [core.sizes[j] for j in order]
    masses = np.zeros(math.prod(sizes))  # indexed in visiting order
    stack = [(0, core.base, 1.0, 0)]
    while stack:
        level, numerators, mass, index = stack.pop()
        j = order[level]
        steps = temper(core.predictive(numerators, j)[0], beta)
        index *= sizes[level]
        if level == len(order) - 1:
            masses[index : index + sizes[level]] = mass * steps
            continue
        for a in np.flatnonzero(steps):
            child = core.extend(numerators, j, a)
            stack.append((level + 1, child, mass * steps[a], index + a))
    masses = masses.reshape(sizes).transpose(np.argsort(order)).ravel()
    return masses / masses.sum()


def _same(got, expected) -> bool:
    got, expected = np.asarray(got), np.asarray(expected)
    return got.shape == expected.shape and np.array_equal(
        got.view(np.uint64), expected.view(np.uint64)
    )


def _check(system, order, prior=None, contexts=None, betas=BETAS):
    for beta in betas:
        got = bootstrap_exact_distribution(
            system, order, beta, prior=prior, contexts=contexts
        )
        expected = _depth_first(system, order, beta, prior, contexts)
        assert np.array_equal(got.masses, expected)
        assert _same(got.masses, expected), (order, beta)


def _mixture(sizes, n_latents, seed, concentration=0.5):
    rng = np.random.default_rng(seed)
    return random_mixture_system(
        generic_partition(sizes), n_latents, rng, emission_concentration=concentration
    )


@pytest.mark.parametrize("n_latents", (1, 2, 4, 7, 32))
@pytest.mark.parametrize("concentration", (0.2, 1.0, 5.0))
def test_random_mixtures(n_latents, concentration):
    rng = np.random.default_rng(n_latents * 10 + int(concentration * 10))
    for _ in range(6):
        sizes = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 6)))]
        system = _mixture(sizes, n_latents, int(rng.integers(1 << 30)), concentration)
        _check(system, [int(j) for j in rng.permutation(len(sizes))])


def test_wide_contexts():
    # rows of 9 and 11 behaviors: their sums leave numpy's short-row loop
    _check(_mixture((9, 2, 11), 5, 3), [2, 0, 1])


def test_priors_and_reversed_subsets():
    system = _mixture((2, 3, 3, 2, 4), 6, 11)
    prior = PolicyState({0: 1, 2: 2})  # behaviors of contexts 0 and 1
    for contexts in ((4, 3, 2), (3, 1), (2,)):
        for order in (list(range(len(contexts))), list(range(len(contexts)))[::-1]):
            _check(system, order, prior, contexts)


def test_ties_at_infinite_beta():
    # latents that mirror each other give exact ties at every node, and a
    # uniform row ties every behavior of its context
    partition = generic_partition((3, 3, 2))
    row = np.array([0.5, 0.3, 0.2])
    emissions = [
        np.array([row, row[::-1]]),
        np.array([row[::-1], row]),
        np.full((2, 2), 0.5),
    ]
    system = MixtureBayesSystem(partition, [0.5, 0.5], emissions)
    for order in ([0, 1, 2], [2, 1, 0], [1, 2, 0]):
        _check(system, order, betas=(math.inf,))
        got = bootstrap_exact_distribution(system, order, math.inf).masses
        assert np.count_nonzero(got) > 1  # the ties split the mass


def test_zero_weights_and_one_hot_rows_prune_zero_steps():
    partition = generic_partition((3, 3, 3, 2))
    rng = np.random.default_rng(5)
    emissions = [rng.dirichlet(np.ones(size), size=4) for size in (3, 3, 3, 2)]
    emissions[1][0] = [0.0, 1.0, 0.0]  # one-hot rows
    emissions[2][2] = [1.0, 0.0, 0.0]
    emissions[2][3] = [0.0, 0.0, 1.0]
    system = MixtureBayesSystem(partition, [0.4, 0.0, 0.6, 0.0], emissions)
    for order in ([0, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2]):
        _check(system, order)
    assert np.count_nonzero(bootstrap_exact_distribution(system, [0, 1, 2, 3], 1.0).masses == 0)


def test_joint_table_at_epsilon_zero():
    rng = np.random.default_rng(8)
    sizes = (3, 2, 3, 2)
    table = rng.random(math.prod(sizes)) * (rng.random(math.prod(sizes)) > 0.5)
    table[0] = 1.0
    system = from_joint_table(generic_partition(sizes), table / table.sum(), 0.0)
    for order in ([0, 1, 2, 3], [3, 1, 0, 2]):
        _check(system, order)
    _check(system, [1, 0], PolicyState({2: 1}), (3, 0))


def test_level_spans_several_blocks(monkeypatch):
    system = _mixture((3, 3, 3, 3, 3), 4, 21)
    order = [3, 0, 4, 1, 2]
    rows = []

    def stacked(table, emissions, inner=samplers._stacked_predictive):
        rows.append(table.shape[0])
        return inner(table, emissions)

    monkeypatch.setattr(samplers, "_stacked_predictive", stacked)
    monkeypatch.setattr(samplers, "_BLOCK_ENTRIES", 2 * 4)  # two nodes a block
    _check(system, order)
    rows.clear()
    bootstrap_exact_distribution(system, order, 1.0)
    # every one of the 1 + 3 + 9 + 27 + 81 nodes, in blocks of at most two
    assert max(rows) == 2 and sum(rows) == 121 and len(rows) == 1 + 2 + 5 + 14 + 41


def test_cap_error_before_any_work(monkeypatch):
    def fail(*args):
        raise AssertionError("walked before the cap check")

    monkeypatch.setattr(samplers, "_stacked_predictive", fail)
    with pytest.raises(EnumerationCapError):
        bootstrap_exact_distribution(_mixture((3, 3, 3), 2, 1), [2, 0, 1], 1.0, cap=26)
    # the cap is checked before beta
    with pytest.raises(EnumerationCapError):
        bootstrap_exact_distribution(_mixture((3, 3, 3), 2, 1), [2, 0, 1], -1.0, cap=26)


@pytest.mark.parametrize("beta", (-1.0, 0.0, math.nan))
def test_beta_checked_on_the_empty_subset(beta):
    system = _mixture((2, 3), 3, 14)
    with pytest.raises(ValidationError, match="beta must be positive"):
        bootstrap_exact_distribution(system, [], beta, contexts=[])
    # the cap check still comes first
    with pytest.raises(ValidationError, match="enumeration cap"):
        bootstrap_exact_distribution(system, [], beta, contexts=[], cap=0)


def test_valid_beta_on_the_empty_subset():
    got = bootstrap_exact_distribution(_mixture((2, 3), 3, 14), [], 2.0, contexts=[])
    assert np.array_equal(got.masses, [1.0]) and got.sizes == ()


# One block: _BLOCK_ENTRIES float64 numerators.
BLOCK_BYTES = 8 * (1 << 16)
# The walk holds per level at most one block for each behavior of a pending
# block's children, plus the temporaries of the block it tempers.
PEAK_BLOCKS = 16


def test_peak_memory_stays_within_blocks():
    # 4^6 policies, one latent each: the widest level, 4^5 nodes, would hold
    # 2^22 numerators (32 MB) in one table
    partition = generic_partition((4,) * 6)
    joint = np.random.default_rng(3).dirichlet(np.ones(4**6))
    system = from_joint_table(partition, joint, 0.0)
    order = [5, 0, 3, 1, 4, 2]
    assert 4**5 * system.n_latents * 8 >= 4 * PEAK_BLOCKS * BLOCK_BYTES
    bootstrap_exact_distribution(system, order, 1.0)  # the system's own tables
    tracemalloc.start()
    try:
        bootstrap_exact_distribution(system, order, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_BLOCKS * BLOCK_BYTES, peak / BLOCK_BYTES
