"""The blocked exact-enumeration kernel against a test-local copy of the
per-latent outer-product loop it replaced, and the one rule for enumeration
caps. Every table comparison is bitwise, sign bits included."""

from __future__ import annotations

import math

import numpy as np
import pytest
from click.testing import CliRunner

from cohopt import (
    Conditioned,
    EnumerationCapError,
    MixtureBayesSystem,
    PolicyState,
    ValidationError,
    bootstrap_exact_distribution,
    check_ergodicity,
    enumerate_policy_masses,
    exact_conditional_distribution,
    from_joint_table,
    generic_partition,
    random_mixture_system,
    save_scenario,
    softmax_over_coherence,
    srm_select,
    write_distribution_csv,
)
from cohopt import systems
from cohopt.cli import main
from cohopt.systems import _enumerate_masses

from conftest import condiments_partition, condiments_table

BLOCK = systems._BLOCK_ENTRIES
COLUMN = systems._COLUMN_ENTRIES


def _reference_masses(weights, emissions, sizes):
    """One chain of outer products per latent of nonzero weight, added in
    latent order into a total that starts at zero."""
    masses = np.zeros(math.prod(sizes))
    for theta in np.flatnonzero(weights):
        lik = weights[theta : theta + 1]
        for table in emissions:
            lik = np.multiply.outer(lik, table[theta]).ravel()
        masses += lik
    return masses


def _assert_bitwise(got, expected):
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


def _random_tables(rng, sizes, latents, concentration=1.0):
    weights = rng.dirichlet([1.0] * latents)
    emissions = [
        rng.dirichlet([concentration] * size, size=latents) for size in sizes
    ]
    return weights, emissions


def _check_kernel(weights, emissions, sizes):
    _assert_bitwise(
        _enumerate_masses(weights, emissions, sizes, systems.DEFAULT_ENUMERATION_CAP),
        _reference_masses(weights, emissions, sizes),
    )


class TestKernelMatchesReference:
    def test_one_latent(self):
        rng = np.random.default_rng(0)
        for sizes in ([3], [2, 4], [3, 3, 3], [5, 1, 2, 3]):
            _check_kernel(*_random_tables(rng, sizes, 1), sizes)

    @pytest.mark.parametrize("sizes", [(4, 4, 3, 3, 3, 3), (3, 3, 3), (2, 5)])
    def test_latent_counts_around_the_block(self, sizes):
        step = BLOCK // math.prod(sizes)
        rng = np.random.default_rng(1)
        for latents in (step - 1, step, step + 1, 2 * step + 3):
            _check_kernel(*_random_tables(rng, sizes, latents), sizes)

    def test_spaces_wider_than_a_block(self):
        # one latent per block; the wide levels take the column path
        sizes = (3,) * (math.ceil(math.log(BLOCK, 3)) + 1)
        assert math.prod(sizes) > BLOCK
        rng = np.random.default_rng(2)
        for latents in (1, 2, 3):
            _check_kernel(*_random_tables(rng, sizes, latents), sizes)

    def test_column_and_broadcast_levels(self):
        # levels of fewer, exactly and more entries than the column threshold
        rng = np.random.default_rng(3)
        for sizes in (
            (COLUMN - 1, 2),
            (COLUMN, 2),
            (COLUMN + 1, 3),
            (2,) * (COLUMN.bit_length() + 2),
            (2, 3) * 4,
        ):
            for latents in (1, 3, 7):
                _check_kernel(*_random_tables(rng, sizes, latents), sizes)

    def test_contexts_of_size_one(self):
        rng = np.random.default_rng(4)
        for sizes in ((1,), (1, 1), (1, 3, 1, 2), (COLUMN + 2, 1, 1, 2)):
            for latents in (1, 4):
                _check_kernel(*_random_tables(rng, sizes, latents), sizes)

    def test_no_positions(self):
        rng = np.random.default_rng(5)
        for latents in (1, 6, BLOCK + 2):
            weights = rng.dirichlet([1.0] * latents)
            _check_kernel(weights, [], ())

    @pytest.mark.parametrize("zeros", ["first", "middle", "last", "spread"])
    def test_zero_weight_latents(self, zeros):
        sizes = (4, 4, 3, 3)
        latents = 2 * (BLOCK // math.prod(sizes)) + 5
        rng = np.random.default_rng(6)
        weights, emissions = _random_tables(rng, sizes, latents)
        where = {
            "first": [0, 1],
            "middle": [latents // 2],
            "last": [latents - 1],
            "spread": list(range(0, latents, 3)),
        }[zeros]
        weights[where] = 0.0
        _check_kernel(weights, emissions, sizes)

    def test_zero_and_negative_zero_emissions(self):
        rng = np.random.default_rng(7)
        sizes = (3, COLUMN + 1, 2)
        weights, emissions = _random_tables(rng, sizes, 5, concentration=0.3)
        emissions[0][:, 1] = 0.0
        emissions[1][2, :4] = -0.0
        emissions[1][0, 0] = -0.0
        emissions[2][4, 0] = -0.0
        _check_kernel(weights, emissions, sizes)

    def test_every_product_negative_zero(self):
        weights = np.array([0.25, 0.75])
        emissions = [np.array([[-0.0, 1.0], [-0.0, 1.0]])]
        got = _enumerate_masses(weights, emissions, (2,), 10)
        _assert_bitwise(got, _reference_masses(weights, emissions, (2,)))
        assert not np.signbit(got[0])


class TestEntryPointsMatchReference:
    def test_negative_zero_emission_system(self):
        partition = generic_partition([2, 3])
        emissions = [
            np.array([[1.0, -0.0], [0.5, 0.5]]),
            np.array([[-0.0, 0.5, 0.5], [0.2, -0.0, 0.8]]),
        ]
        system = MixtureBayesSystem(partition, np.array([0.4, 0.6]), emissions)
        assert np.signbit(system.emissions(1)[0, 0])
        _assert_bitwise(
            enumerate_policy_masses(system),
            _reference_masses(
                system.latent_weights,
                [system.emissions(0), system.emissions(1)],
                partition.sizes,
            ),
        )

    @pytest.mark.parametrize("epsilon", [0.0, 0.05])
    def test_from_joint_table(self, epsilon):
        for sizes, table in (
            ((3, 3), condiments_table(0.0)),
            ((4, 4, 3, 3, 3, 3), None),
        ):
            if table is None:
                rng = np.random.default_rng(8)
                table = rng.dirichlet([1.0] * math.prod(sizes)).reshape(sizes)
                partition = generic_partition(sizes)
            else:
                partition = condiments_partition()
            system = from_joint_table(partition, table, epsilon=epsilon)
            emissions = [system.emissions(c) for c in range(partition.n_contexts)]
            _assert_bitwise(
                enumerate_policy_masses(system),
                _reference_masses(system.latent_weights, emissions, sizes),
            )

    def test_conditioned_subsets(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            sizes = [int(rng.integers(1, 6)) for _ in range(int(rng.integers(1, 6)))]
            partition = generic_partition(sizes)
            system = random_mixture_system(
                partition, int(rng.integers(1, 40)), rng, emission_concentration=0.5
            )
            prior = PolicyState.from_behaviors(
                [int(rng.integers(0, partition.n_behaviors))
                 for _ in range(int(rng.integers(0, 3)))]
            )
            k = int(rng.integers(0, len(sizes) + 1))
            contexts = [int(c) for c in rng.permutation(len(sizes))[:k]]
            core = Conditioned(system, prior, contexts)
            expected = _reference_masses(
                core.posterior_weights(core.base)[0], core.emissions, core.sizes
            )
            _assert_bitwise(core.masses(), expected / expected.sum())

    def test_empty_context_subset(self):
        system = random_mixture_system(
            generic_partition([3, 2]), 5, np.random.default_rng(10)
        )
        core = Conditioned(system, contexts=())
        expected = _reference_masses(core.posterior_weights(core.base)[0], [], ())
        _assert_bitwise(core.masses(), expected / expected.sum())
        assert core.masses(cap=1).shape == (1,)


def _mixture():
    return random_mixture_system(
        generic_partition([3, 3, 3]), 2, np.random.default_rng(11)
    )


EXHAUSTIVE = {
    "enumerate_policy_masses": lambda s, cap: enumerate_policy_masses(s, cap=cap),
    "masses": lambda s, cap: Conditioned(s).masses(cap),
    "softmax_over_coherence": lambda s, cap: softmax_over_coherence(s, 1.0, cap=cap),
    "exact_conditional_distribution": lambda s, cap: exact_conditional_distribution(
        s, 1.0, cap=cap
    ),
    "bootstrap_exact_distribution": lambda s, cap: bootstrap_exact_distribution(
        s, [0, 1, 2], 1.0, cap=cap
    ),
    "srm_select": lambda s, cap: srm_select(
        s, PolicyState.zero(), None, [(0, 1)], cap=cap
    ),
    "check_ergodicity": lambda s, cap: check_ergodicity(s, cap=cap),
    "iter_policies": lambda s, cap: list(s.partition.iter_policies(cap=cap)),
}


class TestCapBelowOne:
    @pytest.mark.parametrize("name", sorted(EXHAUSTIVE))
    @pytest.mark.parametrize("cap", [0, -3])
    def test_invalid_cap_is_a_validation_error(self, name, cap):
        with pytest.raises(ValidationError, match="at least 1"):
            EXHAUSTIVE[name](_mixture(), cap)

    @pytest.mark.parametrize("name", sorted(EXHAUSTIVE))
    def test_small_cap_still_overflows(self, name):
        with pytest.raises(EnumerationCapError):
            EXHAUSTIVE[name](_mixture(), 1)

    @pytest.mark.parametrize("cap, code", [("0", 2), ("-3", 2), ("1", 4), ("8", 4)])
    def test_cli_exit_codes(self, tmp_path, cap, code):
        scenario = tmp_path / "mixture.json"
        system = _mixture()
        save_scenario(scenario, system.partition, system, name="mixture")
        result = CliRunner().invoke(
            main,
            ["enumerate", str(scenario), "--cap", cap, "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == code, result.output
        assert not (tmp_path / "o").exists()


class TestDistributionCsvMasses:
    def test_writes_the_log2_of_the_given_masses(self, tmp_path):
        system = _mixture()
        masses = Conditioned(system).masses()
        path = write_distribution_csv(
            tmp_path / "x.csv",
            system.partition,
            softmax_over_coherence(system, 2.0),
            masses,
        )
        rows = path.read_text().splitlines()[1:]
        bits = sorted(float(row.rsplit(",", 1)[1]) for row in rows)
        assert bits == sorted(np.log2(masses).tolist())

    @pytest.mark.parametrize("bad", ["system", "short", "2-D", "list"])
    def test_rejects_anything_but_the_mass_table(self, tmp_path, bad):
        system = _mixture()
        masses = Conditioned(system).masses()
        given = {
            "system": system,
            "short": masses[:-1],
            "2-D": masses.reshape(9, 3),
            "list": masses.tolist(),
        }[bad]
        with pytest.raises(ValidationError, match="mass table"):
            write_distribution_csv(
                tmp_path / "x.csv",
                system.partition,
                softmax_over_coherence(system, 1.0),
                given,
            )
        assert not (tmp_path / "x.csv").exists()
