"""The inference core: closed-form coherence against the step-by-step oracle,
normalized enumeration, the cap contract of every exhaustive entry point,
the scale-free infinite-beta tie rule, rejection of non-finite systems and
of NaN inverse temperatures, and the policy-table builders against
index-by-index references, the one log-emission table against np.log of
each context's emissions, and the one assignment check behind every entry
that takes a policy."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cohopt import (
    Conditioned,
    DegenerateConditioningError,
    DPolicy,
    EnumerationCapError,
    MixtureBayesSystem,
    PolicyDistribution,
    PolicyState,
    SamplerConfig,
    ValidationError,
    bootstrap_exact_distribution,
    coherence,
    enumerate_policy_masses,
    exact_conditional_distribution,
    from_joint_table,
    generate_scenario,
    generic_partition,
    random_mixture_system,
    sequence_coherence,
    pmi,
    softmax_over_coherence,
    srm_select,
    temper,
)

from conftest import condiments_partition, condiments_system, condiments_table


def _random_case(rng: np.random.Generator):
    sizes = [int(rng.integers(2, 5)) for _ in range(int(rng.integers(1, 5)))]
    partition = generic_partition(sizes)
    system = random_mixture_system(
        partition, int(rng.integers(1, 5)), rng, emission_concentration=0.5
    )
    draws = int(rng.integers(1, 6))
    prior = PolicyState.from_behaviors(
        [int(rng.integers(0, partition.n_behaviors)) for _ in range(draws)]
    )
    policy = DPolicy(tuple(int(rng.integers(0, s)) for s in sizes))
    return system, prior, policy


class TestClosedFormCoherence:
    def test_matches_sequential_oracle(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            system, prior, policy = _random_case(rng)
            closed = coherence(system, prior, policy).bits
            oracle = sequence_coherence(
                system, prior, list(enumerate(policy.assignment))
            ).bits
            assert abs(closed - oracle) <= 1e-12

    def test_zero_mass_policy_is_minus_inf_in_both(self):
        partition = condiments_partition()
        system = from_joint_table(partition, condiments_table(0.0))
        prior = PolicyState.from_behaviors([partition.global_index(1, 1)])
        policy = partition.policy_from_names(["burger_mayo", "fries_other"])
        closed = coherence(system, prior, policy)
        oracle = sequence_coherence(
            system, prior, list(enumerate(policy.assignment))
        )
        assert closed.bits == oracle.bits == -math.inf
        assert closed.failed_step is None
        assert oracle.failed_step == 0

    def test_impossible_prior_raises_in_both(self):
        partition = condiments_partition()
        system = from_joint_table(partition, condiments_table(0.0))
        prior = PolicyState.from_behaviors(
            [partition.global_index(0, 0), partition.global_index(1, 1)]
        )
        policy = partition.policy_at(0)
        with pytest.raises(DegenerateConditioningError):
            coherence(system, prior, policy)
        with pytest.raises(DegenerateConditioningError):
            sequence_coherence(system, prior, list(enumerate(policy.assignment)))


class TestConditionedMasses:
    def test_zero_prior_masses_match_joint_masses(self):
        rng = np.random.default_rng(5)
        system = random_mixture_system(generic_partition([3, 2, 4]), 3, rng)
        np.testing.assert_allclose(
            Conditioned(system).masses(), enumerate_policy_masses(system),
            rtol=1e-12,
        )

    def test_log_masses_equal_closed_form_coherence(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            system, prior, _ = _random_case(rng)
            core = Conditioned(system, prior)
            masses = core.masses()
            for index in range(masses.size):
                policy = system.partition.policy_at(index)
                assert abs(
                    math.log2(masses[index])
                    - core.coherence_bits(policy.assignment)
                ) <= 1e-12

    def test_impossible_leave_one_out_state_raises(self):
        partition = generic_partition([2, 2, 2])
        system = MixtureBayesSystem(
            partition,
            [1.0],
            [np.array([[1.0, 0.0]]), np.array([[0.5, 0.5]]), np.array([[0.5, 0.5]])],
        )
        core = Conditioned(system)
        with pytest.raises(DegenerateConditioningError):
            core.leave_one_out(np.array([1, 0, 0]), 2)


class TestCapContract:
    def test_exact_conditional_distribution_raises_cap_error(self):
        system = random_mixture_system(
            generic_partition([3, 3, 3]), 2, np.random.default_rng(1)
        )
        with pytest.raises(EnumerationCapError):
            exact_conditional_distribution(system, 1.0, cap=26)

    def test_bootstrap_exact_distribution_raises_cap_error(self):
        system = random_mixture_system(
            generic_partition([3, 3, 3]), 2, np.random.default_rng(1)
        )
        with pytest.raises(EnumerationCapError):
            bootstrap_exact_distribution(system, [2, 0, 1], 1.0, cap=26)


class TestTieRule:
    def test_infinite_beta_ties_do_not_depend_on_scale(self):
        p = np.array([0.25, 0.25 * (1 - 1e-15), 0.5 * 0.25, 0.25 * (1 - 1e-9)])
        expected = [0.5, 0.5, 0.0, 0.0]
        for scale in (1.0, 1e-30, 1e30):
            np.testing.assert_array_equal(temper(p * scale, math.inf), expected)


class TestNonFiniteInputs:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_mixture_weights_rejected(self, bad):
        partition = generic_partition([2])
        with pytest.raises(ValidationError):
            MixtureBayesSystem(partition, [bad, 1.0], [np.full((2, 2), 0.5)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_mixture_emissions_rejected(self, bad):
        partition = generic_partition([2])
        with pytest.raises(ValidationError):
            MixtureBayesSystem(partition, [1.0], [np.array([[bad, 0.5]])])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_joint_table_rejected(self, bad):
        table = condiments_table(0.01)
        table[2, 2] = bad
        with pytest.raises(ValidationError):
            from_joint_table(condiments_partition(), table)


class TestInverseTemperature:
    """Every entry point that takes a beta rejects NaN as it rejects zero and
    negative values (a `beta <= 0` test lets NaN through)."""

    ENTRY_POINTS = {
        "temper": lambda beta: temper(np.array([0.25, 0.75]), beta),
        "softmax_over_coherence": lambda beta: softmax_over_coherence(
            from_joint_table(condiments_partition(), condiments_table(0.01)),
            beta,
        ),
        "exact_conditional_distribution": lambda beta: (
            exact_conditional_distribution(
                from_joint_table(condiments_partition(), condiments_table(0.01)),
                beta,
            )
        ),
        "SamplerConfig": lambda beta: SamplerConfig(beta=beta),
        "generate_scenario": lambda beta: generate_scenario(
            3, 2, 2, seed=0, truth_beta=beta
        ),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("beta", [math.nan, 0.0, -1.0])
    def test_rejected(self, entry, beta):
        with pytest.raises(ValidationError, match="must be positive"):
            self.ENTRY_POINTS[entry](beta)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_infinite_beta_accepted(self, entry):
        self.ENTRY_POINTS[entry](math.inf)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_policy_distribution_rejects_non_finite_masses(self, bad):
        with pytest.raises(ValidationError):
            PolicyDistribution(np.array([bad, 0.5, 0.5]))


# --- index-by-index references for the policy-table builders --------------

BETAS = (0.3, 1.0, 2.0, math.inf)


def _gathered_masses(weights, emissions, sizes, chunk=4096):
    """Masses by decoding chunks of policy indices and gathering emission
    columns per latent."""
    count = math.prod(sizes)
    masses = np.empty(count)
    for start in range(0, count, chunk):
        stop = min(start + chunk, count)
        coords = np.unravel_index(np.arange(start, stop), sizes)
        lik = np.repeat(weights[:, None], stop - start, axis=1)
        for j, table in enumerate(emissions):
            lik *= table[:, coords[j]]
        masses[start:stop] = lik.sum(axis=0)
    return masses


def _conditioned_masses(core: Conditioned) -> np.ndarray:
    masses = _gathered_masses(
        np.exp(core.base - float(core.base.max())), core.emissions, core.sizes
    )
    return masses / masses.sum()


def _per_path_bootstrap(core: Conditioned, order, beta) -> np.ndarray:
    """Sequential-sampler masses by walking each policy's own root-to-leaf
    path."""
    count = math.prod(core.sizes)
    masses = np.empty(count)
    for index in range(count):
        assignment = np.unravel_index(index, core.sizes)
        numerators = core.base.copy()
        prob = 1.0
        for j in order:
            p, _ = core.predictive(numerators, j)
            step = float(temper(p, beta)[assignment[j]])
            if step <= 0.0:
                prob = 0.0
                break
            prob *= step
            numerators = numerators + core.log_emissions[j][:, assignment[j]]
        masses[index] = prob
    return masses / masses.sum()


def _seeded_cases(seed: int, n: int):
    """Random systems with 1-8 latents, 1-behavior contexts allowed, a random
    prior and a random context subset in a random order."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        sizes = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 5)))]
        partition = generic_partition(sizes)
        system = random_mixture_system(
            partition, int(rng.integers(1, 9)), rng, emission_concentration=0.5
        )
        prior = PolicyState.from_behaviors(
            [int(rng.integers(0, partition.n_behaviors))
             for _ in range(int(rng.integers(0, 4)))]
        )
        k = int(rng.integers(1, len(sizes) + 1))
        contexts = [int(c) for c in rng.permutation(len(sizes))[:k]]
        order = [int(j) for j in rng.permutation(k)]
        yield system, prior, contexts, order


class TestPolicyTablesMatchReferences:
    def test_joint_masses(self):
        for system, _, _, _ in _seeded_cases(11, 60):
            partition = system.partition
            expected = _gathered_masses(
                system.latent_weights,
                [system.emissions(c) for c in range(partition.n_contexts)],
                partition.sizes,
            )
            got = enumerate_policy_masses(system)
            if got.size == 1:
                # the reference's one-column sum over latents is numpy's
                # pairwise sum; the enumerator adds latents in order
                np.testing.assert_allclose(
                    got, expected, rtol=8 * np.finfo(float).eps, atol=0
                )
            else:
                assert np.array_equal(got, expected)

    def test_conditioned_masses_and_softmax(self):
        for system, prior, contexts, _ in _seeded_cases(12, 60):
            core = Conditioned(system, prior, contexts)
            assert np.array_equal(core.masses(), _conditioned_masses(core))
            joint = _conditioned_masses(Conditioned(system))
            for beta in BETAS:
                assert np.array_equal(
                    softmax_over_coherence(system, beta).masses,
                    temper(joint, beta),
                )

    def test_bootstrap_distribution(self):
        for system, prior, contexts, order in _seeded_cases(13, 40):
            core = Conditioned(system, prior, contexts)
            for beta in BETAS:
                got = bootstrap_exact_distribution(
                    system, order, beta, prior=prior, contexts=contexts
                )
                assert np.array_equal(
                    got.masses, _per_path_bootstrap(core, order, beta)
                )

    def test_zero_mass_joint_table(self):
        partition = condiments_partition()
        system = from_joint_table(partition, condiments_table(0.0))
        assert np.array_equal(
            enumerate_policy_masses(system),
            _gathered_masses(
                system.latent_weights,
                [system.emissions(0), system.emissions(1)],
                partition.sizes,
            ),
        )
        for prior in (None, PolicyState.from_behaviors([1])):
            core = Conditioned(system, prior)
            assert np.array_equal(core.masses(), _conditioned_masses(core))
            for order in ([0, 1], [1, 0]):
                for beta in BETAS:
                    got = bootstrap_exact_distribution(
                        system, order, beta, prior=prior
                    )
                    assert np.array_equal(
                        got.masses, _per_path_bootstrap(core, order, beta)
                    )

    def test_empty_context_subset(self):
        system = random_mixture_system(
            generic_partition([2, 3]), 3, np.random.default_rng(14)
        )
        for beta in BETAS:
            got = bootstrap_exact_distribution(system, [], beta, contexts=[])
            assert np.array_equal(got.masses, [1.0])
            assert got.sizes == ()

    def test_iter_policies_in_index_order(self):
        partition = generic_partition([3, 1, 2, 4])
        assert list(partition.iter_policies()) == [
            partition.policy_at(i) for i in range(partition.policy_count())
        ]


def _table_cases():
    """Seeded mixtures, epsilon-0 joint tables (their logs hold -inf), each
    over all contexts and over a reversed context subset."""
    for seed in range(4):
        rng = np.random.default_rng(700 + seed)
        sizes = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(2, 5)))]
        yield random_mixture_system(
            generic_partition(sizes), int(rng.integers(1, 6)), rng,
            emission_concentration=0.5,
        )
        joint = rng.dirichlet([1.0] * math.prod(sizes))
        yield from_joint_table(generic_partition(sizes), joint, 0.0)
    yield from_joint_table(condiments_partition(), condiments_table(0.0), 0.0)


class TestOneLogEmissionTable:
    """Every reader of the system's log-emission table against np.log of
    the per-context emissions, bit for bit."""

    @staticmethod
    def _logs(system):
        with np.errstate(divide="ignore"):
            return [
                np.log(system.emissions(c))
                for c in range(system.partition.n_contexts)
            ]

    @pytest.mark.parametrize("reverse", [False, True])
    def test_core_views_and_extend(self, reverse):
        saw_neginf = False
        for system in _table_cases():
            logs = self._logs(system)
            saw_neginf = saw_neginf or any(np.isneginf(t).any() for t in logs)
            contexts = list(range(system.partition.n_contexts))
            if reverse:
                contexts = contexts[::-1][: max(1, len(contexts) - 1)]
            core = Conditioned(system, contexts=contexts)
            assert len(core.log_emissions) == len(contexts)
            for j, c in enumerate(contexts):
                assert np.array_equal(core.log_emissions[j], logs[c])
                for a in range(core.sizes[j]):
                    assert np.array_equal(
                        core.extend(core.base, j, a), core.base + logs[c][:, a]
                    )
        assert saw_neginf

    def test_log_posterior_numerators(self):
        saw_neginf = False
        for system in _table_cases():
            logs = self._logs(system)
            partition = system.partition
            rng = np.random.default_rng(partition.n_behaviors)
            for _ in range(5):
                state = PolicyState.from_behaviors(
                    [int(g) for g in rng.integers(0, partition.n_behaviors, 4)]
                )
                with np.errstate(divide="ignore"):
                    expected = np.log(system.latent_weights)
                for key, count in state.counts.items():
                    c, a = partition.locate(key)
                    expected += count * logs[c][:, a]
                got = system.log_posterior_numerators(state)
                assert np.array_equal(got, expected)
                saw_neginf = saw_neginf or bool(np.isneginf(got).any())
        assert saw_neginf


BAD_POLICIES = [DPolicy((0,)), DPolicy((0, 1, 2)), DPolicy((3, 0)), DPolicy((0, -1))]


@pytest.mark.parametrize("policy", BAD_POLICIES)
def test_every_policy_entry_raises_the_one_assignment_check(policy):
    system = condiments_system()
    core = Conditioned(system)
    with pytest.raises(ValidationError) as expected:
        core.coherence_bits(policy.assignment)
    entries = [
        lambda: core.validate(policy),
        lambda: coherence(system, PolicyState.zero(), policy),
        lambda: pmi(system, policy),
        lambda: srm_select(system, PolicyState.zero(), [policy], []),
    ]
    for entry in entries:
        with pytest.raises(ValidationError) as raised:
            entry()
        assert str(raised.value) == str(expected.value)


def test_coherence_reports_a_degenerate_prior_before_a_bad_policy():
    system = condiments_system()
    partition = system.partition
    # two burger behaviors at once: no latent of the joint table emits both
    prior = PolicyState.from_behaviors(
        [partition.global_index(0, 0), partition.global_index(0, 1)]
    )
    with pytest.raises(DegenerateConditioningError):
        coherence(system, prior, DPolicy((3, 0)))
