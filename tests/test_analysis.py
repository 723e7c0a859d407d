"""Distribution diagnostics, bound arithmetic, regularized selection, and
the integer ternary search."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cohopt import (
    DPolicy,
    MixtureBayesSystem,
    PolicyDistribution,
    PolicyState,
    SamplerConfig,
    TrialRow,
    ValidationError,
    accuracy_lower_bound,
    agreement,
    bound_validity_trials,
    coherence,
    conjectured_posttrain_count,
    distribution_entropy,
    distribution_kl,
    empirical_distribution,
    enumerate_policy_masses,
    generic_partition,
    gibbs_run,
    infer,
    optimality_gap,
    random_mixture_system,
    regularization_bound_rhs,
    softmax_over_coherence,
    srm_select,
    state_of_policy,
    ternary_search_sample_count,
    tv_distance,
    uniform_convergence_bound,
)

LOG2_E = math.log2(math.e)


def uniform_distribution(n: int, sizes=None) -> PolicyDistribution:
    return PolicyDistribution(np.full(n, 1.0 / n), "custom", sizes)


class TestTvDistance:
    def test_identical_is_zero(self):
        p = uniform_distribution(9)
        assert tv_distance(p, p) == 0.0

    def test_disjoint_point_masses(self):
        p = PolicyDistribution(np.array([1.0, 0.0, 0.0]))
        q = PolicyDistribution(np.array([0.0, 0.0, 1.0]))
        assert tv_distance(p, q) == 1.0

    def test_table_vs_uniform_hand_enumeration(self, condiments):
        partition, system = condiments
        exact = softmax_over_coherence(system, 1.0)
        uniform = uniform_distribution(9, sizes=(3, 3))
        by_hand = 0.5 * sum(
            abs(float(exact.masses[i]) - 1.0 / 9.0) for i in range(9)
        )
        assert abs(tv_distance(exact, uniform) - by_hand) <= 1e-15

    def test_metric_axioms_on_random_triples(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            raw = rng.dirichlet(np.ones(8), size=3)
            p, q, r = (PolicyDistribution(row) for row in raw)
            assert tv_distance(p, q) == tv_distance(q, p)
            assert (
                tv_distance(p, r)
                <= tv_distance(p, q) + tv_distance(q, r) + 1e-12
            )
            assert tv_distance(p, p) == 0.0

    def test_support_mismatch(self):
        with pytest.raises(ValidationError, match="support mismatch"):
            tv_distance(uniform_distribution(9), uniform_distribution(8))


class TestEmpiricalDistribution:
    def test_constant_trajectory_point_mass(self):
        partition = generic_partition([2, 2])
        system = MixtureBayesSystem(
            partition,
            [1.0],
            [np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]])],
        )
        record = gibbs_run(
            system,
            DPolicy((0, 0)),
            SamplerConfig(steps=50, seed=0),
            check_positivity=False,
        )
        dist = empirical_distribution(record)
        assert dist.provenance == "empirical"
        np.testing.assert_allclose(dist.masses, [1.0, 0.0, 0.0, 0.0], atol=0)

    def test_two_visited_policies_split_evenly(self):
        partition, = [generic_partition([2])]
        rng = np.random.default_rng(1)
        system = random_mixture_system(partition, 1, rng)
        record = gibbs_run(
            system, DPolicy((0,)), SamplerConfig(steps=999, seed=3)
        )
        dist = empirical_distribution(record)
        counts = np.bincount(record.policy_indices(), minlength=2)
        np.testing.assert_allclose(dist.masses, counts / counts.sum(), atol=0)

    def test_burnin_thinned(self):
        partition = generic_partition([3, 3, 3])
        rng = np.random.default_rng(5)
        system = random_mixture_system(partition, 2, rng)
        record = gibbs_run(
            system,
            partition.policy_at(0),
            SamplerConfig(steps=200, seed=0, burn_in=50),
        )
        dist = empirical_distribution(record, "burnin-thinned", thin=2)
        kept = record.policy_indices()[50::2]
        expected = np.bincount(kept, minlength=27) / kept.size
        np.testing.assert_allclose(dist.masses, expected, atol=0)

    def test_unknown_estimator(self, condiments):
        partition, system = condiments
        record = gibbs_run(
            system,
            partition.policy_at(0),
            SamplerConfig(steps=5, seed=0),
            check_positivity=False,
        )
        with pytest.raises(ValidationError):
            empirical_distribution(record, "bogus")


class TestAgreement:
    def test_self_agreement(self):
        policy = DPolicy((0, 1, 2))
        stats = agreement(policy, policy, range(3))
        assert stats.alpha == 1.0
        assert stats.subset_size == 3

    def test_full_disagreement(self):
        assert agreement(DPolicy((0, 0)), DPolicy((1, 1)), range(2)).alpha == 0.0

    def test_condiment_policies_disagree_everywhere(self, condiments):
        partition, _ = condiments
        pi1 = partition.policy_from_names(["burger_mayo", "fries_mayo"])
        pi2 = partition.policy_from_names(["burger_mustard", "fries_ketchup"])
        assert agreement(pi1, pi2, range(2)).alpha == 0.0

    def test_empty_subset_rejected(self):
        with pytest.raises(ValidationError):
            agreement(DPolicy((0,)), DPolicy((0,)), [])


class TestUniformConvergenceBound:
    def test_degenerate_delta_one(self):
        report = uniform_convergence_bound(0.0, 100, 1.0, "corrected")
        assert abs(report.value - math.sqrt(LOG2_E / 200.0)) <= 1e-15
        assert report.valid

    def test_golden_arithmetic(self):
        chi = math.log2(0.3)
        report = uniform_convergence_bound(chi, 100, 0.05, "corrected")
        expected = math.sqrt(
            (2 * 1.7369655941662063 + 1.4426950408889634 + 4.321928094887363)
            / 200.0
        )
        assert abs(report.value - expected) <= 1e-9
        assert report.inputs["sign_convention"] == "corrected"

    def test_sign_conventions_differ_by_delta_term(self):
        chi, n, delta = -10.0, 25, 0.5
        corrected = uniform_convergence_bound(chi, n, delta, "corrected")
        paper = uniform_convergence_bound(chi, n, delta, "paper")
        gap = corrected.value**2 - paper.value**2
        assert abs(gap - 2.0 * math.log2(1.0 / delta) / (2.0 * n)) <= 1e-12

    def test_negative_radicand_flagged(self):
        # paper sign with tiny coherence and confident delta
        report = uniform_convergence_bound(0.0, 10, 1e-3, "paper")
        assert not report.valid
        assert math.isnan(report.value)
        assert "negative radicand" in report.note

    def test_invalid_inputs(self):
        with pytest.raises(ValidationError):
            uniform_convergence_bound(0.0, 0, 0.5)
        with pytest.raises(ValidationError):
            uniform_convergence_bound(0.5, 10, 0.5)
        with pytest.raises(ValidationError):
            uniform_convergence_bound(0.0, 10, 1.5)


class TestOptimalityGap:
    def test_zero_coherence_limit(self):
        partition = generic_partition([2])
        system = MixtureBayesSystem(
            partition, [1.0], [np.array([[1.0, 0.0]])]
        )
        gap = optimality_gap(system, PolicyState.zero(), DPolicy((0,)))
        assert abs(gap - LOG2_E) <= 1e-12

    def test_condiments_golden(self, condiments):
        partition, system = condiments
        pi1 = partition.policy_from_names(["burger_mayo", "fries_mayo"])
        gap = optimality_gap(system, PolicyState.zero(), pi1)
        assert abs(gap - (2 * 1.7369655941662063 + 1.4426950408889634)) <= 1e-9

    def test_infinite_when_truth_impossible(self, condiments):
        partition, system = condiments
        impossible = partition.policy_from_names(
            ["burger_mayo", "fries_ketchup"]
        )
        assert optimality_gap(system, PolicyState.zero(), impossible) == math.inf

    def test_conditioning_on_truth_shrinks_gap(self):
        # construction where conditioning raises every step probability
        partition = generic_partition([2, 2, 2])
        system = MixtureBayesSystem(
            partition,
            [0.5, 0.5],
            [
                np.array([[0.9, 0.1], [0.2, 0.8]]),
                np.array([[0.85, 0.15], [0.3, 0.7]]),
                np.array([[0.8, 0.2], [0.25, 0.75]]),
            ],
        )
        truth = DPolicy((0, 0, 0))
        prior = state_of_policy(partition, truth)
        zero = PolicyState.zero()
        # verify the premise: each sequential step probability rises
        state0, state1 = zero, prior
        for c, a in enumerate(truth.assignment):
            assert infer(system, state1, c)[a] > infer(system, state0, c)[a]
            g = partition.global_index(c, a)
            state0 = state0.add_behavior(g)
            state1 = state1.add_behavior(g)
        assert optimality_gap(system, prior, truth) < optimality_gap(
            system, zero, truth
        )


class TestAccuracyLowerBound:
    def test_zero_radicand_gives_one(self):
        # corrected sign: 2G + 2 log2(1/delta) = 0 only at delta = 1, G = 0
        report = accuracy_lower_bound(0.0, 50, 1.0, "corrected")
        assert report.value == 1.0
        assert report.valid

    def test_golden_arithmetic(self):
        report = accuracy_lower_bound(4.9166263, 1000, 0.05, "corrected")
        expected = 1.0 - math.sqrt((9.8332526 + 8.6438562) / 1000.0)
        assert abs(report.value - expected) <= 1e-7

    def test_large_sample_limit(self):
        report = accuracy_lower_bound(5.0, 10**9, 0.1, "corrected")
        assert report.value > 0.999

    def test_vacuous_flagged_not_clamped(self):
        report = accuracy_lower_bound(100.0, 10, 0.5, "corrected")
        assert report.value < 0.0
        assert not report.valid
        assert "vacuous" in report.note


class TestSrmSelect:
    def test_single_candidate(self, condiments):
        partition, system = condiments
        only = partition.policy_from_names(["burger_other", "fries_other"])
        chosen = srm_select(
            system, PolicyState.zero(), [only], [(0, 2)], N=1, delta=0.5
        )
        assert chosen == only

    def test_condiments_mayo_label(self, condiments):
        partition, system = condiments
        chosen = srm_select(
            system, PolicyState.zero(), None, [(0, 0)], N=1, delta=0.5
        )
        assert partition.policy_names(chosen) == ("burger_mayo", "fries_mayo")
        # oracle: enumerate all 9 objective values directly
        zero = PolicyState.zero()
        log_term = math.log2(2.0)
        best = None
        for index in range(9):
            policy = partition.policy_at(index)
            chi = coherence(system, zero, policy).bits
            alpha = 1.0 if policy.assignment[0] == 0 else 0.0
            if chi == -math.inf:
                objective = -math.inf
            else:
                objective = alpha - math.sqrt(
                    (-2 * chi + LOG2_E + log_term) / 2.0
                )
            if best is None or objective > best[0]:
                best = (objective, index)
        assert best[1] == partition.policy_index(chosen.assignment)

    def test_no_samples_reduces_to_coherence_argmax(self, condiments):
        partition, system = condiments
        chosen = srm_select(system, PolicyState.zero(), None, [], N=None, delta=0.5)
        infinite = softmax_over_coherence(system, math.inf)
        assert infinite.masses[partition.policy_index(chosen.assignment)] == 1.0

    def test_empty_candidates_rejected(self, condiments):
        _, system = condiments
        with pytest.raises(ValidationError):
            srm_select(system, PolicyState.zero(), [], [(0, 0)], N=1, delta=0.5)


class TestEntropyKl:
    def test_uniform_entropy(self):
        assert abs(distribution_entropy(uniform_distribution(9)) - math.log2(9)) <= 1e-12

    def test_kl_self_is_zero(self, condiments):
        _, system = condiments
        exact = softmax_over_coherence(system, 1.0)
        assert distribution_kl(exact, exact) == 0.0

    def test_kl_to_uniform_matches_direct_sum(self, condiments):
        _, system = condiments
        exact = softmax_over_coherence(system, 1.0)
        uniform = uniform_distribution(9, sizes=(3, 3))
        direct = sum(
            float(q) * math.log2(float(q) * 9.0)
            for q in exact.masses
            if q > 0
        )
        assert abs(distribution_kl(exact, uniform) - direct) <= 1e-12

    def test_kl_support_violation_is_infinite(self):
        q = PolicyDistribution(np.array([0.5, 0.5, 0.0]))
        p = PolicyDistribution(np.array([1.0, 0.0, 0.0]))
        assert distribution_kl(q, p) == math.inf

    def test_entropy_nonnegative_kl_nonnegative(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            q = PolicyDistribution(rng.dirichlet(np.ones(6)))
            p = PolicyDistribution(rng.dirichlet(np.ones(6)))
            assert distribution_entropy(q) >= 0.0
            assert distribution_kl(q, p) >= -1e-12


class TestRegularizationBoundRhs:
    def test_kl_equals_entropy_cancels(self):
        value = regularization_bound_rhs(0.7, 2.5, 2.5, 100, 0.1)
        expected = 0.7 - math.sqrt(2.0 * math.log2(10.0) / 100.0)
        assert abs(value - expected) <= 1e-12

    def test_strictly_decreasing_in_kl(self):
        previous = None
        for kl in (0.0, 0.5, 1.0, 2.0, 4.0):
            value = regularization_bound_rhs(0.9, 3.17, kl, 10**4, 1e-6)
            if previous is not None:
                assert value < previous
            previous = value

    def test_golden_arithmetic(self):
        alpha, H, KL, n, delta = 0.9, 3.17, 0.5, 10**4, 1e-6
        log_term = math.log2(1.0 / delta)
        expected = (
            alpha
            - math.sqrt(2.0 * log_term / n)
            + math.sqrt(2.0 / (n * log_term)) * (H - KL)
        )
        assert regularization_bound_rhs(alpha, H, KL, n, delta) == expected


class TestConjecturedPosttrainCount:
    def test_unit_factors(self):
        assert conjectured_posttrain_count(1.0, 1.0, 0.0, 100) == 25.0

    def test_error_rate_scaling(self):
        base = conjectured_posttrain_count(1.0, 1.0, 0.2, 100)
        doubled = conjectured_posttrain_count(1.0, 1.0, 0.4, 100)
        assert abs(doubled / base - (0.8 / 0.6) ** 2) <= 1e-12

    def test_worked_instance(self):
        value = conjectured_posttrain_count(-2.0, -1.5, 0.2, 200)
        expected = 0.25 * (4.0 / 1.5) * (1.0 / 0.64) * 200.0
        assert abs(value - expected) <= 1e-9

    def test_error_rate_one_rejected(self):
        with pytest.raises(ValidationError):
            conjectured_posttrain_count(1.0, 1.0, 1.0, 100)


class TestTernarySearch:
    def test_quadratic_peak(self):
        assert ternary_search_sample_count(lambda x: -((x - 7) ** 2), 0, 20) == 7

    def test_plateau_lowest_index(self):
        assert ternary_search_sample_count(lambda x: min(x, 4), 0, 20) == 4
        assert ternary_search_sample_count(lambda x: 1.0, 0, 20) == 0

    def test_matches_exhaustive_on_unimodal_profiles(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            peak = int(rng.integers(0, 30))
            scale = float(rng.uniform(0.5, 3.0))
            objective = lambda x: -scale * abs(x - peak)
            found = ternary_search_sample_count(objective, 0, 29)
            exhaustive = max(range(30), key=lambda x: (objective(x), -x))
            assert found == exhaustive

    def test_non_finite_objective_rejected(self):
        with pytest.raises(ValidationError):
            ternary_search_sample_count(lambda x: math.nan, 0, 10)

    def test_bad_interval_rejected(self):
        with pytest.raises(ValidationError):
            ternary_search_sample_count(lambda x: 0.0, 5, 5)


class TestBoundValidityTrials:
    def test_rows_are_well_formed_and_hold_rate_high(self):
        rows = bound_validity_trials(100, seed=0, n_train=50, delta=0.1)
        assert len(rows) == 100
        hold = 1.0 - sum(r.violated for r in rows) / len(rows)
        assert hold >= 0.87
        for row in rows[:5]:
            assert row.max_gap >= 0.0
            assert row.bound_at_max >= 0.0

    def test_srm_floor_holds_end_to_end(self):
        # the selection claim is checked at the accuracy level, never via the
        # intermediate coherence comparison
        rows = bound_validity_trials(200, seed=1, n_train=50, delta=0.1)
        hold = 1.0 - sum(r.srm_violated for r in rows) / len(rows)
        assert hold >= 0.87
        for row in rows:
            assert row.srm_violated == (row.srm_accuracy < row.accuracy_floor)

    def test_deterministic_per_seed(self):
        first = bound_validity_trials(20, seed=5)
        second = bound_validity_trials(20, seed=5)
        assert first == second

    def test_vectorized_selection_matches_srm_select(self):
        # rebuild one trial's selection with the library-level srm_select to
        # pin the tie-break and objective agreement between the two routes
        rng = np.random.default_rng(123)
        partition = generic_partition([3, 3, 3])
        system = random_mixture_system(partition, 2, rng)
        truth = partition.policy_at(int(rng.integers(0, 27)))
        draws = [int(c) for c in rng.integers(0, 3, size=50)]
        samples = [(c, truth.assignment[c]) for c in draws]
        picked = srm_select(
            system, PolicyState.zero(), None, samples, N=50, delta=0.1
        )
        log_term = math.log2(10.0)
        objective = np.empty(27)
        chis = np.empty(27)
        for index in range(27):
            policy = partition.policy_at(index)
            chi = coherence(system, PolicyState.zero(), policy).bits
            chis[index] = chi
            alpha = sum(
                1 for c, a in samples if policy.assignment[c] == a
            ) / 50.0
            objective[index] = alpha - math.sqrt(
                (-2.0 * chi + LOG2_E + log_term) / 100.0
            )
        order = np.lexsort((np.arange(27), -chis, -objective))
        assert partition.policy_index(picked.assignment) == int(order[0])


def _reference_trials(n_trials, seed, n_train, delta):
    """bound_validity_trials with every bound written out inline, as the
    module computed them before the regularizer was shared."""
    sizes = (3, 3, 3)
    k, count = len(sizes), math.prod(sizes)
    partition = generic_partition(sizes)
    coords = np.array(np.unravel_index(np.arange(count), sizes))
    log_term = math.log2(1.0 / delta)
    rows = []
    for i, stream in enumerate(np.random.SeedSequence(seed).spawn(n_trials)):
        rng = np.random.default_rng(stream)
        system = random_mixture_system(
            partition, 2, rng, emission_concentration=1.0
        )
        masses = enumerate_policy_masses(system)
        truth_index = int(
            np.searchsorted(np.cumsum(masses), rng.random() * masses.sum())
        )
        truth_index = min(truth_index, count - 1)
        truth = coords[:, truth_index]
        draws = rng.integers(0, k, size=n_train)
        match = coords == truth[:, None]
        alpha_true = match.mean(axis=0)
        counts = np.bincount(draws, minlength=k).astype(np.float64)
        alpha_train = (counts @ match) / n_train
        chi = np.log2(masses)
        gaps = np.abs(alpha_true - alpha_train)
        bound = np.sqrt((-2.0 * chi + LOG2_E + log_term) / (2.0 * n_train))
        radicand_paper = (-2.0 * chi + LOG2_E - log_term) / (2.0 * n_train)
        with np.errstate(invalid="ignore"):
            bound_paper = np.sqrt(radicand_paper)
        violated_paper = bool(
            np.any(gaps > np.where(np.isnan(bound_paper), -np.inf, bound_paper))
            or np.any(radicand_paper < 0)
        )
        radicand = (-2.0 * chi + LOG2_E + log_term) / (2.0 * n_train)
        objective = alpha_train - np.sqrt(np.maximum(radicand, 0.0))
        picked = int(np.lexsort((np.arange(count), -chi, -objective))[0])
        gap_truth = -2.0 * float(chi[truth_index]) + LOG2_E
        floor = 1.0 - math.sqrt((2.0 * gap_truth + 2.0 * log_term) / n_train)
        worst = int(np.argmax(gaps))
        rows.append(
            TrialRow(
                seed=i,
                violated=bool(np.any(gaps > bound)),
                max_gap=float(gaps[worst]),
                bound_at_max=float(bound[worst]),
                violated_paper=violated_paper,
                srm_accuracy=float(alpha_true[picked]),
                accuracy_floor=floor,
                srm_violated=bool(alpha_true[picked] < floor),
            )
        )
    return rows


class TestSharedRegularizer:
    @pytest.mark.parametrize(
        "seed, n_train, delta",
        [(0, 50, 0.1), (4, 3, 0.5), (9, 200, 0.01), (2, 1, 1.0)],
    )
    def test_trials_match_inline_arithmetic(self, seed, n_train, delta):
        assert bound_validity_trials(
            60, seed=seed, n_train=n_train, delta=delta
        ) == _reference_trials(60, seed, n_train, delta)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"delta": 0.0},
            {"delta": 2.0},
            {"delta": math.nan},
            {"n_train": 0},
            {"n_train": -5},
        ],
    )
    def test_trials_validate_like_the_reports(self, kwargs):
        with pytest.raises(ValidationError):
            bound_validity_trials(3, **kwargs)

    def test_reports_share_the_formula(self):
        chi, n, delta = -3.25, 40, 0.05
        radicand = (-2.0 * chi + LOG2_E + math.log2(1.0 / delta)) / (2.0 * n)
        bound = uniform_convergence_bound(chi, n, delta)
        assert bound.value == math.sqrt(radicand)
        gap = -2.0 * chi + LOG2_E
        floor = accuracy_lower_bound(gap, n, delta).value
        assert floor == 1.0 - math.sqrt((2.0 * gap + 2.0 * math.log2(20.0)) / n)


class TestNanBoundInputs:
    def test_uniform(self):
        with pytest.raises(ValidationError):
            uniform_convergence_bound(math.nan, 10, 0.1)

    def test_accuracy(self):
        with pytest.raises(ValidationError):
            accuracy_lower_bound(math.nan, 10, 0.1)

    @pytest.mark.parametrize("position", range(3))
    def test_regularization(self, position):
        values = [0.8, 2.0, 0.5]
        values[position] = math.nan
        with pytest.raises(ValidationError):
            regularization_bound_rhs(*values, 100, 0.05)

    @pytest.mark.parametrize("position", range(2))
    def test_sample_count(self, position):
        values = [-1.5, -0.5]
        values[position] = math.nan
        with pytest.raises(ValidationError):
            conjectured_posttrain_count(*values, 0.1, 20)

    def test_infinite_inputs_keep_their_meaning(self):
        vacuous = uniform_convergence_bound(-math.inf, 10, 0.1)
        assert vacuous.value == math.inf and not vacuous.valid
        floor = accuracy_lower_bound(math.inf, 10, 0.1)
        assert floor.value == -math.inf and not floor.valid


class TestIntsPastTheFloats:
    """An int count or mean is judged by the float it stands for: past the
    float range it is rejected, and inside it gives the float's bits."""

    BIG = 10**400

    def test_counts_are_rejected(self):
        with pytest.raises(ValidationError, match="within the float range"):
            uniform_convergence_bound(-1.0, self.BIG, 0.05)
        with pytest.raises(ValidationError, match="within the float range"):
            accuracy_lower_bound(2.0, self.BIG, 0.05)
        with pytest.raises(ValidationError, match="within the float range"):
            regularization_bound_rhs(0.8, 3.0, 1.0, self.BIG, 0.05)
        with pytest.raises(ValidationError, match="within the float range"):
            conjectured_posttrain_count(-2.0, -1.0, 0.1, self.BIG)
        with pytest.raises(ValidationError, match="within the float range"):
            bound_validity_trials(1, n_train=self.BIG)

    def test_means_past_the_floats_are_not_finite(self):
        for values in [(self.BIG, -1), (-2, -self.BIG)]:
            with pytest.raises(ValidationError, match="must be finite"):
                conjectured_posttrain_count(*values, 0.1, 10)
        with pytest.raises(ValidationError, match="must be finite"):
            regularization_bound_rhs(self.BIG, 3.0, 1.0, 100, 0.05)

    def test_large_int_mean_squares_to_infinity(self):
        assert conjectured_posttrain_count(10**200, -1, 0.1, 10) == math.inf
        assert conjectured_posttrain_count(1e200, -1.0, 0.1, 10) == math.inf

    @pytest.mark.parametrize(
        "pretrain,posttrain", [(2**53 + 1, -3), (10**20 + 1, 7), (-(2**55) - 5, 3)]
    )
    def test_int_means_give_the_bits_of_their_floats(self, pretrain, posttrain):
        # the exact int square, divided as an int, rounds differently
        from_ints = conjectured_posttrain_count(pretrain, posttrain, 0.1, 10)
        from_floats = conjectured_posttrain_count(
            float(pretrain), float(posttrain), 0.1, 10
        )
        assert from_ints.hex() == from_floats.hex()
