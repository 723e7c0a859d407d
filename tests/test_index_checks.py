"""Every context, behavior, position and policy index passed in from outside
must be an integer, Python's or numpy's, and in range. Anything else raises
ValidationError (exit code 2 at the CLI): never a wrong value, a silent
truncation, or a TypeError, IndexError or ValueError. Numpy integers give
results == to those of Python ints, also where a uint8 meets offsets past
its range."""

from __future__ import annotations

import numpy as np
import pytest

from cohopt import (
    Conditioned,
    DPolicy,
    PolicyDistribution,
    PolicyState,
    QuotientSpec,
    SamplerConfig,
    Scenario,
    ValidationError,
    agreement,
    bootstrap_exact_distribution,
    check_chain_rule,
    check_prior_encodes_samples,
    distribution_kl,
    exact_conditional_distribution,
    generic_partition,
    gibbs_run,
    infer,
    quotient_coherence,
    random_mixture_system,
    sequence_coherence,
    simple_bootstrap_run,
    srm_select,
    state_of_policy,
    temper,
    tv_distance,
)

S = random_mixture_system(generic_partition([3, 3, 3]), 2, np.random.default_rng(0))
P = S.partition
ZERO = PolicyState()

# (call, whether its index is a non-integer rather than one out of reach)
PROBES = {
    "policy_at": (lambda: P.policy_at(2.5), True),
    "policy_index": (lambda: P.policy_index([0.5, 1, 1]), True),
    "locate": (lambda: P.locate(1.5), True),
    "gibbs_run contexts": (
        lambda: gibbs_run(S, DPolicy((0, 0)), SamplerConfig(steps=2), contexts=[0.5, 1.5]),
        True,
    ),
    "exact_conditional_distribution contexts": (
        lambda: exact_conditional_distribution(S, 1.0, contexts=[0.9, 1.9]),
        True,
    ),
    "simple_bootstrap_run order": (
        lambda: simple_bootstrap_run(S, [0.7, 1.2, 2.0], SamplerConfig()),
        True,
    ),
    "bootstrap_exact_distribution digit strings": (
        lambda: bootstrap_exact_distribution(S, ["0", "1", "2"], 1.0),
        True,
    ),
    "srm_select label": (lambda: srm_select(S, ZERO, None, [(0.9, 1.9)]), True),
    "bootstrap_exact_distribution letters": (
        lambda: bootstrap_exact_distribution(S, ["a", "b", "c"], 1.0),
        True,
    ),
    "infer": (lambda: infer(S, ZERO, 0.5), True),
    "global_index": (lambda: P.global_index(0.5, 1), True),
    "behavior_name": (lambda: P.behavior_name(0, 1.5), True),
    "check_chain_rule": (lambda: check_chain_rule(S, ZERO, 0.5, 0, 1, 0), True),
    "agreement": (
        lambda: agreement(DPolicy((0, 1)), DPolicy((0, 1)), [0.5]),
        True,
    ),
    "check_prior_encodes_samples": (
        lambda: check_prior_encodes_samples(S, DPolicy((0, 1, 2)), [0.5]),
        True,
    ),
    "quotient_coherence": (
        lambda: quotient_coherence(S, QuotientSpec((0.5,), ZERO), {0.5: 1}),
        True,
    ),
    "sequence_coherence": (lambda: sequence_coherence(S, ZERO, [(0, 0.5)]), True),
    "state_of_policy context out of range": (
        lambda: state_of_policy(P, DPolicy((0, 1, 2)), [5]),
        False,
    ),
    "state_of_policy short policy": (
        lambda: state_of_policy(P, DPolicy((0,))),
        False,
    ),
    "Scenario split": (
        lambda: Scenario(S, DPolicy((0, 1, 2)), (0.0,), (1.0, 2.0), 0),
        True,
    ),
}


@pytest.mark.parametrize("name", PROBES)
def test_a_bad_index_raises_validation_error(name):
    call, non_integer = PROBES[name]
    with pytest.raises(ValidationError) as info:
        call()
    assert info.value.exit_code == 2
    if non_integer:
        assert "must be an integer" in str(info.value)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: P.global_index(0.5, 1), "context index 0.5 must be an integer"),
        (lambda: P.global_index(5, 1.5), "behavior index 1.5 must be an integer"),
        (lambda: P.behavior_name(0, 1.5), "behavior index 1.5 must be an integer"),
        (lambda: P.policy_at(np.float64(3.0)), r"policy index .*3\.0.* must be an integer"),
        (lambda: state_of_policy(P, DPolicy((0,))), "has no behavior for context 2"),
    ],
)
def test_the_message_names_the_index(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


@pytest.mark.parametrize(
    "contexts, message",
    [
        ([0.5, 0.5], "context index 0.5 must be an integer"),
        ([5, 5], "context subset has repeated indices"),
        ([0, 5], "context index 5 out of range"),
        ([-1], "context index -1 out of range"),
    ],
)
def test_conditioned_checks_integers_then_repeats_then_range(contexts, message):
    with pytest.raises(ValidationError, match=message):
        Conditioned(S, contexts=contexts)


# offsets past 255: a uint8 behavior added to them would overflow
WIDE = random_mixture_system(
    generic_partition([200, 60, 3]), 2, np.random.default_rng(1)
)
NUMPY_INTS = [np.int64, np.uint8]


@pytest.mark.parametrize("kind", NUMPY_INTS)
def test_numpy_context_subsets_and_orders_match_python_ints(kind):
    plain = Conditioned(WIDE, contexts=[2, 0])
    cast = Conditioned(WIDE, contexts=[kind(2), kind(0)])
    assert cast.contexts == plain.contexts
    assert np.array_equal(cast.masses(), plain.masses())
    config = SamplerConfig(seed=3)
    order = [kind(2), kind(0), kind(1)]
    assert simple_bootstrap_run(WIDE, order, config) == simple_bootstrap_run(
        WIDE, [2, 0, 1], config
    )
    # the exact distribution enumerates every policy: the small system
    assert np.array_equal(
        bootstrap_exact_distribution(S, [kind(1), kind(2), kind(0)], 2.0).masses,
        bootstrap_exact_distribution(S, [1, 2, 0], 2.0).masses,
    )


@pytest.mark.parametrize("kind", NUMPY_INTS)
def test_numpy_srm_labels_match_python_ints(kind):
    labels = [(2, 1), (0, 150)]
    cast = [(kind(c), kind(a)) for c, a in labels]
    assert srm_select(WIDE, ZERO, None, cast) == srm_select(WIDE, ZERO, None, labels)


@pytest.mark.parametrize("kind", NUMPY_INTS)
def test_numpy_partition_indices_match_python_ints(kind):
    partition = WIDE.partition
    for index in (0, 77, 255):
        assert partition.policy_at(kind(index)) == partition.policy_at(index)
    for index in (0, 199, 200, 255):
        assert partition.locate(kind(index)) == partition.locate(index)
    assignment = [5, 6, 1]
    assert partition.policy_index([kind(a) for a in assignment]) == (
        partition.policy_index(assignment)
    )
    assert partition.global_index(kind(2), kind(1)) == partition.global_index(2, 1)


@pytest.mark.parametrize("kind", NUMPY_INTS)
def test_numpy_oracle_indices_match_python_ints(kind):
    prior = PolicyState({3: 1, 260: 2})
    for c in range(3):
        assert np.array_equal(infer(WIDE, prior, kind(c)), infer(WIDE, prior, c))
    pairs = [(2, 1), (0, 150), (1, 59), (2, 1)]
    cast = [(kind(c), kind(a)) for c, a in pairs]
    assert sequence_coherence(WIDE, prior, cast) == sequence_coherence(
        WIDE, prior, pairs
    )


@pytest.mark.parametrize("kind", NUMPY_INTS)
def test_numpy_state_of_policy_matches_python_ints(kind):
    partition = WIDE.partition
    policy = DPolicy((5, 6, 1))
    cast = DPolicy(tuple(kind(a) for a in policy.assignment))
    assert state_of_policy(partition, cast) == state_of_policy(partition, policy)
    assert state_of_policy(partition, policy, [kind(2), kind(0)]) == (
        state_of_policy(partition, policy, [2, 0])
    )


def _uniform(sizes):
    return PolicyDistribution(np.full(6, 1 / 6), sizes=sizes)


@pytest.mark.parametrize("distance", [distribution_kl, tv_distance])
def test_distances_reject_distributions_on_different_spaces(distance):
    with pytest.raises(ValidationError, match="support mismatch") as info:
        distance(_uniform((2, 3)), _uniform((3, 2)))
    assert info.value.exit_code == 2


@pytest.mark.parametrize("distance", [distribution_kl, tv_distance])
def test_distances_compare_sizes_only_where_both_carry_them(distance):
    assert distance(_uniform((2, 3)), _uniform(None)) == 0.0
    assert distance(_uniform(None), _uniform((3, 2))) == 0.0


@pytest.mark.parametrize("beta", [0.5, 1.0, float("inf")])
def test_temper_rejects_an_empty_array(beta):
    with pytest.raises(ValidationError, match="no masses to temper") as info:
        temper(np.array([]), beta)
    assert info.value.exit_code == 2
