"""The oracle path (MixtureBayesSystem.log_posterior_numerators, infer,
sequence_coherence, check_chain_rule) and the MixtureBayesSystem checks
must give, bit for bit, what a plain reference gives: the test-local code
below, which folds every count as count * row, folds and weighs the state
afresh for each infer() call, and checks each run of equal-size contexts
as it is read. Floats are compared as uint64 bit patterns, so -inf, NaN
and the sign of zero count."""

from __future__ import annotations

import importlib
import itertools
import math

import numpy as np
import pytest

from cohopt import (
    DegenerateConditioningError,
    MixtureBayesSystem,
    PolicyState,
    ValidationError,
    check_chain_rule,
    from_joint_table,
    generic_partition,
    infer,
    random_mixture_system,
    run_all_sweeps,
    sequence_coherence,
)
from cohopt.systems import PROB_ATOL

coherence_module = importlib.import_module("cohopt.coherence")
checks_module = importlib.import_module("cohopt.checks")


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64).view(np.uint64)


# --- the reference: each function folds, weighs and checks in full


def ref_numerators(system, state):
    out = system._log_weights.copy()
    for key, count in state.counts.items():
        if not 0 <= key < system.partition.n_behaviors:
            raise ValidationError(f"state references unknown behavior index {key}")
        out += count * system._log_emission_rows[key]
    return out


def ref_infer(system, state, context):
    system.partition._check_slot(context, 0)
    log_post = ref_numerators(system, state)
    top = float(log_post.max())
    if top == -math.inf:
        raise DegenerateConditioningError(
            "degenerate conditioning: every latent has zero likelihood for "
            f"state {state.describe(system.partition)}"
        )
    predictive = np.exp(log_post - top) @ system.emissions(context)
    return predictive / float(predictive.sum())


def _plus(state, key):
    return PolicyState({**state.counts, key: state.counts.get(key, 0) + 1})


def ref_sequence(system, prior, behaviors):
    partition = system.partition
    state, total = prior, 0.0
    for n, (context, behavior) in enumerate(behaviors):
        partition._check_slot(context, behavior)
        step = float(ref_infer(system, state, context)[behavior])
        if step <= 0.0:
            return -math.inf, n
        total += math.log2(step)
        state = _plus(state, partition.global_index(context, behavior))
    return total, None


def ref_chain_rule(system, state, c1, a1, c2, a2):
    if c1 == c2:
        raise ValidationError("chain-rule check needs two distinct contexts")
    partition = system.partition
    g1 = partition.global_index(c1, a1)
    g2 = partition.global_index(c2, a2)
    first = float(ref_infer(system, state, c1)[a1])
    second = float(ref_infer(system, state, c2)[a2])
    lhs = first * (float(ref_infer(system, _plus(state, g1), c2)[a2]) if first > 0 else 0.0)
    rhs = second * (float(ref_infer(system, _plus(state, g2), c1)[a1]) if second > 0 else 0.0)
    return abs(lhs - rhs)


def ref_check_emissions(partition, n_latents, emissions):
    """The emission checks as the per-run loop applies them: every run of
    consecutive equal-size contexts is read, each table converted and its
    shape checked (the run's earlier tables checked first), then the run's
    entries and row sums are checked, its first offending context named."""

    def check_run(tables, first):
        block = np.array(tables)
        valid = np.isfinite(block) & (block >= 0)
        sums = block.sum(axis=-1)
        off = np.abs(sums - 1.0) > PROB_ATOL
        for i in range(block.shape[0]):
            if not valid[i].all():
                raise ValidationError(
                    f"emissions[{first + i}] has negative or non-finite entries"
                )
            if off[i].any():
                row = int(np.flatnonzero(off[i])[0])
                raise ValidationError(
                    f"emissions[{first + i}] row {row} sums to {sums[i, row]!r}, "
                    f"expected 1 ± {PROB_ATOL}"
                )

    for size, run in itertools.groupby(
        range(partition.n_contexts), partition.sizes.__getitem__
    ):
        run = list(run)
        tables = []
        for c in run:
            arr = np.array(emissions[c], dtype=np.float64, copy=True)
            if arr.shape != (n_latents, size):
                if tables:
                    check_run(tables, run[0])
                raise ValidationError(
                    f"emissions[{c}] has shape {arr.shape}, expected {(n_latents, size)}"
                )
            tables.append(arr)
        check_run(tables, run[0])


# --- systems and states


def _systems():
    """Dirichlet mixtures, and joint tables at epsilon = 0, whose log rows
    hold -inf, over partitions with runs of equal-size contexts."""
    out = []
    for seed, sizes, latents in [
        (0, (2, 3), 1),
        (1, (3, 3, 2), 3),
        (2, (2, 2, 4, 3), 5),
        (3, (4, 2, 2), 2),
    ]:
        rng = np.random.default_rng(seed)
        out.append(random_mixture_system(generic_partition(sizes), latents, rng))
    partition = generic_partition((2, 3))
    out.append(from_joint_table(partition, [[0.5, 0.0, 0.25], [0.0, 0.25, 0.0]]))
    out.append(
        from_joint_table(
            generic_partition((2, 2, 2)),
            [[[0.25, 0.0], [0.0, 0.25]], [[0.0, 0.25], [0.25, 0.0]]],
        )
    )
    return out


SYSTEMS = _systems()


def _states(system, rng, n=12):
    """States with counts 1, 2 and 3, each in several key orders."""
    out = [PolicyState.zero()]
    total = system.partition.n_behaviors
    for _ in range(n):
        keys = rng.choice(total, size=min(total, int(rng.integers(1, 5))), replace=False)
        counts = [int(rng.integers(1, 4)) for _ in keys]
        items = list(zip(keys.tolist(), counts))
        for perm in {tuple(rng.permutation(len(items)).tolist()) for _ in range(3)}:
            out.append(PolicyState(dict(items[i] for i in perm)))
    return out


def _outcome(function, *args):
    try:
        return ("value", _bits(function(*args)).tolist())
    except (ValidationError, DegenerateConditioningError) as error:
        return (type(error).__name__, str(error))


@pytest.mark.parametrize("index", range(len(SYSTEMS)))
def test_fold_and_infer_match_reference(index):
    system = SYSTEMS[index]
    rng = np.random.default_rng(100 + index)
    for state in _states(system, rng):
        assert _outcome(system.log_posterior_numerators, state) == _outcome(
            ref_numerators, system, state
        )
        for c in range(system.partition.n_contexts):
            assert _outcome(infer, system, state, c) == _outcome(
                ref_infer, system, state, c
            )


def test_fold_adds_each_count_as_its_multiple():
    # counts 1, 2 and 3 of one key, alone and after other keys
    system = SYSTEMS[2]
    for count in (1, 2, 3):
        for state in (
            PolicyState({4: count}),
            PolicyState({0: 1, 4: count}),
            PolicyState({4: count, 7: 2, 1: 1}),
        ):
            assert np.array_equal(
                _bits(system.log_posterior_numerators(state)),
                _bits(ref_numerators(system, state)),
            )


def test_degenerate_and_unknown_key_messages():
    system = SYSTEMS[4]  # the 2 x 3 joint table, epsilon 0
    impossible = PolicyState({0: 1, 3: 1})  # c0_b0 with c1_b1: zero mass
    for state in (impossible, PolicyState({-1: 1}), PolicyState({5: 1})):
        for c in range(2):
            expected = _outcome(ref_infer, system, state, c)
            assert expected[0] != "value"
            assert _outcome(infer, system, state, c) == expected
    assert _outcome(infer, system, impossible, 0) == (
        "DegenerateConditioningError",
        "degenerate conditioning: every latent has zero likelihood for "
        "state {c0_b0, c1_b1}",
    )
    assert _outcome(system.log_posterior_numerators, PolicyState({5: 1})) == (
        "ValidationError",
        "state references unknown behavior index 5",
    )


@pytest.mark.parametrize("index", range(len(SYSTEMS)))
def test_sequence_coherence_matches_reference(index):
    system = SYSTEMS[index]
    partition = system.partition
    rng = np.random.default_rng(200 + index)
    priors = _states(system, rng, n=4)
    for _ in range(30):
        length = int(rng.integers(0, 7))
        pairs = []
        for _ in range(length):
            c = int(rng.integers(0, partition.n_contexts))
            pairs.append((c, int(rng.integers(0, partition.sizes[c]))))
        if pairs:  # a repeated behavior
            pairs.append(pairs[0])
        for prior in priors:
            try:
                expected = ref_sequence(system, prior, pairs)
            except (ValidationError, DegenerateConditioningError) as error:
                with pytest.raises(type(error), match=None) as caught:
                    sequence_coherence(system, prior, pairs)
                assert str(caught.value) == str(error)
                continue
            value = sequence_coherence(system, prior, pairs)
            assert _bits(value.bits) == _bits(expected[0])
            assert value.failed_step == expected[1]


def test_sequence_zero_probability_step():
    system = SYSTEMS[4]
    value = sequence_coherence(system, PolicyState.zero(), [(0, 0), (0, 0), (1, 1)])
    assert value.failed_step == 2 and value.bits == -math.inf
    assert ref_sequence(system, PolicyState.zero(), [(0, 0), (0, 0), (1, 1)]) == (
        -math.inf,
        2,
    )


def test_sequence_keys_stay_python_ints(monkeypatch):
    system = SYSTEMS[1]
    states = []
    shipped = coherence_module.infer

    def recorded(system, state, context):
        states.append(state)
        return shipped(system, state, context)

    monkeypatch.setattr(coherence_module, "infer", recorded)
    pairs = [(np.int64(0), np.int64(2)), (1, 1), (0, 2)]
    sequence_coherence(system, PolicyState.zero(), pairs)
    assert repr(states[-1]) == "PolicyState({2: 1, 4: 1})"
    assert all(type(key) is int for state in states for key in state.counts)


def test_sequence_calls_infer_once_per_step(monkeypatch):
    calls = [0]
    shipped = coherence_module.infer

    def counted(system, state, context):
        calls[0] += 1
        return shipped(system, state, context)

    monkeypatch.setattr(coherence_module, "infer", counted)
    system = SYSTEMS[2]
    pairs = [(0, 1), (2, 3), (0, 1), (3, 0), (1, 1)]
    for n in range(len(pairs) + 1):
        calls[0] = 0
        sequence_coherence(system, PolicyState.zero(), pairs[:n])
        assert calls[0] == n
    # a zero-probability step ends the walk after its own call
    calls[0] = 0
    assert sequence_coherence(SYSTEMS[4], PolicyState.zero(), [(0, 0), (1, 1), (1, 0)]).failed_step == 1
    assert calls[0] == 2


@pytest.mark.parametrize("index", range(len(SYSTEMS)))
def test_chain_rule_matches_four_infer_calls(index):
    system = SYSTEMS[index]
    partition = system.partition
    rng = np.random.default_rng(300 + index)
    for state in _states(system, rng, n=6):
        for c1, c2 in itertools.permutations(range(partition.n_contexts), 2):
            a1 = int(rng.integers(0, partition.sizes[c1]))
            a2 = int(rng.integers(0, partition.sizes[c2]))
            assert _outcome(check_chain_rule, system, state, c1, a1, c2, a2) == (
                _outcome(ref_chain_rule, system, state, c1, a1, c2, a2)
            )


def test_sweep_residuals_match_reference(monkeypatch):
    shipped = [
        [result.max_residual.hex() for result in run_all_sweeps(40, seed)]
        for seed in range(3)
    ]
    monkeypatch.setattr(checks_module, "check_chain_rule", ref_chain_rule)

    def reference_sequence(system, prior, behaviors):
        bits, failed = ref_sequence(system, prior, behaviors)
        return coherence_module.CoherenceValue(bits=bits, failed_step=failed)

    monkeypatch.setattr(checks_module, "sequence_coherence", reference_sequence)
    monkeypatch.setattr(coherence_module, "sequence_coherence", reference_sequence)
    reference = [
        [result.max_residual.hex() for result in run_all_sweeps(40, seed)]
        for seed in range(3)
    ]
    assert shipped == reference


# --- the constructor's checks


MIXED = (2, 3, 3, 2, 4, 4, 4, 2)  # runs of 1, 2, 1, 3 and 1 contexts


def _valid_tables(seed):
    system = random_mixture_system(
        generic_partition(MIXED), 3, np.random.default_rng(seed)
    )
    tables = [np.array(system.emissions(c)) for c in range(len(MIXED))]
    return system.partition, system.latent_weights, tables


def _corrupt(tables, rng):
    bad = [table.copy() for table in tables]
    for _ in range(int(rng.integers(1, 4))):
        c = int(rng.integers(0, len(bad)))
        kind = int(rng.integers(0, 5))
        if kind == 0:
            bad[c][int(rng.integers(0, 3)), 0] = math.nan
        elif kind == 1:
            bad[c][int(rng.integers(0, 3)), -1] = -0.25
        elif kind == 2:
            bad[c][int(rng.integers(0, 3))] *= 1.5
        elif kind == 3:
            bad[c] = np.ones((3, bad[c].shape[1] + 1)) / (bad[c].shape[1] + 1)
        else:
            bad[c][0, 0] = math.inf
    return bad


def _constructor_outcome(function, *args):
    try:
        function(*args)
    except ValidationError as error:
        return str(error)
    return None


@pytest.mark.parametrize("seed", range(60))
def test_constructor_messages_match_per_run_checks(seed):
    partition, weights, tables = _valid_tables(seed)
    rng = np.random.default_rng(seed)
    bad = _corrupt(tables, rng)
    expected = _constructor_outcome(ref_check_emissions, partition, 3, bad)
    assert expected is not None
    assert _constructor_outcome(MixtureBayesSystem, partition, weights, bad) == expected


def test_shape_error_after_earlier_bad_entries():
    partition, weights, tables = _valid_tables(0)
    # a NaN in context 4, then a wrong shape in context 6 of the same run
    bad = [table.copy() for table in tables]
    bad[4][1, 1] = math.nan
    bad[6] = np.ones((3, 3)) / 3
    assert _constructor_outcome(MixtureBayesSystem, partition, weights, bad) == (
        "emissions[4] has negative or non-finite entries"
    )
    # a bad row sum in an earlier run, then a wrong shape in a later one
    bad = [table.copy() for table in tables]
    bad[1][2] *= 2
    bad[7] = np.ones((2, 2)) / 2
    message = _constructor_outcome(MixtureBayesSystem, partition, weights, bad)
    assert message == _constructor_outcome(ref_check_emissions, partition, 3, bad)
    assert message.startswith("emissions[1] row 2 sums to")
    # the wrong shape first, then bad entries in a later context
    bad = [table.copy() for table in tables]
    bad[2] = np.ones((3, 2)) / 2
    bad[3][0, 0] = -1.0
    assert _constructor_outcome(MixtureBayesSystem, partition, weights, bad) == (
        "emissions[2] has shape (3, 2), expected (3, 3)"
    )


def test_unreadable_table_after_earlier_bad_entries():
    partition, weights, tables = _valid_tables(1)
    bad = [table.copy() for table in tables]
    bad[0][0, 0] = -0.5
    bad[5] = [[0.25, 0.75], [0.5]]  # ragged: numpy cannot read it
    with pytest.raises(ValidationError, match=r"emissions\[0\] has negative"):
        MixtureBayesSystem(partition, weights, bad)
    bad[0] = tables[0]
    with pytest.raises(ValueError):
        MixtureBayesSystem(partition, weights, bad)


def test_entry_just_above_one_is_valid():
    # a row [1 + 2^-52, 0] sums to 1 within PROB_ATOL; the one-pass entry
    # check sends it to the per-run checks, which accept it
    partition = generic_partition((2, 2))
    above = 1.0 + 2.0**-52
    system = MixtureBayesSystem(
        partition, [1.0], [np.array([[above, 0.0]]), np.array([[0.5, 0.5]])]
    )
    assert system.emissions(0)[0, 0] == above
    assert not system.emissions(0).flags.writeable
