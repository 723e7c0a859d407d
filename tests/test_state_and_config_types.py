"""PolicyState keys must be integers and its multiplicities non-negative
integers, and SamplerConfig's float fields real numbers: anything else
raises ValidationError (exit code 2 at the CLI), never a RuntimeWarning, a
TypeError or a silent truncation."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from cohopt import (
    PolicyState,
    SamplerConfig,
    ValidationError,
    coherence,
    from_joint_table,
    generic_partition,
    infer,
)


@pytest.fixture
def diagonal():
    return from_joint_table(generic_partition([2, 2]), [[0.5, 0.0], [0.0, 0.5]])


@pytest.fixture(autouse=True)
def warnings_are_errors():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


@pytest.mark.parametrize(
    "counts, words",
    [
        ({1: 0.5}, "multiplicity of behavior 1"),
        ({3: 1.5}, "multiplicity of behavior 3"),
        ({3: math.nan}, "multiplicity of behavior 3"),
        ({3: "2"}, "multiplicity of behavior 3"),
        ({3: None}, "multiplicity of behavior 3"),
        ({0: -1}, "multiplicity of behavior 0"),
        ({7.9: 1}, "behavior key 7.9"),
        ({"7": 2}, "behavior key '7'"),
        ({None: 1}, "behavior key None"),
    ],
)
def test_bad_keys_and_multiplicities_raise(counts, words):
    with pytest.raises(ValidationError, match=words):
        PolicyState(counts)


def test_fractional_count_no_longer_reaches_infer(diagonal):
    # it used to store {1: 0} and infer returned [nan, nan]
    with pytest.raises(ValidationError, match="must be an integer"):
        infer(diagonal, PolicyState({1: 0.5}), 0)
    zero = diagonal.partition.policy_at(0)
    with pytest.raises(ValidationError):
        coherence(diagonal, PolicyState({1: 0.5}), zero)


def test_integer_counts_are_kept_as_ints():
    state = PolicyState({np.int64(3): np.int64(2), 1: 1, 4: 0})
    assert state.counts == {3: 2, 1: 1}
    assert all(type(k) is int and type(v) is int for k, v in state.counts.items())
    assert PolicyState({3: 0}).counts == {}
    assert len(PolicyState({2: 0, 5: 3})) == 3
    assert repr(PolicyState({np.int64(5): np.int64(1)})) == "PolicyState({5: 1})"


def test_add_behavior_checks_its_key():
    state = PolicyState({2: 1})
    assert state.add_behavior(np.int64(2)).counts == {2: 2}
    assert type(next(iter(state.add_behavior(np.int64(7)).counts))) is int
    assert repr(state.add_behavior(np.int64(7))) == "PolicyState({2: 1, 7: 1})"
    for key in ("7", 7.0, None):
        with pytest.raises(ValidationError, match="behavior key"):
            state.add_behavior(key)
    assert state.counts == {2: 1}


def test_sums_keep_insertion_order():
    a = PolicyState({5: 1, 2: 2})
    b = PolicyState({2: 1, 9: 1})
    assert repr(a + b) == "PolicyState({5: 1, 2: 3, 9: 1})"


def test_range_is_checked_where_a_system_reads_the_state(diagonal):
    state = PolicyState({-1: 1})  # a valid integer key, out of every range
    with pytest.raises(ValidationError, match="unknown behavior"):
        infer(diagonal, state, 0)


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"gamma": "0.5"}, "gamma"),
        ({"beta": "2"}, "beta"),
        ({"anchor_weight": None}, "anchor_weight"),
        ({"beta": 1j}, "beta"),
        ({"gamma": [0.5]}, "gamma"),
        ({"beta": 10**400}, "beta"),
    ],
)
def test_sampler_config_rejects_non_numbers(kwargs, name):
    with pytest.raises(ValidationError, match=f"^{name} must be a number"):
        SamplerConfig(**kwargs)


@pytest.mark.parametrize(
    "data, name",
    [
        ({"beta": "abc"}, "beta"),
        ({"gamma": None}, "gamma"),
        ({"anchor_weight": [1]}, "anchor_weight"),
        ({"beta": 10**400}, "beta"),
    ],
)
def test_sampler_config_from_dict_rejects_unreadable_values(data, name):
    with pytest.raises(ValidationError, match=f"^{name} must be a number"):
        SamplerConfig.from_dict(data)


def test_sampler_config_still_reads_numbers():
    assert SamplerConfig.from_dict({"beta": "inf"}).beta == math.inf
    assert SamplerConfig.from_dict({"beta": "2", "gamma": "0.5"}).gamma == 0.5
    config = SamplerConfig(beta=np.float64(2.0), gamma=np.float32(0.5), anchor_weight=1)
    assert (config.beta, config.gamma, config.anchor_weight) == (2.0, 0.5, 1.0)
    assert all(type(v) is float for v in (config.beta, config.gamma, config.anchor_weight))
    # range errors keep their words and the value as given
    with pytest.raises(ValidationError, match=r"^beta must be positive, got -1$"):
        SamplerConfig(beta=-1)
    with pytest.raises(ValidationError, match=r"^gamma must be in \(0, 1\), got nan$"):
        SamplerConfig(gamma=math.nan)
