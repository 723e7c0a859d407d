"""Every array of numbers from outside goes through one check: each entry
must be a real number as a scalar must (numpy's, bool and Fraction count),
so a string, a numeric string included, a complex, None or ragged nesting
raise ValidationError (exit code 2 at the CLI), and so does a NaN mass. The
error is also a ValueError, and no ComplexWarning is issued on the way.
Valid arrays of bools, ints, Fractions or plain lists give the results of
the same masses as a float64 array."""

from __future__ import annotations

import json
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from cohopt import (
    DPolicy,
    MixtureBayesSystem,
    PolicyDistribution,
    PolicyState,
    SamplerConfig,
    ValidationError,
    coherence,
    from_joint_table,
    generic_partition,
    gibbs_run,
    mutual_predictability,
    random_mixture_system,
    softmax_over_coherence,
    srm_select,
    temper,
    write_distribution_csv,
)
from cohopt.cli import main

PAIR = generic_partition([2])
SYSTEM = random_mixture_system(generic_partition([3, 3, 3]), 2, np.random.default_rng(0))
ZERO = PolicyState.zero()
ROWS = [[0.9, 0.1], [0.2, 0.8]]

# each entry point, called with one vector of two masses
VECTOR_CALLS = {
    "temper": lambda v: temper(v, 1.0),
    "temper beta 2": lambda v: temper(v, 2.0),
    "PolicyDistribution": lambda v: PolicyDistribution(v),
    "from_joint_table": lambda v: from_joint_table(PAIR, v),
    "MixtureBayesSystem latent_weights": lambda v: MixtureBayesSystem(
        PAIR, v, [np.array(ROWS)]
    ),
}

BAD_VECTORS = {
    "string": "ab",
    "string entry": [0.5, "a"],
    "numeric strings": ["0.5", "0.5"],
    "numeric string array": np.array(["0.5", "0.5"]),
    "complex entry": [0.5, 0.5j],
    "complex array": np.array([0.5 + 0j, 0.5 + 0j]),
    "None entry": [0.5, None],
    "ragged": [[0.5], [0.25, 0.25]],
    "NaN entry": [0.5, math.nan],
    "NaN array": np.array([0.5, math.nan]),
    "int past the floats": [10**400, 0],
}

# an emission table (latents, behaviors) of MixtureBayesSystem
BAD_TABLES = {
    "string": "ab",
    "string entry": [[0.9, "a"], [0.2, 0.8]],
    "numeric strings": [["0.9", "0.1"], ["0.2", "0.8"]],
    "complex array": np.array(ROWS, dtype=complex),
    "None entry": [[0.9, None], [0.2, 0.8]],
    "ragged": [[0.9, 0.1], [1.0]],
    "NaN entry": [[0.9, math.nan], [0.2, 0.8]],
}


def _raises_exit_2(call, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a ComplexWarning fails the test
        with pytest.raises(ValidationError) as info:
            call(value)
    assert info.value.exit_code == 2
    assert isinstance(info.value, ValueError)
    return str(info.value)


@pytest.mark.parametrize("bad", sorted(BAD_VECTORS))
@pytest.mark.parametrize("call", sorted(VECTOR_CALLS))
def test_a_vector_that_is_not_masses_exits_2(call, bad):
    _raises_exit_2(VECTOR_CALLS[call], BAD_VECTORS[bad])


@pytest.mark.parametrize("bad", sorted(BAD_TABLES))
def test_an_emission_table_that_is_not_numbers_exits_2(bad):
    message = _raises_exit_2(
        lambda table: MixtureBayesSystem(PAIR, [0.5, 0.5], [table]), BAD_TABLES[bad]
    )
    assert message.startswith("emissions[0]")


def test_a_string_entry_is_named_by_its_index():
    message = _raises_exit_2(VECTOR_CALLS["PolicyDistribution"], [0.5, "a"])
    assert message == "masses[1] must be a number in the float range, got 'a'"
    message = _raises_exit_2(
        lambda table: MixtureBayesSystem(PAIR, [0.5, 0.5], [table]),
        BAD_TABLES["numeric strings"],
    )
    assert message == "emissions[0][0, 0] must be a number in the float range, got '0.9'"


@pytest.mark.parametrize(
    "call",
    [
        lambda p: coherence(SYSTEM, ZERO, p),
        lambda p: gibbs_run(SYSTEM, p, SamplerConfig(steps=2)),
        lambda p: mutual_predictability(SYSTEM, p),
        lambda p: srm_select(SYSTEM, ZERO, [p], []),
    ],
    ids=["coherence", "gibbs_run", "mutual_predictability", "srm_select"],
)
def test_a_ragged_assignment_exits_2(call):
    message = _raises_exit_2(call, DPolicy(((0, 1), 0, 0)))
    assert "does not hold one in-range behavior index" in message


VALID = {
    "bools": ([True, False], [1.0, 0.0]),
    "ints": ([1, 0], [1.0, 0.0]),
    "Fractions": ([Fraction(1, 4), Fraction(3, 4)], [0.25, 0.75]),
    "object array": (np.array([Fraction(1, 2), 0.5], dtype=object), [0.5, 0.5]),
    "list": ([0.25, 0.75], [0.25, 0.75]),
    "float32 array": (np.array([0.25, 0.75], dtype=np.float32), [0.25, 0.75]),
}


@pytest.mark.parametrize("valid", sorted(VALID))
def test_valid_vectors_give_the_float64_results(valid):
    given, floats = VALID[valid]
    floats = np.array(floats)
    for beta in (0.5, 1.0, 2.0, math.inf):
        assert np.array_equal(temper(given, beta), temper(floats, beta))
    assert np.array_equal(PolicyDistribution(given).masses, floats)
    joint = from_joint_table(PAIR, given, 0.25).latent_weights
    assert np.array_equal(joint, from_joint_table(PAIR, floats, 0.25).latent_weights)
    system = MixtureBayesSystem(PAIR, given, [np.array(ROWS)])
    reference = MixtureBayesSystem(PAIR, floats, [np.array(ROWS)])
    assert np.array_equal(system.latent_weights, reference.latent_weights)
    assert np.array_equal(system._log_emission_rows, reference._log_emission_rows)


def test_valid_emission_tables_give_the_float64_system():
    reference = MixtureBayesSystem(PAIR, [0.5, 0.5], [np.array(ROWS)])
    for table in (
        ROWS,
        [[True, False], [False, True]],
        [[1, 0], [0, 1]],
        [[Fraction(9, 10), Fraction(1, 10)], [Fraction(1, 5), Fraction(4, 5)]],
    ):
        system = MixtureBayesSystem(PAIR, [0.5, 0.5], [table])
        expected = np.array(table, dtype=np.float64)
        assert np.array_equal(system.emissions(0), expected)
    assert np.array_equal(
        MixtureBayesSystem(PAIR, [0.5, 0.5], [ROWS])._log_emission_rows,
        reference._log_emission_rows,
    )


def test_a_float64_weight_vector_is_copied_not_frozen():
    weights = np.array([0.5, 0.5])
    system = MixtureBayesSystem(PAIR, weights, [np.array(ROWS)])
    assert weights.flags.writeable
    assert system.latent_weights is not weights


@pytest.mark.parametrize("masses", [np.array(["a"] * 4), np.full(4, 0.25 + 0j)])
def test_a_mass_table_to_write_that_is_not_numbers_exits_2(tmp_path, masses):
    system = random_mixture_system(generic_partition([2, 2]), 2, np.random.default_rng(0))
    distribution = softmax_over_coherence(system, 1.0)
    path = tmp_path / "xbeta.csv"
    _raises_exit_2(
        lambda m: write_distribution_csv(path, system.partition, distribution, m), masses
    )
    assert not path.exists()


def _scenario(system: dict) -> dict:
    return {
        "partition": {"contexts": [{"name": "a", "behaviors": ["x", "y"]}]},
        "system": system,
    }


MIXTURE = {"type": "mixture", "latent_weights": [0.5, 0.5], "emissions": [[r] for r in ROWS]}
STRING_SCENARIOS = {
    "latent_weights": (
        {**MIXTURE, "latent_weights": ["0.5", "0.5"]},
        "system.latent_weights[0]",
    ),
    "emission rows": (
        {**MIXTURE, "emissions": [[["0.9", "0.1"]], [[0.2, 0.8]]]},
        "system.emissions[*][0][0, 0]",
    ),
    "table": (
        {"type": "joint_table", "table": ["0.5", "0.5"], "epsilon": 0.0},
        "system.table: joint table[0]",
    ),
}


@pytest.mark.parametrize("command", ["coherence", "enumerate"])
@pytest.mark.parametrize("case", sorted(STRING_SCENARIOS))
def test_a_numeric_string_in_a_scenario_exits_2_citing_key(tmp_path, command, case):
    system, key_path = STRING_SCENARIOS[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_scenario(system)))
    args = ["--policy", "x"] if command == "coherence" else ["--out", str(tmp_path)]
    result = CliRunner().invoke(main, [command, str(path), *args])
    assert result.exit_code == 2, result.output
    assert f"error: {key_path} must be a number in the float range" in result.output
