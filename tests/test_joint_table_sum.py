"""A joint table must sum to 1 within PROB_ATOL, the tolerance its weights
meet again as the mixture's latent weights, so the error names the joint
table (and, from a scenario file, its key path) instead of latent_weights,
a parameter the caller never passed. Tables within that tolerance build
the same system as before."""

from __future__ import annotations

import json

import numpy as np
import pytest
from click.testing import CliRunner

from cohopt import ValidationError, from_joint_table, generic_partition
from cohopt.cli import main
from cohopt.systems import PROB_ATOL

PAIR = generic_partition([2])


@pytest.mark.parametrize("off", [1e-10, -1e-10, 5e-10, 2e-12])
def test_a_table_off_by_more_than_prob_atol_names_the_joint_table(off):
    with pytest.raises(ValidationError) as caught:
        from_joint_table(PAIR, [0.5, 0.5 + off])
    message = str(caught.value)
    assert caught.value.exit_code == 2
    assert message == (
        f"joint table entries sum to {1.0 + off!r}, expected 1 ± {PROB_ATOL}"
    )
    assert "latent_weights" not in message


@pytest.mark.parametrize("off", [0.0, 5e-13, -5e-13])
def test_a_table_within_prob_atol_builds_its_mixture(off):
    table = [0.5, 0.5 + off]
    system = from_joint_table(PAIR, table)
    assert system.latent_weights.tolist() == table
    assert system.emissions(0).tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_a_scenario_table_off_by_1e_10_exits_2_naming_its_key():
    payload = {
        "partition": {"contexts": [{"name": "a", "behaviors": ["x", "y"]}]},
        "system": {"type": "joint_table", "table": [0.5, 0.5 + 1e-10]},
    }
    with CliRunner().isolated_filesystem():
        with open("bad.json", "w") as handle:
            json.dump(payload, handle)
        result = CliRunner().invoke(main, ["coherence", "bad.json", "--policy", "x"])
    assert result.exit_code == 2, result.output
    assert "error: system.table: joint table entries sum to" in result.output
    assert "latent_weights" not in result.output


def test_a_three_context_table_off_by_1e_11_names_the_joint_table():
    partition = generic_partition([3, 2, 2])
    table = np.full((3, 2, 2), 1 / 12)
    table[0, 0, 0] += 1e-11
    with pytest.raises(ValidationError, match="^joint table entries sum to"):
        from_joint_table(partition, table)
