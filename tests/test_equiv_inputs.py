"""equivalence_study checks delta up front, so a lattice of zeros, whose
cells never reach the regularized selection, still refuses a bad delta; the
CLI then exits 2 and writes nothing."""

from __future__ import annotations

import math

import pytest
from click.testing import CliRunner

from cohopt import ValidationError, equivalence_study
from cohopt.cli import main


@pytest.mark.parametrize("delta", [5.0, 0.0, -1.0, math.nan])
def test_bad_delta_raises_on_a_zero_lattice(delta):
    with pytest.raises(ValidationError, match="delta"):
        equivalence_study([0], [0], n_contexts=4, delta=delta)


def test_delta_one_runs_on_a_zero_lattice():
    study = equivalence_study([0], [0], n_contexts=4, delta=1.0)
    assert [row.s_a for row in study.rows] == [0]


@pytest.mark.parametrize("lattice", ["0", "1"])
def test_cli_bad_delta_exits_2_and_writes_nothing(tmp_path, lattice):
    out = tmp_path / "o"
    argv = ["equiv", "--lattice", lattice, "--delta", "5", "--n-seeds", "1", "--out", str(out)]
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 2, result.output
    assert "error:" in result.output and "delta" in result.output
    assert not out.exists()
