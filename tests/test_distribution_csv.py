"""write_distribution_csv builds each xbeta.csv line as one f-string and must
write, byte for byte, what the old rule wrote: one dict row per policy
through write_rows_csv. Cases cover behavior names holding a comma, a
double quote, CR and LF, zero masses (coherence -inf), tied masses (sorted
by label), beta = inf, and one `cohopt enumerate` run on a scenario with
such names. The written table also reads back through the csv module."""

from __future__ import annotations

import csv
import io
import itertools
import math

import numpy as np
import pytest
from click.testing import CliRunner

from cohopt import (
    Conditioned,
    ContextPartition,
    MixtureBayesSystem,
    from_joint_table,
    softmax_over_coherence,
)
from cohopt.cli import main
from cohopt.fileio import load_scenario, save_scenario, write_distribution_csv, write_rows_csv

BETAS = (0.5, 1.0, 2.0, math.inf)
NAMES = [
    ["plain", "a,b", 'say "hi"'],
    ["cr\rx", "lf\nx", '",\r\n'],
    ["last", "|"],
]


def _old_writer(path, partition, distribution, masses):
    """The writer as it was: one dict row per policy through write_rows_csv."""
    with np.errstate(divide="ignore"):
        chis = np.log2(masses)
    labels = ("|".join(n) for n in itertools.product(*partition.behaviors))
    rows = sorted(
        zip(labels, distribution.masses.tolist(), chis.tolist(), strict=True),
        key=lambda row: (-row[1], row[0]),
    )
    return write_rows_csv(
        path,
        ["policy", "mass", "coherence_bits"],
        [
            {"policy": label, "mass": mass, "coherence_bits": chi}
            for label, mass, chi in rows
        ],
    )


def _partition():
    return ContextPartition(["c0", "c,1", 'c"2'], NAMES)


def _mixture():
    rng = np.random.default_rng(4)
    emissions = [rng.dirichlet(np.ones(len(row)), size=3) for row in NAMES]
    return MixtureBayesSystem(_partition(), rng.dirichlet(np.ones(3)), emissions)


def _joint():
    """A joint table at epsilon 0 with zero cells and tied cells."""
    table = np.zeros(3 * 3 * 2)
    table[[0, 3, 5, 9]] = 0.2  # four ties
    table[[10, 17]] = 0.1
    return from_joint_table(_partition(), table, 0.0)


def _compare(tmp_path, system, beta):
    masses = Conditioned(system).masses()
    distribution = softmax_over_coherence(system, beta)
    new = write_distribution_csv(tmp_path / "new.csv", system.partition, distribution, masses)
    old = _old_writer(tmp_path / "old.csv", system.partition, distribution, masses)
    assert new.read_bytes() == old.read_bytes()
    return new.read_bytes()


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("make", (_mixture, _joint))
def test_lines_match_the_row_writer(tmp_path, make, beta):
    system = make()
    text = _compare(tmp_path, system, beta).decode()
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert rows[0] == ["policy", "mass", "coherence_bits"]
    labels = {"|".join(n) for n in itertools.product(*NAMES)}
    assert {row[0] for row in rows[1:]} == labels and len(rows) == 1 + len(labels)


def test_zero_masses_and_ties(tmp_path):
    text = _compare(tmp_path, _joint(), 1.0).decode()
    rows = list(csv.reader(io.StringIO(text, newline="")))[1:]
    tied = [row[0] for row in rows if row[1] == rows[0][1]]
    assert len(tied) == 4 and tied == sorted(tied)
    zeros = [row for row in rows if float(row[1]) == 0.0]
    assert len(zeros) == 12 and all(row[2] == "-inf" for row in zeros)
    assert [row[0] for row in zeros] == sorted(row[0] for row in zeros)


def test_infinite_beta_keeps_the_ties(tmp_path):
    text = _compare(tmp_path, _joint(), math.inf).decode()
    rows = list(csv.reader(io.StringIO(text, newline="")))[1:]
    assert [row[1] for row in rows[:5]] == ["0.25"] * 4 + ["0.0"]


@pytest.mark.parametrize("make", (_mixture, _joint))
def test_enumerate_command(tmp_path, make):
    scenario = save_scenario(tmp_path / "names.json", _partition(), make())
    out = tmp_path / "out"
    result = CliRunner().invoke(
        main, ["enumerate", str(scenario), "--beta", "2", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    system = load_scenario(scenario).system
    masses = Conditioned(system).masses()
    expected = _old_writer(
        tmp_path / "old.csv", system.partition, softmax_over_coherence(system, 2.0), masses
    )
    assert (out / "xbeta.csv").read_bytes() == expected.read_bytes()
