"""bound_validity_trials runs its trials in chunks of stacked arrays. Its
rows equal (==) those of a test-local loop that builds, enumerates and
scores one system per trial; a chunk whose draws fail a system check raises
that trial's own ValidationError; and counts that are not integers are
rejected before anything is drawn."""

from __future__ import annotations

import math

import numpy as np
import pytest
from click.testing import CliRunner

from cohopt import (
    MixtureBayesSystem,
    TrialRow,
    ValidationError,
    bound_validity_trials,
    enumerate_policy_masses,
    generic_partition,
    random_mixture_system,
)
from cohopt import analysis
from cohopt.cli import main

CHUNK = analysis._TRIAL_CHUNK
LOG2_E = math.log2(math.e)


def _one_trial_at_a_time(n_trials, seed, n_train, delta):
    sizes = (3, 3, 3)
    k, count = len(sizes), math.prod(sizes)
    partition = generic_partition(sizes)
    coords = np.array(np.unravel_index(np.arange(count), sizes))
    log_term = math.log2(1.0 / delta)
    rows = []
    for i, stream in enumerate(np.random.SeedSequence(seed).spawn(n_trials)):
        rng = np.random.default_rng(stream)
        system = random_mixture_system(partition, 2, rng, emission_concentration=1.0)
        masses = enumerate_policy_masses(system)
        truth_index = int(
            np.searchsorted(np.cumsum(masses), rng.random() * masses.sum())
        )
        truth_index = min(truth_index, count - 1)
        match = coords == coords[:, truth_index][:, None]
        alpha_true = match.mean(axis=0)
        counts = np.bincount(rng.integers(0, k, size=n_train), minlength=k)
        alpha_train = (counts.astype(np.float64) @ match) / n_train
        chi = np.log2(masses)
        gaps = np.abs(alpha_true - alpha_train)
        radicand = (-2.0 * chi + LOG2_E + log_term) / (2.0 * n_train)
        bound = np.sqrt(radicand)
        radicand_paper = (-2.0 * chi + LOG2_E - log_term) / (2.0 * n_train)
        with np.errstate(invalid="ignore"):
            bound_paper = np.sqrt(radicand_paper)
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
                violated_paper=bool(
                    np.any(gaps > np.where(np.isnan(bound_paper), -np.inf, bound_paper))
                ),
                srm_accuracy=float(alpha_true[picked]),
                accuracy_floor=floor,
                srm_violated=bool(alpha_true[picked] < floor),
            )
        )
    return rows


CASES = [
    (0, 50, 0.1),
    (3, 1, 1.0),
    (12345, 997, 0.01),
    (7, 1, 0.01),
    (11, 997, 0.1),
    (5, 50, 1.0),
]


@pytest.mark.parametrize("n_trials", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
@pytest.mark.parametrize("seed, n_train, delta", CASES)
def test_rows_match_one_trial_at_a_time(n_trials, seed, n_train, delta):
    rows = bound_validity_trials(n_trials, seed=seed, n_train=n_train, delta=delta)
    assert rows == _one_trial_at_a_time(n_trials, seed, n_train, delta)


@pytest.mark.parametrize("n_trials", [1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
def test_one_kernel_call_per_chunk(monkeypatch, n_trials):
    stacks = []
    kernel = analysis._enumerate_masses

    def counting(weights, *args):
        stacks.append(weights.shape[0])
        return kernel(weights, *args)

    monkeypatch.setattr(analysis, "_enumerate_masses", counting)
    bound_validity_trials(n_trials)
    assert sum(stacks) == n_trials
    assert len(stacks) == math.ceil(n_trials / CHUNK)
    assert max(stacks) <= CHUNK


class TestIntegralCounts:
    @pytest.mark.parametrize(
        "args, kwargs",
        [
            ((2.5,), {}),
            ((3.0,), {}),
            ((np.float64(3),), {}),
            ((3,), {"n_train": 2.5}),
            ((3,), {"n_train": np.float64(50)}),
            ((3,), {"n_train": math.nan}),
            (("3",), {}),
        ],
    )
    def test_rejected_before_anything_is_drawn(self, monkeypatch, args, kwargs):
        def never(*_):
            raise AssertionError("drew a system")

        monkeypatch.setattr(analysis, "_draw_mixture", never)
        with pytest.raises(ValidationError, match="must be an integer"):
            bound_validity_trials(*args, **kwargs)

    def test_numpy_ints_are_counts(self):
        assert bound_validity_trials(
            np.int64(70), seed=2, n_train=np.int32(9)
        ) == bound_validity_trials(70, seed=2, n_train=9)


def _spoiled(monkeypatch, trial, spoil):
    """Hand trial number ``trial`` the draws that spoil(weights, emissions)
    makes of its own; returns that trial's partition and draws."""
    draw = analysis._draw_mixture
    calls = []

    def spoiling(*args):
        weights, emissions = draw(*args)
        if len(calls) == trial:
            weights, emissions = spoil(weights.copy(), [e.copy() for e in emissions])
            calls.append((weights, emissions))
        else:
            calls.append(None)
        return weights, emissions

    monkeypatch.setattr(analysis, "_draw_mixture", spoiling)
    return calls


def _nan_weight(weights, emissions):
    weights[1] = math.nan
    return weights, emissions


def _weights_off(weights, emissions):
    return weights * (1.0 + 1e-9), emissions


def _row_off(weights, emissions):
    emissions[1][0, 2] += 1e-9
    return weights, emissions


def _negative_entry(weights, emissions):
    emissions[2][1, 0] = -emissions[2][1, 0]
    return weights, emissions


SPOILS = [_nan_weight, _weights_off, _row_off, _negative_entry]


@pytest.mark.parametrize("spoil", SPOILS)
@pytest.mark.parametrize("trial", [0, 5, CHUNK + 7])
def test_failing_trial_raises_its_own_error(monkeypatch, spoil, trial):
    calls = _spoiled(monkeypatch, trial, spoil)
    with pytest.raises(ValidationError) as raised:
        bound_validity_trials(2 * CHUNK, seed=4)
    weights, emissions = calls[trial]
    with pytest.raises(ValidationError) as own:
        MixtureBayesSystem(generic_partition(analysis.TRIAL_SIZES), weights, emissions)
    assert str(raised.value) == str(own.value)
    # the chunk is drawn before it is checked, and no later chunk is
    assert len(calls) == (trial // CHUNK + 1) * CHUNK


@pytest.mark.parametrize("spoil", SPOILS)
def test_cli_exits_2(monkeypatch, tmp_path, spoil):
    _spoiled(monkeypatch, CHUNK + 3, spoil)
    result = CliRunner().invoke(
        main, ["mc", "--trials", str(2 * CHUNK), "--out", str(tmp_path)]
    )
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ")
    assert not (tmp_path / "trials.csv").exists()
