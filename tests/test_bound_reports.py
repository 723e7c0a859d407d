"""One rule decides the report of both square-root bounds, and every bound
checks its sign convention before it branches; a Scenario split names each
context exactly once over a ground truth of its own partition, and
policy_names and agreement check the policy and subset they are given.

The bound reports are compared over a grid with a test-local reference
written as the two bounds computed them before they shared one builder:
value bits, note, validity and the echoed inputs in their order."""

from __future__ import annotations

import itertools
import json
import math
import struct

import numpy as np
import pytest
from click.testing import CliRunner

from cohopt import (
    CoherenceValue,
    DPolicy,
    Scenario,
    ValidationError,
    accuracy_lower_bound,
    agreement,
    generic_partition,
    random_mixture_system,
    run_semi_supervised,
    scenario_to_dict,
    uniform_convergence_bound,
)
from cohopt.cli import main

LOG2_E = math.log2(math.e)
CHIS = (0, -1e-12, -0.3, -1.74, -3, -40, -1e300, -math.inf, 1e-10, CoherenceValue(-2.5))
GAPS = (0, 0.5, 1, 2.0, 10, 1e3, 1e10, 1e308, math.inf, -math.inf, -5)
NS = (1, 2, 10, 100, 10**6)
# 5e-324 makes log2(1/delta) infinite, so the paper sign gives inf - inf
DELTAS = (1, 0.5, 0.1, 0.05, 1e-9, 5e-324)
SIGNS = ("corrected", "paper")


def _signed_log_term(delta, sign_convention):
    log_term = math.log2(1.0 / delta)
    return log_term if sign_convention == "corrected" else -log_term


def reference_uniform(chi, N, delta, sign_convention):
    """(kind, value, valid, note, inputs) as uniform_convergence_bound gave
    them before the shared report builder."""
    chi_bits = float(chi.bits if isinstance(chi, CoherenceValue) else chi)
    inputs = {
        "chi": chi_bits,
        "N": N,
        "delta": float(delta),
        "sign_convention": sign_convention,
    }
    radicand = ((-2.0 * chi_bits + LOG2_E) + _signed_log_term(delta, sign_convention)) / (
        2.0 * N
    )
    if radicand < 0.0:
        value, note = math.nan, f"negative radicand {radicand!r}"
    else:
        value = math.sqrt(radicand)
        note = "" if value <= 1.0 else "vacuous: bound exceeds 1"
    return "uniform-convergence", value, not note, note, inputs


def reference_accuracy(G, N, delta, sign_convention):
    """(kind, value, valid, note, inputs) as accuracy_lower_bound gave them
    before the shared report builder."""
    inputs = {
        "G": float(G),
        "N": N,
        "delta": float(delta),
        "sign_convention": sign_convention,
    }
    if math.isinf(G):
        value, note = -math.inf, "optimality gap is infinite"
    else:
        radicand = (2.0 * G + 2.0 * _signed_log_term(delta, sign_convention)) / N
        if radicand < 0.0:
            value, note = math.nan, f"negative radicand {radicand!r}"
        else:
            value = 1.0 - math.sqrt(radicand)
            note = "" if 0.0 <= value <= 1.0 else "vacuous: bound below 0"
    return "accuracy-lower-bound", value, not note, note, inputs


def _assert_same_report(report, expected):
    kind, value, valid, note, inputs = expected
    assert report.kind == kind
    assert struct.pack("<d", report.value) == struct.pack("<d", value)
    assert report.valid is valid
    assert report.note == note
    assert repr(report.inputs) == repr(inputs)
    assert list(report.inputs) == list(inputs)


@pytest.mark.parametrize("sign_convention", SIGNS)
def test_uniform_reports_match_the_reference_bit_for_bit(sign_convention):
    for chi, N, delta in itertools.product(CHIS, NS, DELTAS):
        report = uniform_convergence_bound(chi, N, delta, sign_convention)
        _assert_same_report(report, reference_uniform(chi, N, delta, sign_convention))


@pytest.mark.parametrize("sign_convention", SIGNS)
def test_accuracy_reports_match_the_reference_bit_for_bit(sign_convention):
    for G, N, delta in itertools.product(GAPS, NS, DELTAS):
        report = accuracy_lower_bound(G, N, delta, sign_convention)
        _assert_same_report(report, reference_accuracy(G, N, delta, sign_convention))


def test_the_grid_reaches_every_note():
    notes = {
        uniform_convergence_bound(chi, N, delta, sign).note.split(" ")[0]
        for chi, N, delta, sign in itertools.product(CHIS, NS, DELTAS, SIGNS)
    } | {
        accuracy_lower_bound(G, N, delta, sign).note.split(" ")[0]
        for G, N, delta, sign in itertools.product(GAPS, NS, DELTAS, SIGNS)
    }
    assert notes == {"", "negative", "vacuous:", "optimality"}


def test_a_nan_root_is_vacuous_as_before():
    uniform = uniform_convergence_bound(-math.inf, 10, 5e-324, "paper")
    floor = accuracy_lower_bound(1e308, 10, 5e-324, "paper")
    assert math.isnan(uniform.value) and uniform.note == "vacuous: bound exceeds 1"
    assert math.isnan(floor.value) and floor.note == "vacuous: bound below 0"
    assert not uniform.valid and not floor.valid


@pytest.mark.parametrize("G", [math.inf, -math.inf])
def test_accuracy_checks_its_sign_convention_at_an_infinite_gap(G):
    with pytest.raises(ValidationError) as caught:
        accuracy_lower_bound(G, 10, 0.1, "bogus")
    assert caught.value.exit_code == 2
    assert str(caught.value) == (
        "sign_convention must be 'corrected' or 'paper', got 'bogus'"
    )


def test_uniform_checks_its_sign_convention_at_an_infinite_gap():
    with pytest.raises(ValidationError, match="sign_convention must be"):
        uniform_convergence_bound(-math.inf, 10, 0.1, "bogus")


def test_cli_accuracy_exits_2_on_a_bad_sign_at_an_infinite_gap(tmp_path):
    result = CliRunner().invoke(
        main,
        ["bounds", "--bound", "accuracy", "--gap", "inf", "--n", "10",
         "--delta", "0.1", "--sign", "bogus", "--out", str(tmp_path)],
    )
    assert result.exit_code == 2, result.output
    assert not (tmp_path / "bound.json").exists()


# each CLI report's flags in the order its inputs are checked, and its echo
CLI_REPORTS = {
    "regularization": (
        ["--alpha", "0.8", "--entropy", "3", "--kl", "1", "--n", "100",
         "--delta", "0.05"],
        {"alpha": 0.8, "entropy": 3.0, "kl": 1.0, "N": 100, "delta": 0.05},
    ),
    "sample-count": (
        ["--mean-pretrain-coh", "-2", "--mean-posttrain-coh", "-1",
         "--pretrain-error", "0.1", "--pretrain-count", "10"],
        {"mean_pretrain_coh": -2.0, "mean_posttrain_coh": -1.0,
         "pretrain_error": 0.1, "pretrain_count": 10},
    ),
}


@pytest.mark.parametrize("kind", CLI_REPORTS)
def test_cli_reports_name_their_first_missing_input(tmp_path, kind):
    flags, _ = CLI_REPORTS[kind]
    for given in range(0, len(flags), 2):
        result = CliRunner().invoke(
            main, ["bounds", "--bound", kind, *flags[:given], "--out", str(tmp_path)]
        )
        assert result.exit_code == 2
        assert f"{flags[given]} is required for --bound {kind}" in result.output


@pytest.mark.parametrize("kind", CLI_REPORTS)
def test_cli_reports_echo_their_inputs(tmp_path, kind):
    flags, inputs = CLI_REPORTS[kind]
    result = CliRunner().invoke(
        main, ["bounds", "--bound", kind, *flags, "--out", str(tmp_path)]
    )
    assert result.exit_code == 0, result.output
    report = json.loads((tmp_path / "bound.json").read_text())
    assert report["inputs"] == inputs
    assert report["valid"] is True and report["note"]


SYSTEM = random_mixture_system(generic_partition([3, 3, 3]), 2, np.random.default_rng(0))
TRUTH = DPolicy((0, 1, 2))


@pytest.mark.parametrize(
    "supervised, unsupervised", [((0, 0), (1, 2)), ((0,), (1, 2, 2)), ((1, 0, 1), (2,))]
)
def test_a_split_that_repeats_a_context_is_rejected(supervised, unsupervised):
    with pytest.raises(
        ValidationError, match="^split must cover every context exactly once$"
    ):
        Scenario(SYSTEM, TRUTH, supervised, unsupervised, 0)


def test_an_overlapping_split_still_names_its_overlap_first():
    with pytest.raises(ValidationError, match=r"^split overlaps on contexts \[1\]$"):
        Scenario(SYSTEM, TRUTH, (0, 1, 1), (1, 2), 0)


@pytest.mark.parametrize(
    "truth", [DPolicy((0, 1)), DPolicy((0, 1, 2, 0)), DPolicy((9, 0, 0)), DPolicy((0, 3, 0))]
)
def test_a_ground_truth_off_the_partition_is_rejected(truth):
    with pytest.raises(ValidationError) as caught:
        Scenario(SYSTEM, truth, (0,), (1, 2), 0)
    assert caught.value.exit_code == 2


def test_a_valid_split_in_any_order_is_kept():
    scenario = Scenario(SYSTEM, TRUTH, (2, 0), (1,), 0)
    assert (scenario.supervised, scenario.unsupervised) == ((2, 0), (1,))
    assert run_semi_supervised(scenario, "erm").policy_names


@pytest.mark.parametrize("policy", [DPolicy((9, 0, 0)), DPolicy((0,)), DPolicy((0, 0, 0, 0))])
def test_policy_names_rejects_a_policy_off_the_partition(policy):
    partition = SYSTEM.partition
    with pytest.raises(ValidationError) as caught:
        partition.policy_names(policy)
    assert caught.value.exit_code == 2
    with pytest.raises(ValidationError):
        scenario_to_dict(partition, SYSTEM, policy)


def test_policy_names_names_a_valid_policy():
    partition = SYSTEM.partition
    assert partition.policy_names(TRUTH) == tuple(
        partition.behaviors[c][a] for c, a in enumerate(TRUTH.assignment)
    )


@pytest.mark.parametrize("subset", [[0, 0, 1], [2, 2], [1, 0, 1]])
def test_agreement_rejects_a_repeated_context(subset):
    with pytest.raises(
        ValidationError, match="^context subset has repeated indices$"
    ):
        agreement(DPolicy((0, 1, 2)), DPolicy((0, 0, 0)), subset)


def test_agreement_on_distinct_contexts_is_unchanged():
    stats = agreement(DPolicy((0, 1, 2)), DPolicy((0, 0, 0)), [2, 0, 1])
    assert (stats.alpha, stats.subset_size) == (1 / 3, 3)
