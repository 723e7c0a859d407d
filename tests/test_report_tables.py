"""Report tables are written from their row dataclasses: trials.csv and
equiv.csv take their header from the row type's fields and their cells from
vars(row), and bound.json is dataclasses.asdict of its BoundReport. Each
file equals, byte for byte, what the old hand mapping wrote (flags through
int(), rows and payloads copied field by field). The label writers refuse
two policies, or two changed sets, that join to one label."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from cohopt import (
    ContextPartition,
    EquivalenceRow,
    MixtureBayesSystem,
    RunRecord,
    SamplerConfig,
    TrialRow,
    ValidationError,
    accuracy_lower_bound,
    bound_validity_trials,
    conjectured_posttrain_count,
    equivalence_study,
    regularization_bound_rhs,
    uniform_convergence_bound,
    write_trajectory_csv,
)
from cohopt.cli import main
from cohopt.fileio import save_scenario, write_json, write_rows_csv

TRIAL_FIELDS = [
    "seed", "violated", "max_gap", "bound_at_max", "violated_paper",
    "srm_accuracy", "accuracy_floor", "srm_violated",
]
EQUIV_FIELDS = ["s_a", "seed", "acc_coherence", "acc_srm", "gap", "recommended"]


def _invoke(argv, out):
    return CliRunner().invoke(main, [*argv, "--out", str(out)])


def test_write_rows_csv_writes_flags_as_1_and_0(tmp_path):
    rows = [
        {"flag": True, "other": np.False_, "count": 3, "value": 0.1, "empty": None},
        {"flag": False, "other": np.True_, "count": -2, "value": math.inf, "empty": "x"},
    ]
    path = write_rows_csv(
        tmp_path / "t.csv", ["flag", "other", "count", "value", "empty"], rows
    )
    assert path.read_text() == (
        "flag,other,count,value,empty\n1,0,3,0.1,\n0,1,-2,inf,x\n"
    )


def _old_trials_csv(path, rows):
    """trials.csv as the hand mapping wrote it: int() on the three flags."""
    return write_rows_csv(
        path,
        TRIAL_FIELDS,
        [
            {
                "seed": row.seed,
                "violated": int(row.violated),
                "max_gap": row.max_gap,
                "bound_at_max": row.bound_at_max,
                "violated_paper": int(row.violated_paper),
                "srm_accuracy": row.srm_accuracy,
                "accuracy_floor": row.accuracy_floor,
                "srm_violated": int(row.srm_violated),
            }
            for row in rows
        ],
    )


@pytest.mark.parametrize(
    "trials, seed, n_train, delta",
    [(65, 0, 50, 0.1), (130, 5, 997, 0.01)],  # across one and two chunk ends
)
def test_trials_csv_matches_the_hand_mapping(tmp_path, trials, seed, n_train, delta):
    argv = ["mc", "--trials", str(trials), "--seed", str(seed),
            "--n-train", str(n_train), "--delta", str(delta)]
    result = _invoke(argv, tmp_path / "cli")
    assert result.exit_code == 0, result.output
    rows = bound_validity_trials(trials, seed=seed, n_train=n_train, delta=delta)
    expected = _old_trials_csv(tmp_path / "old.csv", rows).read_bytes()
    written = (tmp_path / "cli" / "trials.csv").read_bytes()
    assert written == expected
    assert [f.name for f in dataclasses.fields(TrialRow)] == TRIAL_FIELDS
    assert written.split(b"\n", 1)[0] == ",".join(TRIAL_FIELDS).encode()
    assert written.count(b"\n") == trials + 1


def test_equiv_csv_matches_the_hand_mapping(tmp_path):
    argv = ["equiv", "--lattice", "0,1,2,3", "--n-seeds", "2", "--n-contexts", "4"]
    result = _invoke(argv, tmp_path / "cli")
    assert result.exit_code == 0, result.output
    study = equivalence_study(
        [0, 1, 2, 3], [0, 1], n_contexts=4, context_size=3, n_latents=2,
        emission_concentration=0.5, truth_beta=1.0, delta=0.05,
    )
    old_rows = [
        {
            "s_a": row.s_a,
            "seed": row.seed,
            "acc_coherence": row.acc_coherence,
            "acc_srm": row.acc_srm,
            "gap": row.gap,
            "recommended": row.recommended,
        }
        for row in study.rows
    ]
    expected = write_rows_csv(tmp_path / "old.csv", EQUIV_FIELDS, old_rows)
    assert [f.name for f in dataclasses.fields(EquivalenceRow)] == EQUIV_FIELDS
    assert (tmp_path / "cli" / "equiv.csv").read_bytes() == expected.read_bytes()


def _old_payload(report) -> dict:
    """BoundReport.to_dict as it was."""
    return {
        "kind": report.kind,
        "value": report.value,
        "valid": report.valid,
        "note": report.note,
        "inputs": dict(report.inputs),
    }


def _regularization(alpha, entropy, kl, n, delta) -> dict:
    value = regularization_bound_rhs(alpha, entropy, kl, n, delta)
    valid = 0.0 <= value <= 1.0
    return {
        "kind": "regularization-rhs",
        "value": value,
        "valid": valid,
        "note": "asymptotic form: vanishing remainder dropped"
        if valid
        else "vacuous: bound outside [0, 1]",
        "inputs": {"alpha": alpha, "entropy": entropy, "kl": kl, "N": n, "delta": delta},
    }


def _sample_count(pre, post, error, count) -> dict:
    value = conjectured_posttrain_count(pre, post, error, count)
    return {
        "kind": "posttrain-count",
        "value": value,
        "valid": math.isfinite(value),
        "note": "conjectural recommendation, not a guarantee",
        "inputs": {
            "mean_pretrain_coh": pre,
            "mean_posttrain_coh": post,
            "pretrain_error": error,
            "pretrain_count": count,
        },
    }


BOUNDS = {
    "uniform": (
        ["--bound", "uniform", "--chi", "-1.7369656", "--n", "100", "--delta", "0.05"],
        lambda: _old_payload(uniform_convergence_bound(-1.7369656, 100, 0.05)),
    ),
    "uniform-paper": (
        ["--bound", "uniform", "--chi", "-3", "--n", "20", "--delta", "0.1", "--sign", "paper"],
        lambda: _old_payload(uniform_convergence_bound(-3.0, 20, 0.1, "paper")),
    ),
    "accuracy": (
        ["--bound", "accuracy", "--gap", "2", "--n", "100", "--delta", "0.05"],
        lambda: _old_payload(accuracy_lower_bound(2.0, 100, 0.05)),
    ),
    "regularization": (
        ["--bound", "regularization", "--alpha", "0.8", "--entropy", "3",
         "--kl", "1", "--n", "100", "--delta", "0.05"],
        lambda: _regularization(0.8, 3.0, 1.0, 100, 0.05),
    ),
    "regularization-vacuous": (
        ["--bound", "regularization", "--alpha", "0.1", "--entropy", "3",
         "--kl", "1", "--n", "2", "--delta", "0.05"],
        lambda: _regularization(0.1, 3.0, 1.0, 2, 0.05),
    ),
    "sample-count": (
        ["--bound", "sample-count", "--mean-pretrain-coh", "-2",
         "--mean-posttrain-coh", "-1", "--pretrain-error", "0.1",
         "--pretrain-count", "10"],
        lambda: _sample_count(-2.0, -1.0, 0.1, 10),
    ),
    "accuracy-nan": (
        ["--bound", "accuracy", "--gap", "2", "--n", "10", "--delta", "0.1", "--sign", "paper"],
        lambda: _old_payload(accuracy_lower_bound(2.0, 10, 0.1, "paper")),
    ),
    "uniform-inf": (
        ["--bound", "uniform", "--chi", "-inf", "--n", "10", "--delta", "0.1"],
        lambda: _old_payload(uniform_convergence_bound(-math.inf, 10, 0.1)),
    ),
}


@pytest.mark.parametrize("name", BOUNDS)
def test_bound_json_matches_the_hand_mapping(tmp_path, name):
    argv, old = BOUNDS[name]
    result = _invoke(["bounds", *argv], tmp_path / "cli")
    assert result.exit_code == 0, result.output
    payload = old()
    expected = write_json(tmp_path / "old.json", payload).read_bytes()
    assert (tmp_path / "cli" / "bound.json").read_bytes() == expected
    config = json.loads((tmp_path / "cli" / "config.json").read_text())
    assert config["report_inputs"] == json.loads(expected)["inputs"]
    assert result.output == (
        f"{payload['kind']}: value={payload['value']!r} valid={payload['valid']}\n"
    )


def test_bound_cases_cover_nan_and_infinite_values():
    values = [BOUNDS[name][1]()["value"] for name in BOUNDS]
    assert any(math.isnan(v) for v in values)
    assert any(math.isinf(v) for v in values)


# context x: a, a|b; context y: b|c, c -- (a, b|c) and (a|b, c) both read a|b|c
COLLIDING = ContextPartition(["x", "y"], [["a", "a|b"], ["b|c", "c"]])


def _colliding_system() -> MixtureBayesSystem:
    return MixtureBayesSystem(
        COLLIDING,
        [0.5, 0.5],
        [np.array([[0.3, 0.7], [0.6, 0.4]]), np.array([[0.4, 0.6], [0.2, 0.8]])],
    )


def test_enumerate_refuses_two_policies_with_one_label(tmp_path):
    scenario = save_scenario(tmp_path / "s.json", COLLIDING, _colliding_system())
    out = tmp_path / "out"
    result = _invoke(["enumerate", str(scenario)], out)
    assert result.exit_code == 2
    assert "error:" in result.stderr and "'a|b|c'" in result.stderr
    assert not (out / "xbeta.csv").exists()
    assert not (out / "config.json").exists()


def test_run_refuses_two_visited_policies_with_one_label(tmp_path):
    """The trajectory is checked after config.json is written, as any error
    of a run is; no trajectory.csv or report.json is written."""
    scenario = save_scenario(tmp_path / "s.json", COLLIDING, _colliding_system())
    out = tmp_path / "out"
    result = _invoke(["run", str(scenario), "--steps", "200", "--seed", "0"], out)
    assert result.exit_code == 2
    assert "error:" in result.stderr
    assert sorted(p.name for p in out.iterdir()) == ["config.json"]


def _record(partition, trajectory, moves) -> RunRecord:
    trajectory = np.array(trajectory, dtype=np.int64)
    return RunRecord(
        "gibbs",
        tuple(range(partition.n_contexts)),
        partition.sizes,
        trajectory,
        np.zeros(len(trajectory)),
        np.array(moves, dtype=np.int64).reshape(len(trajectory) - 1, -1),
        SamplerConfig(steps=len(trajectory) - 1),
    )


def test_trajectory_refuses_two_visited_policies_with_one_label(tmp_path):
    path = tmp_path / "trajectory.csv"
    record = _record(COLLIDING, [[0, 0], [0, 1], [1, 1]], [[1], [0]])
    with pytest.raises(ValidationError, match="visited policies"):
        write_trajectory_csv(path, COLLIDING, record)
    assert not path.exists()
    # a revisit of one policy is one row, not a collision
    write_trajectory_csv(path, COLLIDING, _record(COLLIDING, [[0, 0], [0, 1], [0, 0]], [[1], [1]]))
    assert path.read_text().splitlines()[-3:] == ["0,,a|b|c,0.0", "1,y,a|c,0.0", "2,y,a|b|c,0.0"]


def test_trajectory_refuses_two_changed_sets_with_one_label(tmp_path):
    # contexts a, b|c, a|b, c: the moves (0, 1) and (2, 3) both read a|b|c
    partition = ContextPartition(
        ["a", "b|c", "a|b", "c"], [["p", "q"], ["r"], ["s"], ["t"]]
    )
    path = tmp_path / "trajectory.csv"
    record = _record(partition, [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]], [[0, 1], [2, 3]])
    with pytest.raises(ValidationError, match="changed sets"):
        write_trajectory_csv(path, partition, record)
    assert not path.exists()
