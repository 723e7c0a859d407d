"""Every JSON output parses under a strict parser, non-finite values are
spelled "inf", "-inf" and null, and bound reports say honestly whether
their value is meaningful."""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from cohopt.analysis import conjectured_posttrain_count, regularization_bound_rhs
from cohopt.cli import main
from cohopt.errors import ValidationError
from cohopt.fileio import write_json

SCENARIOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"
SMOOTHED = str(SCENARIOS / "condiments_smoothed.json")


def _reject(token: str):
    raise ValueError(f"non-standard JSON token {token}")


def _strict_load(text: str):
    return json.loads(text, parse_constant=_reject)


def _json_outputs(out: Path) -> dict[str, object]:
    """Every JSON file under out, and the meta line of every CSV trace."""
    parsed = {}
    for path in sorted(out.rglob("*.json")):
        parsed[path.name] = _strict_load(path.read_text())
    for path in sorted(out.rglob("*.csv")):
        for line in path.read_text().splitlines():
            if line.startswith("# meta="):
                parsed[path.name] = _strict_load(line[len("# meta="):])
    return parsed


def _invoke(args: list[str], out: Path):
    return CliRunner().invoke(main, [*args, "--out", str(out)])


BOUND_CASES = {
    "uniform": ["--bound", "uniform", "--chi", "-1.7", "--n", "100", "--delta", "0.05"],
    "uniform-chi-inf": ["--bound", "uniform", "--chi", "-inf", "--n", "10", "--delta", "0.1"],
    "accuracy": ["--bound", "accuracy", "--gap", "2", "--n", "100", "--delta", "0.05"],
    "accuracy-nan": ["--bound", "accuracy", "--gap", "2", "--n", "10", "--delta", "0.1", "--sign", "paper"],
    "accuracy-gap-inf": ["--bound", "accuracy", "--gap", "inf", "--n", "10", "--delta", "0.1"],
    "regularization": [
        "--bound", "regularization", "--alpha", "0.8", "--entropy", "3", "--kl", "1",
        "--n", "100", "--delta", "0.05",
    ],
    "regularization-kl-inf": [
        "--bound", "regularization", "--alpha", "0.8", "--entropy", "3", "--kl", "inf",
        "--n", "100", "--delta", "0.05",
    ],
    "regularization-delta-near-1": [
        "--bound", "regularization", "--alpha", "0.8", "--entropy", "3", "--kl", "1",
        "--n", "100", "--delta", "0.9999999999999999",
    ],
    "sample-count": [
        "--bound", "sample-count", "--mean-pretrain-coh", "-2", "--mean-posttrain-coh", "-1",
        "--pretrain-error", "0.1", "--pretrain-count", "10",
    ],
}


@pytest.mark.parametrize("case", sorted(BOUND_CASES))
def test_bounds_json_is_strict(case, tmp_path):
    result = _invoke(["bounds", *BOUND_CASES[case]], tmp_path)
    assert result.exit_code == 0, result.output
    parsed = _json_outputs(tmp_path)
    assert set(parsed) == {"bound.json", "config.json"}
    report = parsed["bound.json"]
    value = report["value"]
    if report["valid"]:
        assert isinstance(value, float) and math.isfinite(value)


def test_non_finite_values_are_spelled_inf_and_null(tmp_path):
    _invoke(["bounds", *BOUND_CASES["uniform-chi-inf"]], tmp_path / "u")
    report = _strict_load((tmp_path / "u" / "bound.json").read_text())
    config = _strict_load((tmp_path / "u" / "config.json").read_text())
    assert report["value"] == "inf" and report["inputs"]["chi"] == "-inf"
    assert config["report_inputs"]["chi"] == "-inf"
    _invoke(["bounds", *BOUND_CASES["accuracy-nan"]], tmp_path / "a")
    report = _strict_load((tmp_path / "a" / "bound.json").read_text())
    assert report["value"] is None and report["valid"] is False


@pytest.mark.parametrize(
    "args",
    [
        ["run", SMOOTHED, "--method", "gibbs", "--steps", "50", "--beta", "inf"],
        ["run", SMOOTHED, "--method", "tf-gibbs", "--steps", "50", "--anchor-weight", "0.5"],
        ["run", SMOOTHED, "--method", "bootstrap", "--beta", "inf"],
        ["run", SMOOTHED, "--method", "icm", "--icm-restarts", "2"],
        ["enumerate", SMOOTHED, "--beta", "inf"],
        ["equiv", "--lattice", "0,1,2", "--n-seeds", "2", "--n-contexts", "3", "--truth-beta", "inf"],
        ["mc", "--trials", "20"],
    ],
    ids=["gibbs", "tf-gibbs", "bootstrap", "icm", "enumerate", "equiv", "mc"],
)
def test_command_json_is_strict(args, tmp_path):
    result = _invoke(args, tmp_path)
    assert result.exit_code == 0, result.output
    parsed = _json_outputs(tmp_path)
    assert "config.json" in parsed
    if args[0] in ("run", "enumerate"):
        config = parsed["config.json"]
        beta = config["config"]["beta"] if args[0] == "run" else config["beta"]
        assert beta == ("inf" if "inf" in args else 1.0)


def test_write_json_keeps_finite_bytes(tmp_path):
    payload = {
        "b": [1.5, np.float64(0.1), np.int64(3)],
        "a": {"x": np.array([[0.25, 1e-300], [2.0, 3.0]])},
        "c": None,
        "d": True,
    }
    expected = json.dumps(
        {"b": [1.5, 0.1, 3], "a": {"x": [[0.25, 1e-300], [2.0, 3.0]]}, "c": None, "d": True},
        indent=2,
        sort_keys=True,
    ) + "\n"
    assert write_json(tmp_path / "p.json", payload).read_text() == expected


def test_write_json_encodes_non_finite_numpy_values(tmp_path):
    payload = {"v": np.array([np.inf, -np.inf, np.nan, 1.0]), "s": np.float64(-np.inf)}
    parsed = _strict_load(write_json(tmp_path / "p.json", payload).read_text())
    assert parsed == {"v": ["inf", "-inf", None, 1.0], "s": "-inf"}


@pytest.mark.parametrize(
    "flags",
    [
        ["--alpha", "0.8", "--entropy", "inf", "--kl", "inf"],
        ["--alpha", "inf", "--entropy", "3", "--kl", "1"],
        ["--alpha", "0.8", "--entropy", "-inf", "--kl", "1"],
    ],
)
def test_regularization_rejects_non_finite_alpha_or_entropy(flags, tmp_path):
    result = _invoke(
        ["bounds", "--bound", "regularization", *flags, "--n", "100", "--delta", "0.05"],
        tmp_path,
    )
    assert result.exit_code == 2
    assert "must be finite" in result.output


def test_regularization_validity_follows_its_value(tmp_path):
    for case, valid in (
        ("regularization", True),
        ("regularization-kl-inf", False),
        ("regularization-delta-near-1", False),
    ):
        out = tmp_path / case
        result = _invoke(["bounds", *BOUND_CASES[case]], out)
        assert result.exit_code == 0
        report = _strict_load((out / "bound.json").read_text())
        assert report["valid"] is valid, case
        assert f"valid={valid}" in result.output
    assert report["note"].startswith("vacuous")


@pytest.mark.parametrize("flag", ["--mean-pretrain-coh", "--mean-posttrain-coh"])
@pytest.mark.parametrize("value", ["inf", "-inf"])
def test_sample_count_rejects_non_finite_means(flag, value, tmp_path):
    args = {
        "--mean-pretrain-coh": "-2", "--mean-posttrain-coh": "-1",
        "--pretrain-error": "0.1", "--pretrain-count": "10",
    }
    args[flag] = value
    flat = [item for pair in args.items() for item in pair]
    result = _invoke(["bounds", "--bound", "sample-count", *flat], tmp_path)
    assert result.exit_code == 2
    assert "must be finite" in result.output


def test_library_bounds_reject_non_finite_inputs():
    with pytest.raises(ValidationError):
        regularization_bound_rhs(0.8, math.inf, math.inf, 100, 0.05)
    with pytest.raises(ValidationError):
        regularization_bound_rhs(math.inf, 3.0, 1.0, 100, 0.05)
    assert regularization_bound_rhs(0.8, 3.0, math.inf, 100, 0.05) == -math.inf
    with pytest.raises(ValidationError):
        conjectured_posttrain_count(math.inf, -1.0, 0.1, 10)
    with pytest.raises(ValidationError):
        conjectured_posttrain_count(-2.0, -math.inf, 0.1, 10)


def test_burn_in_option_is_gone(tmp_path):
    result = _invoke(
        ["run", SMOOTHED, "--method", "gibbs", "--steps", "10", "--burn-in", "5"],
        tmp_path,
    )
    assert result.exit_code == 2
    assert "--burn-in" in result.output


def test_run_config_still_echoes_zero_burn_in(tmp_path):
    result = _invoke(["run", SMOOTHED, "--method", "gibbs", "--steps", "10"], tmp_path)
    assert result.exit_code == 0
    config = _strict_load((tmp_path / "config.json").read_text())
    assert config["config"]["burn_in"] == 0
