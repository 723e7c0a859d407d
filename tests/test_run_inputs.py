"""`cohopt run` checks its ICM counts and its bootstrap visiting order before
it writes anything: a bad value exits 2 with `error:` and leaves no output
directory, not even config.json."""

from __future__ import annotations

from pathlib import Path

import pytest
from click.testing import CliRunner

from cohopt.cli import main

CONDIMENTS = str(
    Path(__file__).resolve().parent.parent / "demos" / "scenarios" / "condiments.json"
)


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--method", "icm", "--icm-iters", "0"], "icm_iters must be at least 1"),
        (["--method", "icm", "--icm-iters", "-3"], "icm_iters must be at least 1"),
        (["--method", "icm", "--icm-restarts", "0"], "icm_restarts must be at least 1"),
        (["--method", "bootstrap", "--order", "nope"], "nope"),
        (["--method", "bootstrap", "--order", "burger"], "exactly once"),
        (["--method", "bootstrap", "--order", "burger,burger"], "exactly once"),
        (["--method", "bootstrap", "--order", "fries,burger,fries"], "exactly once"),
    ],
)
def test_bad_run_input_exits_2_and_writes_nothing(tmp_path, flags, message):
    out = tmp_path / "o"
    result = CliRunner().invoke(main, ["run", CONDIMENTS, *flags, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert "error:" in result.output and message in result.output
    assert not out.exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["--method", "gibbs", "--steps", "5", "--icm-iters", "0", "--order", "nope"],
        ["--method", "bootstrap", "--icm-restarts", "0", "--order", " fries , burger"],
        ["--method", "icm", "--icm-iters", "2", "--icm-restarts", "1", "--order", "nope"],
    ],
)
def test_options_of_other_methods_are_not_checked(tmp_path, flags):
    out = tmp_path / "o"
    result = CliRunner().invoke(main, ["run", CONDIMENTS, *flags, "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert (out / "config.json").exists() and (out / "report.json").exists()
