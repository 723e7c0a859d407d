"""Command-line interface: subcommands, exit codes, file outputs, and
byte-for-byte reproducibility."""

from __future__ import annotations

import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from cohopt.cli import main

from conftest import condiments_table


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def scenario_path(tmp_path):
    return _write_scenario(tmp_path / "condiments.json", eps=0.0)


@pytest.fixture
def smoothed_path(tmp_path):
    return _write_scenario(tmp_path / "condiments_smoothed.json", eps=0.01)


def _write_scenario(path: Path, eps: float) -> str:
    payload = {
        "partition": {
            "contexts": [
                {
                    "name": "burger",
                    "behaviors": ["burger_mayo", "burger_mustard", "burger_other"],
                },
                {
                    "name": "fries",
                    "behaviors": ["fries_mayo", "fries_ketchup", "fries_other"],
                },
            ]
        },
        "system": {
            "type": "joint_table",
            "table": condiments_table(eps).tolist(),
            "epsilon": 0.0,
        },
        "ground_truth": ["burger_mayo", "fries_mayo"],
    }
    path.write_text(json.dumps(payload))
    return str(path)


def _read_rows(path: Path) -> list[str]:
    return [
        line
        for line in path.read_text().splitlines()
        if line and not line.startswith("#")
    ]


class TestCoherenceCommand:
    def test_consistent_pair(self, runner, scenario_path):
        result = runner.invoke(
            main, ["coherence", scenario_path, "--policy", "burger_mayo,fries_mayo"]
        )
        assert result.exit_code == 0
        chi = float(result.output.split("chi_bits=")[1].splitlines()[0])
        assert abs(chi - math.log2(0.3)) <= 1e-9

    def test_mustard_ketchup_pair(self, runner, scenario_path):
        result = runner.invoke(
            main,
            ["coherence", scenario_path, "--policy", "burger_mustard,fries_ketchup"],
        )
        assert result.exit_code == 0
        chi = float(result.output.split("chi_bits=")[1].splitlines()[0])
        assert abs(chi - math.log2(0.175)) <= 1e-9
        f_mp = float(result.output.split("f_mp_bits=")[1].splitlines()[0])
        assert abs(f_mp - (-2.0)) <= 1e-9

    def test_missing_file_exits_2_with_path(self, runner, tmp_path):
        missing = str(tmp_path / "nope.json")
        result = runner.invoke(
            main, ["coherence", missing, "--policy", "burger_mayo,fries_mayo"]
        )
        assert result.exit_code == 2
        assert "nope.json" in result.output

    def test_unknown_behavior_exits_2(self, runner, scenario_path):
        result = runner.invoke(
            main, ["coherence", scenario_path, "--policy", "burger_mayo,tartar"]
        )
        assert result.exit_code == 2


class TestEnumerateCommand:
    def test_beta_one_table(self, runner, scenario_path, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["enumerate", scenario_path, "--beta", "1", "--out", str(out)],
        )
        assert result.exit_code == 0
        rows = _read_rows(out / "xbeta.csv")
        header, top = rows[0], rows[1]
        assert header == "policy,mass,coherence_bits"
        name, mass, chi = top.split(",")
        assert name == "burger_mayo|fries_mayo"
        assert abs(float(mass) - 0.3) <= 1e-9
        assert (out / "config.json").exists()

    def test_infinite_beta_single_supported_row(self, runner, scenario_path, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["enumerate", scenario_path, "--beta", "inf", "--out", str(out)],
        )
        assert result.exit_code == 0
        rows = _read_rows(out / "xbeta.csv")[1:]
        masses = [float(row.split(",")[1]) for row in rows]
        assert sum(1 for m in masses if m > 0) == 1
        assert masses[0] == 1.0

    def test_cap_exceeded_exits_4(self, runner, scenario_path, tmp_path):
        result = runner.invoke(
            main,
            ["enumerate", scenario_path, "--cap", "3", "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 4


class TestRunCommand:
    def test_gibbs_writes_trajectory_and_tv_report(
        self, runner, smoothed_path, tmp_path
    ):
        out = tmp_path / "run"
        result = runner.invoke(
            main,
            [
                "run", smoothed_path, "--method", "gibbs", "--steps", "20000",
                "--seed", "7", "--out", str(out),
            ],
        )
        assert result.exit_code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["tv_to_exact"] <= 0.05
        rows = _read_rows(out / "trajectory.csv")
        assert len(rows) == 20002  # header + steps + 1

    def test_seed_repeat_byte_identical(self, runner, smoothed_path, tmp_path):
        args = ["run", smoothed_path, "--method", "gibbs", "--steps", "500", "--seed", "3"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert runner.invoke(main, args + ["--out", str(out1)]).exit_code == 0
        assert runner.invoke(main, args + ["--out", str(out2)]).exit_code == 0
        for name in ("trajectory.csv", "report.json", "config.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_debate_wrong_arity_exits_2(self, runner, tmp_path):
        path = tmp_path / "three.json"
        payload = {
            "partition": {
                "contexts": [
                    {"name": f"c{i}", "behaviors": [f"c{i}_a", f"c{i}_b"]}
                    for i in range(3)
                ]
            },
            "system": {
                "type": "mixture",
                "latent_weights": [1.0],
                "emissions": [[[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]]],
            },
        }
        path.write_text(json.dumps(payload))
        result = runner.invoke(
            main,
            ["run", str(path), "--method", "debate", "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 2

    def test_bootstrap_trace(self, runner, smoothed_path, tmp_path):
        out = tmp_path / "boot"
        result = runner.invoke(
            main,
            [
                "run", smoothed_path, "--method", "bootstrap", "--seed", "5",
                "--order", "burger,fries", "--out", str(out),
            ],
        )
        assert result.exit_code == 0
        rows = _read_rows(out / "bootstrap.csv")
        assert rows[0] == "step,context,behavior,probability"
        assert len(rows) == 3

    def test_icm_report(self, runner, scenario_path, tmp_path):
        out = tmp_path / "icm"
        result = runner.invoke(
            main,
            ["run", scenario_path, "--method", "icm", "--out", str(out)],
        )
        assert result.exit_code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["policy"] == ["burger_mayo", "fries_mayo"]


class TestBoundsCommand:
    def test_uniform_bound_report(self, runner, tmp_path):
        out = tmp_path / "bounds"
        result = runner.invoke(
            main,
            [
                "bounds", "--bound", "uniform", "--chi", "-1.7369656",
                "--n", "100", "--delta", "0.05", "--sign", "corrected",
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0
        report = json.loads((out / "bound.json").read_text())
        assert report["valid"]
        assert report["inputs"]["sign_convention"] == "corrected"

    def test_malformed_delta_exits_2(self, runner, tmp_path):
        result = runner.invoke(
            main,
            [
                "bounds", "--bound", "uniform", "--chi", "-1.0",
                "--n", "100", "--delta", "2.0", "--out", str(tmp_path / "o"),
            ],
        )
        assert result.exit_code == 2

    def test_missing_required_input_exits_2(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["bounds", "--bound", "accuracy", "--n", "10", "--delta", "0.1",
             "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 2

    def test_sample_count_flagged_conjectural(self, runner, tmp_path):
        out = tmp_path / "sc"
        result = runner.invoke(
            main,
            [
                "bounds", "--bound", "sample-count",
                "--mean-pretrain-coh", "-2.0", "--mean-posttrain-coh", "-1.5",
                "--pretrain-error", "0.2", "--pretrain-count", "200",
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0
        report = json.loads((out / "bound.json").read_text())
        assert "conjectural" in report["note"]
        assert abs(report["value"] - 0.25 * (4.0 / 1.5) / 0.64 * 200) <= 1e-9


class TestMcCommand:
    def test_writes_trials_and_summary(self, runner, tmp_path):
        out = tmp_path / "mc"
        result = runner.invoke(
            main,
            ["mc", "--trials", "50", "--seed", "1", "--out", str(out)],
        )
        assert result.exit_code == 0
        rows = _read_rows(out / "trials.csv")
        assert rows[0] == (
            "seed,violated,max_gap,bound_at_max,violated_paper,"
            "srm_accuracy,accuracy_floor,srm_violated"
        )
        assert len(rows) == 51
        summary = json.loads((out / "summary.json").read_text())
        assert summary["hold_rate_corrected"] >= 0.87
        assert summary["hold_rate_srm_floor"] >= 0.87
        assert "not asserted" in summary["note"]

    def test_byte_identical_rerun(self, runner, tmp_path):
        args = ["mc", "--trials", "20", "--seed", "9"]
        out1, out2 = tmp_path / "m1", tmp_path / "m2"
        assert runner.invoke(main, args + ["--out", str(out1)]).exit_code == 0
        assert runner.invoke(main, args + ["--out", str(out2)]).exit_code == 0
        assert (out1 / "trials.csv").read_bytes() == (out2 / "trials.csv").read_bytes()


class TestEquivCommand:
    def test_writes_table_and_summary(self, runner, tmp_path):
        out = tmp_path / "equiv"
        result = runner.invoke(
            main,
            [
                "equiv", "--lattice", "0,2,4", "--n-seeds", "2",
                "--n-contexts", "4", "--out", str(out),
            ],
        )
        assert result.exit_code == 0
        rows = _read_rows(out / "equiv.csv")
        assert rows[0] == "s_a,seed,acc_coherence,acc_srm,gap,recommended"
        assert len(rows) == 7  # header + 3 lattice points x 2 seeds
        summary = json.loads((out / "summary.json").read_text())
        assert "argmin_gap" in summary

    def test_bad_lattice_exits_2(self, runner, tmp_path):
        result = runner.invoke(
            main, ["equiv", "--lattice", "a,b", "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 2


class TestCheckCommand:
    def test_all_sweeps_pass(self, runner):
        result = runner.invoke(main, ["check", "--cases", "25", "--seed", "0"])
        assert result.exit_code == 0
        assert result.output.count("PASS") == 4
        assert "FAIL" not in result.output


class TestOutputDirEnvVar:
    def test_env_var_sets_default_out(self, runner, tmp_path, monkeypatch):
        target = tmp_path / "from-env"
        monkeypatch.setenv("COHOPT_OUTPUT_DIR", str(target))
        result = runner.invoke(
            main,
            ["bounds", "--bound", "uniform", "--chi", "-1.0", "--n", "10",
             "--delta", "0.1"],
        )
        assert result.exit_code == 0
        assert (target / "bound.json").exists()

    def test_flag_overrides_env_var(self, runner, tmp_path, monkeypatch):
        monkeypatch.setenv("COHOPT_OUTPUT_DIR", str(tmp_path / "ignored"))
        explicit = tmp_path / "explicit"
        result = runner.invoke(
            main,
            ["bounds", "--bound", "uniform", "--chi", "-1.0", "--n", "10",
             "--delta", "0.1", "--out", str(explicit)],
        )
        assert result.exit_code == 0
        assert (explicit / "bound.json").exists()
        assert not (tmp_path / "ignored").exists()


class TestScenarioValidation:
    def test_unknown_top_level_key_cites_key(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        payload = json.loads(Path(_write_scenario(tmp_path / "t.json", 0.0)).read_text())
        payload["extra"] = 1
        path.write_text(json.dumps(payload))
        result = runner.invoke(
            main, ["coherence", str(path), "--policy", "burger_mayo,fries_mayo"]
        )
        assert result.exit_code == 2
        assert "extra" in result.output

    def test_bad_emission_rows_cite_path(self, runner, tmp_path):
        path = tmp_path / "bad2.json"
        payload = {
            "partition": {
                "contexts": [
                    {"name": "a", "behaviors": ["a_x", "a_y"]},
                ]
            },
            "system": {
                "type": "mixture",
                "latent_weights": [1.0],
                "emissions": [[[0.9, 0.2]]],
            },
        }
        path.write_text(json.dumps(payload))
        result = runner.invoke(
            main, ["coherence", str(path), "--policy", "a_x"]
        )
        assert result.exit_code == 2
        assert "system" in result.output

    def test_nan_literal_exits_2(self, runner, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(
            '{"partition": {"contexts": [{"name": "a", "behaviors": ["a_x", "a_y"]}]},'
            ' "system": {"type": "mixture", "latent_weights": [NaN, 1.0],'
            ' "emissions": [[[0.5, 0.5]], [[0.5, 0.5]]]}}'
        )
        result = runner.invoke(main, ["coherence", str(path), "--policy", "a_x"])
        assert result.exit_code == 2
        assert "latent_weights" in result.output


DEMO_SMOOTHED = (
    Path(__file__).resolve().parents[1] / "demos" / "scenarios"
    / "condiments_smoothed.json"
)


def test_enumerate_tied_policies_share_mass_in_lexicographic_order(runner, tmp_path):
    out = tmp_path / "out"
    result = runner.invoke(
        main, ["enumerate", str(DEMO_SMOOTHED), "--beta", "1", "--out", str(out)]
    )
    assert result.exit_code == 0
    rows = [row.split(",") for row in _read_rows(out / "xbeta.csv")[1:]]
    tied = [row for row in rows if abs(float(row[1]) - 0.01) <= 1e-12]
    assert len(tied) == 4
    assert len({(mass, chi) for _, mass, chi in tied}) == 1
    assert [name for name, _, _ in tied] == sorted(name for name, _, _ in tied)
    assert rows[-4:] == tied


def _one_context_scenario(system: dict) -> dict:
    return {
        "partition": {"contexts": [{"name": "a", "behaviors": ["x", "y"]}]},
        "system": system,
    }


MIXTURE = {
    "type": "mixture",
    "latent_weights": [0.5, 0.5],
    "emissions": [[[0.9, 0.1]], [[0.2, 0.8]]],
}
JOINT = {"type": "joint_table", "table": [0.5, 0.5], "epsilon": 0.0}


def _with(system: dict, **changes) -> dict:
    return _one_context_scenario({**system, **changes})


MALFORMED_SCENARIOS = {
    "epsilon-string": (_with(JOINT, epsilon="abc"), "system.epsilon"),
    "epsilon-null": (_with(JOINT, epsilon=None), "system.epsilon"),
    "weights-number": (_with(MIXTURE, latent_weights=5), "system.latent_weights"),
    "weights-string": (_with(MIXTURE, latent_weights="ab"), "system.latent_weights"),
    "weights-strings": (
        _with(MIXTURE, latent_weights=["a", "b"]), "system.latent_weights"
    ),
    "emissions-number": (_with(MIXTURE, emissions=5), "system.emissions"),
    "emissions-block-object": (
        _with(MIXTURE, emissions=[[[0.9, 0.1]], {}]), "system.emissions[*][0]"
    ),
    "behavior-null": (
        {
            "partition": {"contexts": [{"name": "a", "behaviors": ["x", None]}]},
            "system": MIXTURE,
        },
        "partition.contexts[0].behaviors[1]",
    ),
    "context-name-list": (
        {
            "partition": {"contexts": [{"name": ["x"], "behaviors": ["x", "y"]}]},
            "system": MIXTURE,
        },
        "partition.contexts[0].name",
    ),
    "partition-number": ({"partition": 5, "system": MIXTURE}, "partition"),
    "system-number": (_one_context_scenario(5), "system"),
    "ground-truth-string": (
        {**_one_context_scenario(MIXTURE), "ground_truth": "x"}, "ground_truth"
    ),
}


@pytest.mark.parametrize("command", ["coherence", "enumerate"])
@pytest.mark.parametrize("case", sorted(MALFORMED_SCENARIOS))
def test_malformed_scenario_exits_2_citing_key(runner, tmp_path, command, case):
    payload, key_path = MALFORMED_SCENARIOS[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    args = ["--policy", "x"] if command == "coherence" else ["--out", str(tmp_path)]
    result = runner.invoke(main, [command, str(path), *args])
    assert result.exit_code == 2, result.output
    assert f"error: {key_path}" in result.output


def test_enumerate_writer_honors_cap_above_default(
    runner, scenario_path, tmp_path, monkeypatch
):
    from cohopt.systems import Conditioned

    monkeypatch.setattr(Conditioned.masses, "__defaults__", (4,))
    out = tmp_path / "out"
    result = runner.invoke(
        main, ["enumerate", scenario_path, "--cap", "9", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    assert len(_read_rows(out / "xbeta.csv")) == 10


# Fuzzing: valid, degenerate and malformed scenario files against the
# commands that read them. Only the documented exit codes may occur, and a
# successful run never prints or writes a nan.

JUNK = [None, "abc", -1.0, 2.0, 5, True, [], {}, [[]], math.nan, math.inf]


def _prob_row(size: int):
    """A row of probabilities: often normalized, sometimes one-hot or all
    zero (degenerate)."""
    return st.lists(
        st.integers(0, 3), min_size=size, max_size=size
    ).map(lambda w: [x / sum(w) if sum(w) else 0.0 for x in w])


@st.composite
def _fuzz_scenarios(draw):
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    behaviors = [[f"c{i}b{j}" for j in range(n)] for i, n in enumerate(sizes)]
    if draw(st.booleans()):
        n_latents = draw(st.integers(1, 3))
        system = {
            "type": "mixture",
            "latent_weights": draw(_prob_row(n_latents)),
            "emissions": [
                [draw(_prob_row(n)) for n in sizes] for _ in range(n_latents)
            ],
        }
    else:
        flat = draw(_prob_row(math.prod(sizes)))
        system = {
            "type": "joint_table",
            "table": np.reshape(flat, sizes).tolist(),
            "epsilon": draw(st.sampled_from([0.0, 0.05, 0.5, -0.1])),
        }
    payload = {
        "partition": {
            "contexts": [
                {"name": f"c{i}", "behaviors": row}
                for i, row in enumerate(behaviors)
            ]
        },
        "system": system,
        "ground_truth": [row[0] for row in behaviors],
    }
    for _ in range(draw(st.integers(0, 2))):
        payload = _mutate(payload, draw)
    return payload, behaviors


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


def _mutate(payload, draw):
    """Replace the value at one key path with junk, or delete a dict key."""
    path = draw(st.sampled_from(list(_paths(payload))))
    if not path:
        return draw(st.sampled_from(JUNK))
    payload = json.loads(json.dumps(payload))
    parent = payload
    for key in path[:-1]:
        parent = parent[key]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(st.sampled_from(JUNK))
    return payload


def _fuzz_args(draw, command: str, behaviors, out: str) -> list[str]:
    if command == "coherence":
        names = [draw(st.sampled_from(row)) for row in behaviors]
        if draw(st.integers(0, 9)) == 0:
            names = names[:-1] if draw(st.booleans()) else names + ["zz"]
        return ["--policy", ",".join(names)]
    beta = draw(st.sampled_from(["0.5", "1", "2", "inf"]))
    if command == "enumerate":
        cap = draw(st.sampled_from(["1", "4", "1000000"]))
        return ["--beta", beta, "--cap", cap, "--out", out]
    method = draw(st.sampled_from(["gibbs", "tf-gibbs", "debate", "bootstrap", "icm"]))
    return [
        "--method", method,
        "--steps", str(draw(st.integers(1, 5))),
        "--seed", str(draw(st.integers(0, 3))),
        "--beta", beta,
        "--anchor-weight", draw(st.sampled_from(["0", "0.5", "1"])),
        "--icm-iters", "3",
        "--icm-restarts", "2",
        "--out", out,
    ]


@settings(max_examples=150, deadline=None)
@given(
    scenario=_fuzz_scenarios(),
    command=st.sampled_from(["coherence", "enumerate", "run"]),
    data=st.data(),
)
def test_cli_fuzz_exit_codes_and_finite_output(scenario, command, data):
    payload, behaviors = scenario
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(payload))
        out = Path(tmp) / "out"
        args = _fuzz_args(data.draw, command, behaviors, str(out))
        result = CliRunner().invoke(main, [command, str(path), *args])
        assert result.exit_code in (0, 2, 3, 4), (
            result.output, repr(result.exception)
        )
        if result.exit_code == 0:
            texts = [result.output]
            if out.exists():
                texts += [f.read_text() for f in sorted(out.rglob("*"))]
            for text in texts:
                assert not re.search(
                    r"\bnan\b", text.replace(tmp, ""), re.IGNORECASE
                ), text
