"""semi-supervised: the paper's study loop, many short pipeline runs.

A cell is one cell seed's scenarios plus every pipeline method on them. Per
cell: generate_scenario draws a 12-context scenario (3 behaviors, 2 latents,
emission concentration 5, truth at beta = inf, 6 supervised contexts, as in
acceptance criterion 08) and runs gibbs (2000 steps), tf-gibbs (500 rounds),
bootstrap, icm and erm anchored at the supervised labels. srm-exhaustive
scores every policy of its scenario one coherence() call at a time, which at
12 contexts (531441 policies) takes minutes, so it runs on a 6-context
scenario drawn from the same cell seed. Each round runs CELLS_PER_ROUND new
cells, then `cohopt equiv` and `cohopt mc` with fixed arguments.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref

NAME = "semi-supervised"
CELLS_PER_ROUND = 10
MIN_ROUNDS = 4  # 40 cells: the p75 cell time then has at least 10 cells beyond it
SCENARIO = dict(context_size=3, n_latents=2, emission_concentration=5.0,
                unsupervised_fraction=0.5, truth_beta=math.inf)
CELL_CONTEXTS = 12
SRM_CONTEXTS = 6
SAMPLER = dict(beta=2.0, steps=2000)
TF_ROUNDS = 500
METHODS = ("gibbs", "tf-gibbs", "bootstrap", "icm", "erm")
EQUIV = dict(lattice=(1, 3, 5), n_seeds=2, n_contexts=6)
MC_TRIALS = 500
MC_HOLD_MIN = 0.87  # acceptance criterion 07
RESIDUAL_TOL = 1e-10
BITS_TOL = 1e-9
ICM_TOL = 1e-9


@dataclass
class Inputs:
    seed: int
    equiv_args: list[str]
    mc_args: list[str]
    equiv_dir: Path
    mc_dir: Path
    accuracy: dict[str, list[float]] = field(default_factory=lambda: {"gibbs": [], "erm": []})


def cell_seeds(seed: int, r: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence([seed, 3, r]).generate_state(CELLS_PER_ROUND)]


def run_cell(co, cell_seed: int, meter) -> list:
    """One cell: both scenarios and every method; returns the (scenario,
    report) pairs. generate_scenario enumerates the whole policy space, so it
    counts as an exhaustive operation. The cell's time is the sum of its
    operations' times."""
    before = meter.timed
    scenario = meter.op("scenario", 3**CELL_CONTEXTS, co.generate_scenario,
                        CELL_CONTEXTS, seed=cell_seed, **SCENARIO)
    small = meter.op("scenario", 3**SRM_CONTEXTS, co.generate_scenario,
                     SRM_CONTEXTS, seed=cell_seed, **SCENARIO)
    config = co.SamplerConfig(seed=cell_seed, **SAMPLER)
    tf_config = co.SamplerConfig(beta=SAMPLER["beta"], steps=TF_ROUNDS, seed=cell_seed)
    runs = []
    for method in METHODS:
        report = meter.op("pipeline", 1, co.run_semi_supervised, scenario, method,
                          tf_config if method == "tf-gibbs" else config)
        runs.append((scenario, report))
    report = meter.op("pipeline", 1, co.run_semi_supervised, small, "srm-exhaustive", config)
    runs.append((small, report))
    meter.sample("cell", meter.timed - before)
    return runs


def setup(co, seed: int, root: Path, workdir: Path) -> Inputs:
    """Draws the fixed arguments and generates one small warm-up scenario."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 4]))
    warm_seed, equiv_seed, mc_seed = (int(s) for s in rng.integers(0, 2**31, size=3))
    equiv_dir, mc_dir = workdir / "equiv", workdir / "mc"
    co.generate_scenario(SRM_CONTEXTS, seed=warm_seed, **SCENARIO)
    return Inputs(
        seed=seed,
        equiv_args=[
            "equiv", "--lattice", ",".join(map(str, EQUIV["lattice"])),
            "--n-seeds", str(EQUIV["n_seeds"]), "--seed", str(equiv_seed),
            "--n-contexts", str(EQUIV["n_contexts"]), "--out", str(equiv_dir),
        ],
        mc_args=["mc", "--trials", str(MC_TRIALS), "--seed", str(mc_seed), "--out", str(mc_dir)],
        equiv_dir=equiv_dir,
        mc_dir=mc_dir,
    )


def prepare_checks(inputs: Inputs) -> None:
    """Every reference value depends on the round's cells; see check_round."""


def run_round(co, cli_main, inputs: Inputs, meter) -> dict:
    out = {"cells": [run_cell(co, s, meter) for s in cell_seeds(inputs.seed, meter.round)]}
    for key, args, directory, units in (
        ("equiv", inputs.equiv_args, inputs.equiv_dir, 0),
        ("mc", inputs.mc_args, inputs.mc_dir, MC_TRIALS),
    ):
        result = meter.cli(key, units, cli_main, args)
        out[key] = None if result is None else {
            p.name: p.read_bytes() for p in sorted(directory.iterdir())
        }
    return out


def _system_arrays(system):
    n = system.partition.n_contexts
    return np.asarray(system.latent_weights), [np.asarray(system.emissions(c)) for c in range(n)]


def _check_report(checks, label: str, scenario, report) -> None:
    weights, emissions = _system_arrays(scenario.system)
    partition = scenario.system.partition
    s_a = scenario.unsupervised
    truth = scenario.ground_truth.assignment
    chosen = [partition.locate_name(name)[1] for name in report.policy_names]
    combined = list(truth)
    for c, a in zip(s_a, chosen):
        combined[c] = a
    checks.expect(
        report.decomposition_residual <= RESIDUAL_TOL,
        f"{label}: decomposition_residual {report.decomposition_residual:.2e}",
    )
    chi = ref.log2_mass(weights, emissions, list(enumerate(combined)))
    checks.expect(
        abs(report.chi_full_bits - chi) <= BITS_TOL,
        f"{label}: chi_full_bits {report.chi_full_bits} vs reference {chi}",
    )
    hits = sum(a == truth[c] for c, a in zip(s_a, chosen))
    checks.expect(
        0.0 <= report.accuracy <= 1.0 and report.accuracy == hits / len(s_a),
        f"{label}: accuracy {report.accuracy} vs reference {hits}/{len(s_a)}",
    )
    if report.method == "icm":
        labels = [(c, truth[c]) for c in scenario.supervised]
        joint = ref.conditional_masses(weights, emissions, labels, s_a)
        table = ref.mutual_predictability_table(joint.reshape([partition.sizes[c] for c in s_a]))
        checks.expect(
            ref.is_single_site_maximum(table, tuple(chosen), ICM_TOL),
            f"{label}: icm result is not a single-coordinate local maximum",
        )


def check_round(inputs: Inputs, r: int, out: dict, first: dict | None, checks) -> None:
    accuracy = inputs.accuracy
    for cell in out["cells"]:
        for scenario, report in cell:
            if report is None:
                continue
            _check_report(checks, f"round {r} seed {scenario.seed} {report.method}", scenario, report)
            if report.method in accuracy:
                accuracy[report.method].append(report.accuracy)
    if first is not None:
        for key in ("equiv", "mc"):
            if out[key] is not None and first[key] is not None:
                checks.expect(out[key] == first[key], f"round {r}: cohopt {key} output differs from round 0")
        return
    if out["mc"] is not None:
        summary = json.loads(out["mc"]["summary.json"])
        checks.expect(
            summary["hold_rate_corrected"] >= MC_HOLD_MIN,
            f"cohopt mc: hold rate {summary['hold_rate_corrected']} below {MC_HOLD_MIN}",
        )
        rows = list(csv.DictReader(io.StringIO(out["mc"]["trials.csv"].decode())))
        checks.expect(len(rows) == MC_TRIALS, f"cohopt mc: {len(rows)} trial rows for {MC_TRIALS} trials")
    if out["equiv"] is not None:
        rows = list(csv.DictReader(io.StringIO(out["equiv"]["equiv.csv"].decode())))
        checks.expect(
            len(rows) == len(EQUIV["lattice"]) * EQUIV["n_seeds"],
            f"cohopt equiv: {len(rows)} rows",
        )
        for row in rows:
            acc_c, acc_s, gap = (float(row[k]) for k in ("acc_coherence", "acc_srm", "gap"))
            checks.expect(
                0.0 <= acc_c <= 1.0 and 0.0 <= acc_s <= 1.0 and gap == abs(acc_c - acc_s),
                f"cohopt equiv: inconsistent row {row}",
            )


def final_check(inputs: Inputs, checks) -> None:
    """Acceptance criterion 08's direction, pooled over every cell of the run."""
    accuracy = inputs.accuracy
    if accuracy["gibbs"] and accuracy["erm"]:
        gibbs, erm = statistics.fmean(accuracy["gibbs"]), statistics.fmean(accuracy["erm"])
        checks.expect(gibbs > erm, f"mean gibbs accuracy {gibbs:.4f} does not exceed mean erm {erm:.4f}")


def details(meter) -> dict[str, tuple[float, str]]:
    cells = [1e3 * s for s in meter.scaled("cell")]
    return {
        "pipelines_per_s": (meter.rate("pipeline"), "runs/s"),
        "cell_p50_ms": (statistics.median(cells), "ms"),
        "cell_tail_ms": (statistics.quantiles(cells, n=4)[2], "ms"),
        "mc_trials_per_s": (meter.rate("mc"), "trials/s"),
    }


def work_per_s(meter) -> float:
    return meter.rate("pipeline")
