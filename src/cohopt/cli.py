"""Command-line front end: scenario files in, seeded runs and reports out.

Exit codes are a stable contract: 0 success, 2 validation error, 3 degenerate
conditioning, 4 enumeration cap exceeded (identity-sweep failures from
`check` exit 1). Every run writes a machine-readable config echo next to its
outputs; output files contain no timestamps, so re-running a command with the
same inputs and seed reproduces them byte for byte.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
import sys
from pathlib import Path

import click
import numpy as np

from .analysis import (
    BoundReport,
    TrialRow,
    accuracy_lower_bound,
    bound_validity_trials,
    conjectured_posttrain_count,
    empirical_distribution,
    tv_distance,
    uniform_convergence_bound,
    regularization_bound_rhs,
)
from .checks import run_all_sweeps
from .coherence import _exact_softmax, coherence, pmi, softmax_over_coherence
from .errors import CohoptError, ValidationError
from .experiments import EquivalenceRow, equivalence_study
from .fileio import (
    load_scenario,
    write_bootstrap_csv,
    write_distribution_csv,
    write_json,
    write_rows_csv,
    write_trajectory_csv,
)
from .samplers import (
    SamplerConfig,
    _visiting_order,
    debate_run,
    gibbs_run,
    icm_hill_climb,
    mutual_predictability,
    simple_bootstrap_run,
    training_friendly_gibbs_run,
)
from .systems import (
    DEFAULT_ENUMERATION_CAP,
    Conditioned,
    PolicyState,
    _check_int,
    check_beta,
)

OUTPUT_DIR_ENV = "COHOPT_OUTPUT_DIR"
TV_REPORT_CAP = 4096


def _guard(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except CohoptError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(exc.exit_code)

    return wrapper


def _parse_beta(_ctx, _param, value: str) -> float:
    try:
        beta = float(value)
    except ValueError:
        raise click.BadParameter(f"not a number: {value!r}") from None
    try:
        return check_beta(beta)
    except ValidationError:
        raise click.BadParameter(f"beta must be positive, got {value}") from None


def _out_dir(out: str | None) -> Path:
    if out is None:
        out = os.environ.get(OUTPUT_DIR_ENV, "cohopt-out")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


@click.group()
def main() -> None:
    """Coherence optimization over deterministic policies."""


@main.command("coherence")
@click.argument("scenario", type=str)
@click.option("--policy", required=True, help="Comma-separated behavior names, one per context.")
@_guard
def cmd_coherence(scenario: str, policy: str) -> None:
    """Print coherence, mutual predictability, and PMI for one policy."""
    data = load_scenario(scenario)
    chosen = data.partition.policy_from_names(
        [name.strip() for name in policy.split(",")]
    )
    chi = coherence(data.system, PolicyState.zero(), chosen).bits
    f_mp = mutual_predictability(data.system, chosen)
    mutual_info = pmi(data.system, chosen)
    click.echo(f"chi_bits={chi!r}")
    click.echo(f"f_mp_bits={f_mp!r}")
    click.echo(f"pmi_bits={mutual_info!r}")


@main.command("enumerate")
@click.argument("scenario", type=str)
@click.option("--beta", default="1", callback=_parse_beta, help="Temperature reciprocal; 'inf' collapses to the argmax set.")
@click.option("--cap", default=DEFAULT_ENUMERATION_CAP, show_default=True)
@click.option("--out", default=None, help=f"Output directory (default ${OUTPUT_DIR_ENV} or ./cohopt-out).")
@_guard
def cmd_enumerate(scenario: str, beta: float, cap: int, out: str | None) -> None:
    """Write the exact tempered policy distribution as a sorted table."""
    data = load_scenario(scenario)
    masses = Conditioned(data.system).masses(cap)
    distribution = _exact_softmax(masses, beta, data.partition.sizes)
    out_path = _out_dir(out)
    table = write_distribution_csv(
        out_path / "xbeta.csv", data.partition, distribution, masses
    )
    write_json(
        out_path / "config.json",
        {
            "command": "enumerate",
            "scenario": str(scenario),
            "beta": beta,
            "cap": cap,
        },
    )
    click.echo(f"wrote {table}")


@main.command("run")
@click.argument("scenario", type=str)
@click.option("--method", type=click.Choice(["gibbs", "tf-gibbs", "debate", "bootstrap", "icm"]), default="gibbs", show_default=True)
@click.option("--steps", default=1000, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--beta", default="1", callback=_parse_beta)
@click.option("--gamma", default=0.85, show_default=True, help="Retained fraction (tf-gibbs).")
@click.option("--anchor-weight", default=0.0, show_default=True, help="Round-0 anchor mixture weight (tf-gibbs).")
@click.option("--initial", default=None, help="Comma-separated behavior names for the starting policy (default: first behavior of every context).")
@click.option("--order", default="random", help="Bootstrap visiting order: 'random' or comma-separated context names.")
@click.option("--icm-iters", default=50, show_default=True)
@click.option("--icm-restarts", default=8, show_default=True)
@click.option("--out", default=None)
@_guard
def cmd_run(
    scenario: str,
    method: str,
    steps: int,
    seed: int,
    beta: float,
    gamma: float,
    anchor_weight: float,
    initial: str | None,
    order: str,
    icm_iters: int,
    icm_restarts: int,
    out: str | None,
) -> None:
    """Run one sampler on a scenario and write its trajectory and report."""
    data = load_scenario(scenario)
    partition = data.partition
    config = SamplerConfig(
        beta=beta,
        steps=steps,
        seed=seed,
        gamma=gamma,
        anchor_weight=anchor_weight,
    )
    if initial is not None:
        start = partition.policy_from_names(
            [name.strip() for name in initial.split(",")]
        )
    else:
        start = partition.policy_at(0)
    # every input is checked before the first file is written
    visiting: str | tuple[int, ...] = order
    if method == "bootstrap" and order != "random":
        visiting = _visiting_order(
            [partition.context_index(name.strip()) for name in order.split(",")],
            partition.n_contexts,
        )
    if method == "icm":
        _check_int(icm_iters, "icm_iters")
        _check_int(icm_restarts, "icm_restarts")
    out_path = _out_dir(out)
    write_json(
        out_path / "config.json",
        {
            "command": "run",
            "scenario": str(scenario),
            "method": method,
            "config": config.to_dict(),
            "initial": list(partition.policy_names(start)),
            "order": order,
            "icm_iters": icm_iters,
            "icm_restarts": icm_restarts,
        },
    )
    report: dict = {"method": method, "seed": seed}

    if method in ("gibbs", "tf-gibbs", "debate"):
        if method == "gibbs":
            record = gibbs_run(data.system, start, config)
        elif method == "tf-gibbs":
            record = training_friendly_gibbs_run(data.system, start, config)
        else:
            record = debate_run(data.system, config)
        write_trajectory_csv(out_path / "trajectory.csv", partition, record)
        final = record.policy_at(len(record) - 1)
        best_round = int(np.argmax(record.coherence_bits))
        best = record.policy_at(best_round)
        report.update(
            {
                "final_policy": list(partition.policy_names(final)),
                "final_coherence_bits": float(record.coherence_bits[-1]),
                "best_policy": list(partition.policy_names(best)),
                "best_coherence_bits": float(record.coherence_bits[best_round]),
                "best_round": best_round,
            }
        )
        if partition.policy_count() <= TV_REPORT_CAP:
            exact = softmax_over_coherence(data.system, beta)
            empirical = empirical_distribution(record, "uniform-round")
            report["tv_to_exact"] = tv_distance(empirical, exact)
            report["estimator"] = "uniform-round"
    elif method == "bootstrap":
        result = simple_bootstrap_run(data.system, visiting, config)
        write_bootstrap_csv(out_path / "bootstrap.csv", partition, result)
        report.update(
            {
                "policy": list(partition.policy_names(result.policy)),
                "log2_mass": result.log2_mass,
            }
        )
    else:  # icm
        best = icm_hill_climb(
            data.system,
            start,
            max_iters=icm_iters,
            seed=seed,
            restarts=icm_restarts,
        )
        report.update(
            {
                "policy": list(partition.policy_names(best)),
                "f_mp_bits": mutual_predictability(data.system, best),
                "coherence_bits": coherence(
                    data.system, PolicyState.zero(), best
                ).bits,
            }
        )
    write_json(out_path / "report.json", report)
    click.echo(f"wrote {out_path / 'report.json'}")


@main.command("bounds")
@click.option("--bound", "bound_kind", type=click.Choice(["uniform", "accuracy", "regularization", "sample-count"]), required=True)
@click.option("--chi", type=float, default=None, help="Coherence in bits (uniform).")
@click.option("--gap", type=float, default=None, help="Optimality gap (accuracy).")
@click.option("--alpha", type=float, default=None, help="Expected accuracy term (regularization).")
@click.option("--entropy", type=float, default=None, help="Entropy term in bits (regularization).")
@click.option("--kl", type=float, default=None, help="KL term in bits (regularization).")
@click.option("--n", type=int, default=None, help="Sample count.")
@click.option("--delta", type=float, default=None)
@click.option("--sign", type=click.Choice(["corrected", "paper"]), default="corrected", show_default=True)
@click.option("--mean-pretrain-coh", type=float, default=None)
@click.option("--mean-posttrain-coh", type=float, default=None)
@click.option("--pretrain-error", type=float, default=None)
@click.option("--pretrain-count", type=int, default=None)
@click.option("--out", default=None)
@_guard
def cmd_bounds(
    bound_kind: str,
    chi: float | None,
    gap: float | None,
    alpha: float | None,
    entropy: float | None,
    kl: float | None,
    n: int | None,
    delta: float | None,
    sign: str,
    mean_pretrain_coh: float | None,
    mean_posttrain_coh: float | None,
    pretrain_error: float | None,
    pretrain_count: int | None,
    out: str | None,
) -> None:
    """Evaluate one bound and write its report with all inputs echoed."""

    def need(value, name: str):
        if value is None:
            raise ValidationError(f"--{name} is required for --bound {bound_kind}")
        return value

    if bound_kind == "uniform":
        report = uniform_convergence_bound(
            need(chi, "chi"), need(n, "n"), need(delta, "delta"), sign
        )
    elif bound_kind == "accuracy":
        report = accuracy_lower_bound(
            need(gap, "gap"), need(n, "n"), need(delta, "delta"), sign
        )
    elif bound_kind == "regularization":
        inputs = {
            "alpha": need(alpha, "alpha"),
            "entropy": need(entropy, "entropy"),
            "kl": need(kl, "kl"),
            "N": need(n, "n"),
            "delta": need(delta, "delta"),
        }
        value = regularization_bound_rhs(*inputs.values())
        valid = 0.0 <= value <= 1.0  # the accuracy floor's range
        note = "asymptotic form: vanishing remainder dropped"
        if not valid:
            note = "vacuous: bound outside [0, 1]"
        report = BoundReport("regularization-rhs", value, valid, note, inputs)
    else:
        inputs = {
            "mean_pretrain_coh": need(mean_pretrain_coh, "mean-pretrain-coh"),
            "mean_posttrain_coh": need(mean_posttrain_coh, "mean-posttrain-coh"),
            "pretrain_error": need(pretrain_error, "pretrain-error"),
            "pretrain_count": need(pretrain_count, "pretrain-count"),
        }
        value = conjectured_posttrain_count(*inputs.values())
        note = "conjectural recommendation, not a guarantee"
        report = BoundReport("posttrain-count", value, math.isfinite(value), note, inputs)
    out_path = _out_dir(out)
    write_json(out_path / "bound.json", dataclasses.asdict(report))
    write_json(out_path / "config.json", {"command": "bounds", "report_inputs": report.inputs, "bound": bound_kind, "sign": sign})
    click.echo(f"{report.kind}: value={report.value!r} valid={report.valid}")


@main.command("mc")
@click.option("--trials", default=1000, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--n-train", default=50, show_default=True)
@click.option("--delta", default=0.1, show_default=True)
@click.option("--out", default=None)
@_guard
def cmd_mc(trials: int, seed: int, n_train: int, delta: float, out: str | None) -> None:
    """Monte Carlo check of the uniform generalization-gap event."""
    rows = bound_validity_trials(
        trials, seed=seed, n_train=n_train, delta=delta
    )
    out_path = _out_dir(out)
    write_rows_csv(
        out_path / "trials.csv",
        [f.name for f in dataclasses.fields(TrialRow)],
        [vars(row) for row in rows],
    )
    hold_corrected = 1.0 - sum(r.violated for r in rows) / len(rows)
    hold_paper = 1.0 - sum(r.violated_paper for r in rows) / len(rows)
    hold_srm = 1.0 - sum(r.srm_violated for r in rows) / len(rows)
    write_json(
        out_path / "summary.json",
        {
            "trials": trials,
            "hold_rate_corrected": hold_corrected,
            "hold_rate_paper": hold_paper,
            "hold_rate_srm_floor": hold_srm,
            "target": 1.0 - delta,
            "note": "paper sign reported, not asserted",
        },
    )
    write_json(
        out_path / "config.json",
        {
            "command": "mc",
            "trials": trials,
            "seed": seed,
            "n_train": n_train,
            "delta": delta,
        },
    )
    click.echo(
        f"hold rate corrected={hold_corrected:.4f} paper={hold_paper:.4f} "
        f"target={1 - delta:.4f}"
    )


@main.command("equiv")
@click.option("--lattice", default="0,1,2,3,4,5,6", show_default=True, help="Comma-separated unsupervised-split sizes.")
@click.option("--n-seeds", default=3, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--n-contexts", default=6, show_default=True)
@click.option("--context-size", default=3, show_default=True)
@click.option("--n-latents", default=2, show_default=True)
@click.option("--emission-concentration", default=0.5, show_default=True)
@click.option("--truth-beta", default="1", callback=_parse_beta)
@click.option("--delta", default=0.05, show_default=True)
@click.option("--out", default=None)
@_guard
def cmd_equiv(
    lattice: str,
    n_seeds: int,
    seed: int,
    n_contexts: int,
    context_size: int,
    n_latents: int,
    emission_concentration: float,
    truth_beta: float,
    delta: float,
    out: str | None,
) -> None:
    """Compare coherence-only and regularized selection across split sizes."""
    try:
        points = [int(x) for x in lattice.split(",") if x.strip() != ""]
    except ValueError:
        raise ValidationError(f"bad lattice {lattice!r}") from None
    study = equivalence_study(
        points,
        list(range(seed, seed + n_seeds)),
        n_contexts=n_contexts,
        context_size=context_size,
        n_latents=n_latents,
        emission_concentration=emission_concentration,
        truth_beta=truth_beta,
        delta=delta,
    )
    out_path = _out_dir(out)
    write_rows_csv(
        out_path / "equiv.csv",
        [f.name for f in dataclasses.fields(EquivalenceRow)],
        [vars(row) for row in study.rows],
    )
    gaps = study.mean_gaps()
    write_json(
        out_path / "summary.json",
        {
            "mean_gap": {str(k): v for k, v in gaps.items()},
            "argmin_gap": study.argmin_gap(),
        },
    )
    write_json(
        out_path / "config.json",
        {
            "command": "equiv",
            "lattice": points,
            "seeds": list(range(seed, seed + n_seeds)),
            "n_contexts": n_contexts,
            "context_size": context_size,
            "n_latents": n_latents,
            "emission_concentration": emission_concentration,
            "truth_beta": truth_beta,
            "delta": delta,
        },
    )
    click.echo(f"argmin mean gap at s_a={study.argmin_gap()}")


@main.command("check")
@click.option("--cases", default=100, show_default=True)
@click.option("--seed", default=0, show_default=True)
@_guard
def cmd_check(cases: int, seed: int) -> None:
    """Run every identity sweep; exit 1 if any residual exceeds tolerance."""
    results = run_all_sweeps(cases=cases, seed=seed)
    failed = False
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        click.echo(
            f"{result.name}: cases={result.cases} "
            f"max_residual={result.max_residual:.3e} "
            f"tolerance={result.tolerance:.1e} {status}"
        )
        failed = failed or not result.passed
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
