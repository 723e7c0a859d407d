"""gibbs-chains: long sampler chains, where the per-step kernel does the work.

One round runs, on inputs drawn once from the seed:
- single-site Gibbs chains on small dense systems (3x3x3, 2 latents, as in
  acceptance criterion 03), whose exact target has 27 policies; each system
  gets several seeded chains whose pooled visits are checked against it;
- the same sampler on wide systems (40 contexts of 4 behaviors, 32 latents),
  whose 4^40 policies are far beyond any per-state cache;
- block-variant (training_friendly_gibbs_run) chains on both kinds;
- `cohopt run --method gibbs` on the smoothed condiments scenario, twice with
  the same arguments, writing one trajectory row per step.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref

NAME = "gibbs-chains"
MIN_ROUNDS = 3
# many short chains rather than few long ones give each run more timing samples
DENSE = dict(count=4, sizes=(3, 3, 3), latents=2, chains=4, steps=6_250)
WIDE = dict(count=2, sizes=(4,) * 40, latents=32, chains=2, steps=2_500)
# (system kind, system index, rounds, gamma, anchor_weight)
BLOCK = (("dense", 0, 3_000, 0.5, 0.0), ("dense", 1, 3_000, 0.5, 0.5), ("wide", 0, 800, 0.85, 0.5))
CLI_SCENARIO = Path("demos") / "scenarios" / "condiments_smoothed.json"
CLI_STEPS = 5_000
TV_TOL = 0.05  # acceptance criterion 03
BITS_TOL = 1e-9
WIDE_SAMPLED_ROWS = 64


@dataclass
class System:
    weights: np.ndarray
    emissions: list[np.ndarray]
    model: object  # the cohopt MixtureBayesSystem built from the arrays above


def draw_system(co, rng: np.random.Generator, sizes, latents: int) -> System:
    weights = rng.dirichlet([1.0] * latents)
    weights /= weights.sum()
    emissions = []
    for size in sizes:
        rows = rng.dirichlet([1.0] * size, size=latents)
        emissions.append(rows / rows.sum(axis=1, keepdims=True))
    model = co.MixtureBayesSystem(co.generic_partition(sizes), weights, emissions)
    return System(weights, emissions, model)


@dataclass
class Inputs:
    dense: list[System]
    wide: list[System]
    chain_seeds: list[int]
    cli_args: list[list[str]]
    cli_dirs: list[Path]
    cli_table: np.ndarray
    cli_contexts: list[str]
    cli_names: list[list[str]]
    dense_log2: list[np.ndarray] | None = None
    dense_target: list[np.ndarray] | None = None


def setup(co, seed: int, root: Path, workdir: Path) -> Inputs:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    dense = [draw_system(co, rng, DENSE["sizes"], DENSE["latents"]) for _ in range(DENSE["count"])]
    wide = [draw_system(co, rng, WIDE["sizes"], WIDE["latents"]) for _ in range(WIDE["count"])]
    for system in dense:
        co.check_ergodicity(system.model)
    chains = len(dense) * DENSE["chains"] + len(wide) * WIDE["chains"] + len(BLOCK)
    chain_seeds = [int(s) for s in rng.integers(0, 2**31, size=chains)]
    cli_seed = int(rng.integers(0, 2**31))
    scenario = root / CLI_SCENARIO
    co.load_scenario(scenario)
    data = json.loads(scenario.read_text())
    cli_dirs = [workdir / "cli-first", workdir / "cli-second"]
    cli_args = [
        ["run", str(scenario), "--method", "gibbs", "--steps", str(CLI_STEPS),
         "--seed", str(cli_seed), "--out", str(d)]
        for d in cli_dirs
    ]
    return Inputs(
        dense=dense,
        wide=wide,
        chain_seeds=chain_seeds,
        cli_args=cli_args,
        cli_dirs=cli_dirs,
        cli_table=np.asarray(data["system"]["table"], dtype=np.float64),
        cli_contexts=[c["name"] for c in data["partition"]["contexts"]],
        cli_names=[c["behaviors"] for c in data["partition"]["contexts"]],
    )


def prepare_checks(inputs: Inputs) -> None:
    inputs.dense_log2 = []
    inputs.dense_target = []
    for system in inputs.dense:
        masses = ref.joint_masses(system.weights, system.emissions)
        inputs.dense_log2.append(np.log2(masses))
        inputs.dense_target.append(ref.tempered(masses, 1.0))


def run_round(co, cli_main, inputs: Inputs, meter) -> dict:
    seeds = iter(inputs.chain_seeds)
    out: dict = {"dense": [], "wide": [], "block": [], "cli": []}
    for kind, systems, shape in (("dense", inputs.dense, DENSE), ("wide", inputs.wide, WIDE)):
        for system in systems:
            for _ in range(shape["chains"]):
                config = co.SamplerConfig(beta=1.0, steps=shape["steps"], seed=next(seeds))
                out[kind].append(meter.op(
                    kind, shape["steps"], co.gibbs_run, system.model,
                    system.model.partition.policy_at(0), config, check_positivity=False,
                ))
    for kind, index, rounds, gamma, anchor in BLOCK:
        system = getattr(inputs, kind)[index]
        config = co.SamplerConfig(
            beta=1.0, steps=rounds, seed=next(seeds), gamma=gamma, anchor_weight=anchor
        )
        out["block"].append(meter.op(
            "block", rounds, co.training_friendly_gibbs_run, system.model,
            system.model.partition.policy_at(0), config, check_positivity=False,
        ))
    for args, directory in zip(inputs.cli_args, inputs.cli_dirs):
        result = meter.cli("cli", CLI_STEPS, cli_main, args)
        out["cli"].append(
            None if result is None
            else {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
        )
    return out


def _block_system(inputs: Inputs, i: int) -> System:
    kind, index = BLOCK[i][:2]
    return getattr(inputs, kind)[index]


def _moves_within_record(checks, label: str, record) -> None:
    """Each step changes at most the coordinates the record says it moved."""
    changed = record.trajectory[1:] != record.trajectory[:-1]
    allowed = np.zeros_like(changed)
    for t, moved in enumerate(record.moves):
        allowed[t, list(moved)] = True
    checks.expect(
        len(record.moves) == len(record) - 1 and not np.any(changed & ~allowed),
        f"{label}: a step changed a coordinate it did not record",
    )


def _sampled_rows(n: int, count: int) -> np.ndarray:
    return np.unique(np.linspace(0, n - 1, count).astype(np.int64))


def check_round(inputs: Inputs, r: int, out: dict, first: dict | None, checks) -> None:
    if first is not None:
        # rounds repeat the same seeded operations: outputs must repeat too
        for kind in ("dense", "wide", "block"):
            for a, b in zip(out[kind], first[kind]):
                if a is not None and b is not None:
                    checks.expect(
                        np.array_equal(a.trajectory, b.trajectory),
                        f"round {r}: {kind} trajectory differs from round 0 with the same seed",
                    )
        for a, b in zip(out["cli"], first["cli"]):
            if a is not None and b is not None:
                checks.expect(a == b, f"round {r}: cohopt run output differs from round 0")
        return
    per_system = DENSE["chains"]
    for i in range(len(inputs.dense)):
        records = [r for r in out["dense"][i * per_system:(i + 1) * per_system] if r is not None]
        if not records:
            continue
        label = f"dense system {i}"
        indices = [np.ravel_multi_index(r.trajectory.T, DENSE["sizes"]) for r in records]
        pooled = np.concatenate(indices)
        visits = np.bincount(pooled, minlength=math.prod(DENSE["sizes"])) / pooled.size
        tv = ref.tv(visits, inputs.dense_target[i])
        checks.expect(tv <= TV_TOL, f"{label}: TV {tv:.4f} of the pooled chains to the exact target above {TV_TOL}")
        for record, index in zip(records, indices):
            err = np.abs(record.coherence_bits - inputs.dense_log2[i][index]).max()
            checks.expect(err <= BITS_TOL, f"{label}: coherence_bits off the reference by {err:.2e}")
            _moves_within_record(checks, label, record)
    for label, records, systems in (
        ("wide chain", out["wide"], [w for w in inputs.wide for _ in range(WIDE["chains"])]),
        ("block chain", out["block"], [_block_system(inputs, i) for i in range(len(BLOCK))]),
    ):
        for i, (record, system) in enumerate(zip(records, systems)):
            if record is None:
                continue
            rows = _sampled_rows(len(record), WIDE_SAMPLED_ROWS)
            expected = ref.log2_masses_of_rows(system.weights, system.emissions, record.trajectory[rows])
            err = np.abs(record.coherence_bits[rows] - expected).max()
            checks.expect(err <= BITS_TOL, f"{label} {i}: coherence_bits off the reference by {err:.2e}")
            _moves_within_record(checks, f"{label} {i}", record)
    first_cli, second_cli = out["cli"]
    if first_cli is not None and second_cli is not None:
        checks.expect(first_cli == second_cli, "cohopt run: two identical invocations wrote different bytes")
        _check_cli_trajectory(inputs, first_cli, checks)


def _check_cli_trajectory(inputs: Inputs, files: dict, checks) -> None:
    weights, emissions = ref.indicator_emissions(inputs.cli_table, 0.0)
    log2_table = np.log2(ref.joint_masses(weights, emissions))
    lookup = [{name: a for a, name in enumerate(names)} for names in inputs.cli_names]
    context_names = inputs.cli_contexts
    lines = [line for line in files["trajectory.csv"].decode().splitlines() if not line.startswith("#")]
    rows = list(csv.DictReader(lines))
    checks.expect(len(rows) == CLI_STEPS + 1, f"cohopt run: {len(rows)} trajectory rows for {CLI_STEPS} steps")
    previous = None
    worst = 0.0
    for row in rows:
        policy = tuple(lookup[c][name] for c, name in enumerate(row["policy"].split("|")))
        index = np.ravel_multi_index(policy, inputs.cli_table.shape)
        worst = max(worst, abs(float(row["coherence_bits"]) - log2_table[index]))
        if previous is not None:
            changed = {context_names[c] for c in range(len(policy)) if policy[c] != previous[c]}
            if not changed <= set(filter(None, row["changed"].split("|"))):
                checks.expect(False, f"cohopt run: round {row['round']} changed an unrecorded context")
                break
        previous = policy
    checks.expect(worst <= BITS_TOL, f"cohopt run: coherence_bits off the reference by {worst:.2e}")
    report = json.loads(files["report.json"])
    checks.expect(
        math.isfinite(report.get("tv_to_exact", math.nan)),
        "cohopt run: report has no finite tv_to_exact",
    )


def details(meter) -> dict[str, tuple[float, str]]:
    return {
        "gibbs_steps_per_s": (meter.rate("dense"), "steps/s"),
        "wide_gibbs_steps_per_s": (meter.rate("wide"), "steps/s"),
        "block_rounds_per_s": (meter.rate("block"), "rounds/s"),
    }


def work_per_s(meter) -> float:
    return meter.rate("dense")
