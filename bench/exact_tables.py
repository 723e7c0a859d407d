"""exact-tables: exhaustive evaluation over a few thousand policies, no sampling.

Inputs, drawn once from the seed and written as scenario files:
- a mixture scenario: 7 contexts of 3 behaviors (2187 policies), 4 latents;
- a smoothed joint-table scenario: contexts of sizes 4,4,3,3,3,3 (1296
  policies), one latent per policy, epsilon 0.05.

One round runs `cohopt enumerate` on both scenarios, softmax_over_coherence,
exact_conditional_distribution (full space and a prior-anchored subset),
bootstrap_exact_distribution, srm_select, `cohopt check`, and one cap-contract
probe per exhaustive entry point.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref

NAME = "exact-tables"
MIN_ROUNDS = 3
MIXTURE = dict(sizes=(3,) * 7, latents=4)
JOINT = dict(sizes=(4, 4, 3, 3, 3, 3), epsilon=0.05)
JOINT_BETA = 2.0
PRIOR = ((0, 1), (3, 2))  # (context, behavior) pairs anchoring the subset call
SUBSET = (1, 2, 4, 5, 6)
SUBSET_BETA = 2.0
TRAIN_SAMPLES = 6
SRM_DELTA = 0.05
CHECK_CASES = 40
CAP = 100  # below every probed space
MASS_TOL = 1e-12
BITS_TOL = 1e-9
EXHAUSTIVE = ("enumerate", "softmax", "conditional", "bootstrap", "srm")


@dataclass
class Inputs:
    mixture_path: Path
    joint_path: Path
    mixture: object
    joint: object
    weights: np.ndarray
    emissions: list[np.ndarray]
    joint_table: np.ndarray
    order: list[int]
    samples: list[tuple[int, int]]
    check_seed: int
    out_dirs: dict[str, Path]
    ref: dict | None = None


def _names(sizes) -> list[list[str]]:
    return [[f"c{c}_b{a}" for a in range(size)] for c, size in enumerate(sizes)]


def setup(co, seed: int, root: Path, workdir: Path) -> Inputs:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    sizes = MIXTURE["sizes"]
    weights = rng.dirichlet([1.0] * MIXTURE["latents"])
    weights /= weights.sum()
    emissions = []
    for size in sizes:
        rows = rng.dirichlet([1.0] * size, size=MIXTURE["latents"])
        emissions.append(rows / rows.sum(axis=1, keepdims=True))
    partition = co.generic_partition(sizes)
    mixture_path = workdir / "mixture.json"
    co.save_scenario(
        mixture_path, partition, co.MixtureBayesSystem(partition, weights, emissions), name="bench-mixture"
    )

    table = rng.dirichlet([1.0] * math.prod(JOINT["sizes"])).reshape(JOINT["sizes"])
    table /= table.sum()
    joint_path = workdir / "joint.json"
    joint_path.write_text(json.dumps({
        "name": "bench-joint",
        "partition": {"contexts": [
            {"name": f"c{c}", "behaviors": names} for c, names in enumerate(_names(JOINT["sizes"]))
        ]},
        "system": {"type": "joint_table", "table": table.tolist(), "epsilon": JOINT["epsilon"]},
    }))

    truth = [int(rng.integers(0, s)) for s in sizes]
    contexts = rng.integers(0, len(sizes), size=TRAIN_SAMPLES)
    return Inputs(
        mixture_path=mixture_path,
        joint_path=joint_path,
        mixture=co.load_scenario(mixture_path).system,
        joint=co.load_scenario(joint_path).system,
        weights=weights,
        emissions=emissions,
        joint_table=table,
        order=[int(j) for j in rng.permutation(len(sizes))],
        samples=[(int(c), truth[c]) for c in contexts],
        check_seed=int(rng.integers(0, 2**31)),
        out_dirs={"mixture": workdir / "enum-mixture", "joint": workdir / "enum-joint"},
    )


def prepare_checks(inputs: Inputs) -> None:
    masses = ref.joint_masses(inputs.weights, inputs.emissions)
    jw, je = ref.indicator_emissions(inputs.joint_table, JOINT["epsilon"])
    joint_masses = ref.joint_masses(jw, je)
    subset = ref.conditional_masses(inputs.weights, inputs.emissions, PRIOR, SUBSET)

    # srm_select's objective, recomputed: training accuracy minus the
    # description-length regularizer, ties to higher coherence, then lower index
    chi = np.log2(masses)
    coords = np.indices(MIXTURE["sizes"]).reshape(len(MIXTURE["sizes"]), -1)
    hits = sum((coords[c] == a).astype(np.float64) for c, a in inputs.samples)
    n = len(inputs.samples)
    radicand = (-2.0 * chi + math.log2(math.e) + math.log2(1.0 / SRM_DELTA)) / (2.0 * n)
    objective = hits / n - np.sqrt(np.maximum(radicand, 0.0))
    srm_index = int(np.lexsort((np.arange(chi.size), -chi, -objective))[0])

    inputs.ref = {
        "mixture": masses,
        "mixture_t1": ref.tempered(masses, 1.0),
        "joint": joint_masses,
        "joint_t": ref.tempered(joint_masses, JOINT_BETA),
        "subset_t": ref.tempered(subset, SUBSET_BETA),
        "srm_index": srm_index,
    }


def run_round(co, cli_main, inputs: Inputs, meter) -> dict:
    mixture, joint = inputs.mixture, inputs.joint
    n_mix = mixture.partition.policy_count()
    n_joint = joint.partition.policy_count()
    zero = co.PolicyState.zero()
    prior = co.PolicyState.from_behaviors(
        [mixture.partition.global_index(c, a) for c, a in PRIOR]
    )
    out: dict = {}
    for key, path, beta, units in (
        ("mixture", inputs.mixture_path, "1", n_mix),
        ("joint", inputs.joint_path, str(JOINT_BETA), n_joint),
    ):
        result = meter.cli("enumerate", units, cli_main, [
            "enumerate", str(path), "--beta", beta, "--out", str(inputs.out_dirs[key])
        ])
        out[f"csv_{key}"] = (
            None if result is None else (inputs.out_dirs[key] / "xbeta.csv").read_bytes()
        )
    out["softmax"] = meter.op("softmax", n_mix, co.softmax_over_coherence, mixture, 1.0)
    out["conditional_full"] = meter.op(
        "conditional", n_joint, co.exact_conditional_distribution, joint, JOINT_BETA
    )
    out["conditional_subset"] = meter.op(
        "conditional", 3 ** len(SUBSET), co.exact_conditional_distribution,
        mixture, SUBSET_BETA, prior=prior, contexts=SUBSET,
    )
    out["bootstrap"] = meter.op(
        "bootstrap", n_mix, co.bootstrap_exact_distribution, mixture, inputs.order, 1.0
    )
    out["srm"] = meter.op(
        "srm", n_mix, co.srm_select, mixture, zero, None, inputs.samples,
        N=len(inputs.samples), delta=SRM_DELTA,
    )
    result = meter.cli("check", 0, cli_main, [
        "check", "--cases", str(CHECK_CASES), "--seed", str(inputs.check_seed)
    ])
    out["check"] = None if result is None else result.output

    meter.probe("enumerate_policy_masses", co.enumerate_policy_masses, mixture, cap=CAP)
    meter.probe("softmax_over_coherence", co.softmax_over_coherence, mixture, 1.0, cap=CAP)
    meter.probe("exact_conditional_distribution", co.exact_conditional_distribution, mixture, 1.0, cap=CAP)
    meter.probe("bootstrap_exact_distribution", co.bootstrap_exact_distribution, mixture, inputs.order, 1.0, cap=CAP)
    meter.probe("srm_select", co.srm_select, mixture, zero, None, inputs.samples, cap=CAP)
    meter.cli("probe", 0, cli_main, [
        "enumerate", str(inputs.mixture_path), "--cap", str(CAP), "--out", str(inputs.out_dirs["mixture"])
    ], expect=4)
    return out


def _same(a, b) -> bool:
    if hasattr(a, "masses"):
        return np.array_equal(a.masses, b.masses)
    return a == b


def check_round(inputs: Inputs, r: int, out: dict, first: dict | None, checks) -> None:
    if first is not None:
        # rounds repeat the same operations on the same inputs
        for key, value in out.items():
            if value is not None and first[key] is not None:
                checks.expect(_same(value, first[key]), f"round {r}: {key} differs from round 0")
        return
    expected = inputs.ref
    for key, masses in (("mixture", expected["mixture_t1"]), ("joint", expected["joint_t"])):
        log2_joint = np.log2(expected[key])
        if out[f"csv_{key}"] is not None:
            _check_xbeta(checks, key, out[f"csv_{key}"], masses, log2_joint)
    for key, target in (
        ("softmax", expected["mixture_t1"]),
        ("conditional_full", expected["joint_t"]),
        ("conditional_subset", expected["subset_t"]),
        ("bootstrap", expected["mixture_t1"]),
    ):
        if out[key] is not None:
            err = np.abs(out[key].masses - target).max()
            checks.expect(err <= MASS_TOL, f"{key}: masses off the reference by {err:.2e}")
    if out["srm"] is not None:
        index = int(np.ravel_multi_index(out["srm"].assignment, MIXTURE["sizes"]))
        checks.expect(
            index == expected["srm_index"],
            f"srm_select picked policy {index}, reference argmax is {expected['srm_index']}",
        )
    if out["check"] is not None:
        lines = out["check"].strip().splitlines()
        checks.expect(
            len(lines) == 4 and all(line.endswith("PASS") for line in lines),
            f"cohopt check did not pass every sweep: {lines}",
        )


def _check_xbeta(checks, key: str, data: bytes, masses: np.ndarray, log2_joint: np.ndarray) -> None:
    rows = list(csv.DictReader(io.StringIO(data.decode())))
    sizes = MIXTURE["sizes"] if key == "mixture" else JOINT["sizes"]
    checks.expect(len(rows) == masses.size, f"xbeta.csv ({key}): {len(rows)} rows for {masses.size} policies")
    seen = set()
    worst_mass = worst_bits = 0.0
    for row in rows:
        policy = tuple(int(name.rsplit("_b", 1)[1]) for name in row["policy"].split("|"))
        index = int(np.ravel_multi_index(policy, sizes))
        seen.add(index)
        worst_mass = max(worst_mass, abs(float(row["mass"]) - masses[index]))
        worst_bits = max(worst_bits, abs(float(row["coherence_bits"]) - log2_joint[index]))
    order = [(-float(row["mass"]), row["policy"]) for row in rows]
    checks.expect(len(seen) == masses.size, f"xbeta.csv ({key}): policies missing or repeated")
    checks.expect(worst_mass <= MASS_TOL, f"xbeta.csv ({key}): mass off the reference by {worst_mass:.2e}")
    checks.expect(worst_bits <= BITS_TOL, f"xbeta.csv ({key}): coherence_bits off the reference by {worst_bits:.2e}")
    checks.expect(order == sorted(order), f"xbeta.csv ({key}): rows not sorted by descending mass")


def details(meter) -> dict[str, tuple[float, str]]:
    return {"policies_per_s": (meter.rate(*EXHAUSTIVE), "policies/s")}


def work_per_s(meter) -> float:
    return meter.rate(*EXHAUSTIVE)
