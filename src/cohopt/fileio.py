"""Scenario files and report writers.

Scenario files are JSON with self-describing keys; validation errors cite the
offending key path. All writers emit deterministic bytes (sorted keys, "\n"
newlines, shortest-roundtrip float repr) and go through a temp-and-rename so
partially written files are never observed.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coherence import PolicyDistribution
from .errors import ValidationError
from .samplers import BootstrapResult, RunRecord
from .systems import (
    Conditioned,
    ContextPartition,
    DPolicy,
    MixtureBayesSystem,
    from_joint_table,
)

__all__ = [
    "ScenarioFile",
    "load_scenario",
    "scenario_to_dict",
    "save_scenario",
    "write_text",
    "write_json",
    "write_distribution_csv",
    "write_trajectory_csv",
    "write_bootstrap_csv",
    "write_experiment_reports",
    "write_rows_csv",
]


def _fmt(value) -> str:
    """Shortest-roundtrip decimal form; stable across runs."""
    if value is None:
        return ""
    if isinstance(value, float) or isinstance(value, np.floating):
        return repr(float(value))
    return str(value)


def write_text(path: str | Path, text: str) -> Path:
    """Atomic write via temp file + rename in the target directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
    return path


def _json_default(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON-serializable: {type(value)}")


def write_json(path: str | Path, payload: dict) -> Path:
    text = json.dumps(
        payload, indent=2, sort_keys=True, default=_json_default
    )
    return write_text(path, text + "\n")


def write_rows_csv(
    path: str | Path, fieldnames: list[str], rows: list[dict]
) -> Path:
    """CSV with deterministic float formatting; values must be comma-free."""
    lines = [",".join(fieldnames)]
    for row in rows:
        cells = []
        for name in fieldnames:
            cell = _fmt(row.get(name))
            if "," in cell or "\n" in cell:
                cell = '"' + cell.replace('"', '""') + '"'
            cells.append(cell)
        lines.append(",".join(cells))
    return write_text(path, "\n".join(lines) + "\n")


@dataclass(frozen=True)
class ScenarioFile:
    """Parsed contents of a scenario file."""

    partition: ContextPartition
    system: MixtureBayesSystem
    ground_truth: DPolicy | None = None


def _require(data, key: str, path: str):
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: must be an object")
    if key not in data:
        raise ValidationError(f"{path}.{key}: missing required key")
    return data[key]


def load_scenario(path: str | Path) -> ScenarioFile:
    """Parse and validate a scenario file.

    Layout: partition.contexts is a list of {name, behaviors}; system is
    either {type: "mixture", latent_weights, emissions} with emissions indexed
    [latent][context][behavior], or {type: "joint_table", table, epsilon} with
    the table nested by context order. ground_truth (optional) lists one
    behavior name per context.
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"scenario file not found: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: top level must be an object")

    part_data = _require(data, "partition", path.name)
    contexts = _require(part_data, "contexts", "partition")
    if not isinstance(contexts, list) or not contexts:
        raise ValidationError("partition.contexts: must be a non-empty list")
    names, behaviors = [], []
    for i, entry in enumerate(contexts):
        name = _require(entry, "name", f"partition.contexts[{i}]")
        if not isinstance(name, str):
            raise ValidationError(
                f"partition.contexts[{i}].name: must be a string, got {name!r}"
            )
        names.append(name)
        row = _require(entry, "behaviors", f"partition.contexts[{i}]")
        if not isinstance(row, list) or not row:
            raise ValidationError(
                f"partition.contexts[{i}].behaviors: must be a non-empty list"
            )
        for j, b in enumerate(row):
            if not isinstance(b, str):
                raise ValidationError(
                    f"partition.contexts[{i}].behaviors[{j}]: must be a "
                    f"string, got {b!r}"
                )
        behaviors.append(row)
    try:
        partition = ContextPartition(names, behaviors)
    except ValidationError as exc:
        raise ValidationError(f"partition: {exc}") from exc

    sys_data = _require(data, "system", path.name)
    kind = _require(sys_data, "type", "system")
    known = {"partition", "system", "ground_truth", "name", "description"}
    for key in data:
        if key not in known:
            raise ValidationError(f"{key}: unknown top-level key")

    if kind == "mixture":
        weights = _require(sys_data, "latent_weights", "system")
        emissions_data = _require(sys_data, "emissions", "system")
        if not isinstance(weights, list):
            raise ValidationError("system.latent_weights: must be a list")
        if not isinstance(emissions_data, list) or len(emissions_data) != len(weights):
            raise ValidationError(
                "system.emissions: need one emission block per latent"
            )
        emissions = []
        for c in range(partition.n_contexts):
            try:
                rows = np.array(
                    [np.asarray(block[c], dtype=np.float64)
                     for block in emissions_data]
                )
            except (ValueError, IndexError, KeyError, TypeError) as exc:
                raise ValidationError(
                    f"system.emissions[*][{c}]: malformed rows ({exc})"
                ) from exc
            emissions.append(rows)
        try:
            system = MixtureBayesSystem(partition, weights, emissions)
        except ValidationError as exc:
            raise ValidationError(f"system: {exc}") from exc
        except (ValueError, TypeError) as exc:
            raise ValidationError(f"system.latent_weights: {exc}") from exc
    elif kind == "joint_table":
        table = _require(sys_data, "table", "system")
        epsilon = sys_data.get("epsilon", 0.0)
        if not isinstance(epsilon, (int, float)):
            raise ValidationError(
                f"system.epsilon: must be a number, got {epsilon!r}"
            )
        try:
            system = from_joint_table(
                partition, np.asarray(table, dtype=np.float64), epsilon
            )
        except (ValidationError, ValueError, TypeError) as exc:
            raise ValidationError(f"system.table: {exc}") from exc
    else:
        raise ValidationError(
            f"system.type: must be 'mixture' or 'joint_table', got {kind!r}"
        )

    ground_truth = None
    if data.get("ground_truth") is not None:
        if not isinstance(data["ground_truth"], list):
            raise ValidationError(
                "ground_truth: must be a list of behavior names"
            )
        try:
            ground_truth = partition.policy_from_names(
                [str(n) for n in data["ground_truth"]]
            )
        except ValidationError as exc:
            raise ValidationError(f"ground_truth: {exc}") from exc
    return ScenarioFile(
        partition=partition, system=system, ground_truth=ground_truth
    )


def scenario_to_dict(
    partition: ContextPartition,
    system: MixtureBayesSystem,
    ground_truth: DPolicy | None = None,
    name: str | None = None,
) -> dict:
    payload: dict = {
        "partition": {
            "contexts": [
                {"name": partition.context_names[c],
                 "behaviors": list(partition.behaviors[c])}
                for c in range(partition.n_contexts)
            ]
        },
        "system": {
            "type": "mixture",
            "latent_weights": system.latent_weights.tolist(),
            "emissions": [
                [system.emissions(c)[t].tolist()
                 for c in range(partition.n_contexts)]
                for t in range(system.n_latents)
            ],
        },
    }
    if name is not None:
        payload["name"] = name
    if ground_truth is not None:
        payload["ground_truth"] = list(partition.policy_names(ground_truth))
    return payload


def save_scenario(
    path: str | Path,
    partition: ContextPartition,
    system: MixtureBayesSystem,
    ground_truth: DPolicy | None = None,
    name: str | None = None,
) -> Path:
    return write_json(
        path, scenario_to_dict(partition, system, ground_truth, name)
    )


def write_distribution_csv(
    path: str | Path,
    partition: ContextPartition,
    distribution: PolicyDistribution,
    system: MixtureBayesSystem | None = None,
) -> Path:
    """One row per d-policy: behavior names joined by '|', mass, coherence in
    bits; sorted by descending mass then lexicographic policy.

    Coherence comes from one enumeration of the system's policy masses, and
    is nan when no system is given.
    """
    chis = np.full(len(distribution), math.nan)
    if system is not None:
        with np.errstate(divide="ignore"):
            chis = np.log2(Conditioned(system).masses(cap=len(distribution)))
    labels = ("|".join(n) for n in itertools.product(*partition.behaviors))
    rows = sorted(
        zip(labels, distribution.masses.tolist(), chis.tolist(), strict=True),
        key=lambda row: (-row[1], row[0]),
    )
    return write_rows_csv(
        path,
        ["policy", "mass", "coherence_bits"],
        [
            {"policy": label, "mass": mass, "coherence_bits": chi}
            for label, mass, chi in rows
        ],
    )


def _metadata_lines(kind: str, record_meta: dict) -> list[str]:
    payload = json.dumps(record_meta, sort_keys=True, default=_json_default)
    return [f"# kind={kind}", f"# meta={payload}"]


def write_trajectory_csv(
    path: str | Path,
    partition: ContextPartition,
    record: RunRecord,
) -> Path:
    """Round-by-round trajectory: resampled contexts, policy, coherence.

    The header comment lines carry the config echo and seed.
    """
    meta = {
        "config": record.config.to_dict(),
        "seed": record.seed,
        "contexts": [partition.context_names[c] for c in record.contexts],
        "prior": {
            partition.global_name(k): v
            for k, v in sorted(record.prior_counts.items())
        },
    }
    lines = _metadata_lines(record.kind, meta)
    lines.append("round,changed,policy,coherence_bits")
    for t in range(len(record)):
        if t == 0:
            changed = ""
        else:
            changed = "|".join(
                partition.context_names[record.contexts[j]]
                for j in record.moves[t - 1]
            )
        names = "|".join(
            partition.behavior_name(record.contexts[j], int(a))
            for j, a in enumerate(record.trajectory[t])
        )
        lines.append(
            f"{t},{changed},{names},{_fmt(float(record.coherence_bits[t]))}"
        )
    return write_text(path, "\n".join(lines) + "\n")


def write_experiment_reports(
    directory: str | Path,
    reports,
    runtimes: dict[tuple[int, str], float] | None = None,
) -> Path:
    """Per-seed pipeline rows plus a summary.

    Writes report.csv (seed, method, policy, accuracy, coherence terms,
    bound values), summary.json (per-method mean accuracy), and, when
    runtimes are given, a timings.csv sidecar; runtimes live in their own
    file so report.csv stays byte-stable across reruns.
    """
    directory = Path(directory)
    fields = [
        "seed", "method", "policy", "accuracy", "chi_quotient_bits",
        "chi_full_bits", "f_mp_bits", "decomposition_residual",
        "gap_bound", "accuracy_floor",
    ]
    write_rows_csv(
        directory / "report.csv", fields, [r.to_row() for r in reports]
    )
    by_method: dict[str, list[float]] = {}
    for report in reports:
        if report.accuracy is not None:
            by_method.setdefault(report.method, []).append(report.accuracy)
    write_json(
        directory / "summary.json",
        {
            "mean_accuracy": {
                method: sum(values) / len(values)
                for method, values in sorted(by_method.items())
            },
            "runs": len(reports),
        },
    )
    if runtimes is not None:
        write_rows_csv(
            directory / "timings.csv",
            ["seed", "method", "runtime_s"],
            [
                {"seed": seed, "method": method, "runtime_s": value}
                for (seed, method), value in sorted(runtimes.items())
            ],
        )
    return directory / "report.csv"


def write_bootstrap_csv(
    path: str | Path,
    partition: ContextPartition,
    result: BootstrapResult,
) -> Path:
    """Step-by-step bootstrap trace with the visiting order and probabilities."""
    meta = {
        "config": result.config.to_dict(),
        "seed": result.seed,
        "contexts": [partition.context_names[c] for c in result.contexts],
        "log2_mass": result.log2_mass,
    }
    lines = _metadata_lines("bootstrap", meta)
    lines.append("step,context,behavior,probability")
    for n, j in enumerate(result.order):
        context = result.contexts[j]
        behavior = partition.behavior_name(
            context, result.policy.assignment[j]
        )
        lines.append(
            f"{n},{partition.context_names[context]},{behavior},"
            f"{_fmt(result.step_probabilities[n])}"
        )
    return write_text(path, "\n".join(lines) + "\n")
