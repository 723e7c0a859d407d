"""Scenario files and report writers.

Scenario files are JSON with self-describing keys; validation errors cite the
offending key path. All writers emit deterministic bytes (sorted keys, "\n"
newlines, shortest-roundtrip float repr) and go through a temp-and-rename so
partially written files are never observed.
"""

from __future__ import annotations

import collections
import itertools
import json
import math
import operator
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coherence import PolicyDistribution
from .errors import ValidationError
from .samplers import BootstrapResult, RunRecord
from .systems import (
    ContextPartition,
    DPolicy,
    MixtureBayesSystem,
    _check_object,
    _check_real,
    _check_reals,
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
    """Shortest-roundtrip decimal form; stable across runs. A flag reads 1
    or 0."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
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


def _strict(value):
    """value with every non-finite float spelled the way strict JSON
    accepts: +inf as "inf", -inf as "-inf", NaN as null."""
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_strict(item) for item in value]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None if math.isnan(value) else ("inf" if value > 0 else "-inf")
    return value


def write_json(path: str | Path, payload: dict) -> Path:
    text = json.dumps(
        _strict(payload), indent=2, sort_keys=True, allow_nan=False
    )
    return write_text(path, text + "\n")


def _quote(cell: str) -> str:
    """A CSV cell as written: quoted, with its quotes doubled, when it holds
    a comma, a double quote or a line break."""
    if "," in cell or '"' in cell or "\n" in cell or "\r" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _csv_line(values) -> str:
    """One CSV line of formatted, quoted cells."""
    return ",".join([_quote(_fmt(value)) for value in values])


def write_rows_csv(
    path: str | Path, fieldnames: list[str], rows: list[dict]
) -> Path:
    """CSV with deterministic float formatting, one line per row dict."""
    lines = [_csv_line(fieldnames)]
    lines += [_csv_line(row.get(name) for name in fieldnames) for row in rows]
    return write_text(path, "\n".join(lines) + "\n")


@dataclass(frozen=True)
class ScenarioFile:
    """Parsed contents of a scenario file."""

    partition: ContextPartition
    system: MixtureBayesSystem
    ground_truth: DPolicy | None = None


def _check_list(data, where: str, strings: bool = False) -> list:
    """data, after raising ValidationError unless it is a non-empty JSON array
    and, with strings, each entry j (named where[j]) is a string."""
    if not isinstance(data, list) or not data:
        raise ValidationError(f"{where}: must be a non-empty list")
    for j, item in enumerate(data if strings else ()):
        if not isinstance(item, str):
            raise ValidationError(f"{where}[{j}]: must be a string, got {item!r}")
    return data


def _at(where: str, build, *args):
    """build(*args), with where prefixed to the message of a ValidationError
    it raises: the key path of the object it was built from."""
    try:
        return build(*args)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def load_scenario(path: str | Path) -> ScenarioFile:
    """Parse and validate a scenario file.

    Layout: partition.contexts is a list of {name, behaviors}; system is
    either {type: "mixture", latent_weights, emissions} with emissions indexed
    [latent][context][behavior], or {type: "joint_table", table, epsilon} with
    the table nested by context order. ground_truth (optional) lists one
    behavior name per context. Every object goes through _check_object, so a
    missing or unknown key at any level is a ValidationError citing its path.
    """
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"scenario file not found: {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from exc
    _check_object(data, "", ("partition", "system"), ("ground_truth", "name", "description"))

    part_data = _check_object(data["partition"], "partition", ("contexts",))
    names, behaviors = [], []
    for i, entry in enumerate(_check_list(part_data["contexts"], "partition.contexts")):
        where = f"partition.contexts[{i}]"
        entry = _check_object(entry, where, ("name", "behaviors"))
        if not isinstance(entry["name"], str):
            raise ValidationError(f"{where}.name: must be a string, got {entry['name']!r}")
        names.append(entry["name"])
        behaviors.append(_check_list(entry["behaviors"], f"{where}.behaviors", True))
    partition = _at("partition", ContextPartition, names, behaviors)

    sys_data = data["system"]
    # type names the other keys: none is unknown until it is read
    kind = _check_object(sys_data, "system", ("type",), sys_data)["type"]
    if kind == "mixture":
        _check_object(sys_data, "system", ("type", "latent_weights", "emissions"))
        weights = _check_list(sys_data["latent_weights"], "system.latent_weights")
        weights = _check_reals(weights, "system.latent_weights")
        emissions_data = _check_list(sys_data["emissions"], "system.emissions")
        if len(emissions_data) != len(weights):
            raise ValidationError("system.emissions: need one emission block per latent")
        n = partition.n_contexts
        emissions = []
        for c in range(n):
            key = f"system.emissions[*][{c}]"
            try:
                rows = [block[c] for block in emissions_data]
            except (IndexError, KeyError, TypeError) as exc:
                raise ValidationError(f"{key}: malformed rows ({exc})") from exc
            emissions.append(_check_reals(rows, key))
        # every block is a list now: indexing anything else failed above
        for t, block in enumerate(emissions_data):
            if len(block) != n:
                raise ValidationError(
                    f"system.emissions[{t}]: holds {len(block)} context rows, not {n}"
                )
        system = _at("system", MixtureBayesSystem, partition, weights, emissions)
    elif kind == "joint_table":
        _check_object(sys_data, "system", ("type", "table"), ("epsilon",))
        epsilon = _check_real(sys_data.get("epsilon", 0.0), "system.epsilon", "[0, 1)")
        table = sys_data["table"]
        system = _at("system.table", from_joint_table, partition, table, epsilon)
    else:
        raise ValidationError(
            f"system.type: must be 'mixture' or 'joint_table', got {kind!r}"
        )

    ground_truth = data.get("ground_truth")
    if ground_truth is not None:
        names = _check_list(ground_truth, "ground_truth", True)
        ground_truth = _at("ground_truth", partition.policy_from_names, names)
    return ScenarioFile(partition, system, ground_truth)


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
    masses: np.ndarray,
) -> Path:
    """One row per d-policy: behavior names joined by '|', mass, coherence in
    bits; sorted by descending mass then lexicographic policy.

    masses is the joint mass table the distribution was tempered from, in
    policy-index order; coherence is its log2. Each line is one f-string of
    the label under _quote and the two floats' reprs: the bytes that
    write_rows_csv writes for the same rows. Raises ValidationError, before
    anything is written, when two policies get one label.
    """
    if (
        not isinstance(masses, np.ndarray)
        or masses.shape != distribution.masses.shape
    ):
        raise ValidationError(
            "masses must be the 1-D mass table of the distribution's "
            f"{distribution.masses.size} policies"
        )
    with np.errstate(divide="ignore"):
        chis = np.log2(_check_reals(masses, "masses"))
    labels = ["|".join(n) for n in itertools.product(*partition.behaviors)]
    _check_distinct(labels, "policies")
    rows = sorted(
        zip(labels, distribution.masses.tolist(), chis.tolist(), strict=True),
        key=lambda row: (-row[1], row[0]),
    )
    lines = ["policy,mass,coherence_bits"]  # a float repr needs no quotes
    lines += [f"{_quote(label)},{mass!r},{chi!r}" for label, mass, chi in rows]
    return write_text(path, "\n".join(lines) + "\n")


def _metadata_lines(kind: str, record_meta: dict) -> list[str]:
    payload = json.dumps(_strict(record_meta), sort_keys=True, allow_nan=False)
    return [f"# kind={kind}", f"# meta={payload}"]


def write_trajectory_csv(
    path: str | Path,
    partition: ContextPartition,
    record: RunRecord,
) -> Path:
    """Round-by-round trajectory: resampled contexts, policy, coherence.

    The header comment lines carry the config echo and seed. Raises
    ValidationError, before anything is written, when two distinct visited
    policies, or two distinct changed sets, get one cell.
    """
    contexts = [partition.context_names[c] for c in record.contexts]
    meta = {
        "config": record.config.to_dict(),
        "seed": record.config.seed,
        "contexts": contexts,
        "prior": {
            partition.global_name(k): v
            for k, v in sorted(record.prior_counts.items())
        },
    }
    lines = _metadata_lines(record.kind, meta)
    lines.append(_csv_line(["round", "changed", "policy", "coherence_bits"]))
    # names looked up in lists built once, after behavior_name's range
    # check on the first bad entry in row order
    behaviors = [partition.behaviors[c] for c in record.contexts]
    trajectory = record.trajectory
    bad = np.argwhere((trajectory < 0) | (trajectory >= [len(b) for b in behaviors]))
    if bad.size:
        t, j = bad[0].tolist()
        partition.behavior_name(record.contexts[j], int(trajectory[t, j]))
    changed = [""] + _cells(
        record.moves.tolist(),
        lambda move: "|".join(map(contexts.__getitem__, move)),
        "changed sets",
    )
    policies = _cells(
        trajectory.tolist(),
        lambda row: "|".join(map(operator.getitem, behaviors, row)),
        "visited policies",
    )
    # _csv_line's line: an int and a float repr need no quotes
    lines.extend(
        f"{t},{changed[t]},{policy},{bits!r}"
        for t, (policy, bits) in enumerate(
            zip(policies, record.coherence_bits.tolist())
        )
    )
    return write_text(path, "\n".join(lines) + "\n")


def _cells(rows: list[list[int]], text, what: str) -> list[str]:
    """The CSV cell of text(row) per row, formatted once per distinct row (a
    trajectory revisits few policies). Keyed by the row itself: a mixed-radix
    index overflows int64 past 2**63 policies. Raises ValidationError when
    two distinct rows (of what) give one cell."""
    cells: dict[tuple[int, ...], str] = {}
    out = []
    for row in rows:
        key = tuple(row)
        cell = cells.get(key)
        if cell is None:
            cell = cells[key] = _csv_line([text(row)])
        out.append(cell)
    _check_distinct(list(cells.values()), what)
    return out


def _check_distinct(labels: list[str], what: str) -> None:
    """Raise ValidationError when two of labels, one per distinct row, are
    one string: names that hold '|' can join alike, and are not escaped."""
    if len(set(labels)) < len(labels):
        label = collections.Counter(labels).most_common(1)[0][0]
        raise ValidationError(
            f"two {what} are written as one label {label!r}: behavior or "
            "context names joined by '|' collide"
        )


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
        "seed": result.config.seed,
        "contexts": [partition.context_names[c] for c in result.contexts],
        "log2_mass": result.log2_mass,
    }
    lines = _metadata_lines("bootstrap", meta)
    lines.append(_csv_line(["step", "context", "behavior", "probability"]))
    for n, j in enumerate(result.order):
        context = result.contexts[j]
        behavior = partition.behavior_name(
            context, result.policy.assignment[j]
        )
        name = partition.context_names[context]
        lines.append(_csv_line((n, name, behavior, result.step_probabilities[n])))
    return write_text(path, "\n".join(lines) + "\n")
