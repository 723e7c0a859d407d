"""write_trajectory_csv, which formats each distinct policy and changed set
once, against a test-local copy of the loop that formatted every row, byte
for byte: on a 40-context gibbs record whose rows never repeat, and on
unsmoothed-condiments records with -inf coherences, repeated rows and names
that need quoting."""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from cohopt import (
    ContextPartition,
    DPolicy,
    MixtureBayesSystem,
    PositivityWarning,
    SamplerConfig,
    debate_run,
    generic_partition,
    gibbs_run,
    load_scenario,
    random_mixture_system,
    training_friendly_gibbs_run,
    write_trajectory_csv,
)
from cohopt.fileio import _metadata_lines

CONDIMENTS = Path(__file__).resolve().parent.parent / "demos" / "scenarios" / "condiments.json"

# the condiments contexts and behaviors, renamed to need quoting
QUOTED = ContextPartition(
    ['burger, "big"', "fries|side"],
    [
        ['mayo,"real"', "mustard", 'other "b"'],
        ["f|mayo", "ketchup,", "fries other"],
    ],
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) or isinstance(value, np.floating):
        return repr(float(value))
    return str(value)


def _csv_line(values) -> str:
    cells = []
    for value in values:
        cell = _fmt(value)
        if "," in cell or '"' in cell or "\n" in cell or "\r" in cell:
            cell = '"' + cell.replace('"', '""') + '"'
        cells.append(cell)
    return ",".join(cells)


def _reference_text(partition, record) -> str:
    """The writer as it was: one join and one _csv_line per row."""
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
    behaviors = [partition.behaviors[c] for c in record.contexts]
    changed = [""] + [
        "|".join(contexts[j] for j in move) for move in record.moves.tolist()
    ]
    for t, (row, bits) in enumerate(
        zip(record.trajectory.tolist(), record.coherence_bits.tolist())
    ):
        policy = "|".join(names[a] for names, a in zip(behaviors, row))
        lines.append(_csv_line((t, changed[t], policy, bits)))
    return "\n".join(lines) + "\n"


def _assert_same_bytes(tmp_path, partition, record):
    path = write_trajectory_csv(tmp_path / "trajectory.csv", partition, record)
    assert path.read_bytes() == _reference_text(partition, record).encode()


def _distinct_rows(record):
    rows = [tuple(row) for row in record.trajectory.tolist()]
    return len(set(rows)), len(rows)


def test_wide_gibbs_record_whose_rows_never_repeat(tmp_path):
    partition = generic_partition((4,) * 40)
    system = random_mixture_system(partition, 32, np.random.default_rng(11))
    record = gibbs_run(system, DPolicy((0,) * 40), SamplerConfig(steps=600, seed=3))
    # keep each row's first visit, with the move that reached it
    seen: set[tuple[int, ...]] = set()
    keep = []
    for t, row in enumerate(record.trajectory.tolist()):
        if tuple(row) not in seen:
            seen.add(tuple(row))
            keep.append(t)
    keep = np.array(keep)
    record = dataclasses.replace(
        record,
        trajectory=record.trajectory[keep],
        coherence_bits=record.coherence_bits[keep],
        moves=record.moves[keep[1:] - 1],
    )
    distinct, rows = _distinct_rows(record)
    assert distinct == rows > 300
    _assert_same_bytes(tmp_path, partition, record)


def _unsmoothed_condiments():
    system = load_scenario(CONDIMENTS).system
    return MixtureBayesSystem(
        QUOTED, system.latent_weights, [system.emissions(c) for c in range(2)]
    )


@pytest.mark.parametrize("seed", range(4))
def test_unsmoothed_condiments_gibbs_at_half_beta(tmp_path, seed):
    system = _unsmoothed_condiments()
    config = SamplerConfig(beta=0.5, steps=400, seed=seed)
    # (mustard, mayo) has zero mass; the chain leaves it at its first move
    with pytest.warns(PositivityWarning):
        record = gibbs_run(system, DPolicy((1, 0)), config)
    assert record.coherence_bits[0] == -math.inf
    distinct, rows = _distinct_rows(record)
    assert distinct < rows
    _assert_same_bytes(tmp_path, QUOTED, record)


@pytest.mark.parametrize("run", ["tf-gibbs", "debate"])
def test_unsmoothed_condiments_multi_context_moves(tmp_path, run):
    system = _unsmoothed_condiments()
    config = SamplerConfig(beta=0.5, steps=300, seed=5, gamma=0.5)
    with pytest.warns(PositivityWarning):
        if run == "tf-gibbs":
            record = training_friendly_gibbs_run(system, DPolicy((0, 1)), config)
        else:
            record = debate_run(system, config)
    _assert_same_bytes(tmp_path, QUOTED, record)
