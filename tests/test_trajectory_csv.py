"""write_trajectory_csv against a test-local formatter that writes one row at
a time from the record's numpy arrays, on names that need quoting."""

from __future__ import annotations

import json

import numpy as np
import pytest

from cohopt import (
    ContextPartition,
    DPolicy,
    PolicyState,
    SamplerConfig,
    debate_run,
    gibbs_run,
    random_mixture_system,
    training_friendly_gibbs_run,
    write_trajectory_csv,
)
from cohopt.errors import ValidationError

# a comma, a double quote and a "|" in context and behavior names alike
PARTITION = ContextPartition(
    ["left,hand", 'say "hi"', "a|b"],
    [
        ["x,1", 'y"2', "z|3"],
        ["plain", 'q,"r"', "s|t,u"],
        ['"', ",", "|"],
    ],
)


def _cell(value) -> str:
    text = repr(value) if isinstance(value, float) else str(value)
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _reference_csv(partition, record) -> bytes:
    names = partition.context_names
    meta = {
        "config": record.config.to_dict(),
        "seed": record.config.seed,
        "contexts": [names[c] for c in record.contexts],
        "prior": {
            partition.global_name(g): n for g, n in sorted(record.prior_counts.items())
        },
    }
    lines = [
        f"# kind={record.kind}",
        "# meta=" + json.dumps(meta, sort_keys=True, allow_nan=False),
        "round,changed,policy,coherence_bits",
    ]
    for t in range(len(record)):
        changed = (
            ""
            if t == 0
            else "|".join(names[record.contexts[int(j)]] for j in record.moves[t - 1])
        )
        policy = "|".join(
            partition.behaviors[record.contexts[j]][int(a)]
            for j, a in enumerate(record.trajectory[t])
        )
        cells = (t, changed, policy, float(record.coherence_bits[t]))
        lines.append(",".join(_cell(value) for value in cells))
    return ("\n".join(lines) + "\n").encode()


def _system():
    return random_mixture_system(PARTITION, 3, np.random.default_rng(600))


def _records():
    system = _system()
    start = DPolicy((0, 1, 2))
    prior = PolicyState({1: 2, 5: 1})
    yield gibbs_run(system, start, SamplerConfig(steps=1, seed=1))
    yield gibbs_run(system, start, SamplerConfig(steps=300, seed=2), prior=prior)
    yield gibbs_run(
        system, DPolicy((2, 0)), SamplerConfig(steps=40, seed=3), contexts=(2, 0)
    )
    yield training_friendly_gibbs_run(
        system, start, SamplerConfig(steps=1, seed=4, gamma=0.5)
    )
    yield training_friendly_gibbs_run(
        system, start, SamplerConfig(steps=200, seed=5, gamma=0.5, anchor_weight=0.5)
    )
    yield debate_run(system, SamplerConfig(steps=50, seed=6), contexts=(1, 2))


@pytest.mark.parametrize("index", range(6))
def test_trajectory_csv_matches_row_by_row_formatter(tmp_path, index):
    record = list(_records())[index]
    path = write_trajectory_csv(tmp_path / "trajectory.csv", PARTITION, record)
    assert path.read_bytes() == _reference_csv(PARTITION, record)


def test_one_step_run_quotes_its_names(tmp_path):
    record = next(_records())
    text = write_trajectory_csv(tmp_path / "t.csv", PARTITION, record).read_text()
    rows = text.splitlines()[3:]
    assert len(rows) == 2
    assert rows[0].startswith('0,,"x,1|q,""r""|')


def test_out_of_range_behavior_is_rejected_as_before(tmp_path):
    record = gibbs_run(_system(), DPolicy((0, 1, 2)), SamplerConfig(steps=5, seed=7))
    record.trajectory[3, 1] = 3
    record.trajectory[4, 0] = -1
    with pytest.raises(ValidationError, match="behavior index 3 out of range"):
        write_trajectory_csv(tmp_path / "t.csv", PARTITION, record)
    assert not (tmp_path / "t.csv").exists()
