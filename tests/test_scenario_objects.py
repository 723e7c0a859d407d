"""Every JSON object from outside goes through one check
(systems._check_object): a scenario file's top level, partition, each
context and system, and the mapping SamplerConfig.from_dict reads. An
unknown key at any level, an emission block with an extra context row, an
epsilon outside [0, 1) and a ground truth that is not a list of strings
raise ValidationError citing the key path, and the CLI exits 2 with
`error: <path>`. Valid files load to the arrays they state, bit for bit."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from cohopt import (
    SamplerConfig,
    ValidationError,
    from_joint_table,
    generic_partition,
    random_mixture_system,
)
from cohopt.cli import main
from cohopt.fileio import load_scenario, save_scenario

CONTEXT = {"name": "a", "behaviors": ["x", "y"]}
MIXTURE = {
    "type": "mixture",
    "latent_weights": [0.5, 0.5],
    "emissions": [[[0.9, 0.1]], [[0.2, 0.8]]],
}
JOINT = {"type": "joint_table", "table": [0.5, 0.5], "epsilon": 0.0}


def _scenario(system=MIXTURE, context=CONTEXT, **top) -> dict:
    return {"partition": {"contexts": [context]}, "system": system, **top}


# label: (payload, the key path its error starts with)
ESCAPES = {
    "emissions-extra-context-row": (
        _scenario({**MIXTURE, "emissions": [[[0.9, 0.1], [0.3, 0.7]], [[0.2, 0.8], [1.0]]]}),
        "system.emissions[0]",
    ),
    "emissions-extra-row-in-second-block": (
        _scenario({**MIXTURE, "emissions": [[[0.9, 0.1]], [[0.2, 0.8], [0.5, 0.5]]]}),
        "system.emissions[1]",
    ),
    "partition-unknown-key": (
        {"partition": {"contexts": [CONTEXT], "context": []}, "system": MIXTURE},
        "partition.context",
    ),
    "context-unknown-key": (
        _scenario(context={**CONTEXT, "behavior": "x"}), "partition.contexts[0].behavior"
    ),
    "second-context-unknown-key": (
        {
            "partition": {"contexts": [CONTEXT, {"name": "b", "behaviors": ["z"], "x": 1}]},
            "system": {**MIXTURE, "emissions": [[[0.9, 0.1], [1.0]], [[0.2, 0.8], [1.0]]]},
        },
        "partition.contexts[1].x",
    ),
    "mixture-unknown-key": (
        _scenario({**MIXTURE, "latent_weight": [1.0]}), "system.latent_weight"
    ),
    "mixture-epsilon": (_scenario({**MIXTURE, "epsilon": 0.1}), "system.epsilon"),
    "joint-unknown-key": (
        _scenario({**JOINT, "latent_weights": [1.0]}), "system.latent_weights"
    ),
    "joint-emissions": (
        _scenario({**JOINT, "emissions": [[[0.5, 0.5]]]}), "system.emissions"
    ),
    "epsilon-1.5": (_scenario({**JOINT, "epsilon": 1.5}), "system.epsilon"),
    "epsilon-negative": (_scenario({**JOINT, "epsilon": -0.1}), "system.epsilon"),
    "epsilon-nan": (_scenario({**JOINT, "epsilon": math.nan}), "system.epsilon"),
    "epsilon-true": (_scenario({**JOINT, "epsilon": True}), "system.epsilon"),
    "ground-truth-int": (
        {
            "partition": {"contexts": [{"name": "a", "behaviors": ["5", "y"]}]},
            "system": MIXTURE,
            "ground_truth": [5],
        },
        "ground_truth[0]",
    ),
}


def _write(tmp_path, payload):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("case", sorted(ESCAPES))
def test_load_scenario_raises_citing_the_key_path(tmp_path, case):
    payload, key_path = ESCAPES[case]
    with pytest.raises(ValidationError) as info:
        load_scenario(_write(tmp_path, payload))
    assert str(info.value).startswith(key_path), str(info.value)


@pytest.mark.parametrize("command", ["coherence", "enumerate"])
@pytest.mark.parametrize("case", sorted(ESCAPES))
def test_cli_exits_2_citing_the_key_path(tmp_path, command, case):
    payload, key_path = ESCAPES[case]
    path = _write(tmp_path, payload)
    args = ["--policy", "x"] if command == "coherence" else ["--out", str(tmp_path / "out")]
    result = CliRunner().invoke(main, [command, str(path), *args])
    assert result.exit_code == 2, result.output
    assert f"error: {key_path}" in result.output
    assert not (tmp_path / "out").exists()


def test_a_top_level_unknown_key_and_a_non_object_cite_their_paths(tmp_path):
    with pytest.raises(ValidationError, match=r"^nmae: unknown key$"):
        load_scenario(_write(tmp_path, _scenario(nmae="n")))
    with pytest.raises(ValidationError, match=r"^top level: must be an object$"):
        load_scenario(_write(tmp_path, [_scenario()]))
    with pytest.raises(ValidationError, match=r"^partition.contexts\[0\]: must be an object$"):
        load_scenario(_write(tmp_path, {"partition": {"contexts": [5]}, "system": MIXTURE}))


@pytest.mark.parametrize(
    "data, message",
    [
        ({"betta": 2.0}, r"^config\.betta: unknown key$"),
        ({"beta": 2.0, "step": 5}, r"^config\.step: unknown key$"),
        ([], r"^config: must be an object$"),
        (None, r"^config: must be an object$"),
    ],
)
def test_sampler_config_from_dict_rejects_unknown_keys_and_non_objects(data, message):
    with pytest.raises(ValidationError, match=message):
        SamplerConfig.from_dict(data)


def test_sampler_config_from_dict_reads_every_field_and_defaults_the_rest():
    config = SamplerConfig(beta=2.0, steps=7, seed=3, gamma=0.5, anchor_weight=0.25, burn_in=1)
    assert SamplerConfig.from_dict(config.to_dict()) == config
    assert SamplerConfig.from_dict({}) == SamplerConfig()
    assert SamplerConfig.from_dict({"beta": "inf", "seed": 4}) == SamplerConfig(
        beta=math.inf, seed=4
    )


def _assert_same_system(loaded, expected):
    assert loaded.partition == expected.partition
    assert np.array_equal(loaded.latent_weights, expected.latent_weights)
    for c in range(expected.partition.n_contexts):
        assert np.array_equal(loaded.emissions(c), expected.emissions(c))


def test_save_scenario_output_loads_bit_for_bit(tmp_path):
    partition = generic_partition([3, 2, 4])
    system = random_mixture_system(partition, 3, np.random.default_rng(11))
    truth = partition.policy_at(7)
    path = save_scenario(tmp_path / "saved.json", partition, system, truth, name="saved")
    loaded = load_scenario(path)
    _assert_same_system(loaded.system, system)
    assert loaded.ground_truth == truth


@pytest.mark.parametrize("epsilon", [None, 0.0, 0.05, 0])
def test_joint_tables_load_bit_for_bit(tmp_path, epsilon):
    rng = np.random.default_rng(3)
    table = rng.dirichlet([1.0] * 6).reshape(2, 3)
    system = {"type": "joint_table", "table": table.tolist()}
    if epsilon is not None:
        system["epsilon"] = epsilon
    payload = {
        "name": "joint",
        "description": "a 2 x 3 joint table",
        "partition": {"contexts": [
            {"name": "c0", "behaviors": ["a0", "a1"]},
            {"name": "c1", "behaviors": ["b0", "b1", "b2"]},
        ]},
        "system": system,
        "ground_truth": None,
    }
    loaded = load_scenario(_write(tmp_path, payload))
    expected = from_joint_table(loaded.partition, table, epsilon or 0.0)
    _assert_same_system(loaded.system, expected)
    assert loaded.ground_truth is None
