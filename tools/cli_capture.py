"""Run a fixed list of cohopt commands and keep everything they write.

    python3 tools/cli_capture.py OUT [--src SRC]

Each command runs in-process against the cohopt package under SRC (default:
the src/ directory next to this script) and writes into its own
subdirectory of OUT: the files the command writes, plus `stdout.txt` with the
exit code, stdout, stderr and each warning raised (its category, the file
it points at and its message), where the output directory is replaced by
`<out>`. A command that raises an exception other than SystemExit gets an
`exception=<type>: <message>` line there; the capture goes on, and exits 1
once every command has run. The scenario path in every `config.json` is cut
down to the file name, so two captures taken from two checkouts (say, a
change and its parent) compare byte for byte with

    diff -r OUT_PARENT OUT_CHANGE

The scenarios are the two under demos/scenarios/ next to this script.

`api-exact-masses/masses.txt` holds the repr of every mass of
bootstrap_exact_distribution (both visiting orders) and of
exact_conditional_distribution on both scenarios at each beta of
EXACT_BETAS, computed in-process, so a drift of one ulp in those masses
shows; demo 03 prints only distances from them, to 5 decimals.

`api-oracle/values.txt` holds the float.hex of every max_residual of
run_all_sweeps at each (cases, seed) of SWEEP_RUNS, then, on both
scenarios, the repr of infer() at every context and of sequence_coherence()
over every policy in context order, from the zero state and from each
prior of ORACLE_PRIORS; `cohopt check` prints its residuals to 4 digits.

`api-index-checks/outcomes.txt` holds one line per call of INDEX_PROBES,
each passing a non-integer (or unreachable) context, behavior, position or
policy index to a public function: `label -> ok <repr>` with the value it
returned, or `label -> <type>: <message>` with the exception it raised.

`api-contract/outcomes.txt` holds, in the same form, one line per call of
CONTRACT_PROBES, each passing a non-number (or NaN) real, a non-integer
size or bracket, an array with a string, numeric string, complex or None
entry, a ragged array, or a ragged policy assignment to a public function.

`api-split-checks/outcomes.txt` holds, in the same form, one line per
call of SPLIT_PROBES, each passing a Scenario split that repeats a context,
a ground truth or policy off its partition, a context subset with a repeated
index, or an unknown sign convention at an infinite optimality gap to a
public function, next to a valid call of each.

`api-step-bits/bits.txt` holds the float.hex of every coherence_bits row
of a STEP_BITS_STEPS-step gibbs_run at each beta of EXACT_BETAS, on a dense
3x3x3 two-latent mixture and on a joint table at epsilon 0 with zero cells,
so a drift of one ulp in a chain's per-step coherence shows.

`api-wide-bits/bits.txt` holds, in the same form, the float.hex of every
coherence_bits row of three chains on 40 contexts of 4 behaviors, whose
every step misses and folds one state's log numerators in
Conditioned.numerators (the api-step-bits chains read batched tables
instead): a WIDE_STEPS-step gibbs_run and a WIDE_ROUNDS-round
training_friendly_gibbs_run over 32 latents, and a WIDE_STEPS-step
gibbs_run over one latent, so a drift of one ulp in that fold shows.

`api-tempered-wide-bits/bits.txt` holds, in the same form, the float.hex
of every coherence_bits row of the 32-latent wide gibbs_run and
training_friendly_gibbs_run at beta 0.5, 2 and inf, and of a WIDE_STEPS-
round debate_run at beta 2 on two contexts of 80 behaviors (6,400 policies,
past the batched tables). api-wide-bits runs at beta 1 only, where a draw
table's weights are its masses; these chains build a separate masses list
on every miss, so a drift of one ulp there shows.

`api-slot-bits/bits.txt` holds, after a heading line per chain, one line
per trajectory row of gibbs_run chains on a dense 3x3x3 two-latent
mixture at each beta of EXACT_BETAS: its policy index and the float.hex of
its coherence_bits. The chains run at the edge of the slot table's gate,
with as many steps as (state, position) keys and with one step fewer, and
with SLOT_SYNC_STEPS steps under a numerator table budget
(samplers._BLOCK_ENTRIES) of SLOT_SYNC_ENTRIES, which folds no conditional
as a table, so that every miss of the slot table reads the chain's int64
state.

`api-scenario-checks/outcomes.txt` holds one line per scenario file of
SCENARIO_PROBES, loaded by load_scenario from a file named scenario.json:
`label -> ok`, or `label -> <type>: <message>` with the exception it
raised, where the file's directory is replaced by `<tmp>`. The files are
valid ones and malformed ones: an unknown key at every level, an emission
block with an extra context row, a bad epsilon, a ground truth that is not
a list of strings, and the shapes of the CLI tests' malformed scenarios.
Then, in the same form, one line per mapping of CONFIG_PROBES given to
SamplerConfig.from_dict.

`api-surface/names.txt` holds one line per public attribute of the
cohopt package: its name, then its `__module__`, or its type name where it
has none (a submodule or a constant).

Then each demo script in that demos/ directory runs in a subprocess, with
SRC on its PYTHONPATH, from a copy of demos/ in a temporary directory (as
tests/test_demos.py runs it), into `demo-<script name>/`: `stdout.txt` holds
its exit code, stdout and stderr, with the temporary directory replaced by
`<tmp>`, and `output/` the files it wrote but the `timings.csv` sidecars,
whose wall-clock times differ from run to run. A demo that exits nonzero
also makes the capture exit 1.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMO_DIR = ROOT / "demos"
SCENARIO_DIR = DEMO_DIR / "scenarios"
SCENARIOS = {
    "condiments": SCENARIO_DIR / "condiments.json",
    "smoothed": SCENARIO_DIR / "condiments_smoothed.json",
}
EXACT_BETAS = (0.5, 1.0, 2.0, math.inf)
SWEEP_RUNS = ((40, 0), (40, 1), (40, 2), (40, 3), (40, 4), (40, 5), (25, 0))
STEP_BITS_STEPS = 1000
WIDE_STEPS = 300
WIDE_ROUNDS = 100
SLOT_SYNC_STEPS = 600
SLOT_SYNC_ENTRIES = 8
# priors of the oracle capture: the ground truth's two labels, once and twice
ORACLE_PRIORS = (1, 2)
POLICIES = (
    "burger_mayo,fries_mayo",
    "burger_mustard,fries_ketchup",
    "burger_other,fries_mayo",
)
BOUNDS = {
    "uniform": ["--bound", "uniform", "--chi", "-1.7369656", "--n", "100", "--delta", "0.05"],
    "uniform-paper": ["--bound", "uniform", "--chi", "-3", "--n", "20", "--delta", "0.1", "--sign", "paper"],
    "accuracy": ["--bound", "accuracy", "--gap", "2", "--n", "100", "--delta", "0.05"],
    "regularization": ["--bound", "regularization", "--alpha", "0.8", "--entropy", "3", "--kl", "1", "--n", "100", "--delta", "0.05"],
    "sample-count": [
        "--bound", "sample-count", "--mean-pretrain-coh", "-2", "--mean-posttrain-coh", "-1",
        "--pretrain-error", "0.1", "--pretrain-count", "10",
    ],
    # non-finite values: these outputs change where bare NaN/Infinity were written
    "accuracy-nan": ["--bound", "accuracy", "--gap", "2", "--n", "10", "--delta", "0.1", "--sign", "paper"],
    "uniform-inf": ["--bound", "uniform", "--chi", "-inf", "--n", "10", "--delta", "0.1"],
}

# evaluated against INDEX_SETUP's names; the label of each line is its call
INDEX_SETUP = (
    "s = random_mixture_system(generic_partition([3, 3, 3]), 2, np.random.default_rng(0))\n"
    "p = s.partition\n"
    "zero = PolicyState()"
)
INDEX_PROBES = (
    "p.policy_at(2.5)",
    "p.policy_index([0.5, 1, 1])",
    "p.locate(1.5)",
    "gibbs_run(s, DPolicy((0, 0)), SamplerConfig(steps=2), contexts=[0.5, 1.5]).contexts",
    "exact_conditional_distribution(s, 1.0, contexts=[0.9, 1.9]).masses",
    "simple_bootstrap_run(s, [0.7, 1.2, 2.0], SamplerConfig()).order",
    'bootstrap_exact_distribution(s, ["0", "1", "2"], 1.0).masses',
    "srm_select(s, zero, None, [(0.9, 1.9)])",
    'bootstrap_exact_distribution(s, ["a", "b", "c"], 1.0).masses',
    "infer(s, zero, 0.5)",
    "p.global_index(0.5, 1)",
    "p.behavior_name(0, 1.5)",
    "check_chain_rule(s, zero, 0.5, 0, 1, 0)",
    "agreement(DPolicy((0, 1)), DPolicy((0, 1)), [0.5])",
    "check_prior_encodes_samples(s, DPolicy((0, 1, 2)), [0.5])",
    "quotient_coherence(s, QuotientSpec((0.5,), zero), {0.5: 1})",
    "sequence_coherence(s, zero, [(0, 0.5)])",
    "state_of_policy(p, DPolicy((0, 1, 2)), [5])",
    "state_of_policy(p, DPolicy((0,)))",
    "Scenario(s, DPolicy((0, 1, 2)), (0.0,), (1.0, 2.0), 0).supervised",
    "Scenario(s, DPolicy((0, 1, 2)), (0.0,), (1.0, 2.0), 0).prior_state",
)

# evaluated as INDEX_PROBES are
CONTRACT_PROBES = (
    'temper(np.array([0.2, 0.8]), "1")',
    'tempered_infer(s, zero, 0, "x")',
    'softmax_over_coherence(s, "x").masses',
    'gibbs_step_probability(s, DPolicy((0, 0, 0)), DPolicy((0, 0, 1)), "x")',
    'exact_conditional_distribution(s, "x").masses',
    'bootstrap_exact_distribution(s, [0, 1, 2], "x").masses',
    'SamplerConfig(gamma="0.5")',
    'from_joint_table(p, np.full(27, 1 / 27), "a")',
    'random_mixture_system(p, 2, np.random.default_rng(0), "a")',
    'generate_scenario(4, 3, 2, label_noise="a")',
    'generate_scenario(4, 3, 2, unsupervised_fraction="a")',
    'generate_scenario(4, 3, 2, emission_concentration="a")',
    'generate_scenario(4, 3, 2, truth_beta="a")',
    'uniform_convergence_bound("x", 10, 0.1)',
    'uniform_convergence_bound("-1", 10, 0.1)',
    'uniform_convergence_bound(-1.0, 10, "x")',
    'srm_select(s, zero, None, [], delta="x")',
    'equivalence_study([1], [0], n_contexts=3, delta="x")',
    'accuracy_lower_bound("x", 10, 0.1)',
    'accuracy_lower_bound(float("nan"), 10, 0.1)',
    'conjectured_posttrain_count(1.0, -1.0, "x", 10)',
    'regularization_bound_rhs(0.5, "x", 0.1, 10, 0.1)',
    'regularization_bound_rhs(0.5, 1.0, float("nan"), 10, 0.1)',
    'sweep_chain_rule(2, 0, "x").passed',
    "generic_partition([2.5])",
    'ternary_search_sample_count(lambda n: -n, "1", 10)',
    'MixtureBayesSystem(p, "ab", [np.full((2, 3), 1 / 3)] * 3)',
    'temper("x", 1.0)',
    'temper(np.array(["0.5", "0.5"]), 1.0)',
    "temper(np.array([0.5 + 0j, 0.5 + 0j]), 1.0)",
    "temper([[0.5], [0.25, 0.25]], 1.0)",
    'PolicyDistribution([0.5, "a"]).masses',
    "PolicyDistribution([0.5, None]).masses",
    'from_joint_table(p, "x")',
    "from_joint_table(p, np.full(27, 1 / 27) + 0j)",
    "MixtureBayesSystem(p, [0.5, 0.5j], [np.full((2, 3), 1 / 3)] * 3)",
    'MixtureBayesSystem(p, [0.5, 0.5], [[["0.5", 0.25, 0.25]] * 2] * 3)',
    "coherence(s, zero, DPolicy(((0, 1), 0, 0)))",
    "gibbs_run(s, DPolicy(((0, 1), 0, 0)), SamplerConfig(steps=2))",
    "mutual_predictability(s, DPolicy(((0, 1), 0, 0)))",
    "srm_select(s, zero, [DPolicy(((0, 1), 0, 0))], [])",
)

# evaluated as INDEX_PROBES are
SPLIT_PROBES = (
    "Scenario(s, DPolicy((0, 1, 2)), (0, 0), (1, 2), 0).prior_state",
    "Scenario(s, DPolicy((0, 1, 2)), (0, 1), (1, 1, 2), 0).prior_state",
    "Scenario(s, DPolicy((0, 1, 2)), (2, 0), (1,), 0).prior_state",
    'run_semi_supervised(Scenario(s, DPolicy((0, 1)), (0,), (1, 2), 0), "erm").accuracy',
    'run_semi_supervised(Scenario(s, DPolicy((9, 0, 0)), (0,), (1, 2), 0), "erm").accuracy',
    "Scenario(s, DPolicy((0, 1, 2, 0)), (0,), (1, 2), 0).labels",
    "p.policy_names(DPolicy((9, 0, 0)))",
    "p.policy_names(DPolicy((0,)))",
    "p.policy_names(DPolicy((0, 1, 2)))",
    "scenario_to_dict(p, s, DPolicy((9, 0, 0)))",
    "agreement(DPolicy((0, 1, 2)), DPolicy((0, 0, 0)), [0, 0, 1])",
    "agreement(DPolicy((0, 1, 2)), DPolicy((0, 0, 0)), [2, 0, 1])",
    'accuracy_lower_bound(float("inf"), 10, 0.1, "bogus")',
    'accuracy_lower_bound(float("-inf"), 10, 0.1, "bogus")',
    'accuracy_lower_bound(float("inf"), 10, 0.1, "paper")',
)

# one context over behaviors x and y, and a system of each type on it
_CONTEXT = {"name": "a", "behaviors": ["x", "y"]}
_MIXTURE = {"type": "mixture", "latent_weights": [0.5, 0.5], "emissions": [[[0.9, 0.1]], [[0.2, 0.8]]]}
_JOINT = {"type": "joint_table", "table": [0.5, 0.5], "epsilon": 0.0}


def _scenario(system=_MIXTURE, context=_CONTEXT, **top) -> dict:
    return {"partition": {"contexts": [context]}, "system": system, **top}


SCENARIO_PROBES = {
    "mixture": _scenario(),
    "joint": _scenario(_JOINT),
    "joint-no-epsilon": _scenario({"type": "joint_table", "table": [0.5, 0.5]}),
    "name-description-null-truth": _scenario(name="n", description="d", ground_truth=None),
    "truth": _scenario(ground_truth=["y"]),
    "top-level-list": [],
    "top-level-unknown-key": _scenario(extra=1),
    "top-level-no-system": {"partition": {"contexts": [_CONTEXT]}},
    "partition-unknown-key": {"partition": {"contexts": [_CONTEXT], "extra": 1}, "system": _MIXTURE},
    "partition-no-contexts": {"partition": {}, "system": _MIXTURE},
    "contexts-empty": {"partition": {"contexts": []}, "system": _MIXTURE},
    "context-unknown-key": _scenario(context={**_CONTEXT, "extra": 1}),
    "context-no-behaviors": _scenario(context={"name": "a"}),
    "context-repeated-behavior": _scenario(context={"name": "a", "behaviors": ["x", "x"]}),
    "system-no-type": _scenario({"table": [0.5, 0.5]}),
    "system-type-unknown": _scenario({"type": "table"}),
    "mixture-unknown-key": _scenario({**_MIXTURE, "latent_weight": [1.0]}),
    "mixture-epsilon": _scenario({**_MIXTURE, "epsilon": 0.1}),
    "mixture-no-emissions": _scenario({"type": "mixture", "latent_weights": [1.0]}),
    "joint-unknown-key": _scenario({**_JOINT, "latent_weights": [1.0]}),
    "emissions-extra-context-row": _scenario(
        {**_MIXTURE, "emissions": [[[0.9, 0.1], [0.3, 0.7]], [[0.2, 0.8], [1.0]]]}
    ),
    "emissions-missing-context-row": _scenario({**_MIXTURE, "emissions": [[[0.9, 0.1]], []]}),
    "emissions-one-block": _scenario({**_MIXTURE, "emissions": [[[0.9, 0.1]]]}),
    "emissions-row-sum": _scenario({**_MIXTURE, "emissions": [[[0.9, 0.2]], [[0.2, 0.8]]]}),
    "weights-sum": _scenario({**_MIXTURE, "latent_weights": [0.5, 0.6]}),
    "weights-empty": _scenario({**_MIXTURE, "latent_weights": []}),
    "table-shape": _scenario({**_JOINT, "table": [0.5, 0.25, 0.25]}),
    "epsilon-1.5": _scenario({**_JOINT, "epsilon": 1.5}),
    "epsilon--0.1": _scenario({**_JOINT, "epsilon": -0.1}),
    "epsilon-nan": _scenario({**_JOINT, "epsilon": math.nan}),
    "epsilon-true": _scenario({**_JOINT, "epsilon": True}),
    "ground-truth-int": {
        "partition": {"contexts": [{"name": "a", "behaviors": ["5", "y"]}]},
        "system": _MIXTURE,
        "ground_truth": [5],
    },
    "ground-truth-unknown-name": _scenario(ground_truth=["z"]),
    "ground-truth-too-long": _scenario(ground_truth=["x", "y"]),
    # the shapes of MALFORMED_SCENARIOS in tests/test_cli.py
    "epsilon-string": _scenario({**_JOINT, "epsilon": "abc"}),
    "epsilon-null": _scenario({**_JOINT, "epsilon": None}),
    "weights-number": _scenario({**_MIXTURE, "latent_weights": 5}),
    "weights-string": _scenario({**_MIXTURE, "latent_weights": "ab"}),
    "weights-strings": _scenario({**_MIXTURE, "latent_weights": ["a", "b"]}),
    "emissions-number": _scenario({**_MIXTURE, "emissions": 5}),
    "emissions-block-object": _scenario({**_MIXTURE, "emissions": [[[0.9, 0.1]], {}]}),
    "behavior-null": _scenario(context={"name": "a", "behaviors": ["x", None]}),
    "context-name-list": _scenario(context={"name": ["x"], "behaviors": ["x", "y"]}),
    "partition-number": {"partition": 5, "system": _MIXTURE},
    "system-number": _scenario(5),
    "ground-truth-string": _scenario(ground_truth="x"),
}
CONFIG_PROBES = ({"betta": 2.0}, [], {"beta": "inf", "steps": 3}, {})


def commands() -> list[tuple[str, list[str], bool]]:
    """(name, arguments, writes into --out) for every captured command."""
    out: list[tuple[str, list[str], bool]] = []
    for tag, path in SCENARIOS.items():
        scenario = str(path)
        for method in ("gibbs", "tf-gibbs", "debate", "bootstrap", "icm"):
            out.append((f"{tag}-run-{method}", ["run", scenario, "--method", method, "--steps", "400", "--seed", "3"], True))
        for weight in ("0.5", "1"):
            out.append((
                f"{tag}-run-tf-gibbs-anchor{weight}",
                ["run", scenario, "--method", "tf-gibbs", "--steps", "300", "--seed", "5", "--anchor-weight", weight],
                True,
            ))
        for method in ("gibbs", "bootstrap"):
            out.append((
                f"{tag}-run-{method}-beta-inf",
                ["run", scenario, "--method", method, "--steps", "200", "--seed", "2", "--beta", "inf"],
                True,
            ))
        # finite beta other than 1: the tempered draw tables; the unsmoothed
        # scenario's zero masses give rows with zero entries
        tempered = [
            ("2", method, ()) for method in ("gibbs", "tf-gibbs", "debate", "bootstrap")
        ]
        tempered += [
            ("2", "tf-gibbs", ("--anchor-weight", "0.5")),
            ("0.5", "gibbs", ()),
            ("0.5", "tf-gibbs", ()),
        ]
        for beta, method, extra in tempered:
            suffix = "-anchor0.5" if extra else ""
            out.append((
                f"{tag}-run-{method}{suffix}-beta-{beta}",
                ["run", scenario, "--method", method, "--steps", "300", "--seed", "6", "--beta", beta, *extra],
                True,
            ))
        out.append((
            f"{tag}-run-bootstrap-order",
            ["run", scenario, "--method", "bootstrap", "--seed", "4", "--order", "fries,burger"],
            True,
        ))
        for beta in ("0.5", "1", "inf"):
            out.append((f"{tag}-enumerate-beta-{beta}", ["enumerate", scenario, "--beta", beta], True))
        for n, policy in enumerate(POLICIES):
            out.append((f"{tag}-coherence-{n}", ["coherence", scenario, "--policy", policy], False))
    out.append(("equiv", ["equiv", "--lattice", "0,1,2,3", "--n-seeds", "2", "--n-contexts", "4"], True))
    out.append((
        "equiv-truth-beta-inf",
        ["equiv", "--lattice", "0,1,2,3", "--n-seeds", "2", "--n-contexts", "4", "--truth-beta", "inf"],
        True,
    ))
    # past 4 contexts: both branches of the truth draw on a 3^8 space
    for beta in ("inf", "2"):
        out.append((
            f"equiv-8-truth-beta-{beta}",
            ["equiv", "--lattice", "0,2,4", "--n-seeds", "2", "--n-contexts", "8", "--truth-beta", beta],
            True,
        ))
    # 3^11 policies × 2 latents outgrow one enumeration block: the beta = inf
    # truth comes from the pruned tie search
    out.append((
        "equiv-11-truth-beta-inf",
        ["equiv", "--lattice", "1,6", "--n-seeds", "2", "--n-contexts", "11", "--truth-beta", "inf"],
        True,
    ))
    out.append(("mc", ["mc", "--trials", "200", "--seed", "1"], True))
    # two chunk boundaries of the stacked trials, at non-default arguments
    out.append((
        "mc-997-delta-0.01",
        ["mc", "--trials", "130", "--seed", "5", "--n-train", "997", "--delta", "0.01"],
        True,
    ))
    out.append(("check", ["check", "--cases", "20"], False))
    for name, args in BOUNDS.items():
        out.append((f"bounds-{name}", ["bounds", *args], True))
    # bad input exits 2 and writes no output file
    condiments = str(SCENARIOS["condiments"])
    out.append(("run-seed-negative", ["run", condiments, "--steps", "5", "--seed", "-1"], True))
    out.append(("mc-seed-negative", ["mc", "--trials", "3", "--seed", "-1"], True))
    out.append(("equiv-empty-lattice", ["equiv", "--lattice", ",", "--n-contexts", "4"], True))
    out.append(("check-seed-negative", ["check", "--cases", "2", "--seed", "-1"], False))
    return out


def exact_mass_lines() -> list[str]:
    """A heading line per exact distribution, then the repr of each of its
    masses in policy-index order."""
    cohopt = importlib.import_module("cohopt")
    lines = []
    for tag, path in SCENARIOS.items():
        system = cohopt.load_scenario(path).system
        forward = list(range(system.partition.n_contexts))
        for beta in EXACT_BETAS:
            tables = {
                f"bootstrap order={order}": cohopt.bootstrap_exact_distribution(
                    system, order, beta
                )
                for order in (forward, forward[::-1])
            }
            tables["exact_conditional"] = cohopt.exact_conditional_distribution(
                system, beta
            )
            for name, distribution in tables.items():
                lines.append(f"{tag} beta={beta!r} {name}")
                lines += map(repr, distribution.masses.tolist())
    return lines


def oracle_lines() -> list[str]:
    """A heading line per sweep run, then the float.hex of each residual;
    then per scenario and state, the repr of every infer() and
    sequence_coherence() value (or of the exception it raised)."""
    cohopt = importlib.import_module("cohopt")
    lines = []
    for cases, seed in SWEEP_RUNS:
        lines.append(f"run_all_sweeps cases={cases} seed={seed}")
        lines += (
            f"{result.name} {result.max_residual.hex()}"
            for result in cohopt.run_all_sweeps(cases, seed)
        )
    for tag, path in SCENARIOS.items():
        scenario = cohopt.load_scenario(path)
        system = scenario.system
        partition = system.partition
        truth = cohopt.state_of_policy(partition, scenario.ground_truth)
        states = {"zero": cohopt.PolicyState.zero()}
        for n in ORACLE_PRIORS:
            states[f"truth x{n}"] = cohopt.PolicyState(
                {key: n * count for key, count in truth.counts.items()}
            )
        for label, state in states.items():
            lines.append(f"{tag} state={label} {state!r}")
            for c in range(partition.n_contexts):
                lines.append(f"infer {c} {_value(cohopt.infer, system, state, c)}")
            for policy in partition.iter_policies():
                pairs = list(enumerate(policy.assignment))
                value = _value(cohopt.sequence_coherence, system, state, pairs)
                lines.append(f"sequence {policy.assignment} {value}")
    return lines


def probe_lines(probes: tuple[str, ...]) -> list[str]:
    """`label -> ok <repr>` or `label -> <type>: <message>` per probe, each
    evaluated against INDEX_SETUP's names."""
    cohopt = importlib.import_module("cohopt")
    names = {"np": importlib.import_module("numpy"), **vars(cohopt)}
    exec(INDEX_SETUP, names)
    lines = []
    for label in probes:
        try:
            value = eval(label, names)
        except Exception as exc:
            lines.append(f"{label} -> {type(exc).__name__}: {exc}")
            continue
        value = value.tolist() if hasattr(value, "tolist") else value
        lines.append(f"{label} -> ok {value!r}")
    return lines


def scenario_check_lines() -> list[str]:
    """`label -> ok` or `label -> <type>: <message>` per scenario file of
    SCENARIO_PROBES, then per mapping of CONFIG_PROBES."""
    cohopt = importlib.import_module("cohopt")
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        for label, payload in SCENARIO_PROBES.items():
            path.write_text(json.dumps(payload))
            outcome = _outcome(cohopt.load_scenario, path)
            lines.append(f"{label} -> {outcome.replace(tmp, '<tmp>')}")
    for data in CONFIG_PROBES:
        outcome = _outcome(cohopt.SamplerConfig.from_dict, data)
        lines.append(f"SamplerConfig.from_dict({data!r}) -> {outcome}")
    return lines


def _outcome(function, *args) -> str:
    """`ok`, or `<type>: <message>` of the exception function(*args) raised."""
    try:
        function(*args)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return "ok"


def step_bits_lines() -> list[str]:
    """A heading line per chain, then the float.hex of each coherence_bits
    row."""
    cohopt = importlib.import_module("cohopt")
    np = importlib.import_module("numpy")
    rng = np.random.default_rng(5)
    dense = cohopt.random_mixture_system(cohopt.generic_partition([3, 3, 3]), 2, rng)
    table = rng.random(18) * (rng.random(18) > 0.35)
    table[0] = 1.0  # the chains start at policy 0
    sparse = cohopt.from_joint_table(
        cohopt.generic_partition([3, 3, 2]), table / table.sum(), 0.0
    )
    lines = []
    for tag, system in (("dense", dense), ("sparse-joint", sparse)):
        for beta in EXACT_BETAS:
            config = cohopt.SamplerConfig(beta=beta, steps=STEP_BITS_STEPS, seed=7)
            record = cohopt.gibbs_run(
                system, cohopt.DPolicy((0, 0, 0)), config, check_positivity=False
            )
            lines.append(f"{tag} beta={beta!r}")
            lines += map(float.hex, record.coherence_bits.tolist())
    return lines


def wide_bits_lines() -> list[str]:
    """A heading line per wide chain, then the float.hex of each
    coherence_bits row."""
    cohopt = importlib.import_module("cohopt")
    np = importlib.import_module("numpy")
    rng = np.random.default_rng(9)
    partition = cohopt.generic_partition([4] * 40)
    wide = cohopt.random_mixture_system(partition, 32, rng)
    single = cohopt.random_mixture_system(partition, 1, rng)
    start = partition.policy_at(0)
    chains = (
        ("gibbs latents=32", cohopt.gibbs_run, wide, WIDE_STEPS, 0.0),
        ("tf-gibbs latents=32", cohopt.training_friendly_gibbs_run, wide, WIDE_ROUNDS, 0.5),
        ("gibbs latents=1", cohopt.gibbs_run, single, WIDE_STEPS, 0.0),
    )
    lines = []
    for tag, run, system, steps, anchor in chains:
        config = cohopt.SamplerConfig(steps=steps, seed=3, anchor_weight=anchor)
        record = run(system, start, config, check_positivity=False)
        lines.append(tag)
        lines += map(float.hex, record.coherence_bits.tolist())
    return lines


def tempered_wide_bits_lines() -> list[str]:
    """A heading line per chain, then the float.hex of each coherence_bits
    row."""
    cohopt = importlib.import_module("cohopt")
    np = importlib.import_module("numpy")
    rng = np.random.default_rng(11)
    partition = cohopt.generic_partition([4] * 40)
    wide = cohopt.random_mixture_system(partition, 32, rng)
    pair = cohopt.random_mixture_system(cohopt.generic_partition([80, 80]), 32, rng)
    start = partition.policy_at(0)
    lines = []
    for beta in (0.5, 2.0, math.inf):
        for tag, run, steps, anchor in (
            ("gibbs", cohopt.gibbs_run, WIDE_STEPS, 0.0),
            ("tf-gibbs", cohopt.training_friendly_gibbs_run, WIDE_ROUNDS, 0.5),
        ):
            config = cohopt.SamplerConfig(
                beta=beta, steps=steps, seed=3, anchor_weight=anchor
            )
            record = run(wide, start, config, check_positivity=False)
            lines.append(f"{tag} latents=32 beta={beta!r}")
            lines += map(float.hex, record.coherence_bits.tolist())
    config = cohopt.SamplerConfig(beta=2.0, steps=WIDE_STEPS, seed=3)
    record = cohopt.debate_run(pair, config, check_positivity=False)
    lines.append("debate 80x80 latents=32 beta=2.0")
    lines += map(float.hex, record.coherence_bits.tolist())
    return lines


def slot_bits_lines() -> list[str]:
    """A heading line per chain, then each trajectory row's policy index
    and the float.hex of its coherence_bits."""
    cohopt = importlib.import_module("cohopt")
    samplers = importlib.import_module("cohopt.samplers")
    np = importlib.import_module("numpy")
    rng = np.random.default_rng(13)
    system = cohopt.random_mixture_system(cohopt.generic_partition([3, 3, 3]), 2, rng)
    keys = 3 * 27
    entries = samplers._BLOCK_ENTRIES
    lines = []
    for tag, steps, budget in (
        ("keys", keys, entries),
        ("keys+1", keys - 1, entries),
        (f"synced entries={SLOT_SYNC_ENTRIES}", SLOT_SYNC_STEPS, SLOT_SYNC_ENTRIES),
    ):
        for beta in EXACT_BETAS:
            config = cohopt.SamplerConfig(beta=beta, steps=steps, seed=7)
            samplers._BLOCK_ENTRIES = budget
            try:
                record = cohopt.gibbs_run(
                    system, cohopt.DPolicy((0, 1, 2)), config, check_positivity=False
                )
            finally:
                samplers._BLOCK_ENTRIES = entries
            lines.append(f"{tag} steps={steps} beta={beta!r}")
            lines += [
                f"{index} {bits.hex()}"
                for index, bits in zip(
                    record.policy_indices().tolist(), record.coherence_bits.tolist()
                )
            ]
    return lines


def _value(function, *args) -> str:
    """repr of function(*args), a float array as a list; or the exception."""
    try:
        value = function(*args)
    except Exception as exc:
        return f"exception={type(exc).__name__}: {exc}"
    return repr(value.tolist() if hasattr(value, "tolist") else value)


def capture_lines(out: Path, name: str, file: str, lines_of) -> list[str]:
    """Write name/file from lines_of(); [name] when it raised (the file then
    holds the exception), else []."""
    directory = out / name
    directory.mkdir(parents=True, exist_ok=True)
    try:
        lines, failed = lines_of(), []
    except Exception as exc:
        lines, failed = [f"exception={type(exc).__name__}: {exc}"], [name]
    (directory / file).write_text("\n".join(lines) + "\n")
    print(f"{name}: {'crashed' if failed else 'written'}")
    return failed


def surface_lines() -> list[str]:
    """One line per public attribute of the cohopt package: its name, then
    its __module__, or its type name where it has none."""
    cohopt = importlib.import_module("cohopt")
    lines = []
    for name in dir(cohopt):
        if not name.startswith("_"):
            value = getattr(cohopt, name)
            module = getattr(value, "__module__", None) or type(value).__name__
            lines.append(f"{name} {module}")
    return lines


def run_demos(out: Path, src: Path) -> list[str]:
    """Capture every demo script; the names of those that exited nonzero."""
    failed = []
    for script in sorted(DEMO_DIR.glob("*.py")):
        name = f"demo-{script.stem}"
        directory = out / name
        directory.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp) / "demos"
            shutil.copytree(DEMO_DIR, copy, ignore=shutil.ignore_patterns("output"))
            result = subprocess.run(
                [sys.executable, str(copy / script.name)],
                cwd=tmp,
                env={**os.environ, "PYTHONPATH": str(src)},
                capture_output=True,
                text=True,
            )
            text = f"exit={result.returncode}\n{result.stdout}{result.stderr}"
            (directory / "stdout.txt").write_text(text.replace(tmp, "<tmp>"))
            if (copy / "output").is_dir():
                shutil.copytree(
                    copy / "output",
                    directory / "output",
                    ignore=shutil.ignore_patterns("timings.csv"),
                    dirs_exist_ok=True,
                )
        if result.returncode != 0:
            failed.append(name)
        print(f"{name}: exit {result.returncode}")
    return failed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--src", type=Path, default=ROOT / "src")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    cli = importlib.import_module("cohopt.cli")
    if not Path(cli.__file__).resolve().is_relative_to(args.src.resolve()):
        raise SystemExit(f"imported cohopt from {cli.__file__}, not from {args.src}")
    from click.testing import CliRunner

    runner = CliRunner()
    crashed = []
    for name, argv, writes in commands():
        directory = args.out / name
        directory.mkdir(parents=True, exist_ok=True)
        if writes:
            argv = [*argv, "--out", str(directory)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(cli.main, argv)
        text = f"exit={result.exit_code}\n{result.stdout}{result.stderr}"
        if result.exception is not None and not isinstance(result.exception, SystemExit):
            crashed.append(name)
            text += f"exception={type(result.exception).__name__}: {result.exception}\n"
        for w in caught:  # where a warning points, without the line number
            text += f"{w.category.__name__} in {Path(w.filename).name}: {w.message}\n"
        (directory / "stdout.txt").write_text(text.replace(str(directory), "<out>"))
        config = directory / "config.json"
        if config.is_file():
            config.write_text(config.read_text().replace(f"{SCENARIO_DIR}/", ""))
        print(f"{name}: exit {result.exit_code}")
    crashed += capture_lines(args.out, "api-surface", "names.txt", surface_lines)
    crashed += capture_lines(args.out, "api-exact-masses", "masses.txt", exact_mass_lines)
    crashed += capture_lines(args.out, "api-oracle", "values.txt", oracle_lines)
    crashed += capture_lines(
        args.out, "api-index-checks", "outcomes.txt", lambda: probe_lines(INDEX_PROBES)
    )
    crashed += capture_lines(
        args.out, "api-contract", "outcomes.txt", lambda: probe_lines(CONTRACT_PROBES)
    )
    crashed += capture_lines(
        args.out, "api-split-checks", "outcomes.txt", lambda: probe_lines(SPLIT_PROBES)
    )
    crashed += capture_lines(
        args.out, "api-scenario-checks", "outcomes.txt", scenario_check_lines
    )
    crashed += capture_lines(args.out, "api-step-bits", "bits.txt", step_bits_lines)
    crashed += capture_lines(args.out, "api-wide-bits", "bits.txt", wide_bits_lines)
    crashed += capture_lines(
        args.out, "api-tempered-wide-bits", "bits.txt", tempered_wide_bits_lines
    )
    crashed += capture_lines(args.out, "api-slot-bits", "bits.txt", slot_bits_lines)
    crashed += run_demos(args.out, args.src.resolve())
    if crashed:
        raise SystemExit(f"crashed or exited nonzero: {', '.join(crashed)}")


if __name__ == "__main__":
    main()
