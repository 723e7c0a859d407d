"""The coherence gibbs_run records per step, which a chain with at least
as many steps as (state, position) keys keeps per key on first sight:
bitwise what a test-local per-step expression gives, on kept and inline
paths alike, and computed once per distinct key where it is kept."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cohopt import (
    Conditioned,
    DPolicy,
    SamplerConfig,
    from_joint_table,
    generate_scenario,
    generic_partition,
    gibbs_run,
    random_mixture_system,
)
from cohopt import samplers
from cohopt.systems import LN2

BETAS = (0.5, 1.0, 2.0, math.inf)
# just past samplers._DRAW_TABLE_CAP = 4096 policies
WIDE_SIZES = (3,) * 7 + (2,)


def _keys(sizes):
    """The (state, position) keys of a single-site chain over sizes."""
    return len(sizes) * math.prod(sizes)


def _mixture(sizes, n_latents, seed):
    rng = np.random.default_rng(seed)
    return random_mixture_system(
        generic_partition(sizes), n_latents, rng, emission_concentration=0.5
    )


def _sparse_joint():
    """A joint table at epsilon 0 with about a third of its cells zero, and
    a zero-mass start whose every position has a possible conditional."""
    sizes = (3, 3, 2)
    rng = np.random.default_rng(7)
    table = rng.random(math.prod(sizes))
    table[rng.random(table.size) < 0.35] = 0.0
    cube = table.reshape(sizes)
    start = next(
        cell for cell in np.ndindex(*sizes)
        if cube[cell] == 0.0
        and all(
            cube[cell[:j] + (slice(None),) + cell[j + 1 :]].any()
            for j in range(len(sizes))
        )
    )
    system = from_joint_table(generic_partition(sizes), table / table.sum(), 0.0)
    return system, DPolicy(tuple(int(a) for a in start)), None, None


def _study():
    """The study shape: a 6-context subset of 3^12, with the supervised
    labels as prior and the greedy start."""
    scenario = generate_scenario(12, 3, 2, seed=3)
    return (
        scenario.system, scenario._greedy_start, scenario.prior_state,
        scenario.unsupervised,
    )


def _dense():
    return _mixture((3, 3, 3), 2, 11), DPolicy((0, 1, 2)), None, None


def _past_cap():
    return _mixture(WIDE_SIZES, 3, 12), DPolicy((0,) * len(WIDE_SIZES)), None, None


# (name, make() -> (system, initial, prior, contexts), steps) per covered
# space: the first three keep each key's coherence (the study shape has
# 6 * 3^6 = 4,374 keys), the last computes every step's inline
SPACES = [
    ("dense", _dense, 600),
    ("study", _study, 4_400),
    ("sparse-joint", _sparse_joint, 400),
    ("past-cap", _past_cap, 300),
]


def _expected_bits(system, record, prior, contexts):
    """Row 0's coherence, then per step (top + ln p[a] - ln ML(prior)) / ln 2
    of the leave-one-out the step drew from, at the behavior it drew."""
    core = Conditioned(system, prior, contexts)
    bits = [core.coherence_bits(record.trajectory[0])]
    for t, (j,) in enumerate(record.moves.tolist()):
        p, top = core.leave_one_out(record.trajectory[t], j)
        a = int(record.trajectory[t + 1, j])
        bits.append((top + math.log(float(p[a])) - core.log_prior_ml) / LN2)
    return bits


@pytest.mark.parametrize("patch", [False, True])
@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("name,make,steps", SPACES, ids=[s[0] for s in SPACES])
def test_coherence_bits_match_per_step_expression(
    monkeypatch, patch, beta, name, make, steps
):
    system, initial, prior, contexts = make()
    if patch:
        # draw tables dropped past two entries; steps converted 7 at a time
        monkeypatch.setattr(samplers, "_DRAW_TABLE_CAP", 2)
        monkeypatch.setattr(samplers, "_STEP_BLOCK", 7)
    config = SamplerConfig(beta=beta, steps=steps, seed=5)
    record = gibbs_run(
        system, initial, config, prior=prior, contexts=contexts,
        check_positivity=False,
    )
    assert (_keys(record.sizes) <= steps) == (name != "past-cap")
    expected = _expected_bits(system, record, prior, contexts)
    assert [float(b).hex() for b in record.coherence_bits] == [b.hex() for b in expected]
    if name == "sparse-joint":
        assert record.coherence_bits[0] == -math.inf


class _CountingMath:
    """The math module, counting calls of log."""

    def __init__(self) -> None:
        self.logs = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def log(self, x):
        self.logs += 1
        return math.log(x)


def _count_logs(monkeypatch, system, steps):
    shim = _CountingMath()
    monkeypatch.setattr(samplers, "math", shim)
    start = DPolicy((0,) * system.partition.n_contexts)
    record = gibbs_run(
        system, start, SamplerConfig(steps=steps, seed=2), check_positivity=False
    )
    keys = set(zip(record.policy_indices()[1:].tolist(), record.moves[:, 0].tolist()))
    return shim.logs, len(keys)


@pytest.mark.parametrize(
    "sizes,steps",
    [((3, 3, 3), 3_000), ((4,) * 6, _keys((4,) * 6))],  # the latter: as many steps as keys
)
def test_chain_with_a_step_per_key_takes_one_log_per_visited_key(
    monkeypatch, sizes, steps
):
    logs, keys = _count_logs(monkeypatch, _mixture(sizes, 2, 13), steps)
    assert logs <= keys < steps


@pytest.mark.parametrize(
    "sizes,steps",
    [((3, 3, 3), _keys((3, 3, 3)) - 1), (WIDE_SIZES, 500)],
)
def test_chain_with_fewer_steps_than_keys_takes_one_log_per_step(
    monkeypatch, sizes, steps
):
    logs, _ = _count_logs(monkeypatch, _mixture(sizes, 2, 14), steps)
    assert logs == steps
