"""Randomized identity sweeps over seeded random systems.

Each sweep draws fresh positive systems and random inputs, evaluates one of
the exact identities the mixture implementation must satisfy, and returns the
worst residual seen. All sweeps are deterministic per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherence import (
    check_change_of_prior,
    check_prior_encodes_samples,
    sequence_coherence,
)
from .systems import (
    DPolicy,
    MixtureBayesSystem,
    PolicyState,
    _check_int,
    _check_real,
    check_chain_rule,
    generic_partition,
    random_mixture_system,
)

__all__ = [
    "SweepResult",
    "sweep_chain_rule",
    "sweep_order_invariance",
    "sweep_change_of_prior",
    "sweep_prior_encodes_samples",
    "run_all_sweeps",
]

# shuffled visiting orders compared with the given one, per order-invariance case
ORDER_PERMUTATIONS = 3


@dataclass(frozen=True)
class SweepResult:
    name: str
    cases: int
    max_residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tolerance


def _start(cases: int, seed: int, tolerance: float) -> tuple[int, np.random.Generator]:
    """A sweep's case count and generator, after checking its three inputs."""
    cases = _check_int(cases, "cases")
    _check_real(tolerance, "tolerance", "[0, inf]")
    return cases, np.random.default_rng(_check_int(seed, "seed", 0))


def _random_system(rng: np.random.Generator) -> MixtureBayesSystem:
    n_contexts = int(rng.integers(2, 5))
    sizes = [int(rng.integers(2, 5)) for _ in range(n_contexts)]
    partition = generic_partition(sizes)
    n_latents = int(rng.integers(1, 4))
    return random_mixture_system(partition, n_latents, rng)


def _random_state(
    system: MixtureBayesSystem, rng: np.random.Generator, max_draws: int = 4
) -> PolicyState:
    partition = system.partition
    draws = int(rng.integers(0, max_draws + 1))
    behaviors = [
        int(rng.integers(0, partition.n_behaviors)) for _ in range(draws)
    ]
    return PolicyState.from_behaviors(behaviors)


def _random_pairs(
    system: MixtureBayesSystem, rng: np.random.Generator, max_len: int
) -> list[tuple[int, int]]:
    partition = system.partition
    length = int(rng.integers(0, max_len + 1))
    return [
        (
            (c := int(rng.integers(0, partition.n_contexts))),
            int(rng.integers(0, partition.sizes[c])),
        )
        for _ in range(length)
    ]


def _random_policy(
    system: MixtureBayesSystem, rng: np.random.Generator
) -> DPolicy:
    return DPolicy(
        tuple(int(rng.integers(0, s)) for s in system.partition.sizes)
    )


def sweep_chain_rule(
    cases: int = 100, seed: int = 0, tolerance: float = 1e-12
) -> SweepResult:
    """Two-step conditioning must commute on random (system, state, pair)."""
    cases, rng = _start(cases, seed, tolerance)
    worst = 0.0
    for _ in range(cases):
        system = _random_system(rng)
        partition = system.partition
        state = _random_state(system, rng)
        c1, c2 = rng.choice(partition.n_contexts, size=2, replace=False)
        a1 = int(rng.integers(0, partition.sizes[c1]))
        a2 = int(rng.integers(0, partition.sizes[c2]))
        worst = max(
            worst, check_chain_rule(system, state, int(c1), a1, int(c2), a2)
        )
    return SweepResult("chain-rule", cases, worst, tolerance)


def sweep_order_invariance(
    cases: int = 100,
    seed: int = 0,
    tolerance: float = 1e-10,
) -> SweepResult:
    """Coherence must not depend on the context visiting order, checked
    over ORDER_PERMUTATIONS shuffles per case."""
    cases, rng = _start(cases, seed, tolerance)
    worst = 0.0
    for _ in range(cases):
        system = _random_system(rng)
        policy = _random_policy(system, rng)
        prior = _random_state(system, rng)
        pairs = list(enumerate(policy.assignment))
        reference = sequence_coherence(system, prior, pairs).bits
        for _ in range(ORDER_PERMUTATIONS):
            shuffled = [pairs[i] for i in rng.permutation(len(pairs))]
            other = sequence_coherence(system, prior, shuffled).bits
            if reference == -math.inf or other == -math.inf:
                if reference != other:
                    worst = max(worst, math.inf)
                continue
            worst = max(worst, abs(reference - other))
    return SweepResult("order-invariance", cases, worst, tolerance)


def sweep_change_of_prior(
    cases: int = 100, seed: int = 0, tolerance: float = 1e-10
) -> SweepResult:
    """Two-stage conditioning must telescope across an intermediate state."""
    cases, rng = _start(cases, seed, tolerance)
    worst = 0.0
    for _ in range(cases):
        system = _random_system(rng)
        rho = _random_state(system, rng)
        phi = _random_pairs(system, rng, max_len=5)
        psi = _random_pairs(system, rng, max_len=5)
        residual = check_change_of_prior(system, rho, phi, psi)
        if not math.isnan(residual):
            worst = max(worst, residual)
    return SweepResult("change-of-prior", cases, worst, tolerance)


def sweep_prior_encodes_samples(
    cases: int = 100, seed: int = 0, tolerance: float = 1e-10
) -> SweepResult:
    """Full coherence must split into anchored-subset plus base-subset terms."""
    cases, rng = _start(cases, seed, tolerance)
    worst = 0.0
    for _ in range(cases):
        system = _random_system(rng)
        policy = _random_policy(system, rng)
        n = system.partition.n_contexts
        subset_size = int(rng.integers(0, n + 1))
        subset = [int(c) for c in rng.permutation(n)[:subset_size]]
        left, right = check_prior_encodes_samples(system, policy, subset)
        for residual in (left, right):
            if not math.isnan(residual):
                worst = max(worst, residual)
    return SweepResult("prior-encodes-samples", cases, worst, tolerance)


def run_all_sweeps(cases: int = 100, seed: int = 0) -> list[SweepResult]:
    """The four identity sweeps with their standard tolerances."""
    return [
        sweep_chain_rule(cases, seed),
        sweep_order_invariance(cases, seed),
        sweep_change_of_prior(cases, seed),
        sweep_prior_encodes_samples(cases, seed),
    ]
