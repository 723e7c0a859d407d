"""Sequence and policy coherence, the softmax-over-coherence distribution,
pointwise mutual information, and the quotient-system decompositions.

Coherence is the base-2 log of the sequential joint probability of a list of
behaviors under a prior policy state; its negation is a description length in
bits. -inf is a first-class value (zero-probability steps), never an error.
Policy coherence is computed in closed form by the inference core
(:class:`~cohopt.systems.Conditioned`); sequence_coherence conditions step by
step through infer() and serves as its independent oracle.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateConditioningError, ValidationError
from .systems import (
    DEFAULT_ENUMERATION_CAP,
    JOINT_SUM_ATOL,
    Conditioned,
    DPolicy,
    MixtureBayesSystem,
    PolicyState,
    _check_masses,
    _check_reals,
    check_beta,
    infer,
    state_of_policy,
    temper,
)

__all__ = [
    "CoherenceValue",
    "PolicyDistribution",
    "QuotientSpec",
    "sequence_coherence",
    "coherence",
    "softmax_over_coherence",
    "pmi",
    "quotient_coherence",
    "check_change_of_prior",
    "check_prior_encodes_samples",
]


@dataclass(frozen=True)
class CoherenceValue:
    """Base-2 log probability, ≤ 0; -negated it is a code length in bits.

    bits is -inf when the behaviors have zero probability. Only
    sequence_coherence sets failed_step: the index of the first
    zero-probability step.
    """

    bits: float
    failed_step: int | None = None

    def __float__(self) -> float:
        return self.bits

    @property
    def description_length(self) -> float:
        return -self.bits


def sequence_coherence(
    system: MixtureBayesSystem,
    prior: PolicyState,
    behaviors: Sequence[tuple[int, int]],
) -> CoherenceValue:
    """Cumulative log2 probability of (context, behavior) pairs in order.

    Contexts may repeat across the list. A zero-probability step short-circuits
    to -inf with that step recorded; the empty list gives exactly 0.
    """
    state = prior
    partition = system.partition
    offsets = partition._offsets
    total = 0.0
    for n, (context, behavior) in enumerate(behaviors):
        context, behavior = partition._check_slot(context, behavior)
        step = float(infer(system, state, context)[behavior])
        if step <= 0.0:
            return CoherenceValue(bits=-math.inf, failed_step=n)
        total += math.log2(step)
        # the global index of the slot checked above
        state = state.add_behavior(offsets[context] + behavior)
    return CoherenceValue(bits=total)


def coherence(
    system: MixtureBayesSystem, prior: PolicyState, policy: DPolicy
) -> CoherenceValue:
    """Coherence of a full d-policy relative to a prior state, in closed
    form: log2 ML(prior + policy) − log2 ML(prior).

    Raises DegenerateConditioningError when the prior has zero likelihood,
    then ValidationError for a policy the core does not cover.
    """
    return CoherenceValue(
        bits=Conditioned(system, prior).coherence_bits(policy.assignment)
    )


@dataclass(frozen=True)
class PolicyDistribution:
    """Explicit probability table over the enumerated d-policy space."""

    masses: np.ndarray
    provenance: str = "custom"
    sizes: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        masses = _check_reals(self.masses, "masses")
        object.__setattr__(self, "masses", masses)
        if masses.ndim != 1 or masses.size == 0:
            raise ValidationError("masses must be a non-empty vector")
        _check_masses(masses, "masses", JOINT_SUM_ATOL)
        if self.sizes is not None and math.prod(self.sizes) != masses.size:
            raise ValidationError(
                f"sizes {self.sizes} enumerate {math.prod(self.sizes)} "
                f"policies but {masses.size} masses given"
            )

    def __len__(self) -> int:
        return int(self.masses.size)


def softmax_over_coherence(
    system: MixtureBayesSystem,
    beta: float,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> PolicyDistribution:
    """Exact X^beta by full enumeration: mass ∝ 2^(beta·coherence).

    beta = +inf collapses to the uniform distribution over all coherence
    maximizers found within 1e-12 bits of the maximum.
    """
    check_beta(beta)
    return _exact_softmax(
        Conditioned(system).masses(cap), beta, system.partition.sizes
    )


def _exact_softmax(
    masses: np.ndarray, beta: float, sizes: Sequence[int]
) -> PolicyDistribution:
    """The tempered distribution of an enumerated mass table."""
    return PolicyDistribution(
        masses=temper(masses, beta), provenance="exact-softmax", sizes=sizes
    )


def pmi(system: MixtureBayesSystem, policy: DPolicy) -> float:
    """Coherence minus the sum of per-context marginal log2 probabilities.

    Zero when behaviors are independent under the base state; may be -inf when
    the joint mass is zero but every marginal is positive.
    """
    zero = PolicyState.zero()
    joint_bits = coherence(system, zero, policy).bits
    marginal_bits = 0.0
    for context, behavior in enumerate(policy.assignment):
        mass = float(infer(system, zero, context)[behavior])
        if mass <= 0.0:
            name = system.partition.context_names[context]
            raise DegenerateConditioningError(
                f"zero marginal for context '{name}'"
            )
        marginal_bits += math.log2(mass)
    return joint_bits - marginal_bits


@dataclass(frozen=True)
class QuotientSpec:
    """A context subset plus the anchoring base state for its sub-problem."""

    subset_a: tuple[int, ...]
    base_state: PolicyState

    def __post_init__(self) -> None:
        object.__setattr__(self, "subset_a", tuple(self.subset_a))
        if len(set(self.subset_a)) != len(self.subset_a):
            raise ValidationError("subset_a has repeated context indices")


def quotient_coherence(
    system: MixtureBayesSystem,
    spec: QuotientSpec,
    partial_policy: Mapping[int, int],
) -> CoherenceValue:
    """Coherence of a partial policy in the sub-problem anchored at base_state.

    partial_policy maps each context of subset_a to a behavior; it must cover
    exactly subset_a.
    """
    subset = [system.partition._check_slot(c, 0)[0] for c in spec.subset_a]
    if set(partial_policy) != set(subset):
        raise ValidationError(
            "partial policy must cover exactly the subset contexts"
        )
    pairs = [(context, partial_policy[context]) for context in subset]
    return sequence_coherence(system, spec.base_state, pairs)


def _residual(lhs_terms: Sequence[float], rhs: float) -> float:
    """|sum(lhs) - rhs| with the -inf convention: 0 when both sides are -inf,
    nan (indeterminate) when only one side is."""
    lhs = math.fsum(lhs_terms) if all(t > -math.inf for t in lhs_terms) else -math.inf
    if lhs == -math.inf or rhs == -math.inf:
        return 0.0 if (lhs == -math.inf and rhs == -math.inf) else math.nan
    return abs(lhs - rhs)


def check_change_of_prior(
    system: MixtureBayesSystem,
    rho: PolicyState,
    phi_behaviors: Sequence[tuple[int, int]],
    psi_behaviors: Sequence[tuple[int, int]],
) -> float:
    """Residual of the two-stage conditioning identity.

    With φ = ρ + sum(phi_behaviors), compares coherence of psi relative to φ
    plus coherence of phi relative to ρ against coherence of the concatenated
    list relative to ρ. ≤ 1e-10 for chain-rule systems; nan when -inf terms
    make the comparison indeterminate.
    """
    partition = system.partition
    phi_state = rho + PolicyState.from_behaviors(
        [partition.global_index(c, a) for c, a in phi_behaviors]
    )
    psi_given_phi = sequence_coherence(system, phi_state, psi_behaviors).bits
    phi_given_rho = sequence_coherence(system, rho, phi_behaviors).bits
    concatenated = sequence_coherence(
        system, rho, list(phi_behaviors) + list(psi_behaviors)
    ).bits
    return _residual([psi_given_phi, phi_given_rho], concatenated)


def check_prior_encodes_samples(
    system: MixtureBayesSystem,
    policy: DPolicy,
    subset_a: Sequence[int],
) -> tuple[float, float]:
    """Residuals of both halves of the pretrain/posttrain decomposition.

    Splitting contexts into subset_a and its complement subset_b, the policy's
    full coherence must equal (a) its subset_a coherence anchored at the
    subset_b behaviors plus the base coherence of subset_b, and (b) the
    mirrored decomposition. Returns (left_residual, right_residual).
    """
    partition = system.partition
    zero = PolicyState.zero()
    full = coherence(system, zero, policy).bits
    set_a = tuple(sorted({partition._check_slot(c, 0)[0] for c in subset_a}))
    set_b = tuple(c for c in range(partition.n_contexts) if c not in set_a)
    pairs_a = [(c, policy.assignment[c]) for c in set_a]
    pairs_b = [(c, policy.assignment[c]) for c in set_b]
    anchor_a = state_of_policy(partition, policy, set_b)
    anchor_b = state_of_policy(partition, policy, set_a)
    left = _residual(
        [
            sequence_coherence(system, anchor_a, pairs_a).bits,
            sequence_coherence(system, zero, pairs_b).bits,
        ],
        full,
    )
    right = _residual(
        [
            sequence_coherence(system, zero, pairs_a).bits,
            sequence_coherence(system, anchor_b, pairs_b).bits,
        ],
        full,
    )
    return left, right
