"""Behavior spaces, context partitions, d-policies, policy multisets, and the
exact tabular latent-mixture system that supplies the inference function.

A system is a finite mixture: a latent weight vector plus one categorical
emission row per (latent, context). Conditioning a policy state (a multiset of
observed behaviors) multiplies per-latent likelihoods; the predictive
distribution for a context is the posterior-weighted average of emission rows.
All likelihood products are accumulated in natural-log space (zeros become
-inf); masses below exp(-745) underflow to exactly 0 and are treated as zero.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateConditioningError,
    EnumerationCapError,
    ValidationError,
)

PROB_ATOL = 1e-12
LN2 = math.log(2.0)
JOINT_SUM_ATOL = 1e-9
DEFAULT_ENUMERATION_CAP = 1_000_000

__all__ = [
    "ContextPartition",
    "DPolicy",
    "PolicyState",
    "MixtureBayesSystem",
    "Conditioned",
    "ErgodicityReport",
    "infer",
    "tempered_infer",
    "temper",
    "from_joint_table",
    "check_chain_rule",
    "check_ergodicity",
    "enumerate_policy_masses",
    "generic_partition",
    "random_mixture_system",
    "state_of_policy",
    "validate_policy",
    "DEFAULT_ENUMERATION_CAP",
]


class ContextPartition:
    """Ordered contexts, each an ordered list of globally unique behavior names.

    Contexts and behaviors carry stable indices from construction order; every
    iteration order in the package derives from these indices.
    """

    def __init__(
        self,
        context_names: Sequence[str],
        behaviors: Sequence[Sequence[str]],
    ) -> None:
        if len(context_names) != len(behaviors):
            raise ValidationError(
                f"got {len(context_names)} context names for "
                f"{len(behaviors)} behavior lists"
            )
        if len(context_names) == 0:
            raise ValidationError("partition needs at least one context")
        if len(set(context_names)) != len(context_names):
            raise ValidationError("context names must be unique")
        self.context_names: tuple[str, ...] = tuple(context_names)
        self.behaviors: tuple[tuple[str, ...], ...] = tuple(
            tuple(row) for row in behaviors
        )
        seen: dict[str, tuple[int, int]] = {}
        for c, row in enumerate(self.behaviors):
            if not row:
                raise ValidationError(
                    f"context '{self.context_names[c]}' has no behaviors"
                )
            for a, name in enumerate(row):
                if name in seen:
                    raise ValidationError(
                        f"behavior name '{name}' appears in more than one slot"
                    )
                seen[name] = (c, a)
        self._by_name = seen
        self.sizes: tuple[int, ...] = tuple(len(row) for row in self.behaviors)
        offsets = [0]
        for size in self.sizes:
            offsets.append(offsets[-1] + size)
        self._offsets = tuple(offsets)
        self.n_behaviors: int = offsets[-1]

    @property
    def n_contexts(self) -> int:
        return len(self.sizes)

    def context_index(self, name: str) -> int:
        try:
            return self.context_names.index(name)
        except ValueError:
            raise ValidationError(f"unknown context '{name}'") from None

    def global_index(self, context: int, behavior: int) -> int:
        """Flat behavior index across all contexts."""
        self._check_slot(context, behavior)
        return self._offsets[context] + behavior

    def locate(self, global_index: int) -> tuple[int, int]:
        """Inverse of :meth:`global_index`: (context, local behavior)."""
        if not 0 <= global_index < self.n_behaviors:
            raise ValidationError(f"behavior index {global_index} out of range")
        for c in range(self.n_contexts):
            if global_index < self._offsets[c + 1]:
                return c, global_index - self._offsets[c]
        raise AssertionError("unreachable")

    def locate_name(self, name: str) -> tuple[int, int]:
        try:
            return self._by_name[name]
        except KeyError:
            raise ValidationError(f"unknown behavior '{name}'") from None

    def behavior_name(self, context: int, behavior: int) -> str:
        self._check_slot(context, behavior)
        return self.behaviors[context][behavior]

    def global_name(self, global_index: int) -> str:
        c, a = self.locate(global_index)
        return self.behaviors[c][a]

    def _check_slot(self, context: int, behavior: int) -> None:
        if not 0 <= context < self.n_contexts:
            raise ValidationError(f"context index {context} out of range")
        if not 0 <= behavior < self.sizes[context]:
            raise ValidationError(
                f"behavior index {behavior} out of range for context "
                f"'{self.context_names[context]}'"
            )

    # --- d-policy space enumeration (index order: context 0 most significant)

    def policy_count(self) -> int:
        return math.prod(self.sizes)

    def policy_index(self, assignment: Sequence[int]) -> int:
        idx = 0
        for c, a in enumerate(assignment):
            self._check_slot(c, a)
            idx = idx * self.sizes[c] + a
        return idx

    def policy_at(self, index: int) -> "DPolicy":
        if not 0 <= index < self.policy_count():
            raise ValidationError(f"policy index {index} out of range")
        assignment = [0] * self.n_contexts
        for c in range(self.n_contexts - 1, -1, -1):
            index, assignment[c] = divmod(index, self.sizes[c])
        return DPolicy(tuple(assignment))

    def iter_policies(self, cap: int = DEFAULT_ENUMERATION_CAP) -> Iterator["DPolicy"]:
        _check_cap(self.policy_count(), cap)
        for assignment in itertools.product(*map(range, self.sizes)):
            yield DPolicy(assignment)

    def policy_from_names(self, names: Sequence[str]) -> "DPolicy":
        """Build a d-policy from one behavior name per context, any order."""
        assignment: list[int | None] = [None] * self.n_contexts
        for name in names:
            c, a = self.locate_name(name)
            if assignment[c] is not None:
                raise ValidationError(
                    f"context '{self.context_names[c]}' assigned twice"
                )
            assignment[c] = a
        missing = [
            self.context_names[c] for c, a in enumerate(assignment) if a is None
        ]
        if missing:
            raise ValidationError(f"no behavior given for context(s) {missing}")
        return DPolicy(tuple(assignment))  # type: ignore[arg-type]

    def policy_names(self, policy: "DPolicy") -> tuple[str, ...]:
        return tuple(
            self.behaviors[c][a] for c, a in enumerate(policy.assignment)
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ContextPartition)
            and self.context_names == other.context_names
            and self.behaviors == other.behaviors
        )

    def __repr__(self) -> str:
        return f"ContextPartition({list(self.context_names)!r}, sizes={self.sizes})"


@dataclass(frozen=True)
class DPolicy:
    """One behavior (local index) per context; the optimization variable."""

    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignment", tuple(self.assignment))

    def replace(self, context: int, behavior: int) -> "DPolicy":
        updated = list(self.assignment)
        updated[context] = behavior
        return DPolicy(tuple(updated))

    def __len__(self) -> int:
        return len(self.assignment)


def validate_policy(partition: ContextPartition, policy: DPolicy) -> None:
    if len(policy) != partition.n_contexts:
        raise ValidationError(
            f"policy has {len(policy)} coordinates for "
            f"{partition.n_contexts} contexts"
        )
    for c, a in enumerate(policy.assignment):
        partition._check_slot(c, a)


class PolicyState:
    """Multiset of observed behaviors, keyed by global behavior index.

    States form a commutative monoid under ``+`` with :meth:`zero` as the
    identity; repeated observations are meaningful (counts multiply
    likelihoods).
    """

    __slots__ = ("counts",)

    def __init__(self, counts: Mapping[int, int] | None = None) -> None:
        clean: dict[int, int] = {}
        if counts:
            for key, value in counts.items():
                if value < 0:
                    raise ValidationError(
                        f"negative multiplicity {value} for behavior {key}"
                    )
                if value > 0:
                    clean[int(key)] = int(value)
        self.counts: dict[int, int] = clean

    @classmethod
    def zero(cls) -> "PolicyState":
        return cls()

    @classmethod
    def from_behaviors(cls, global_indices: Sequence[int]) -> "PolicyState":
        counts: dict[int, int] = {}
        for idx in global_indices:
            counts[idx] = counts.get(idx, 0) + 1
        return cls(counts)

    def add_behavior(self, global_index: int) -> "PolicyState":
        counts = dict(self.counts)
        counts[global_index] = counts.get(global_index, 0) + 1
        return PolicyState(counts)

    def __add__(self, other: "PolicyState") -> "PolicyState":
        counts = dict(self.counts)
        for key, value in other.counts.items():
            counts[key] = counts.get(key, 0) + value
        return PolicyState(counts)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PolicyState) and self.counts == other.counts

    def __hash__(self) -> int:
        return hash(frozenset(self.counts.items()))

    def __len__(self) -> int:
        return sum(self.counts.values())

    def describe(self, partition: ContextPartition | None = None) -> str:
        if not self.counts:
            return "{}"
        parts = []
        for key in sorted(self.counts):
            label = partition.global_name(key) if partition else str(key)
            count = self.counts[key]
            parts.append(label if count == 1 else f"{label}×{count}")
        return "{" + ", ".join(parts) + "}"

    def __repr__(self) -> str:
        return f"PolicyState({self.counts!r})"


def state_of_policy(
    partition: ContextPartition,
    policy: DPolicy,
    contexts: Sequence[int] | None = None,
) -> PolicyState:
    """Sum of a d-policy's behaviors over the given contexts (default: all)."""
    indices = range(partition.n_contexts) if contexts is None else contexts
    return PolicyState.from_behaviors(
        [partition.global_index(c, policy.assignment[c]) for c in indices]
    )


class MixtureBayesSystem:
    """Finite latent mixture defining the inference function exactly.

    Parameters
    ----------
    partition:
        Behavior space layout.
    latent_weights:
        Probability vector over the latent set; sums to 1 within 1e-12.
    emissions:
        Per context, an array of shape (n_latents, context size); each row is
        a probability vector over that context's behaviors.
    smoothing_epsilon:
        Echo of the smoothing used by :func:`from_joint_table`; 0 for directly
        constructed systems.
    """

    def __init__(
        self,
        partition: ContextPartition,
        latent_weights: Sequence[float] | np.ndarray,
        emissions: Sequence[np.ndarray],
        smoothing_epsilon: float = 0.0,
    ) -> None:
        self.partition = partition
        weights = np.array(latent_weights, dtype=np.float64, copy=True)
        if weights.ndim != 1 or weights.size == 0:
            raise ValidationError("latent_weights must be a non-empty vector")
        if not np.all(np.isfinite(weights) & (weights >= 0)):
            raise ValidationError("latent_weights must be finite and non-negative")
        if abs(float(weights.sum()) - 1.0) > PROB_ATOL:
            raise ValidationError(
                f"latent_weights sum to {weights.sum()!r}, expected 1 ± {PROB_ATOL}"
            )
        if len(emissions) != partition.n_contexts:
            raise ValidationError(
                f"got {len(emissions)} emission tables for "
                f"{partition.n_contexts} contexts"
            )
        rows: list[np.ndarray] = []
        for c, table in enumerate(emissions):
            arr = np.array(table, dtype=np.float64, copy=True)
            if arr.shape != (weights.size, partition.sizes[c]):
                raise ValidationError(
                    f"emissions[{c}] has shape {arr.shape}, expected "
                    f"{(weights.size, partition.sizes[c])}"
                )
            if not np.all(np.isfinite(arr) & (arr >= 0)):
                raise ValidationError(
                    f"emissions[{c}] has negative or non-finite entries"
                )
            sums = arr.sum(axis=1)
            bad = np.nonzero(np.abs(sums - 1.0) > PROB_ATOL)[0]
            if bad.size:
                raise ValidationError(
                    f"emissions[{c}] row {bad[0]} sums to {sums[bad[0]]!r}, "
                    f"expected 1 ± {PROB_ATOL}"
                )
            rows.append(arr)
        # systems are shared across concurrent evaluators; freeze the arrays
        weights.setflags(write=False)
        for arr in rows:
            arr.setflags(write=False)
        self.latent_weights = weights
        self._emissions = tuple(rows)
        self.smoothing_epsilon = float(smoothing_epsilon)

        with np.errstate(divide="ignore"):
            self._log_weights = np.log(weights)
            self._log_emissions = tuple(np.log(arr) for arr in rows)
            # (n_latents, n_behaviors) view keyed by global behavior index
            self._log_emissions_global = np.log(np.hstack(rows))

    @property
    def n_latents(self) -> int:
        return int(self.latent_weights.size)

    def emissions(self, context: int) -> np.ndarray:
        return self._emissions[context]

    def log_emissions(self, context: int) -> np.ndarray:
        return self._log_emissions[context]

    def log_posterior_numerators(self, state: PolicyState) -> np.ndarray:
        """Natural-log of prior × state likelihood per latent (-inf allowed)."""
        out = self._log_weights.copy()
        for key, count in state.counts.items():
            if not 0 <= key < self.partition.n_behaviors:
                raise ValidationError(
                    f"state references unknown behavior index {key}"
                )
            out += count * self._log_emissions_global[:, key]
        return out

    def __repr__(self) -> str:
        return (
            f"MixtureBayesSystem(n_latents={self.n_latents}, "
            f"sizes={self.partition.sizes})"
        )


def infer(
    system: MixtureBayesSystem, state: PolicyState, context: int
) -> np.ndarray:
    """Posterior-predictive distribution over one context's behaviors.

    Raises DegenerateConditioningError if every latent has zero likelihood
    for ``state``.
    """
    system.partition._check_slot(context, 0)
    log_post = system.log_posterior_numerators(state)
    top = float(log_post.max())
    if top == -math.inf:
        raise DegenerateConditioningError(
            "degenerate conditioning: every latent has zero likelihood for "
            f"state {state.describe(system.partition)}"
        )
    weights = np.exp(log_post - top)
    predictive = weights @ system.emissions(context)
    total = float(predictive.sum())
    if total <= 0.0:
        raise DegenerateConditioningError(
            "degenerate conditioning: zero predictive mass for state "
            f"{state.describe(system.partition)}"
        )
    return predictive / total


def _tempered_weights(p: np.ndarray, beta: float) -> np.ndarray:
    """Unnormalized p^beta for masses p with a positive maximum.

    p itself at beta 1, otherwise scaled so the maximum is 1. At beta = +inf
    the indicator of the ties: entries within a factor 2^-1e-12 of the
    maximum (1e-12 bits), a rule that does not depend on the scale of p.
    """
    top = float(p.max())
    if math.isinf(beta):
        return (p >= top * 2.0 ** (-PROB_ATOL)).astype(np.float64)
    if beta == 1.0:
        return p
    out = np.zeros_like(p)
    positive = p > 0
    out[positive] = np.exp(beta * (np.log(p[positive]) - math.log(top)))
    return out


def temper(probabilities: np.ndarray, beta: float) -> np.ndarray:
    """Apply p -> p^beta to every mass and re-normalize.

    beta may be +inf: uniform over the entries within 1e-12 bits of the
    maximum.
    """
    if beta <= 0:
        raise ValidationError(f"beta must be positive, got {beta}")
    p = np.asarray(probabilities, dtype=np.float64)
    if float(p.max()) <= 0.0:
        raise DegenerateConditioningError(
            "degenerate conditioning: all masses zero after tempering"
        )
    weights = _tempered_weights(p, beta)
    return weights / weights.sum()


def tempered_infer(
    system: MixtureBayesSystem,
    state: PolicyState,
    context: int,
    beta: float,
) -> np.ndarray:
    """infer() followed by the p -> p^beta re-normalization."""
    return temper(infer(system, state, context), beta)


def from_joint_table(
    partition: ContextPartition,
    joint: np.ndarray | Sequence,
    epsilon: float = 0.0,
) -> MixtureBayesSystem:
    """Realize a direct joint prior over the d-policy space as a mixture.

    The latent set is the d-policy space itself with weights equal to the
    joint masses. Each latent's emission row for a context puts 1 - epsilon on
    its own behavior, spreading epsilon evenly over the rest (exact indicator
    rows at epsilon = 0). With epsilon = 0 and states holding at most one
    behavior per context, infer() reproduces the joint table's conditionals.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValidationError(f"epsilon must be in [0, 1), got {epsilon}")
    table = np.asarray(joint, dtype=np.float64)
    if table.shape == (partition.policy_count(),):
        table = table.reshape(partition.sizes)
    if table.shape != partition.sizes:
        raise ValidationError(
            f"joint table has shape {table.shape}, expected {partition.sizes}"
        )
    if not np.all(np.isfinite(table) & (table >= 0)):
        raise ValidationError("joint table has negative or non-finite entries")
    total = float(table.sum())
    if abs(total - 1.0) > JOINT_SUM_ATOL:
        raise ValidationError(
            f"joint table sums to {total!r}, expected 1 ± {JOINT_SUM_ATOL}"
        )
    weights = table.reshape(-1)
    n_latents = weights.size
    # coordinate of each latent (= each d-policy) in every context
    coords = np.unravel_index(np.arange(n_latents), partition.sizes)
    emissions = []
    for c, size in enumerate(partition.sizes):
        if size == 1:
            rows = np.ones((n_latents, 1))
        else:
            rows = np.full((n_latents, size), epsilon / (size - 1))
            rows[np.arange(n_latents), coords[c]] = 1.0 - epsilon
        emissions.append(rows)
    return MixtureBayesSystem(
        partition, weights, emissions, smoothing_epsilon=epsilon
    )


def check_chain_rule(
    system: MixtureBayesSystem,
    state: PolicyState,
    context1: int,
    behavior1: int,
    context2: int,
    behavior2: int,
) -> float:
    """Two-step conditioning residual; must be ≤ 1e-12 for mixture systems.

    Returns |σ(φ,s1)(a1)·σ(φ+a1,s2)(a2) − σ(φ,s2)(a2)·σ(φ+a2,s1)(a1)|.
    """
    if context1 == context2:
        raise ValidationError("chain-rule check needs two distinct contexts")
    partition = system.partition
    g1 = partition.global_index(context1, behavior1)
    g2 = partition.global_index(context2, behavior2)
    first = float(infer(system, state, context1)[behavior1])
    second = float(infer(system, state, context2)[behavior2])
    lhs = first * (
        float(infer(system, state.add_behavior(g1), context2)[behavior2])
        if first > 0
        else 0.0
    )
    rhs = second * (
        float(infer(system, state.add_behavior(g2), context1)[behavior1])
        if second > 0
        else 0.0
    )
    return abs(lhs - rhs)


def _check_cap(count: int, cap: int) -> None:
    if count > cap:
        raise EnumerationCapError(
            f"policy space has {count} elements, above the cap of {cap}"
        )


def _enumerate_masses(
    weights: np.ndarray,
    emissions: Sequence[np.ndarray],
    sizes: Sequence[int],
    cap: int,
) -> np.ndarray:
    """Σ_θ weights_θ · Π_j emissions[j][θ, π(j)] for every π in the
    mixed-radix space of sizes (position 0 most significant).

    Each latent's table is a chain of outer products over the positions,
    added into one total, so memory stays at O(count) whatever the number
    of latents.
    """
    count = math.prod(sizes)
    _check_cap(count, cap)
    masses = np.zeros(count)
    for theta in np.flatnonzero(weights):
        lik = weights[theta : theta + 1]
        for table in emissions:
            lik = np.multiply.outer(lik, table[theta]).ravel()
        masses += lik
    return masses


def enumerate_policy_masses(
    system: MixtureBayesSystem,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> np.ndarray:
    """Exact joint mass of every d-policy, in policy-index order.

    Mass of policy π is Σ_θ w_θ · Π_s Pr[π(s) | θ]; the vector sums to 1.
    """
    partition = system.partition
    return _enumerate_masses(
        system.latent_weights,
        [system.emissions(c) for c in range(partition.n_contexts)],
        partition.sizes,
        cap,
    )


class Conditioned:
    """A system conditioned on a fixed prior state, over a subset of its
    contexts: the inference core behind coherence, the samplers and exact
    enumeration.

    Positions 0..k-1 index the covered contexts in the given order (default:
    all contexts); an assignment holds one local behavior index per position.
    Log numerators are the natural-log prior × likelihood per latent, and the
    marginal likelihood ML of a state is their sum in linear space. Coherence
    is then closed form: log2 ML(prior + policy) − log2 ML(prior).
    """

    def __init__(
        self,
        system: MixtureBayesSystem,
        prior: PolicyState | None = None,
        contexts: Sequence[int] | None = None,
    ) -> None:
        partition = system.partition
        if contexts is None:
            contexts = range(partition.n_contexts)
        self.contexts = tuple(int(c) for c in contexts)
        if len(set(self.contexts)) != len(self.contexts):
            raise ValidationError("context subset has repeated indices")
        for c in self.contexts:
            partition._check_slot(c, 0)
        self.prior = prior if prior is not None else PolicyState.zero()
        self.sizes = tuple(partition.sizes[c] for c in self.contexts)
        self.emissions = [system.emissions(c) for c in self.contexts]
        self.log_emissions = [system.log_emissions(c) for c in self.contexts]
        self.base = system.log_posterior_numerators(self.prior)
        self.log_prior_ml = self._log_ml(self.base)
        if self.log_prior_ml == -math.inf:
            raise DegenerateConditioningError(
                "degenerate conditioning: prior state "
                f"{self.prior.describe(partition)} has zero likelihood"
            )

    @staticmethod
    def _log_ml(log_numerators: np.ndarray) -> float:
        top = float(log_numerators.max())
        if top == -math.inf:
            return -math.inf
        return top + math.log(float(np.exp(log_numerators - top).sum()))

    def validate(self, policy: DPolicy) -> np.ndarray:
        """The policy's assignment over the covered positions, range-checked."""
        if len(policy) != len(self.contexts):
            raise ValidationError(
                f"policy has {len(policy)} coordinates for "
                f"{len(self.contexts)} covered contexts"
            )
        for j, a in enumerate(policy.assignment):
            if not 0 <= a < self.sizes[j]:
                raise ValidationError(
                    f"behavior index {a} out of range at position {j}"
                )
        return np.array(policy.assignment, dtype=np.int64)

    def numerators(
        self, assignment: Sequence[int], skip: int | None = None
    ) -> np.ndarray:
        """Log numerators of the prior plus every position but ``skip``."""
        out = self.base.copy()
        for j in range(len(self.contexts)):
            if j != skip:
                out += self.log_emissions[j][:, assignment[j]]
        return out

    def predictive(
        self, log_numerators: np.ndarray, position: int
    ) -> tuple[np.ndarray, float]:
        """Unnormalized predictive masses p at one position, and their log
        scale: exp(scale) · p[a] is the marginal likelihood of the state
        plus behavior a. Raises DegenerateConditioningError when the state
        has zero likelihood."""
        top = float(log_numerators.max())
        if top == -math.inf:
            raise DegenerateConditioningError(
                "degenerate conditioning: every latent has zero likelihood "
                f"for the state that conditions position {position}"
            )
        return np.exp(log_numerators - top) @ self.emissions[position], top

    def leave_one_out(
        self, assignment: Sequence[int], position: int
    ) -> tuple[np.ndarray, float]:
        """predictive() at one position given the prior and every other
        position of the assignment."""
        return self.predictive(self.numerators(assignment, skip=position), position)

    def coherence_bits(self, assignment: Sequence[int]) -> float:
        """Coherence of a full sub-policy relative to the prior; -inf when
        it has zero mass."""
        value = self._log_ml(self.numerators(assignment))
        if value == -math.inf:
            return -math.inf
        return (value - self.log_prior_ml) / LN2

    def masses(self, cap: int = DEFAULT_ENUMERATION_CAP) -> np.ndarray:
        """Conditional mass of every sub-policy given the prior, in
        mixed-radix index order (position 0 most significant); sums to 1."""
        masses = _enumerate_masses(
            np.exp(self.base - float(self.base.max())),
            self.emissions,
            self.sizes,
            cap,
        )
        total = masses.sum()
        if total <= 0.0:
            raise DegenerateConditioningError(
                "degenerate conditioning: no sub-policy has positive mass"
            )
        return masses / total


@dataclass(frozen=True)
class ErgodicityReport:
    """Outcome of the positivity check backing the ergodicity decision.

    positive=True means every d-policy has strictly positive joint mass,
    which implies single-coordinate Gibbs moves can reach every policy.
    positive=False only means the positivity check failed; the witness is a
    zero-mass d-policy.
    """

    positive: bool
    witness: DPolicy | None = None

    def __bool__(self) -> bool:
        return self.positive


def check_ergodicity(
    system: MixtureBayesSystem, cap: int = DEFAULT_ENUMERATION_CAP
) -> ErgodicityReport:
    """Positivity check over the enumerated d-policy space."""
    masses = enumerate_policy_masses(system, cap=cap)
    zero = np.nonzero(masses <= 0.0)[0]
    if zero.size == 0:
        return ErgodicityReport(positive=True)
    return ErgodicityReport(
        positive=False, witness=system.partition.policy_at(int(zero[0]))
    )


def generic_partition(sizes: Sequence[int]) -> ContextPartition:
    """Partition with synthetic names: contexts c0, c1, ... and behaviors
    c0_b0, c0_b1, ..."""
    names = [f"c{i}" for i in range(len(sizes))]
    behaviors = [
        [f"c{i}_b{j}" for j in range(size)] for i, size in enumerate(sizes)
    ]
    return ContextPartition(names, behaviors)


def random_mixture_system(
    partition: ContextPartition,
    n_latents: int,
    rng: np.random.Generator,
    latent_concentration: float = 1.0,
    emission_concentration: float = 1.0,
) -> MixtureBayesSystem:
    """Mixture with Dirichlet-drawn latent weights and emission rows.

    Dirichlet draws are almost surely strictly positive, so the resulting
    system passes the positivity check. Smaller emission concentration gives
    more peaked rows and stronger cross-context coupling.
    """
    if n_latents < 1:
        raise ValidationError(f"n_latents must be >= 1, got {n_latents}")
    weights = rng.dirichlet([latent_concentration] * n_latents)
    weights = weights / weights.sum()
    emissions = []
    for size in partition.sizes:
        rows = rng.dirichlet([emission_concentration] * size, size=n_latents)
        emissions.append(rows / rows.sum(axis=1, keepdims=True))
    return MixtureBayesSystem(partition, weights, emissions)
