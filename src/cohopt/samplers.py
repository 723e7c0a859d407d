"""Optimization and sampling procedures over d-policies: single-site Gibbs,
the training-friendly block variant with anchor mixing, two-context debate,
sequential bootstrap, and mutual-predictability hill climbing.

Every sampler accepts an optional prior state and an optional context subset,
so the same code drives both full-space runs and post-training sub-problems
anchored at a supervised prior. A run is strictly sequential; independent
seeded runs may execute concurrently.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateConditioningError, ValidationError
from .systems import (
    DEFAULT_ENUMERATION_CAP,
    LN2,
    Conditioned,
    DPolicy,
    MixtureBayesSystem,
    PolicyState,
    _check_cap,
    _tempered_weights,
    temper,
)
from .coherence import PolicyDistribution

__all__ = [
    "SamplerConfig",
    "RunRecord",
    "BootstrapResult",
    "PositivityWarning",
    "gibbs_run",
    "training_friendly_gibbs_run",
    "debate_run",
    "simple_bootstrap_run",
    "bootstrap_exact_distribution",
    "icm_hill_climb",
    "mutual_predictability",
    "gibbs_step_probability",
    "exact_conditional_distribution",
]


class PositivityWarning(UserWarning):
    """A run was started on a system that failed the positivity check."""


@dataclass(frozen=True)
class SamplerConfig:
    """Shared sampler knobs; gamma and anchor_weight apply to the
    training-friendly variant only."""

    beta: float = 1.0
    steps: int = 1000
    seed: int = 0
    gamma: float = 0.85
    anchor_weight: float = 0.0
    burn_in: int = 0

    def __post_init__(self) -> None:
        if self.beta <= 0:
            raise ValidationError(f"beta must be positive, got {self.beta}")
        if self.steps < 1:
            raise ValidationError(f"steps must be >= 1, got {self.steps}")
        if not 0.0 < self.gamma < 1.0:
            raise ValidationError(f"gamma must be in (0, 1), got {self.gamma}")
        if not 0.0 <= self.anchor_weight <= 1.0:
            raise ValidationError(
                f"anchor_weight must be in [0, 1], got {self.anchor_weight}"
            )
        if self.burn_in < 0:
            raise ValidationError(f"burn_in must be >= 0, got {self.burn_in}")

    def to_dict(self) -> dict:
        return {
            "beta": "inf" if math.isinf(self.beta) else float(self.beta),
            "steps": int(self.steps),
            "seed": int(self.seed),
            "gamma": float(self.gamma),
            "anchor_weight": float(self.anchor_weight),
            "burn_in": int(self.burn_in),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SamplerConfig":
        beta = data.get("beta", 1.0)
        if isinstance(beta, str):
            beta = float(beta)
        return cls(
            beta=beta,
            steps=int(data.get("steps", 1000)),
            seed=int(data.get("seed", 0)),
            gamma=float(data.get("gamma", 0.85)),
            anchor_weight=float(data.get("anchor_weight", 0.0)),
            burn_in=int(data.get("burn_in", 0)),
        )


@dataclass
class RunRecord:
    """Seeded trajectory plus per-round coherence for reports.

    trajectory has steps+1 rows (the initial policy included); row t holds the
    local behavior index per covered context. coherence_bits[t] is the
    sequential coherence of row t relative to the run prior (-inf allowed).
    moves is a (steps, m) int64 array: row t holds the m context positions
    resampled when producing row t+1.
    """

    kind: str
    contexts: tuple[int, ...]
    sizes: tuple[int, ...]
    trajectory: np.ndarray
    coherence_bits: np.ndarray
    moves: np.ndarray
    seed: int
    config: SamplerConfig
    prior_counts: dict[int, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return int(self.trajectory.shape[0])

    def policy_at(self, round_index: int) -> DPolicy:
        return DPolicy(tuple(int(a) for a in self.trajectory[round_index]))

    def policy_indices(self) -> np.ndarray:
        """Mixed-radix index of every visited policy over the covered space."""
        return np.ravel_multi_index(self.trajectory.T, self.sizes)


@dataclass(frozen=True)
class BootstrapResult:
    """Final bootstrap assignment with its exact sequential probability trace."""

    policy: DPolicy
    order: tuple[int, ...]
    step_probabilities: tuple[float, ...]
    log2_mass: float
    contexts: tuple[int, ...]
    seed: int
    config: SamplerConfig


def _draw(weights: np.ndarray, u: float) -> int:
    """Inverse-CDF draw from unnormalized weights with one uniform; never
    lands on a zero weight."""
    cum = np.cumsum(weights)
    idx = int(np.searchsorted(cum, u * cum[-1], side="right"))
    idx = min(idx, weights.size - 1)
    while weights[idx] == 0.0 and idx > 0:
        idx -= 1
    return idx


def _warn_if_not_positive(core: Conditioned, beta: float) -> None:
    if math.isinf(beta) or math.prod(core.sizes) > DEFAULT_ENUMERATION_CAP:
        return
    if np.any(core.masses() <= 0.0):
        warnings.warn(
            "positivity check failed: some policies have zero mass; the chain "
            "may absorb and the stationary-distribution guarantee is void",
            PositivityWarning,
            stacklevel=3,
        )


def gibbs_run(
    system: MixtureBayesSystem,
    initial: DPolicy,
    config: SamplerConfig,
    *,
    prior: PolicyState | None = None,
    contexts: Sequence[int] | None = None,
    check_positivity: bool = True,
) -> RunRecord:
    """Single-site Gibbs: each step resamples one uniformly chosen context
    from the tempered conditional given all other current behaviors.

    Reproducible per seed; each step changes at most one coordinate.
    """
    core = Conditioned(system, prior, contexts)
    if check_positivity:
        _warn_if_not_positive(core, config.beta)
    assignment = core.validate(initial)
    k = len(core.contexts)
    rng = np.random.default_rng(config.seed)
    picks = rng.integers(0, k, size=config.steps)
    uniforms = rng.random(config.steps)

    trajectory = np.empty((config.steps + 1, k), dtype=np.int64)
    coherence_bits = np.empty(config.steps + 1)
    trajectory[0] = assignment
    coherence_bits[0] = core.coherence_bits(assignment)

    for t in range(config.steps):
        j = int(picks[t])
        p, top = core.leave_one_out(assignment, j)
        a_new = _draw(_tempered_weights(p, config.beta), float(uniforms[t]))
        assignment[j] = a_new
        trajectory[t + 1] = assignment
        coherence_bits[t + 1] = (
            top + math.log(float(p[a_new])) - core.log_prior_ml
        ) / LN2

    return RunRecord(
        kind="gibbs",
        contexts=core.contexts,
        sizes=core.sizes,
        trajectory=trajectory,
        coherence_bits=coherence_bits,
        moves=picks[:, None],
        seed=config.seed,
        config=config,
        prior_counts=dict(core.prior.counts),
    )


def training_friendly_gibbs_run(
    system: MixtureBayesSystem,
    initial: DPolicy,
    config: SamplerConfig,
    *,
    prior: PolicyState | None = None,
    contexts: Sequence[int] | None = None,
    check_positivity: bool = True,
) -> RunRecord:
    """Block variant: each round retains a random floor(gamma·k)-sized subset
    and independently resamples everything else from the retained state.

    With anchor_weight > 0 each resample draws from the two-component mixture
    anchor_weight·σ^β(round-0 retained state) +
    (1−anchor_weight)·σ^β(current retained state); 0.5 is the equal-weight
    anchor rule, 0 the pure block sampler.
    """
    core = Conditioned(system, prior, contexts)
    if check_positivity:
        _warn_if_not_positive(core, config.beta)
    assignment = core.validate(initial)
    k = len(core.contexts)
    keep = int(math.floor(config.gamma * k))
    if keep < 1:
        raise ValidationError(
            f"floor(gamma·{k}) = {keep}; the retained subset must be non-empty"
        )
    rng = np.random.default_rng(config.seed)
    lam = config.anchor_weight

    trajectory = np.empty((config.steps + 1, k), dtype=np.int64)
    coherence_bits = np.empty(config.steps + 1)
    trajectory[0] = assignment
    coherence_bits[0] = core.coherence_bits(assignment)
    moves = np.empty((config.steps, k - keep), dtype=np.int64)
    anchor_p: list[np.ndarray] | None = None

    for t in range(config.steps):
        kept = rng.permutation(k)[:keep]
        kept_set = set(int(j) for j in kept)
        numerators = core.base.copy()
        for j in kept_set:
            numerators += core.log_emissions[j][:, assignment[j]]
        top = float(numerators.max())
        if top == -math.inf:
            raise DegenerateConditioningError(
                f"degenerate conditioning at round {t}: retained state has "
                "zero likelihood"
            )
        weights = np.exp(numerators - top)
        if t == 0 and lam > 0.0:
            # round-0 retained state is the anchor for all later rounds
            anchor_p = [weights @ core.emissions[j] for j in range(k)]
        resampled = tuple(j for j in range(k) if j not in kept_set)
        for j in resampled:
            use_anchor = False
            if lam > 0.0:
                use_anchor = lam >= 1.0 or rng.random() < lam
            if use_anchor:
                assert anchor_p is not None
                p = anchor_p[j]
            else:
                p = weights @ core.emissions[j]
            assignment[j] = _draw(
                _tempered_weights(p, config.beta), float(rng.random())
            )
        trajectory[t + 1] = assignment
        coherence_bits[t + 1] = core.coherence_bits(assignment)
        moves[t] = resampled

    return RunRecord(
        kind="tf-gibbs",
        contexts=core.contexts,
        sizes=core.sizes,
        trajectory=trajectory,
        coherence_bits=coherence_bits,
        moves=moves,
        seed=config.seed,
        config=config,
        prior_counts=dict(core.prior.counts),
    )


def debate_run(
    system: MixtureBayesSystem,
    config: SamplerConfig,
    *,
    prior: PolicyState | None = None,
    contexts: Sequence[int] | None = None,
    check_positivity: bool = True,
) -> RunRecord:
    """Two-context alternating sampler: each round the second context responds
    to the first's previous behavior, then the first responds to that fresh
    reply. Requires exactly two covered contexts.
    """
    core = Conditioned(system, prior, contexts)
    if len(core.contexts) != 2:
        raise ValidationError(
            f"debate needs exactly 2 contexts, got {len(core.contexts)}"
        )
    if check_positivity:
        _warn_if_not_positive(core, config.beta)
    rng = np.random.default_rng(config.seed)
    state = np.zeros(2, dtype=np.int64)  # (pro, con)

    def respond(position: int, p: np.ndarray) -> None:
        state[position] = _draw(
            _tempered_weights(p, config.beta), float(rng.random())
        )

    respond(0, core.predictive(core.base, 0)[0])
    respond(1, core.leave_one_out(state, 1)[0])

    trajectory = np.empty((config.steps + 1, 2), dtype=np.int64)
    coherence_bits = np.empty(config.steps + 1)
    trajectory[0] = state
    coherence_bits[0] = core.coherence_bits(trajectory[0])

    for t in range(config.steps):
        respond(1, core.leave_one_out(state, 1)[0])
        respond(0, core.leave_one_out(state, 0)[0])
        trajectory[t + 1] = state
        coherence_bits[t + 1] = core.coherence_bits(trajectory[t + 1])

    return RunRecord(
        kind="debate",
        contexts=core.contexts,
        sizes=core.sizes,
        trajectory=trajectory,
        coherence_bits=coherence_bits,
        moves=np.tile(np.arange(2, dtype=np.int64), (config.steps, 1)),
        seed=config.seed,
        config=config,
        prior_counts=dict(core.prior.counts),
    )


def simple_bootstrap_run(
    system: MixtureBayesSystem,
    context_order: Sequence[int] | str,
    config: SamplerConfig,
    *,
    prior: PolicyState | None = None,
    contexts: Sequence[int] | None = None,
) -> BootstrapResult:
    """Sequential sampler: visit each context once, drawing its behavior from
    the tempered conditional given everything drawn so far.

    context_order is a permutation of positions into the covered contexts, or
    "random" for a seeded uniform permutation. config.steps is ignored; the
    walk length is the number of covered contexts.
    """
    core = Conditioned(system, prior, contexts)
    k = len(core.contexts)
    rng = np.random.default_rng(config.seed)
    if isinstance(context_order, str):
        if context_order != "random":
            raise ValidationError(
                f"context_order must be a permutation or 'random', "
                f"got {context_order!r}"
            )
        order = tuple(int(j) for j in rng.permutation(k))
    else:
        order = tuple(int(j) for j in context_order)
        if sorted(order) != list(range(k)):
            raise ValidationError(
                "context_order must visit each covered context exactly once"
            )

    assignment = np.zeros(k, dtype=np.int64)
    numerators = core.base.copy()
    trace: list[float] = []
    log2_mass = 0.0
    for j in order:
        p, _ = core.predictive(numerators, j)
        weights = _tempered_weights(p, config.beta)
        a = _draw(weights, float(rng.random()))
        step_prob = float(weights[a] / weights.sum())
        trace.append(step_prob)
        log2_mass += math.log2(step_prob) if step_prob > 0 else -math.inf
        assignment[j] = a
        numerators = numerators + core.log_emissions[j][:, a]

    return BootstrapResult(
        policy=DPolicy(tuple(int(a) for a in assignment)),
        order=order,
        step_probabilities=tuple(trace),
        log2_mass=log2_mass,
        contexts=core.contexts,
        seed=config.seed,
        config=config,
    )


def bootstrap_exact_distribution(
    system: MixtureBayesSystem,
    context_order: Sequence[int],
    beta: float,
    *,
    prior: PolicyState | None = None,
    contexts: Sequence[int] | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> PolicyDistribution:
    """Distribution over final assignments induced by the sequential sampler
    for one fixed visiting order, by a depth-first walk of the path tree: one
    tempered conditional per node reached by positive steps, and log
    numerators held for one path's pending siblings only."""
    core = Conditioned(system, prior, contexts)
    k = len(core.contexts)
    order = tuple(int(j) for j in context_order)
    if sorted(order) != list(range(k)):
        raise ValidationError(
            "context_order must visit each covered context exactly once"
        )
    _check_cap(math.prod(core.sizes), cap)
    if k == 0:  # the empty assignment is the only outcome
        return PolicyDistribution(masses=np.ones(1), provenance="custom", sizes=())
    sizes = [core.sizes[j] for j in order]
    masses = np.zeros(math.prod(sizes))  # indexed in visiting order
    stack = [(0, core.base, 1.0, 0)]  # (level, numerators, mass, prefix index)
    while stack:
        level, numerators, mass, index = stack.pop()
        j = order[level]
        steps = temper(core.predictive(numerators, j)[0], beta)
        index *= sizes[level]
        if level == k - 1:
            masses[index : index + sizes[level]] = mass * steps
            continue
        for a in np.flatnonzero(steps):
            child = numerators + core.log_emissions[j][:, a]
            stack.append((level + 1, child, mass * steps[a], index + a))
    masses = masses.reshape(sizes).transpose(np.argsort(order)).ravel()
    return PolicyDistribution(
        masses=masses / masses.sum(), provenance="custom", sizes=core.sizes
    )


def mutual_predictability(
    system: MixtureBayesSystem,
    policy: DPolicy,
    *,
    prior: PolicyState | None = None,
    contexts: Sequence[int] | None = None,
) -> float:
    """Sum over positions of log2 σ(everything else, s)(chosen behavior).

    The leave-one-out analogue of coherence; -inf when some position's chosen
    behavior has zero conditional probability.
    """
    core = Conditioned(system, prior, contexts)
    return _mutual_predictability(core, core.validate(policy))


def _mutual_predictability(core: Conditioned, assignment: np.ndarray) -> float:
    total = 0.0
    for j in range(len(core.contexts)):
        p, _ = core.leave_one_out(assignment, j)
        mass = float(p[assignment[j]]) / float(p.sum())
        if mass <= 0.0:
            return -math.inf
        total += math.log2(mass)
    return total


def _icm_score(core: Conditioned, assignment: np.ndarray) -> float:
    """Mutual predictability, -inf where a leave-one-out state is impossible."""
    try:
        return _mutual_predictability(core, assignment)
    except DegenerateConditioningError:
        return -math.inf


def icm_hill_climb(
    system: MixtureBayesSystem,
    initial: DPolicy,
    max_iters: int = 100,
    seed: int = 0,
    *,
    restarts: int = 8,
    prior: PolicyState | None = None,
    contexts: Sequence[int] | None = None,
) -> DPolicy:
    """Best-improvement coordinate ascent on mutual predictability with
    seeded random restarts; returns the best policy found.

    The returned policy is a local maximum under single-coordinate moves
    unless the per-restart sweep cap max_iters was hit.
    """
    if max_iters < 1:
        raise ValidationError(f"max_iters must be >= 1, got {max_iters}")
    if restarts < 1:
        raise ValidationError(f"restarts must be >= 1, got {restarts}")
    core = Conditioned(system, prior, contexts)
    k = len(core.contexts)
    rng = np.random.default_rng(seed)
    starts = [core.validate(initial)]
    for _ in range(restarts - 1):
        starts.append(
            np.array([rng.integers(0, s) for s in core.sizes], dtype=np.int64)
        )

    best_assignment = starts[0].copy()
    best_score = -math.inf
    for start in starts:
        current = start.copy()
        current_score = _icm_score(core, current)
        for _ in range(max_iters):
            move = None
            move_score = current_score
            for j in range(k):
                original = current[j]
                for a in range(core.sizes[j]):
                    if a == original:
                        continue
                    current[j] = a
                    candidate = _icm_score(core, current)
                    if candidate > move_score:
                        move, move_score = (j, a), candidate
                current[j] = original
            if move is None:
                break
            current[move[0]] = move[1]
            current_score = move_score
        if current_score > best_score:
            best_assignment = current.copy()
            best_score = current_score

    return DPolicy(tuple(int(a) for a in best_assignment))


def gibbs_step_probability(
    system: MixtureBayesSystem,
    policy_from: DPolicy,
    policy_to: DPolicy,
    beta: float,
    *,
    prior: PolicyState | None = None,
    contexts: Sequence[int] | None = None,
) -> float:
    """Closed-form one-step transition probability of the single-site kernel.

    Zero when the policies differ in more than one coordinate; for the
    diagonal it sums the per-coordinate stay probabilities.
    """
    core = Conditioned(system, prior, contexts)
    from_asg = core.validate(policy_from)
    to_asg = core.validate(policy_to)
    k = len(core.contexts)
    differing = [j for j in range(k) if from_asg[j] != to_asg[j]]
    if len(differing) > 1:
        return 0.0

    def resample_mass(position: int, target: int) -> float:
        p, _ = core.leave_one_out(from_asg, position)
        return float(temper(p, beta)[target])

    if len(differing) == 1:
        j = differing[0]
        return resample_mass(j, int(to_asg[j])) / k
    return sum(resample_mass(j, int(from_asg[j])) for j in range(k)) / k


def exact_conditional_distribution(
    system: MixtureBayesSystem,
    beta: float,
    *,
    prior: PolicyState | None = None,
    contexts: Sequence[int] | None = None,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> PolicyDistribution:
    """Exact tempered distribution over the covered sub-policy space given the
    prior state: mass ∝ (conditional joint)^beta.

    With an empty prior over all contexts this equals the softmax over
    coherence; it is the sampler family's exact reference distribution.
    """
    if beta <= 0:
        raise ValidationError(f"beta must be positive, got {beta}")
    core = Conditioned(system, prior, contexts)
    return PolicyDistribution(
        masses=temper(core.masses(cap), beta),
        provenance="exact-softmax",
        sizes=core.sizes,
    )
