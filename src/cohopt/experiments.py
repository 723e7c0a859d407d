"""Seeded scenario generation and the end-to-end semi-supervised pipelines.

A scenario is a random positive mixture system, a ground-truth policy drawn
from the system's own exact policy distribution (optionally sharpened or
noised to study prior misspecification), and a supervised/unsupervised
context split. Pipelines condition on the supervised labels and optimize the
unsupervised behaviors; accuracy is reported on the unsupervised contexts.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .analysis import (
    BoundReport,
    _log_delta_term,
    accuracy_lower_bound,
    agreement,
    conjectured_posttrain_count,
    optimality_gap,
    srm_select,
    uniform_convergence_bound,
)
from .coherence import _residual, coherence, sequence_coherence
from .errors import ValidationError
from .samplers import (
    SamplerConfig,
    gibbs_run,
    icm_hill_climb,
    mutual_predictability,
    simple_bootstrap_run,
    training_friendly_gibbs_run,
)
from .systems import (
    _BLOCK_ENTRIES,
    DEFAULT_ENUMERATION_CAP,
    Conditioned,
    DPolicy,
    MixtureBayesSystem,
    PolicyState,
    _check_index,
    _check_int,
    _check_real,
    _tie_search,
    check_beta,
    enumerate_policy_masses,
    generic_partition,
    infer,
    random_mixture_system,
    state_of_policy,
    temper,
)

METHODS = ("gibbs", "tf-gibbs", "bootstrap", "icm", "srm-exhaustive", "erm")

__all__ = [
    "Scenario",
    "SemiSupervisedReport",
    "EquivalenceRow",
    "EquivalenceStudy",
    "METHODS",
    "generate_scenario",
    "run_semi_supervised",
    "equivalence_study",
]


@dataclass(frozen=True)
class Scenario:
    """A system, its ground truth, and a supervised/unsupervised split."""

    system: MixtureBayesSystem
    ground_truth: DPolicy
    supervised: tuple[int, ...]
    unsupervised: tuple[int, ...]
    seed: int

    def __post_init__(self) -> None:
        for name in ("supervised", "unsupervised"):
            split = tuple(_check_index(c, f"{name} context") for c in getattr(self, name))
            object.__setattr__(self, name, split)
        overlap = set(self.supervised) & set(self.unsupervised)
        if overlap:
            raise ValidationError(f"split overlaps on contexts {sorted(overlap)}")
        covered = sorted(self.supervised + self.unsupervised)
        if covered != list(range(self.system.partition.n_contexts)):
            raise ValidationError("split must cover every context exactly once")
        self.system.partition.policy_index(self.ground_truth.assignment)

    @property
    def labels(self) -> tuple[tuple[int, int], ...]:
        """(context, behavior) pairs revealed to the learner."""
        return tuple(
            (c, self.ground_truth.assignment[c]) for c in self.supervised
        )

    @property
    def prior_state(self) -> PolicyState:
        """Sum of the supervised labels; the pipelines' conditioning state."""
        return state_of_policy(
            self.system.partition, self.ground_truth, self.supervised
        )

    # what every pipeline run on this scenario computes alike, computed once
    @cached_property
    def _greedy_start(self) -> DPolicy:
        """The per-context greedy choice over the unsupervised contexts."""
        return _greedy_assignment(self.system, self.prior_state, self.unsupervised)

    @cached_property
    def _chi_pre_bits(self) -> float:
        """Sequential coherence of the labels from the empty state."""
        return sequence_coherence(
            self.system, PolicyState.zero(), list(self.labels)
        ).bits

    @cached_property
    def _optimality_gap(self) -> float:
        """optimality_gap of the ground truth under the labels."""
        return optimality_gap(self.system, self.prior_state, self.ground_truth)


def _draw_truth(masses: np.ndarray, truth_beta: float, u: float) -> int:
    """The index that the uniform u picks from masses tempered by
    truth_beta: the first whose cumulative tempered mass reaches u, summed
    over the entries of positive tempered mass alone. Adding a zero leaves a
    cumulative sum as it was, so this is the pick over every entry, but
    never one of zero tempered mass. At truth_beta = +inf each tie has
    tempered mass exactly 1/ties."""
    tempered = temper(masses, truth_beta)
    positive = np.flatnonzero(tempered)
    return _pick(positive, np.cumsum(tempered[positive]), u)


def _pick(indices: np.ndarray, cumulative: np.ndarray, u: float) -> int:
    """The entry of indices at the first cumulative value that reaches u:
    the first entry for u = 0.0, the last for u past every value."""
    return int(indices[min(int(np.searchsorted(cumulative, u)), indices.size - 1)])


def _truth_index(
    system: MixtureBayesSystem, truth_beta: float, rng: np.random.Generator
) -> int:
    """The ground truth's policy index, drawn with one rng.random().

    At truth_beta = +inf, where the enumeration would outgrow the kernel's
    block (policies × latents of nonzero weight > _BLOCK_ENTRIES), the ties
    come from _tie_search: the same ties, so the same pick. Smaller spaces,
    finite truth_beta and a search that cannot decide enumerate every mass.
    """
    partition = system.partition
    live = int(np.count_nonzero(system.latent_weights))  # a Python int: no overflow
    if math.isinf(truth_beta) and partition.policy_count() * live > _BLOCK_ENTRIES:
        ties = _tie_search(
            system.latent_weights,
            [system.emissions(c) for c in range(partition.n_contexts)],
            partition.sizes,
            DEFAULT_ENUMERATION_CAP,
        )
        if ties is not None:
            return _pick(ties, np.cumsum(np.full(ties.size, 1.0 / ties.size)), rng.random())
    return _draw_truth(enumerate_policy_masses(system), truth_beta, rng.random())


def generate_scenario(
    n_contexts: int,
    context_size: int,
    n_latents: int,
    emission_concentration: float = 0.5,
    unsupervised_fraction: float = 0.5,
    unsupervised_count: int | None = None,
    seed: int = 0,
    truth_beta: float = 1.0,
    label_noise: float = 0.0,
) -> Scenario:
    """Draw a scenario deterministically from one seed.

    The ground truth is sampled from the system's exact policy distribution
    tempered by truth_beta (1 = matched to the system; +inf = the most
    coherent policy). label_noise independently resamples each ground-truth
    coordinate uniformly with that probability; both knobs exist to study
    prior misspecification and default to the matched case.
    """
    n_contexts = _check_int(n_contexts, "n_contexts")
    context_size = _check_int(context_size, "context_size")
    seed = _check_int(seed, "seed", 0)
    if unsupervised_count is None:
        _check_real(unsupervised_fraction, "unsupervised_fraction", "[0, 1]")
        unsupervised_count = int(round(unsupervised_fraction * n_contexts))
    unsupervised_count = _check_int(unsupervised_count, "unsupervised_count", 0, n_contexts)
    _check_real(label_noise, "label_noise", "[0, 1]")
    check_beta(truth_beta, "truth_beta")
    rng = np.random.default_rng(seed)
    partition = generic_partition([context_size] * n_contexts)
    system = random_mixture_system(
        partition,
        n_latents,
        rng,
        emission_concentration=emission_concentration,
    )
    truth = partition.policy_at(_truth_index(system, truth_beta, rng))
    assignment = list(truth.assignment)
    if label_noise > 0.0:
        for c in range(n_contexts):
            if rng.random() < label_noise:
                assignment[c] = int(rng.integers(0, context_size))
    ground_truth = DPolicy(tuple(assignment))

    order = rng.permutation(n_contexts)
    unsupervised = tuple(sorted(int(c) for c in order[:unsupervised_count]))
    supervised = tuple(sorted(int(c) for c in order[unsupervised_count:]))
    return Scenario(
        system=system,
        ground_truth=ground_truth,
        supervised=supervised,
        unsupervised=unsupervised,
        seed=seed,
    )


@dataclass(frozen=True)
class SemiSupervisedReport:
    """One pipeline run: the selected unsupervised behaviors and its scores."""

    seed: int
    method: str
    policy_names: tuple[str, ...]
    accuracy: float | None
    chi_quotient_bits: float
    chi_full_bits: float
    f_mp_bits: float
    decomposition_residual: float
    gap_bound: BoundReport
    accuracy_floor: BoundReport

    def to_row(self) -> dict:
        return {
            "seed": self.seed,
            "method": self.method,
            "policy": "|".join(self.policy_names),
            "accuracy": self.accuracy,
            "chi_quotient_bits": self.chi_quotient_bits,
            "chi_full_bits": self.chi_full_bits,
            "f_mp_bits": self.f_mp_bits,
            "decomposition_residual": self.decomposition_residual,
            "gap_bound": self.gap_bound.value,
            "accuracy_floor": self.accuracy_floor.value,
        }


def _greedy_assignment(
    system: MixtureBayesSystem, prior: PolicyState, contexts: Sequence[int]
) -> DPolicy:
    """Per-context argmax of the prior-conditioned predictive (ties go to the
    lowest behavior index)."""
    return DPolicy(
        tuple(int(np.argmax(infer(system, prior, c))) for c in contexts)
    )


def _srm_completion(scenario: Scenario, delta: float) -> DPolicy:
    """Regularized selection over the full space from the supervised labels,
    restricted to the unsupervised contexts."""
    full = srm_select(
        scenario.system,
        PolicyState.zero(),
        None,
        list(scenario.labels),
        N=len(scenario.supervised) or None,
        delta=delta,
    )
    return DPolicy(tuple(full.assignment[c] for c in scenario.unsupervised))


def _completed(scenario: Scenario, chosen: DPolicy) -> DPolicy:
    """The ground truth with its unsupervised contexts set to chosen."""
    assignment = list(scenario.ground_truth.assignment)
    for c, a in zip(scenario.unsupervised, chosen.assignment, strict=True):
        assignment[c] = a
    return DPolicy(tuple(assignment))


def run_semi_supervised(
    scenario: Scenario, method: str, config: SamplerConfig | None = None
) -> SemiSupervisedReport:
    """Condition on the supervised labels, optimize the unsupervised
    behaviors with the chosen method, and score against the ground truth.

    All randomness comes from config.seed; sampler-backed methods pick the
    highest-coherence visited policy, and icm runs 4 restarts of at most 50
    sweeps. An empty unsupervised split selects the empty sub-policy and
    reports accuracy None. The bounds use delta 0.05 and the "corrected"
    sign convention.
    """
    if method not in METHODS:
        raise ValidationError(f"method must be one of {METHODS}, got {method!r}")
    if config is None:
        config = SamplerConfig(seed=scenario.seed)
    delta = 0.05
    system = scenario.system
    prior = scenario.prior_state
    s_a = scenario.unsupervised
    truth = scenario.ground_truth

    initial = scenario._greedy_start
    if method == "erm" or not s_a:
        # erm is the per-context greedy baseline; an empty split picks ()
        chosen = initial
    elif method in ("gibbs", "tf-gibbs"):
        sampler = gibbs_run if method == "gibbs" else training_friendly_gibbs_run
        record = sampler(
            system, initial, config, prior=prior, contexts=s_a,
            check_positivity=False,
        )
        chosen = record.policy_at(int(np.argmax(record.coherence_bits)))
    elif method == "bootstrap":
        result = simple_bootstrap_run(
            system, "random", config, prior=prior, contexts=s_a
        )
        chosen = result.policy
    elif method == "icm":
        chosen = icm_hill_climb(
            system,
            initial,
            max_iters=50,
            seed=config.seed,
            restarts=4,
            prior=prior,
            contexts=s_a,
        )
    else:  # srm-exhaustive
        chosen = _srm_completion(scenario, delta)
    combined = _completed(scenario, chosen)

    chi_quotient = sequence_coherence(
        system, prior, [(c, combined.assignment[c]) for c in s_a]
    ).bits
    chi_full = coherence(system, PolicyState.zero(), combined).bits
    chi_pre = scenario._chi_pre_bits
    n_labels = max(len(scenario.supervised), 1)

    return SemiSupervisedReport(
        seed=config.seed,
        method=method,
        policy_names=tuple(
            system.partition.behavior_name(c, combined.assignment[c])
            for c in s_a
        ),
        accuracy=agreement(combined, truth, s_a).alpha if s_a else None,
        chi_quotient_bits=chi_quotient,
        chi_full_bits=chi_full,
        f_mp_bits=mutual_predictability(system, combined),
        decomposition_residual=_residual([chi_quotient, chi_pre], chi_full),
        gap_bound=uniform_convergence_bound(
            min(chi_full, 0.0), n_labels, delta
        ),
        accuracy_floor=accuracy_lower_bound(
            scenario._optimality_gap, n_labels, delta
        ),
    )


@dataclass(frozen=True)
class EquivalenceRow:
    """One (split size, seed) cell of the two-formulation comparison."""

    s_a: int
    seed: int
    acc_coherence: float
    acc_srm: float
    gap: float
    recommended: float


@dataclass(frozen=True)
class EquivalenceStudy:
    """Accuracy gap between coherence-only and regularized selection, per
    unsupervised-split size. Output is evidence, not an assertion."""

    rows: tuple[EquivalenceRow, ...]

    def mean_gaps(self) -> dict[int, float]:
        sums: dict[int, list[float]] = {}
        for row in self.rows:
            sums.setdefault(row.s_a, []).append(row.gap)
        return {s_a: float(np.mean(v)) for s_a, v in sorted(sums.items())}

    def argmin_gap(self) -> int:
        gaps = self.mean_gaps()
        return min(gaps, key=lambda s_a: (gaps[s_a], s_a))


def _coherence_only_choice(
    system: MixtureBayesSystem,
    prior: PolicyState,
    contexts: Sequence[int],
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> DPolicy:
    """Exact argmax of the prior-anchored coherence over the sub-space."""
    core = Conditioned(system, prior, contexts)
    best = int(np.argmax(core.masses(cap)))
    return DPolicy(tuple(int(a) for a in np.unravel_index(best, core.sizes)))


def equivalence_study(
    lattice: Sequence[int],
    seeds: Sequence[int],
    *,
    n_contexts: int,
    context_size: int = 3,
    n_latents: int = 2,
    emission_concentration: float = 0.5,
    truth_beta: float = 1.0,
    label_noise: float = 0.0,
    delta: float = 0.05,
) -> EquivalenceStudy:
    """Compare coherence-only selection (supervised prior) against regularized
    selection across unsupervised-split sizes.

    Per cell: the coherence formulation picks the exact argmax of the
    label-anchored coherence over the unsupervised slice; the regularized
    formulation picks the training-accuracy-minus-regularizer argmax over the
    full space. The gap column is the absolute accuracy difference on the
    unsupervised contexts; the recommended column evaluates the conjectured
    budget formula at that cell (nan when undefined).
    """
    n_contexts = _check_int(n_contexts, "n_contexts")
    lattice = [_check_int(s, "lattice point", 0, n_contexts) for s in lattice]
    seeds = [_check_int(seed, "seed", 0) for seed in seeds]
    if not lattice or not seeds:
        raise ValidationError("need at least one lattice point and one seed")
    _log_delta_term(delta)
    rows: list[EquivalenceRow] = []
    for seed in seeds:
        for s_a_size in lattice:
            scenario = generate_scenario(
                n_contexts,
                context_size,
                n_latents,
                emission_concentration=emission_concentration,
                unsupervised_count=s_a_size,
                seed=seed,
                truth_beta=truth_beta,
                label_noise=label_noise,
            )
            if s_a_size == 0:
                rows.append(
                    EquivalenceRow(
                        s_a=0,
                        seed=seed,
                        acc_coherence=math.nan,
                        acc_srm=math.nan,
                        gap=0.0,
                        recommended=math.nan,
                    )
                )
                continue
            truth, s_a = scenario.ground_truth, scenario.unsupervised
            choice_i = _coherence_only_choice(
                scenario.system, scenario.prior_state, s_a
            )
            acc_i = agreement(_completed(scenario, choice_i), truth, s_a).alpha
            choice_ii = _srm_completion(scenario, delta)
            acc_ii = agreement(_completed(scenario, choice_ii), truth, s_a).alpha
            rows.append(
                EquivalenceRow(
                    s_a=s_a_size,
                    seed=seed,
                    acc_coherence=acc_i,
                    acc_srm=acc_ii,
                    gap=abs(acc_i - acc_ii),
                    recommended=_eq5_recommendation(scenario),
                )
            )
    return EquivalenceStudy(rows=tuple(rows))


def _eq5_recommendation(scenario: Scenario) -> float:
    """One-shot evaluation of the conjectured budget for a scenario, using
    the greedy baseline's supervised error floored at 1e-6."""
    s_a, s_b = scenario.unsupervised, scenario.supervised
    if not s_a or not s_b:
        return math.nan
    system = scenario.system
    truth = scenario.ground_truth
    anchor_b = state_of_policy(system.partition, truth, s_a)
    chi_b = sequence_coherence(
        system, anchor_b, [(c, truth.assignment[c]) for c in s_b]
    ).bits
    chi_a0 = sequence_coherence(
        system, PolicyState.zero(), [(c, truth.assignment[c]) for c in s_a]
    ).bits
    if chi_b == -math.inf or chi_a0 == -math.inf or chi_a0 == 0.0:
        return math.nan
    greedy = _greedy_assignment(system, scenario.prior_state, range(len(truth)))
    error = 1.0 - agreement(greedy, truth, s_b).alpha
    if error >= 1.0:
        return math.nan  # the budget formula is undefined at error rate 1
    return conjectured_posttrain_count(
        mean_pretrain_coh=chi_b / len(s_b),
        mean_posttrain_coh=chi_a0 / len(s_a),
        pretrain_error=max(error, 1e-6),
        pretrain_count=len(s_b),
    )
