"""Distribution diagnostics and generalization-bound computations.

Every bound is one description-length regularizer: the optimality gap
-2·chi + log2 e, the radicands built on it and log2(1/delta) are each written
once and shared by the reports, regularized selection and the trials.

Bound formulas come in two radicand sign conventions: "corrected" adds the
log2(1/delta) confidence term inside the square root (the standard
concentration form, asserted by the test suite), while "paper" subtracts it
(reported but never asserted). Every report echoes its inputs and the sign
convention used.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .coherence import CoherenceValue, PolicyDistribution, coherence
from .errors import ValidationError

if TYPE_CHECKING:
    from .samplers import RunRecord
from .systems import (
    DEFAULT_ENUMERATION_CAP,
    Conditioned,
    DPolicy,
    MixtureBayesSystem,
    PolicyState,
    _check_index,
    _check_int,
    _check_mixtures,
    _check_real,
    _draw_mixture,
    _enumerate_masses,
    generic_partition,
)

LOG2_E = math.log2(math.e)
TRIAL_SIZES = (3, 3, 3)
TRIAL_LATENTS = 2
TRIAL_EMISSION_CONCENTRATION = 1.0
# numpy's limits on the Monte Carlo counts: SeedSequence counts the streams
# it spawns in a uint32, and one array of int64 draws must count its bytes
# in a signed machine word
MAX_TRIALS = 2**32 - 1
MAX_TRAIN_DRAWS = sys.maxsize // 8
# trials per stacked chunk: about as fast as one stack of every trial, at a
# small fraction of its memory
_TRIAL_CHUNK = 64

__all__ = [
    "BoundReport",
    "AgreementStats",
    "TrialRow",
    "tv_distance",
    "empirical_distribution",
    "agreement",
    "uniform_convergence_bound",
    "optimality_gap",
    "accuracy_lower_bound",
    "srm_select",
    "distribution_entropy",
    "distribution_kl",
    "regularization_bound_rhs",
    "conjectured_posttrain_count",
    "ternary_search_sample_count",
    "bound_validity_trials",
]


@dataclass(frozen=True)
class BoundReport:
    """A bound value plus the echoed inputs that determine it.

    valid is True only when the radicand was non-negative and the value lies
    in the meaningful [0, 1] range (for accuracy-flavored bounds); note
    explains why when it is False.
    """

    kind: str
    value: float
    valid: bool
    note: str = ""
    inputs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class AgreementStats:
    """Fraction of a context subset on which two policies coincide."""

    alpha: float
    subset_size: int


def _check_support(p: PolicyDistribution, q: PolicyDistribution) -> None:
    """Raise ValidationError unless p and q enumerate one policy space."""
    if len(p) != len(q) or (None not in (p.sizes, q.sizes) and p.sizes != q.sizes):
        raise ValidationError(
            f"support mismatch: {len(p)} policies (sizes {p.sizes}) vs "
            f"{len(q)} policies (sizes {q.sizes})"
        )


def tv_distance(p: PolicyDistribution, q: PolicyDistribution) -> float:
    """Half the L1 distance between two distributions on the same space."""
    _check_support(p, q)
    return 0.5 * float(np.abs(p.masses - q.masses).sum())


def empirical_distribution(
    record: "RunRecord",
    estimator: str = "uniform-round",
    thin: int = 1,
) -> PolicyDistribution:
    """Normalized visit counts of a run over its covered policy space.

    "uniform-round" counts every round including the initial policy;
    "burnin-thinned" drops the config's burn_in rounds and keeps every
    thin-th row after that.
    """
    indices = record.policy_indices()
    if estimator == "uniform-round":
        kept = indices
    elif estimator == "burnin-thinned":
        kept = indices[record.config.burn_in :: _check_int(thin, "thin")]
        if kept.size == 0:
            raise ValidationError("burn-in left no trajectory rows")
    else:
        raise ValidationError(
            f"estimator must be 'uniform-round' or 'burnin-thinned', "
            f"got {estimator!r}"
        )
    total = math.prod(record.sizes)
    counts = np.bincount(kept, minlength=total).astype(np.float64)
    return PolicyDistribution(
        masses=counts / counts.sum(),
        provenance="empirical",
        sizes=tuple(record.sizes),
    )


def agreement(
    policy1: DPolicy, policy2: DPolicy, subset: Sequence[int]
) -> AgreementStats:
    """Fraction of the given contexts where the two policies coincide."""
    positions = [_check_index(c, "context index") for c in subset]
    if not positions:
        raise ValidationError("agreement needs a non-empty context subset")
    if len(policy1) != len(policy2):
        raise ValidationError("policies cover different numbers of contexts")
    for c in positions:
        if not 0 <= c < len(policy1):
            raise ValidationError(f"context index {c} out of range")
    hits = sum(
        1 for c in positions if policy1.assignment[c] == policy2.assignment[c]
    )
    return AgreementStats(alpha=hits / len(positions), subset_size=len(positions))


def _log_delta_term(delta: float) -> float:
    """log2(1/delta), the confidence term; delta must lie in (0, 1]."""
    return math.log2(1.0 / _check_real(delta, "delta", "(0, 1]"))


def _require_finite(**values: float) -> list[float]:
    """The values as floats, so an int gives its float's bits, after raising
    ValidationError unless each is a finite number (_check_real)."""
    return [float(_check_real(value, name, "finite")) for name, value in values.items()]


def _gap(chi):
    """-2·chi + log2 e, the optimality gap of coherence chi (float or array)."""
    return -2.0 * chi + LOG2_E


def _regularizer_radicand(gap, signed_log_term: float, n: int):
    """(gap ± log2(1/delta)) / (2N), the squared regularizer."""
    return (gap + signed_log_term) / (2.0 * n)


def _floor_radicand(gap, signed_log_term: float, n: int):
    """(2G ± 2·log2(1/delta)) / N, the squared distance of the floor below 1."""
    return (2.0 * gap + 2.0 * signed_log_term) / n


def _signed(log_term: float, sign_convention: str) -> float:
    if sign_convention == "corrected":
        return log_term
    if sign_convention == "paper":
        return -log_term
    raise ValidationError(
        f"sign_convention must be 'corrected' or 'paper', got {sign_convention!r}"
    )


def uniform_convergence_bound(
    chi: float | CoherenceValue,
    N: int,
    delta: float,
    sign_convention: str = "corrected",
) -> BoundReport:
    """Generalization-gap bound sqrt((-2·chi + log2 e ± log2(1/delta))/(2N)).

    chi is the policy's coherence in bits (≤ 0). The gap |accuracy −
    training accuracy| is below this value uniformly over policies with
    probability 1 − delta (corrected sign).
    """
    chi_bits = float(
        _check_real(chi.bits if isinstance(chi, CoherenceValue) else chi, "chi")
    )
    N = _check_int(N, "N")
    if not chi_bits <= 1e-9:
        raise ValidationError(f"chi must be <= 0, got {chi_bits}")
    log_term = _log_delta_term(delta)
    inputs = {
        "chi": chi_bits,
        "N": N,
        "delta": float(delta),
        "sign_convention": sign_convention,
    }
    radicand = _regularizer_radicand(
        _gap(chi_bits), _signed(log_term, sign_convention), N
    )
    if radicand < 0.0:
        value, note = math.nan, f"negative radicand {radicand!r}"
    else:
        value = math.sqrt(radicand)
        note = "" if value <= 1.0 else "vacuous: bound exceeds 1"
    return BoundReport(
        kind="uniform-convergence",
        value=value,
        valid=not note,
        note=note,
        inputs=inputs,
    )


def optimality_gap(
    system: MixtureBayesSystem,
    prior: PolicyState,
    ground_truth: DPolicy,
) -> float:
    """-2·coherence of the ground truth under the prior, plus log2 e.

    Measures prior quality for regularization; +inf when the ground truth has
    zero mass under the prior.
    """
    return _gap(coherence(system, prior, ground_truth).bits)


def accuracy_lower_bound(
    G: float,
    N: int,
    delta: float,
    sign_convention: str = "corrected",
) -> BoundReport:
    """Accuracy floor 1 - sqrt((2G ± 2·log2(1/delta))/N) for the regularized
    selection rule; may be negative (vacuous) and is flagged, not clamped."""
    N = _check_int(N, "N")
    _check_real(G, "G", "[-inf, inf]")
    log_term = _log_delta_term(delta)
    inputs = {
        "G": float(G),
        "N": N,
        "delta": float(delta),
        "sign_convention": sign_convention,
    }
    if math.isinf(G):
        value, note = -math.inf, "optimality gap is infinite"
    else:
        radicand = _floor_radicand(G, _signed(log_term, sign_convention), N)
        if radicand < 0.0:
            value, note = math.nan, f"negative radicand {radicand!r}"
        else:
            value = 1.0 - math.sqrt(radicand)
            note = "" if 0.0 <= value <= 1.0 else "vacuous: bound below 0"
    return BoundReport(
        kind="accuracy-lower-bound",
        value=value,
        valid=not note,
        note=note,
        inputs=inputs,
    )


def srm_select(
    system: MixtureBayesSystem,
    prior: PolicyState,
    candidates: Sequence[DPolicy] | None,
    train_samples: Sequence[tuple[int, int]],
    N: int | None = None,
    delta: float = 0.05,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> DPolicy:
    """Argmax of training accuracy minus the description-length regularizer
    (corrected sign).

    With no train samples the objective reduces to the coherence argmax. Ties
    break toward higher coherence, then lower policy index.
    """
    partition = system.partition
    samples = [partition._check_slot(c, a) for c, a in train_samples]
    n_train = len(samples) if N is None else N
    if samples:
        n_train = _check_int(n_train, "N")
    log_term = _log_delta_term(delta)
    core = Conditioned(system, prior)
    if candidates is None:
        with np.errstate(divide="ignore"):
            chi = np.log2(core.masses(cap))
        index = np.arange(chi.size)
    else:
        pool = list(candidates)
        if not pool:
            raise ValidationError("empty candidate set")
        chi = np.array([core.coherence_bits(p.assignment) for p in pool])
        index = np.array([partition.policy_index(p.assignment) for p in pool])
    alpha_train = None
    if samples:
        coords = np.unravel_index(index, partition.sizes)
        alpha_train = sum(coords[c] == a for c, a in samples) / n_train
    picked = _srm_pick(chi, alpha_train, n_train, log_term)
    return partition.policy_at(index[picked])


def _srm_pick(
    chi: np.ndarray,
    alpha_train: np.ndarray | None,
    n_train: int,
    log_term: float,
) -> np.ndarray:
    """Position of the regularized-selection winner in a pool, or in each
    pool of a stack (leading axes, pools along the last).

    The objective is training accuracy minus the corrected-sign
    description-length regularizer, its radicand clamped at 0, or chi itself
    without training samples (alpha_train None). Ties go to higher
    coherence, then to the lower position.
    """
    objective = chi
    if alpha_train is not None:
        radicand = _regularizer_radicand(_gap(chi), log_term, n_train)
        objective = alpha_train - np.sqrt(np.maximum(radicand, 0.0))
    order = np.broadcast_to(np.arange(chi.shape[-1]), chi.shape)
    return np.lexsort((order, -chi, -objective))[..., 0]


def distribution_entropy(q: PolicyDistribution) -> float:
    """Shannon entropy in bits; zero-mass policies contribute nothing."""
    masses = q.masses[q.masses > 0]
    return float(-(masses * np.log2(masses)).sum())


def distribution_kl(q: PolicyDistribution, p: PolicyDistribution) -> float:
    """KL divergence in bits; +inf when q puts mass where p has none."""
    _check_support(q, p)
    support = q.masses > 0
    if np.any(p.masses[support] <= 0):
        return math.inf
    qm = q.masses[support]
    pm = p.masses[support]
    return float((qm * (np.log2(qm) - np.log2(pm))).sum())


def regularization_bound_rhs(
    alphaQ: float,
    H: float,
    KL: float,
    N: int,
    delta: float,
) -> float:
    """Asymptotic-form accuracy floor for description-length regularization:

        alphaQ - sqrt(2·log2(1/delta)/N) + sqrt(2/(N·log2(1/delta)))·(H - KL)

    Strictly decreasing in KL for fixed other inputs (the vanishing remainder
    term is dropped). delta = 1 is rejected: the formula divides by
    log2(1/delta). alphaQ and H must be finite; KL may be +inf.
    """
    N = _check_int(N, "N")
    alphaQ, H = _require_finite(alphaQ=alphaQ, H=H)
    _check_real(KL, "KL", "[-inf, inf]")
    log_term = _log_delta_term(delta)
    if log_term == 0.0:
        raise ValidationError(f"delta must be in (0, 1), got {delta}")
    return (
        alphaQ
        - math.sqrt(2.0 * log_term / N)
        + math.sqrt(2.0 / (N * log_term)) * (H - KL)
    )


def conjectured_posttrain_count(
    mean_pretrain_coh: float,
    mean_posttrain_coh: float,
    pretrain_error: float,
    pretrain_count: int,
) -> float:
    """Conjectured unsupervised-context budget:

        (1/4) · (mean pretrain coherence² / |mean posttrain coherence|)
              · (1/(1 - pretrain error))² · pretrain count

    Mean coherences are per-context values in bits; either sign convention is
    accepted (magnitudes are used). The output is a recommendation only, and
    the posttrain mean itself depends on the chosen budget, so treat the
    value as a one-shot evaluation, not a solved fixed point.
    """
    mean_pretrain_coh, mean_posttrain_coh = _require_finite(
        mean_pretrain_coh=mean_pretrain_coh,
        mean_posttrain_coh=mean_posttrain_coh,
    )
    _check_real(pretrain_error, "pretrain_error", "[0, 1)")
    pretrain_count = _check_int(pretrain_count, "pretrain_count")
    if mean_posttrain_coh == 0.0:
        raise ValidationError("mean_posttrain_coh must be nonzero")
    try:
        square = mean_pretrain_coh**2
    except OverflowError:  # a finite mean past 1.3e154 squares past the floats
        square = math.inf
    return (
        0.25
        * (square / abs(mean_posttrain_coh))
        * (1.0 / (1.0 - pretrain_error)) ** 2
        * pretrain_count
    )


def _ternary_bracket(
    objective: Callable[[int], float],
    lo: int,
    hi: int,
    iters: int,
) -> tuple[int, int, int]:
    """Shrink [lo, hi] by ternary steps; returns (argmax, lo, hi) with the
    final scan breaking ties toward the lowest index."""
    lo, hi = _check_index(lo, "lo"), _check_index(hi, "hi")
    if lo >= hi:
        raise ValidationError(f"need lo < hi, got [{lo}, {hi}]")
    remaining = _check_int(iters, "iters")
    cache: dict[int, float] = {}

    def value(x: int) -> float:
        if x not in cache:
            out = float(objective(x))
            if not math.isfinite(out):
                raise ValidationError(
                    f"objective returned non-finite value {out!r} at {x}"
                )
            cache[x] = out
        return cache[x]

    while hi - lo > 2 and remaining > 0:
        third = (hi - lo) // 3
        m1 = lo + third
        m2 = hi - third
        if value(m1) < value(m2):
            lo = m1 + 1
        else:
            hi = m2 - 1
        remaining -= 1
    best = min(range(lo, hi + 1), key=lambda x: (-value(x), x))
    return best, lo, hi


def ternary_search_sample_count(
    objective: Callable[[int], float],
    lo: int,
    hi: int,
    iters: int = 64,
) -> int:
    """Integer-lattice argmax by ternary search; exact on unimodal objectives,
    within the shrunk bracket otherwise. Plateau ties go to the lowest index."""
    best, _, _ = _ternary_bracket(objective, lo, hi, iters)
    return best


@dataclass(frozen=True)
class TrialRow:
    """One Monte Carlo trial of the uniform generalization-gap event.

    The srm_* fields track the end-to-end selection claim: the policy picked
    by the regularized objective must reach the accuracy floor derived from
    the ground truth's optimality gap (never the intermediate coherence
    comparison, which is a proof device only).
    """

    seed: int
    violated: bool
    max_gap: float
    bound_at_max: float
    violated_paper: bool
    srm_accuracy: float
    accuracy_floor: float
    srm_violated: bool


def bound_validity_trials(
    n_trials: int,
    seed: int = 0,
    n_train: int = 50,
    delta: float = 0.1,
) -> list[TrialRow]:
    """Seeded Monte Carlo for the uniform gap bound.

    Per trial: draw a random positive system (TRIAL_LATENTS latents over
    contexts of TRIAL_SIZES), a ground truth from its exact policy
    distribution, and n_train training contexts uniformly with replacement;
    then check |accuracy - training accuracy| <= bound for every policy
    simultaneously. violated uses the corrected sign; violated_paper reports
    the printed-sign variant, where a negative radicand counts as a
    violation. Counts that are not integers, or past MAX_TRIALS or
    MAX_TRAIN_DRAWS, raise ValidationError before anything is spawned or
    drawn.

    Trials run in chunks of _TRIAL_CHUNK. Each trial's generator makes its
    draws in order (the system, the truth's uniform, the training contexts);
    everything else runs once per chunk on stacked (trials, policies)
    arrays: the constructor's checks, the enumeration kernel, the truth pick
    and the bounds. Each row is bitwise the row a trial computed alone would
    give.
    """
    n_trials = _check_int(n_trials, "n_trials", high=MAX_TRIALS)
    n_train = _check_int(n_train, "n_train", high=MAX_TRAIN_DRAWS)
    log_term = _log_delta_term(delta)
    k = len(TRIAL_SIZES)
    count = math.prod(TRIAL_SIZES)
    partition = generic_partition(TRIAL_SIZES)
    coords = np.array(np.unravel_index(np.arange(count), TRIAL_SIZES))
    # spawning in chunks gives the children one spawn(n_trials) would
    parent = np.random.SeedSequence(_check_int(seed, "seed", 0))
    rows: list[TrialRow] = []
    for first in range(0, n_trials, _TRIAL_CHUNK):
        weights, tables, uniforms, contexts = [], [], [], []
        for stream in parent.spawn(min(_TRIAL_CHUNK, n_trials - first)):
            rng = np.random.default_rng(stream)
            w, e = _draw_mixture(
                TRIAL_SIZES, TRIAL_LATENTS, rng, TRIAL_EMISSION_CONCENTRATION
            )
            weights.append(w)
            tables.append(e)
            uniforms.append(rng.random())
            draws = rng.integers(0, k, size=n_train)
            contexts.append(np.bincount(draws, minlength=k))
        weights = np.array(weights)
        emissions = [np.array(column) for column in zip(*tables)]
        _check_mixtures(partition, weights, emissions)
        masses = _enumerate_masses(
            weights, emissions, TRIAL_SIZES, DEFAULT_ENUMERATION_CAP
        )
        trial = np.arange(len(masses))

        # the truth: searchsorted's left side on each row's cumulative sum
        target = np.array(uniforms) * masses.sum(axis=-1)
        below = np.cumsum(masses, axis=-1) < target[:, None]
        truth_index = np.minimum(below.sum(axis=-1), count - 1)
        match = coords == coords[:, truth_index].T[:, :, None]  # (trials, k, count)
        alpha_true = match.mean(axis=1)
        # counts times 0 or 1, summed: exact integers in any order
        counts_per_context = np.array(contexts, dtype=np.float64)[:, None]
        alpha_train = (counts_per_context @ match)[:, 0] / n_train

        chi = np.log2(masses)
        gaps = np.abs(alpha_true - alpha_train)
        policy_gaps = _gap(chi)
        bound_corrected = np.sqrt(
            _regularizer_radicand(policy_gaps, log_term, n_train)
        )
        with np.errstate(invalid="ignore"):
            bound_paper = np.sqrt(
                _regularizer_radicand(policy_gaps, -log_term, n_train)
            )
        worst = np.argmax(gaps, axis=-1)
        violated = np.any(gaps > bound_corrected, axis=-1)
        violated_paper = np.any(
            gaps > np.where(np.isnan(bound_paper), -np.inf, bound_paper), axis=-1
        )

        picked = _srm_pick(chi, alpha_train, n_train, log_term)
        gap_truth = policy_gaps[trial, truth_index]
        floor = 1.0 - np.sqrt(_floor_radicand(gap_truth, log_term, n_train))
        srm_accuracy = alpha_true[trial, picked]
        columns = zip(
            violated.tolist(),
            gaps[trial, worst].tolist(),
            bound_corrected[trial, worst].tolist(),
            violated_paper.tolist(),
            srm_accuracy.tolist(),
            floor.tolist(),
            (srm_accuracy < floor).tolist(),
        )
        rows.extend(TrialRow(first + i, *row) for i, row in enumerate(columns))
    return rows
