"""Optimization and sampling procedures over d-policies: single-site Gibbs,
the training-friendly block variant with anchor mixing, two-context debate,
sequential bootstrap, and mutual-predictability hill climbing.

Every sampler accepts an optional prior state and an optional context subset,
so the same code drives both full-space runs and post-training sub-problems
anchored at a supervised prior. A run is strictly sequential; independent
seeded runs may execute concurrently.
"""

from __future__ import annotations

import bisect
import math
import warnings
from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass, field, fields
from itertools import accumulate

import numpy as np

from .errors import DegenerateConditioningError, ValidationError
from .systems import (
    DEFAULT_ENUMERATION_CAP,
    LN2,
    Conditioned,
    DPolicy,
    MixtureBayesSystem,
    PolicyState,
    _BLOCK_ENTRIES,
    _check_cap,
    _check_index,
    _check_int,
    _check_object,
    _check_real,
    _tempered_rows,
    _tempered_weights,
    check_beta,
    temper,
)
from .coherence import PolicyDistribution, _exact_softmax

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
        check_beta(self.beta)
        for name, low in (("steps", 1), ("seed", 0), ("burn_in", 0)):
            object.__setattr__(self, name, _check_int(getattr(self, name), name, low))
        _check_real(self.gamma, "gamma", "(0, 1)")
        _check_real(self.anchor_weight, "anchor_weight", "[0, 1]")
        for name in ("beta", "gamma", "anchor_weight"):
            object.__setattr__(self, name, float(getattr(self, name)))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SamplerConfig":
        """The config of the fields data names, the rest at their defaults;
        any other key, or data other than a dict, is a ValidationError."""
        _check_object(data, "config", (), [f.name for f in fields(cls)])
        reals = [name for name in ("beta", "gamma", "anchor_weight") if name in data]
        return cls(**{**data, **{name: _read_float(data, name) for name in reals}})


def _read_float(data: dict, name: str) -> float:
    """float() of data[name], a string such as "inf" included;
    ValidationError where float() cannot read it."""
    value = data[name]
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{name} must be a number, got {value!r}") from None


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
    config: SamplerConfig
    prior_counts: dict[int, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return int(self.trajectory.shape[0])

    def policy_at(self, round_index: int) -> DPolicy:
        i = _check_index(round_index, "round index")
        if not 0 <= i < len(self):
            raise ValidationError(f"round index {i} out of range")
        return DPolicy(tuple(int(a) for a in self.trajectory[i]))

    def policy_indices(self) -> np.ndarray:
        """Mixed-radix index of every visited policy over the covered space,
        as int64. Raises EnumerationCapError where the space has more
        policies than int64 can index (2^63 - 1)."""
        _check_cap(math.prod(self.sizes), np.iinfo(np.int64).max)
        return np.ravel_multi_index(self.trajectory.T, self.sizes)


@dataclass(frozen=True)
class BootstrapResult:
    """Final bootstrap assignment with its exact sequential probability trace."""

    policy: DPolicy
    order: tuple[int, ...]
    step_probabilities: tuple[float, ...]
    log2_mass: float
    contexts: tuple[int, ...]
    config: SamplerConfig


def _draw(weights: np.ndarray, u: float) -> int:
    """Inverse-CDF draw from unnormalized weights with one uniform; never
    lands on a zero weight."""
    return _draw_cumulative(np.cumsum(weights).tolist(), weights.tolist(), u)


def _draw_cumulative(cum: list[float], weights: list[float], u: float) -> int:
    """_draw given cum = np.cumsum(weights), both as lists, so a kept draw
    table is reused. bisect_right on the list finds what searchsorted with
    side="right" finds, by the same float comparisons, in a fraction of the
    time on the few entries of one conditional. Its upper bound is the clamp
    to len(cum) - 1 (cum is non-decreasing), not a min() call, which cost
    about a fifth of a dense Gibbs step."""
    idx = bisect.bisect_right(cum, u * cum[-1], 0, len(cum) - 1)
    while weights[idx] == 0.0 and idx > 0:
        idx -= 1
    return idx


# Draw tables, leave-one-outs, seen keys and values per state a chain or
# climb keeps of one kind before it drops them all: far above the 81
# conditionals and 9 retained states of a 3x3x3 chain, and about 6 MB
# (single-site) or under 0.5 MB (block) on a 40-context chain, whose states
# never repeat. Also the widest covered space, in policies, whose block
# chains keep retained states and coherences on first sight: in a space
# of at most this many policies every key can come round again.
_DRAW_TABLE_CAP = 4096
# Steps whose draws gibbs_run converts to Python numbers at once.
_STEP_BLOCK = 4096


def _draw_table(
    p: np.ndarray, beta: float
) -> tuple[list[float], list[float], list[float]]:
    """The cum and weights lists that _draw_cumulative reads for one
    tempered conditional with masses p, and p as a list: one tolist() of
    the tempered weights, cum its running sum (np.cumsum adds in the same
    order, so the bits are the same). At beta 1, where _tempered_weights
    returns p itself, the weights list is the masses list too."""
    tempered = _tempered_weights(p, beta)
    weights = tempered.tolist()
    masses = weights if tempered is p else p.tolist()
    return list(accumulate(weights)), weights, masses


class _KeptTables:
    """What one Markov chain or ICM climb computes once and keeps: draw
    tables of the conditionals a chain visits, the leave-one-outs a climb
    scores, and the coherence or score of the states either visits.

    A state is keyed by its mixed-radix index over the covered positions
    (position 0 most significant, as RunRecord.policy_indices), a Python
    int that a chain updates by (a_new - a_old)·strides[j] on each move; the
    index with some positions zeroed, together with those positions, keys
    what is conditioned on the rest. A chain holds its state as a list,
    which the index arithmetic reads (gibbs_run's slot table reads the index
    alone), and passes each lookup the int64 array that the core reads on a
    miss. gibbs_run writes that array only where some single-position skip
    is not foldable, and passes None elsewhere; it looks its tables up
    inline before it calls conditional(). Each dict is dropped whenever
    _DRAW_TABLE_CAP entries are kept, which bounds its memory on chains
    whose states never repeat. Retained states and coherences are kept by
    one rule, chosen from the covered space: on first sight where it has at
    most _DRAW_TABLE_CAP policies, so that each is computed once; otherwise
    only once a key comes round a second time, so that a wide chain, whose
    states never repeat, holds the hash of each key instead of an entry. A
    conditional or leave-one-out that raises is not kept and raises again on
    every later visit. A chain validated its start, and every draw is in
    range, so these skip the assignment check of leave_one_out and
    coherence_bits.

    A miss reads its log numerators from the core's numerator table for its
    skip, built on the first miss, where the skip is one position or none
    and the table has at most _BLOCK_ENTRIES entries (a small covered
    space). Otherwise, and unless fold, it folds them for its state alone:
    a one-off score misses each skip once, so no table would pay for
    itself. Both give the same bits, and a miss does the same with them.
    Where every state can come round again and the full table fits,
    _kept_tables gives _BatchedTables instead, whose conditionals,
    leave-one-outs and coherences weigh every row of a table at once.
    """

    def __init__(
        self, core: Conditioned, beta: float = 1.0, fold: bool = True
    ) -> None:
        self.core = core
        self.beta = beta
        sizes = core.sizes
        count = math.prod(sizes)
        self.strides = [math.prod(sizes[j + 1 :]) for j in range(len(sizes))]
        # every state of a space within the cap can come round again
        self.first_sight = count <= _DRAW_TABLE_CAP
        # the skips, of one position or none, whose numerator tables fit the
        # enumeration kernel's budget (none unless fold), and the tables
        # built so far
        self.foldable: set[tuple[int, ...]] = set()
        if fold:
            rows = [((j,), count // size) for j, size in enumerate(sizes)]
            self.foldable = {
                skip for skip, n in [*rows, ((), count)]
                if n * core.base.size <= _BLOCK_ENTRIES
            }
        self.folds: dict[tuple[int, ...], np.ndarray] = {}
        self.tables: dict = {}
        self.seen: dict = {}
        self.leave_one_outs: dict[int, tuple[list[float], float]] = {}
        self.bits: dict[int, float] = {}

    def index(self, state: Sequence[int]) -> int:
        return sum(a * s for a, s in zip(state, self.strides))

    def numerators(
        self, assignment: np.ndarray, skip: tuple[int, ...], rest: int
    ) -> np.ndarray:
        """core.numerators(assignment, skip), rest being the state's index
        with the skipped positions zeroed: a row of the core's numerator
        table for skip, built on first need, where skip is foldable;
        otherwise folded for this state alone."""
        table = self.folds.get(skip)
        if table is None:
            if skip not in self.foldable:
                return self.core.numerators(assignment, skip)
            table = self.folds[skip] = self.core.numerator_table(skip)
        if skip:
            rest = self._row(skip[0], rest)
        return table[rest]

    def _row(self, position: int, rest: int) -> int:
        """The row of the numerator table for skip (position,) that rest
        reads: rest with the skipped position's digit dropped from the
        mixed-radix index."""
        stride = self.strides[position]
        high = stride * self.core.sizes[position]
        return rest // high * stride + rest % stride

    @staticmethod
    def _keep(kept: dict, key, value):
        if len(kept) >= _DRAW_TABLE_CAP:
            kept.clear()
        kept[key] = value
        return value

    def _keep_seen(self, kept: dict, key, value):
        """Keep value under key on first sight in a space within the cap,
        otherwise only once key comes round a second time."""
        if self.first_sight:
            return self._keep(kept, key, value)
        # a key's hash marks it seen: a collision only keeps an entry early
        marker = hash(key)
        if marker in self.seen:
            self._keep(kept, key, value)
        else:
            self._keep(self.seen, marker, None)
        return value

    def conditional(
        self, assignment: np.ndarray, position: int, rest: int
    ) -> tuple[list[float], list[float], list[float], float]:
        """The table of position's tempered conditional given every other
        position, rest being the state's index with position zeroed:
        (cum, weights, p, top), p and top as core.leave_one_out gives them."""
        key = rest * len(self.strides) + position
        table = self.tables.get(key)
        if table is None:
            p, top = self.core.predictive(
                self.numerators(assignment, (position,), rest), position
            )
            table = self._keep(self.tables, key, (*_draw_table(p, self.beta), top))
        return table

    def retained(
        self, assignment: np.ndarray, resampled: tuple[int, ...], rest: int
    ) -> tuple[np.ndarray, dict[int, tuple[list[float], ...]]]:
        """The retained state of a block round, rest being the state's index
        with the resampled positions zeroed: the posterior weights given the
        prior and every other position, and a dict that predictive() fills
        with one draw table per position."""
        key = (resampled, rest)
        retained = self.tables.get(key)
        if retained is None:
            weights, _ = self.core.posterior_weights(
                self.numerators(assignment, resampled, rest)
            )
            retained = self._keep_seen(self.tables, key, (weights, {}))
        return retained

    def predictive(
        self, retained: tuple[np.ndarray, dict], position: int
    ) -> tuple[list[float], list[float], list[float]]:
        """The _draw_table of position's tempered predictive given a
        retained state, built once."""
        weights, tables = retained
        table = tables.get(position)
        if table is None:
            table = tables[position] = _draw_table(
                weights.dot(self.core.emissions[position]), self.beta
            )
        return table

    def leave_one_out(
        self, assignment: np.ndarray, position: int, rest: int
    ) -> tuple[list[float], float]:
        """The masses p of position's leave-one-out, as core.leave_one_out
        gives them, as a list, and float(p.sum()); rest as in conditional()."""
        key = rest * len(self.strides) + position
        kept = self.leave_one_outs.get(key)
        if kept is None:
            p, _ = self.core.predictive(
                self.numerators(assignment, (position,), rest), position
            )
            kept = self._keep(self.leave_one_outs, key, (p.tolist(), float(p.sum())))
        return kept

    def mutual_predictability(
        self, assignment: np.ndarray, state: list[int], index: int
    ) -> float:
        """log2 p[a] / sum(p) of each position's kept leave-one-out, added
        in position order; -inf at the first zero mass. state is assignment
        as a list and index its index. Raises DegenerateConditioningError
        where a leave-one-out state is impossible."""
        total = 0.0
        for j, (a, stride) in enumerate(zip(state, self.strides)):
            p, psum = self.leave_one_out(assignment, j, index - a * stride)
            mass = p[a] / psum
            if mass <= 0.0:
                return -math.inf
            total += math.log2(mass)
        return total

    def score(self, assignment: np.ndarray, state: list[int], index: int) -> float:
        """The ICM score of the state, computed once per index:
        mutual_predictability(), or -inf where that raises."""
        value = self.bits.get(index)
        if value is None:
            try:
                value = self.mutual_predictability(assignment, state, index)
            except DegenerateConditioningError:
                value = -math.inf
            self._keep(self.bits, index, value)
        return value

    def coherence(self, assignment: np.ndarray, index: int) -> float:
        """core.coherence_from of the state, kept by its index under the
        rule of _keep_seen."""
        value = self.bits.get(index)
        if value is None:
            value = self._keep_seen(
                self.bits,
                index,
                self.core.coherence_from(self.numerators(assignment, (), index)),
            )
        return value


def _stacked_predictive(
    table: np.ndarray, emissions: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Conditioned.predictive of every row of a C-ordered (rows, latents)
    numerator table: the tops, and the masses as one C-ordered (rows,
    behaviors) array. The same ops row-wise; the matmul of a stack of
    one-row matrices is numpy's loop of the same gemv as weights.dot(emissions)
    (a 2-D matmul is a gemm, whose sums round otherwise). An all -inf row
    gives NaN: callers silence invalid and never read such a row."""
    tops = np.maximum.reduce(table, axis=1)
    weights = np.exp(table - tops[:, None])
    return tops, np.matmul(weights[:, None], emissions)[:, 0]


class _BatchedTables(_KeptTables):
    """_KeptTables of a small covered space, one whose every state can come
    round again and whose full numerator table fits _BLOCK_ENTRIES: the
    first miss at a position builds the conditionals or leave-one-outs of
    every state of that skip in one stacked pass (_predictive_rows), and the
    first coherence miss the totals of every state. A miss then turns one
    row into lists. Each row is bitwise what the per-state path gives.
    retained() and predictive() stay per state."""

    def __init__(self, core: Conditioned, beta: float = 1.0) -> None:
        super().__init__(core, beta)
        # per position, the draw columns and the leave-one-out sums; the
        # coherence totals
        self.draws: dict[int, tuple] = {}
        self.sums: dict[int, tuple] = {}
        self.totals: tuple[list[float], list[float]] | None = None

    def _predictive_rows(self, position: int) -> tuple[list[float], np.ndarray]:
        """_stacked_predictive of the numerator table for skip (position,)."""
        table = self.core.numerator_table((position,))
        tops, masses = _stacked_predictive(table, self.core.emissions[position])
        return tops.tolist(), masses

    def conditional(
        self, assignment: np.ndarray, position: int, rest: int
    ) -> tuple[list[float], list[float], list[float], float]:
        """The row of position's batch, built on its first miss, of tops,
        masses and _draw_table's columns, tempered row-wise; a degenerate
        row takes the per-state path, which raises."""
        key = rest * len(self.strides) + position
        table = self.tables.get(key)
        if table is None:
            batch = self.draws.get(position)
            if batch is None:
                with np.errstate(divide="ignore", invalid="ignore"):
                    tops, masses = self._predictive_rows(position)
                    weights = _tempered_rows(masses, self.beta)
                batch = self.draws[position] = (
                    tops, masses, weights.cumsum(axis=1), weights
                )
            tops, masses, cum, weights = batch
            r = self._row(position, rest)
            if tops[r] == -math.inf:
                return super().conditional(assignment, position, rest)
            table = self._keep(
                self.tables,
                key,
                (cum[r].tolist(), weights[r].tolist(), masses[r].tolist(), tops[r]),
            )
        return table

    def leave_one_out(
        self, assignment: np.ndarray, position: int, rest: int
    ) -> tuple[list[float], float]:
        """The row of position's batch, built on its first miss, of masses
        and their sums; a degenerate row takes the per-state path, which
        raises."""
        key = rest * len(self.strides) + position
        kept = self.leave_one_outs.get(key)
        if kept is None:
            batch = self.sums.get(position)
            if batch is None:
                with np.errstate(invalid="ignore"):
                    tops, masses = self._predictive_rows(position)
                    batch = self.sums[position] = (
                        tops, masses, masses.sum(axis=1).tolist()
                    )
            tops, masses, sums = batch
            r = self._row(position, rest)
            if tops[r] == -math.inf:
                return super().leave_one_out(assignment, position, rest)
            kept = self._keep(self.leave_one_outs, key, (masses[r].tolist(), sums[r]))
        return kept

    def coherence(self, assignment: np.ndarray, index: int) -> float:
        """From the tops and totals exp(n - top).sum() of every row of the
        full numerator table, built on the first miss, by coherence_from's
        arithmetic; kept on first sight."""
        value = self.bits.get(index)
        if value is None:
            if self.totals is None:
                table = self.core.numerator_table(())
                tops = np.maximum.reduce(table, axis=1)
                with np.errstate(invalid="ignore"):
                    totals = np.exp(table - tops[:, None]).sum(axis=1)
                self.totals = (tops.tolist(), totals.tolist())
            tops, totals = self.totals
            log_ml = tops[index]
            if log_ml != -math.inf:  # an impossible state's is -inf
                log_ml += math.log(totals[index])
            value = self._keep(
                self.bits, index, (log_ml - self.core.log_prior_ml) / LN2
            )
        return value


def _kept_tables(core: Conditioned, beta: float = 1.0) -> _KeptTables:
    """The kept tables of a chain or climb on core: _BatchedTables where
    the covered space has at most _DRAW_TABLE_CAP policies and its full
    numerator table fits _BLOCK_ENTRIES, _KeptTables otherwise. Chosen
    once, so that other spaces' misses do no added work."""
    count = math.prod(core.sizes)
    small = count <= _DRAW_TABLE_CAP and count * core.base.size <= _BLOCK_ENTRIES
    return (_BatchedTables if small else _KeptTables)(core, beta)


def _single_site_draws(
    core: Conditioned, beta: float
) -> Callable[[np.ndarray, int, float], tuple[int, float, float]]:
    """One-off single-site draws: draw(assignment, position, u) resamples one
    position from its tempered leave-one-out conditional, kept in
    _KeptTables, with the uniform u and returns (behavior, p[behavior],
    top). The chains keep a running index instead of computing one per
    draw."""
    kept = _kept_tables(core, beta)

    def draw(
        assignment: np.ndarray, position: int, u: float
    ) -> tuple[int, float, float]:
        state = assignment.tolist()
        rest = kept.index(state) - state[position] * kept.strides[position]
        cum, weights, masses, top = kept.conditional(assignment, position, rest)
        behavior = _draw_cumulative(cum, weights, u)
        return behavior, masses[behavior], top

    return draw


def _forward_fill(rows: np.ndarray, picks: np.ndarray, drawn: list[int]) -> None:
    """Fill rows[1:] from rows[0], row t+1 being row t with column picks[t]
    set to drawn[t]: per column, a running maximum finds the last step up
    to each row that set it. Exact integer work."""
    steps = np.arange(1, len(drawn) + 1)
    values = np.empty(len(drawn) + 1, dtype=np.int64)
    values[1:] = drawn
    for j in range(rows.shape[1]):
        last = np.maximum.accumulate(np.where(picks == j, steps, 0))
        values[0] = rows[0, j]
        rows[1:, j] = values[last]


def _start_chain(
    system: MixtureBayesSystem,
    config: SamplerConfig,
    prior: PolicyState | None,
    contexts: Sequence[int] | None,
    check_positivity: bool,
    start: Callable[[Conditioned, np.random.Generator], np.ndarray],
) -> tuple[Conditioned, np.random.Generator, np.ndarray, np.ndarray]:
    """Set-up shared by the Markov chains: the conditioned core, the seeded
    generator, the round-0 assignment start(core, rng), the positivity
    warning, and the trajectory and coherence arrays with row 0 filled."""
    core = Conditioned(system, prior, contexts)
    rng = np.random.default_rng(config.seed)
    assignment = start(core, rng)
    if (
        check_positivity
        and not math.isinf(config.beta)
        and math.prod(core.sizes) <= DEFAULT_ENUMERATION_CAP
        and core.zero_mass_index() is not None
    ):
        warnings.warn(
            "positivity check failed: some policies have zero mass; the chain "
            "may absorb and the stationary-distribution guarantee is void",
            PositivityWarning,
            stacklevel=3,
        )
    trajectory = np.empty((config.steps + 1, len(core.contexts)), dtype=np.int64)
    coherence_bits = np.empty(config.steps + 1)
    trajectory[0] = assignment
    coherence_bits[0] = core.coherence_bits(assignment)
    return core, rng, trajectory, coherence_bits


def _record(kind, core, config, trajectory, coherence_bits, moves) -> RunRecord:
    return RunRecord(
        kind, core.contexts, core.sizes, trajectory, coherence_bits, moves,
        config, dict(core.prior.counts),
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
    core, rng, trajectory, coherence_bits = _start_chain(
        system, config, prior, contexts, check_positivity,
        lambda core, rng: core.validate(initial),
    )
    k = len(core.contexts)
    if k == 0:
        raise ValidationError("gibbs needs at least one covered context, got 0")
    picks = rng.integers(0, k, size=config.steps)
    uniforms = rng.random(config.steps)
    kept = _kept_tables(core, config.beta)
    tables, strides, log_prior_ml = kept.tables, kept.strides, core.log_prior_ml
    state = trajectory[0].tolist()
    index = kept.index(state)
    # the int64 state that a miss reads, kept only where the kept tables
    # fold some single-position conditional per state; elsewhere None, so
    # that a read fails rather than sees a stale state
    sync = any((j,) not in kept.foldable for j in range(k))
    assignment = trajectory[0].copy() if sync else None
    # where keys <= steps, a slot per (state, position) key index * k + j:
    # the slots of the states that differ at j alone share one record of
    # their conditional (rest, j): its draw table, rest, the stride, and the
    # coherence after each behavior, filled on its first draw
    keys = k * math.prod(core.sizes)
    slots = [None] * keys if keys <= config.steps else None

    def fill(index: int, j: int) -> tuple:
        """The record of position j's conditional at the state index, put
        in its slots; a conditional that raises fills none."""
        stride, size = strides[j], core.sizes[j]
        rest = index - index // stride % size * stride
        if sync:
            assignment[:] = [index // s % n for s, n in zip(strides, core.sizes)]
        record = (*kept.conditional(assignment, j, rest), rest, stride, [None] * size)
        slots[rest * k + j : (rest + size * stride) * k : stride * k] = [record] * size
        return record

    # the draws as Python numbers, a block of steps at a time, so that
    # converting them adds no memory per step
    for lo in range(0, config.steps, _STEP_BLOCK):
        hi = min(lo + _STEP_BLOCK, config.steps)
        drawn: list[int] = []
        bits: list[float] = []
        if slots is None:
            for j, u in zip(picks[lo:hi].tolist(), uniforms[lo:hi].tolist()):
                rest = index - state[j] * strides[j]
                cum, weights, masses, top = tables.get(
                    rest * k + j
                ) or kept.conditional(assignment, j, rest)
                a = _draw_cumulative(cum, weights, u)
                state[j] = a
                if sync:
                    assignment[j] = a
                index = rest + a * strides[j]
                drawn.append(a)
                bits.append((top + math.log(masses[a]) - log_prior_ml) / LN2)
        else:
            for j, u in zip(picks[lo:hi].tolist(), uniforms[lo:hi].tolist()):
                cum, weights, masses, top, rest, stride, after = (
                    slots[index * k + j] or fill(index, j)
                )
                a = _draw_cumulative(cum, weights, u)
                index = rest + a * stride
                drawn.append(a)
                value = after[a]
                if value is None:
                    value = after[a] = (top + math.log(masses[a]) - log_prior_ml) / LN2
                bits.append(value)
        coherence_bits[lo + 1 : hi + 1] = bits
        _forward_fill(trajectory[lo : hi + 1], picks[lo:hi], drawn)

    return _record(
        "gibbs", core, config, trajectory, coherence_bits, picks[:, None]
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
    core, rng, trajectory, coherence_bits = _start_chain(
        system, config, prior, contexts, check_positivity,
        lambda core, rng: core.validate(initial),
    )
    k = len(core.contexts)
    keep = int(math.floor(config.gamma * k))
    if keep < 1:
        raise ValidationError(
            f"floor(gamma·{k}) = {keep}; the retained subset must be non-empty"
        )
    lam = config.anchor_weight
    moves = np.empty((config.steps, k - keep), dtype=np.int64)
    kept = _kept_tables(core, config.beta)
    strides = kept.strides
    assignment = trajectory[0].copy()
    state = assignment.tolist()
    index = kept.index(state)
    positions = list(range(k))

    for t in range(config.steps):
        # shuffling a list draws as rng.permutation(k) does on arange(k);
        # the resampled positions are the ones it does not keep, in order
        order = positions.copy()
        rng.shuffle(order)
        resampled = tuple(sorted(order[keep:]))
        rest = index
        for j in resampled:
            rest -= state[j] * strides[j]
        retained = kept.retained(assignment, resampled, rest)
        if t == 0:
            anchor = retained  # round 0's retained state anchors later rounds
        for j in resampled:
            use_anchor = lam > 0.0 and (lam >= 1.0 or rng.random() < lam)
            cum, weights, _ = kept.predictive(anchor if use_anchor else retained, j)
            a = _draw_cumulative(cum, weights, rng.random())
            index += (a - state[j]) * strides[j]
            state[j] = assignment[j] = a
        trajectory[t + 1] = assignment
        coherence_bits[t + 1] = kept.coherence(assignment, index)
        moves[t] = resampled

    return _record("tf-gibbs", core, config, trajectory, coherence_bits, moves)


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

    def opening(core: Conditioned, rng: np.random.Generator) -> np.ndarray:
        if len(core.contexts) != 2:
            raise ValidationError(
                f"debate needs exactly 2 contexts, got {len(core.contexts)}"
            )
        state = np.zeros(2, dtype=np.int64)  # (pro, con)
        p = core.predictive(core.base, 0)[0]
        state[0] = _draw_cumulative(*_draw_table(p, config.beta)[:2], rng.random())
        p = core.leave_one_out(state, 1)[0]
        state[1] = _draw_cumulative(*_draw_table(p, config.beta)[:2], rng.random())
        return state

    core, rng, trajectory, coherence_bits = _start_chain(
        system, config, prior, contexts, check_positivity, opening
    )
    kept = _kept_tables(core, config.beta)
    strides = kept.strides
    assignment = trajectory[0].copy()
    state = assignment.tolist()
    index = kept.index(state)
    for t in range(config.steps):
        for position in (1, 0):
            rest = index - state[position] * strides[position]
            cum, weights, _, _ = kept.conditional(assignment, position, rest)
            a = _draw_cumulative(cum, weights, rng.random())
            state[position] = assignment[position] = a
            index = rest + a * strides[position]
        trajectory[t + 1] = assignment
        coherence_bits[t + 1] = kept.coherence(assignment, index)

    moves = np.tile(np.arange(2, dtype=np.int64), (config.steps, 1))
    return _record("debate", core, config, trajectory, coherence_bits, moves)


def _visiting_order(context_order: Sequence[int], k: int) -> tuple[int, ...]:
    order = tuple(_check_index(j, "context_order position") for j in context_order)
    if sorted(order) != list(range(k)):
        raise ValidationError(
            "context_order must visit each covered context exactly once"
        )
    return order


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
        order = _visiting_order(context_order, k)

    assignment = np.zeros(k, dtype=np.int64)
    numerators = core.base
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
        numerators = core.extend(numerators, j, a)

    return BootstrapResult(
        policy=DPolicy(tuple(int(a) for a in assignment)),
        order=order,
        step_probabilities=tuple(trace),
        log2_mass=log2_mass,
        contexts=core.contexts,
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
    for one fixed visiting order, by a walk of the path tree one level at a
    time: blocks of at most _BLOCK_ENTRIES // latents nodes reached by
    positive steps, depth first, each tempered by its nodes' temper() ops."""
    core = Conditioned(system, prior, contexts)
    k = len(core.contexts)
    order = _visiting_order(context_order, k)
    _check_cap(math.prod(core.sizes), cap)
    check_beta(beta)
    if k == 0:  # the empty assignment is the only outcome
        return PolicyDistribution(masses=np.ones(1), provenance="custom", sizes=())
    sizes = [core.sizes[j] for j in order]
    masses = np.zeros(math.prod(sizes))  # indexed in visiting order
    width = max(1, _BLOCK_ENTRIES // core.base.size)
    # (level, numerators, masses, prefix indices) of a block of nodes
    stack = [(0, core.base[None], np.ones(1), np.zeros(1, dtype=np.int64))]
    while stack:
        level, numerators, mass, index = stack.pop()
        j = order[level]
        with np.errstate(divide="ignore", invalid="ignore"):
            p = _stacked_predictive(numerators, core.emissions[j])[1]
            steps = _tempered_rows(p, beta)
        steps = steps / steps.sum(axis=1)[:, None]
        if level == k - 1:
            masses.reshape(-1, sizes[level])[index] = mass[:, None] * steps
            continue
        nodes, a = np.nonzero(steps)
        for s in range(0, nodes.size, width):
            n, b = nodes[s : s + width], a[s : s + width]
            child = core.extend(numerators[n], j, b)
            stack.append(
                (level + 1, child, mass[n] * steps[n, b], index[n] * sizes[level] + b)
            )
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
    assignment = core.validate(policy)
    kept = _KeptTables(core, fold=False)
    state = assignment.tolist()
    return kept.mutual_predictability(assignment, state, kept.index(state))


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

    Each sweep scores every single-coordinate move and takes the best; ties
    go to the first found, in position then behavior order. The climb keeps
    every leave-one-out it computes, keyed as the chains key their
    conditionals, and every visited policy's score, keyed by its index, so
    that a repeated leave-one-out or policy costs a lookup. A policy with an
    impossible leave-one-out state scores -inf.

    The returned policy is a local maximum under single-coordinate moves
    unless the per-restart sweep cap max_iters was hit.
    """
    max_iters = _check_int(max_iters, "max_iters")
    restarts = _check_int(restarts, "restarts")
    rng = np.random.default_rng(_check_int(seed, "seed", 0))
    core = Conditioned(system, prior, contexts)
    k = len(core.contexts)
    starts = [core.validate(initial)]
    for _ in range(restarts - 1):
        starts.append(
            np.array([rng.integers(0, s) for s in core.sizes], dtype=np.int64)
        )
    kept = _kept_tables(core)
    strides, score = kept.strides, kept.score

    best_assignment = starts[0].copy()
    best_score = -math.inf
    for start in starts:
        current = start.copy()
        state = current.tolist()
        index = kept.index(state)
        current_score = score(current, state, index)
        for _ in range(max_iters):
            move = None
            move_score = current_score
            for j in range(k):
                original = state[j]
                rest = index - original * strides[j]
                for a in range(core.sizes[j]):
                    if a == original:
                        continue
                    state[j] = current[j] = a
                    candidate = score(current, state, rest + a * strides[j])
                    if candidate > move_score:
                        move, move_score = (j, a), candidate
                state[j] = current[j] = original
            if move is None:
                break
            j, a = move
            index += (a - state[j]) * strides[j]
            state[j] = current[j] = a
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
    if k == 0:
        raise ValidationError("the kernel needs at least one covered context, got 0")
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
    check_beta(beta)
    core = Conditioned(system, prior, contexts)
    return _exact_softmax(core.masses(cap), beta, core.sizes)
