"""Behavior spaces, context partitions, d-policies, policy multisets, and the
exact tabular latent-mixture system that supplies the inference function.

A system is a finite mixture: a latent weight vector plus one categorical
emission row per (latent, context). Conditioning a policy state (a multiset of
observed behaviors) multiplies per-latent likelihoods; the predictive
distribution for a context is the posterior-weighted average of emission rows.
All likelihood products are accumulated in natural-log space (zeros become
-inf); positivity is decided on supports, since linear tables underflow.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
import sys
from collections.abc import Collection, Iterator, Mapping, Sequence
from contextlib import nullcontext
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
_FLOAT64 = np.dtype(np.float64)
DEFAULT_ENUMERATION_CAP = 1_000_000
# entries in the widest level of one block of latents (_enumerate_masses)
_BLOCK_ENTRIES = 1 << 16
# smallest level, in entries, grown one behavior column at a time
# (_add_block): a broadcast multiply starts numpy's inner loop once per
# entry, and about this many starts cost as much as one call per behavior
_COLUMN_ENTRIES = 512
# relative slack of _tie_search's prune test, far above the rounding of k
# products and a sum over the latents (about k + latents ulps), and the
# smallest floor it decides on: products below it may lose their relative
# precision to underflow
_TIE_SLACK = 2.0**-24
_TIE_FLOOR = 2.0**-1022 / _TIE_SLACK

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
    "check_beta",
    "from_joint_table",
    "check_chain_rule",
    "check_ergodicity",
    "enumerate_policy_masses",
    "generic_partition",
    "random_mixture_system",
    "state_of_policy",
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
        self._slots = tuple(seen.values())  # locate()'s (context, behavior)
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
        context, behavior = self._check_slot(context, behavior)
        return self._offsets[context] + behavior

    def locate(self, global_index: int) -> tuple[int, int]:
        """Inverse of :meth:`global_index`: (context, local behavior)."""
        global_index = _check_index(global_index, "behavior index")
        if not 0 <= global_index < self.n_behaviors:
            raise ValidationError(f"behavior index {global_index} out of range")
        return self._slots[global_index]

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

    def _check_slot(self, context: int, behavior: int) -> tuple[int, int]:
        """(context, behavior) as ints, after checking that they name a slot."""
        try:
            context, behavior = operator.index(context), operator.index(behavior)
        except TypeError:  # name the one that is not an integer
            _check_index(context, "context index")
            _check_index(behavior, "behavior index")
        if not 0 <= context < len(self.sizes):
            raise ValidationError(f"context index {context} out of range")
        if not 0 <= behavior < self.sizes[context]:
            raise ValidationError(
                f"behavior index {behavior} out of range for context "
                f"'{self.context_names[context]}'"
            )
        return context, behavior

    # --- d-policy space enumeration (index order: context 0 most significant)

    def policy_count(self) -> int:
        return math.prod(self.sizes)

    def policy_index(self, assignment: Sequence[int]) -> int:
        if len(assignment) != self.n_contexts:
            raise ValidationError(
                f"assignment {assignment!r} does not hold one behavior for "
                f"each of {self.n_contexts} contexts"
            )
        idx = 0
        for c, a in enumerate(assignment):
            c, a = self._check_slot(c, a)
            idx = idx * self.sizes[c] + a
        return idx

    def policy_at(self, index: int) -> "DPolicy":
        index = _check_index(index, "policy index")
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
                key = _check_index(key, "behavior key")
                value = _check_int(value, f"multiplicity of behavior {key}", 0)
                if value > 0:
                    clean[key] = value
        self.counts: dict[int, int] = clean

    @classmethod
    def _of(cls, counts: dict[int, int]) -> "PolicyState":
        """A state holding counts, a dict of checked int keys and positive
        int counts, as it is: the one path that skips the checks."""
        state = cls.__new__(cls)
        state.counts = counts
        return state

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
        key = _check_index(global_index, "behavior key")
        counts = dict(self.counts)
        counts[key] = counts.get(key, 0) + 1
        return PolicyState._of(counts)

    def __add__(self, other: "PolicyState") -> "PolicyState":
        counts = dict(self.counts)
        for key, value in other.counts.items():
            counts[key] = counts.get(key, 0) + value
        return PolicyState._of(counts)

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


def _check_index(value, name: str) -> int:
    """value as an int, after raising ValidationError unless it is an integer
    (numpy's included): the one test of an index, range checked where read."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} {value!r} must be an integer") from None


def state_of_policy(
    partition: ContextPartition,
    policy: DPolicy,
    contexts: Sequence[int] | None = None,
) -> PolicyState:
    """Sum of a d-policy's behaviors over the given contexts (default: all)."""
    indices = range(partition.n_contexts) if contexts is None else contexts
    indices = [partition._check_slot(c, 0)[0] for c in indices]
    if indices and max(indices) >= len(policy):
        raise ValidationError(f"{policy} has no behavior for context {max(indices)}")
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
    """

    def __init__(
        self,
        partition: ContextPartition,
        latent_weights: Sequence[float] | np.ndarray,
        emissions: Sequence[np.ndarray],
    ) -> None:
        self.partition = partition
        weights = _check_reals(latent_weights, "latent_weights").copy()
        if weights.ndim != 1 or weights.size == 0:
            raise ValidationError("latent_weights must be a non-empty vector")
        lowest, _ = _check_masses(weights, "latent_weights", PROB_ATOL)
        if len(emissions) != partition.n_contexts:
            raise ValidationError(
                f"got {len(emissions)} emission tables for "
                f"{partition.n_contexts} contexts"
            )
        # each run of consecutive contexts of one size is copied into one
        # stacked block, whose contexts are the system's emission tables;
        # blocks holds (first context, block) per run read so far
        blocks: list[tuple[int, np.ndarray]] = []
        rows: list[np.ndarray] = []
        for size, run in itertools.groupby(
            range(partition.n_contexts), partition.sizes.__getitem__
        ):
            run = list(run)
            block = np.empty((len(run), weights.size, size))
            for i, c in enumerate(run):
                # the contexts before c, in earlier runs or in its own, come first
                try:
                    arr = _check_reals(emissions[c], "emissions", c)
                    if arr.shape != (weights.size, size):
                        raise ValidationError(
                            f"emissions[{c}] has shape {arr.shape}, expected "
                            f"{(weights.size, size)}"
                        )
                except Exception:
                    _check_emission_rows([*blocks, (run[0], block[:i])])
                    raise
                block[i] = arr
            # systems are shared across concurrent evaluators; freeze the
            # arrays (views of a frozen block are frozen)
            block.setflags(write=False)
            blocks.append((run[0], block))
            rows.extend(block)
        weights.setflags(write=False)
        self.latent_weights = weights
        self._emissions = tuple(rows)

        # one row of emissions per global behavior index, then a row of
        # ones, whose log is the zero row a skipped position reads in
        # Conditioned.numerators; C-ordered, so that its gather copies whole
        # rows rather than strided columns, with the log taken in place
        table = np.empty((partition.n_behaviors + 1, weights.size))
        np.concatenate([arr.T for arr in rows], out=table[:-1])
        table[-1] = 1.0
        lowest = min(lowest, float(np.minimum.reduce(table, axis=None)))
        # one entry check over the table, then one check of every row sum,
        # each summed along its run's block as _check_emission_rows sums it
        # (entries in [0, 1] cannot overflow a sum, so this raises no
        # warning); where either fails, the per-run checks name the first
        # offender, or pass a valid table with an entry just above 1
        valid = lowest >= 0.0 and np.maximum.reduce(table, axis=None) <= 1.0
        if valid:
            sums = np.concatenate([block.sum(axis=-1) for _, block in blocks], axis=None)
            valid = np.maximum.reduce(np.abs(sums - 1.0)) <= PROB_ATOL
        if not valid:
            _check_emission_rows(blocks)
        # np.errstate costs about as much as both logs: it silences the
        # divide flag only where some weight or emission is zero
        with np.errstate(divide="ignore") if lowest == 0.0 else nullcontext():
            self._log_weights = np.log(weights)
            self._log_emission_rows = np.log(table, out=table)
        self._log_emission_rows.setflags(write=False)

    @property
    def n_latents(self) -> int:
        return int(self.latent_weights.size)

    def emissions(self, context: int) -> np.ndarray:
        return self._emissions[context]

    def log_posterior_numerators(self, state: PolicyState) -> np.ndarray:
        """Natural-log of prior × state likelihood per latent (-inf allowed)."""
        out = self._log_weights.copy()
        rows = self._log_emission_rows
        n_behaviors = self.partition.n_behaviors
        for key, count in state.counts.items():
            if not 0 <= key < n_behaviors:
                raise ValidationError(
                    f"state references unknown behavior index {key}"
                )
            # 1·x is x bitwise, -inf included: one add, no multiply
            if count == 1:
                out += rows[key]
            else:
                out += count * rows[key]
        return out

    def __repr__(self) -> str:
        return (
            f"MixtureBayesSystem(n_latents={self.n_latents}, "
            f"sizes={self.partition.sizes})"
        )


def _check_emission_rows(blocks: Sequence[tuple[int, np.ndarray]]) -> None:
    """Raise ValidationError for the first context, over (first context,
    (contexts, latents, behaviors) block) pairs in order, with a negative or
    non-finite entry or a row not summing to 1, naming entries before rows."""
    for first, block in blocks:
        valid = np.isfinite(block) & (block >= 0)
        sums = block.sum(axis=-1)
        off = np.abs(sums - 1.0) > PROB_ATOL
        if valid.all() and not off.any():
            continue
        entries = ~valid.all(axis=(1, 2))
        c = int(np.flatnonzero(entries | off.any(axis=1))[0])
        if entries[c]:
            raise ValidationError(
                f"emissions[{first + c}] has negative or non-finite entries"
            )
        row = int(np.flatnonzero(off[c])[0])
        raise ValidationError(
            f"emissions[{first + c}] row {row} sums to {sums[c, row]!r}, "
            f"expected 1 ± {PROB_ATOL}"
        )


def infer(
    system: MixtureBayesSystem, state: PolicyState, context: int
) -> np.ndarray:
    """Posterior-predictive distribution over one context's behaviors.

    Raises DegenerateConditioningError if every latent has zero likelihood
    for ``state``.
    """
    system.partition._check_slot(context, 0)
    return _predictive(system, _state_weights(system, state), context)


def _state_weights(system: MixtureBayesSystem, state: PolicyState) -> np.ndarray:
    """The posterior weights of a state, as infer() weighs it."""
    log_post = system.log_posterior_numerators(state)
    try:
        weights, _ = Conditioned.posterior_weights(log_post)
    except DegenerateConditioningError:
        raise DegenerateConditioningError(
            "degenerate conditioning: every latent has zero likelihood for "
            f"state {state.describe(system.partition)}"
        ) from None
    return weights


def _predictive(
    system: MixtureBayesSystem, weights: np.ndarray, context: int
) -> np.ndarray:
    """infer() at one checked context, from the state's posterior weights."""
    predictive = weights @ system._emissions[context]
    return predictive / float(np.add.reduce(predictive))


def _ties(p: np.ndarray, top: float) -> np.ndarray:
    """The entries of p within a factor 2^-1e-12 of its maximum top (1e-12
    bits): the support of p tempered at beta = +inf."""
    return p >= top * 2.0 ** (-PROB_ATOL)


def _tempered_weights(p: np.ndarray, beta: float, top=None) -> np.ndarray:
    """Unnormalized p^beta for masses p with a positive maximum (top if given).

    p itself at beta 1, otherwise scaled so the maximum is 1. At beta = +inf
    the indicator of the ties: entries within a factor 2^-1e-12 of the
    maximum (_ties), a rule that does not depend on the scale of p. At
    finite beta, exp(beta·(log p − log max)) in one fresh array, each
    ufunc in place: a zero mass has log −inf and so weight exactly 0.0,
    with no mask.
    """
    if beta == 1.0:
        return p
    top = float(p.max()) if top is None else top
    if math.isinf(beta):
        return _ties(p, top).astype(np.float64)
    # np.errstate costs about as much as this arithmetic on a short row, so
    # it silences log's divide flag only where some mass is zero
    if np.count_nonzero(p) < p.size:
        with np.errstate(divide="ignore"):
            out = np.log(p)
    else:
        out = np.log(p)
    np.subtract(out, math.log(top), out=out)
    np.multiply(beta, out, out=out)
    return np.exp(out, out=out)


def _tempered_rows(p: np.ndarray, beta: float) -> np.ndarray:
    """_tempered_weights of every row of a C-ordered (rows, n) table p, by
    the same elementwise ops, so each row is bitwise that of its own call.
    The log of each row's maximum stays math.log: np.log, vectorized,
    rounds some inputs otherwise. Callers silence divide and invalid."""
    if beta == 1.0:
        return p
    top = np.maximum.reduce(p, axis=1)
    if math.isinf(beta):
        return _ties(p, top[:, None]).astype(np.float64)
    out = np.log(p)
    np.subtract(out, np.array([math.log(t) for t in top.tolist()])[:, None], out=out)
    np.multiply(beta, out, out=out)
    return np.exp(out, out=out)


def check_beta(beta: float, name: str = "beta") -> float:
    """Return beta if it is a valid inverse temperature: a positive number
    (_check_real), +inf allowed, NaN rejected."""
    if not _check_real(beta, name) > 0:
        raise ValidationError(f"{name} must be positive, got {beta}")
    return beta


def _check_real(value, name: str, interval: str | None = None):
    """value unchanged, after raising ValidationError unless it is a real
    number (numpy's included) that float() can convert and, where given,
    whose float lies in interval: the one test of a real input. interval is
    written as its message prints it, "(0, 1]" say, or "finite" for
    (-inf, inf); NaN lies in none, and an int past the floats fails it.
    float and int are tested first, as the ABC's own test is several times slower."""
    try:
        x = float(value) if isinstance(value, (float, int, numbers.Real)) else None
    except OverflowError:
        x = None if interval is None else math.nan
    if x is None:
        raise ValidationError(f"{name} must be a number in the float range, got {value!r}")
    if interval is not None:
        ends = "(-inf, inf)" if interval == "finite" else interval
        low, high = map(float, ends[1:-1].split(", "))
        if not (low <= x if ends[0] == "[" else low < x) or not (
            x <= high if ends[-1] == "]" else x < high
        ):
            where = interval if interval == "finite" else f"in {interval}"
            raise ValidationError(f"{name} must be {where}, got {value}")
    return value


def _check_int(n, name: str, low: int = 1, high: int | None = None) -> int:
    """n as an int, after raising ValidationError unless it is an integer
    (numpy's included) from low to the largest float (compared exactly: the
    formulas divide by counts as floats), and at most high where given."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {n!r}") from None
    if not low <= n <= sys.float_info.max:
        raise ValidationError(
            f"{name} must be at least {low} and within the float range, got {n}"
        )
    if high is not None and n > high:
        raise ValidationError(f"{name} must be at most {high}, got {n}")
    return n


def _check_reals(values, name: str, index: int | None = None) -> np.ndarray:
    """values as a float64 array (a float64 ndarray as is, tested first), after
    raising ValidationError unless each entry is a real number as _check_real
    has it: no string, complex, None or ragged nesting. Named name[index]."""
    if type(values) is np.ndarray and values.dtype is _FLOAT64:
        return values
    name += "" if index is None else f"[{index}]"
    try:
        a = np.asarray(values)
    except ValueError as exc:  # ragged nesting
        raise ValidationError(f"{name} cannot be read as an array ({exc})") from None
    if a.dtype.kind not in "biuf":  # each entry as given, not as a string
        for at, x in np.ndenumerate(np.asarray(values, dtype=object)):
            _check_real(x, f"{name}{list(at)}" if at else name)
    return a.astype(np.float64, copy=False)


def _check_masses(a: np.ndarray, name: str, atol: float | None = None):
    """(smallest, largest) entry of a non-empty float64 array, after raising
    ValidationError unless each is finite and non-negative and, with atol,
    every vector along the last axis sums to 1 within atol (the worst named)."""
    # positional axes: keywords cost a ufunc about 50 ns each
    lowest = float(np.minimum.reduce(a, None))
    top = float(np.maximum.reduce(a, None))
    if not (lowest >= 0.0 and top < math.inf):
        raise ValidationError(f"{name} must be finite and non-negative")
    if atol is not None:
        sums = np.add.reduce(a, -1)
        total = float(sums if a.ndim == 1 else sums.flat[np.argmax(np.abs(sums - 1.0))])
        if abs(total - 1.0) > atol:
            raise ValidationError(f"{name} sum to {total!r}, expected 1 ± {atol}")
    return lowest, top


def temper(probabilities: np.ndarray, beta: float) -> np.ndarray:
    """Apply p -> p^beta to every mass and re-normalize.

    beta may be +inf: uniform over the entries within 1e-12 bits of the
    maximum. A mass that is not a finite non-negative number is a ValidationError.
    """
    check_beta(beta)
    p = _check_reals(probabilities, "masses")
    if p.size == 0:
        raise ValidationError("no masses to temper")
    _, top = _check_masses(p, "masses to temper")
    if top <= 0.0:
        raise DegenerateConditioningError(
            "degenerate conditioning: all masses zero after tempering"
        )
    weights = _tempered_weights(p, beta, top)
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
    _check_real(epsilon, "epsilon", "[0, 1)")
    table = _check_reals(joint, "joint table")
    if table.shape not in (partition.sizes, (partition.policy_count(),)):
        raise ValidationError(
            f"joint table has shape {table.shape}, expected {partition.sizes}"
        )
    weights = table.reshape(-1)
    _check_masses(weights, "joint table entries", PROB_ATOL)
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
    return MixtureBayesSystem(partition, weights, emissions)


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
    # both first factors from one fold of the state, each bitwise its infer()
    weights = _state_weights(system, state)
    first = float(_predictive(system, weights, context1)[behavior1])
    second = float(_predictive(system, weights, context2)[behavior2])
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
    if count > _check_int(cap, "enumeration cap"):
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

    A stack of systems over one partition takes one call: weights of shape
    (..., latents) and tables of shape (..., latents, size) with the same
    leading axes give masses of shape (..., count), each system's bitwise
    what its own call gives. A latent is skipped only where every system
    gives it zero weight; elsewhere its zero weight adds a zero product,
    which leaves every total as it was (the tables are finite).

    The latents of nonzero weight are taken in blocks of about
    _BLOCK_ENTRIES // (systems · count) (at least one), and each block's
    rows are added into one total in latent order (see _add_block). A block
    slices the tables when every latent has nonzero weight and indexes them
    otherwise. Memory therefore stays at the total plus one block's widest
    level, about max(systems · count, _BLOCK_ENTRIES) entries, whatever the
    number of latents.
    """
    count = math.prod(sizes)
    _check_cap(count, cap)
    # a total started from zeros, not from the first row, holds 0.0 where
    # every latent's product is -0.0
    masses = np.zeros((*weights.shape[:-1], count))
    live = weights
    if weights.ndim > 1:
        live = weights.reshape(-1, weights.shape[-1]).any(axis=0)
    latents = live.nonzero()[0]
    every = latents.size == live.size
    step = max(1, _BLOCK_ENTRIES // masses.size)
    for start in range(0, latents.size, step):
        block = (
            slice(start, start + step) if every else latents[start : start + step]
        )
        _add_block(masses, weights, emissions, block)
    return masses


def _add_block(
    masses: np.ndarray,
    weights: np.ndarray,
    emissions: Sequence[np.ndarray],
    latents: slice | np.ndarray,
) -> None:
    """Add to masses the table w_θ·e₀[θ, π(0)]·e₁[θ, π(1)]·… of each latent θ
    of the block, multiplied left to right and added in latent order, for
    every system of the stack (the leading axes, if any).

    Level j holds one row per latent over the first j positions, as a
    (..., latents, width, 1) array. A level of at least _COLUMN_ENTRIES
    entries, the stack's included, grows by one multiply per behavior,
    written into its column of the next level, so numpy's inner loop runs
    over whole rows; a smaller level grows by one broadcast multiply. Both
    make the same products. Each level is dropped once the next is built,
    and the last one when this frame ends, before the next block starts.
    """
    level = weights[..., latents, None, None]
    shape = (*level.shape[:-2], -1, 1)
    for table in emissions:
        rows = table[..., latents, None, :]
        if level.size >= _COLUMN_ENTRIES:
            grown = np.empty((*level.shape[:-1], rows.shape[-1]))
            for a in range(rows.shape[-1]):
                np.multiply(level, rows[..., a : a + 1], out=grown[..., a : a + 1])
        else:
            grown = np.multiply(level, rows)
        level = grown.reshape(shape)
    level = level[..., 0]
    for t in range(level.shape[-2]):
        masses += level[..., t, :]


def _tie_search(
    weights: np.ndarray,
    emissions: Sequence[np.ndarray],
    sizes: Sequence[int],
    cap: int,
) -> np.ndarray | None:
    """Ascending indices of the policies whose _enumerate_masses mass passes
    _ties against the largest, found by a branch-and-bound search over
    positions, or None where the search cannot decide.

    A level holds, per surviving prefix, each latent's partial product
    w_θ·e₀·…·e_{j-1} (the same multiplies in the same order as the kernel's
    level, so bitwise its values) and the prefix's index. A prefix's bound
    is Σ_θ partial_θ · Π_{i≥j} max_a e_i[θ, a]; lower is the kernel mass of
    each latent's argmax policy, the largest of them, and a prefix is pruned
    where bound·(1 + _TIE_SLACK) < lower·2^-1e-12. At the leaves the
    products are added in latent order from 0.0, as the kernel adds them,
    and _ties picks from those sums.

    No tie is pruned. A rounded product is monotone in each factor, so a
    completion's kernel product of latent θ is at most the product of its
    partial product with the row maxima, rounded left to right. That and the
    computed bound both lie within about k + latents rounding errors of the
    exact Σ_θ partial_θ·Π max, and _TIE_SLACK is far above that. A floor of
    at least _TIE_FLOOR keeps the absolute error of products that underflow
    (at most 2^-1075 each) as far below it. So every completion of a pruned
    prefix has kernel mass below lower·2^-1e-12, which is at most the
    maximum M times 2^-1e-12, the _ties threshold; the argmax itself is
    never pruned, so the leaves hold M.

    Returns None where the floor lower·2^-1e-12 is below _TIE_FLOOR, and
    where a level would hold more than _BLOCK_ENTRIES entries, the kernel's
    own memory bound (near-uniform systems prune too little).
    """
    _check_cap(math.prod(sizes), cap)
    latents = np.flatnonzero(weights)
    live = weights[latents]
    tables = [table[latents] for table in emissions]
    # suffix[j]: per latent, the product of its row maxima from position j on
    suffix = [np.ones(live.size)]
    for table in reversed(tables):
        suffix.append(suffix[-1] * table.max(axis=1))
    suffix.reverse()
    # row t: the kernel products of latent t's argmax policy, per latent
    argmax = live[None].repeat(live.size, axis=0)
    for table in tables:
        argmax *= table[:, table.argmax(axis=1)].T
    lower = np.zeros(live.size)
    for column in argmax.T:
        lower += column
    floor = float(lower.max()) * 2.0 ** (-PROB_ATOL)
    if not floor >= _TIE_FLOOR:
        return None
    level = live[None]
    index = np.zeros(1, dtype=np.int64)
    for j, table in enumerate(tables):
        size = table.shape[1]
        if level.size * size > _BLOCK_ENTRIES:
            return None
        level = (level[:, None] * table.T).reshape(-1, live.size)
        index = (index[:, None] * size + np.arange(size)).ravel()
        keep = np.flatnonzero((level @ suffix[j + 1]) * (1.0 + _TIE_SLACK) >= floor)
        level, index = level[keep], index[keep]
    masses = np.zeros(index.size)
    for column in level.T:
        masses += column
    return index[_ties(masses, float(masses.max()))]


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
    is then closed form: log2 ML(prior + policy) − log2 ML(prior). Every
    operation on log numerators lives here: building them, growing a prefix
    by one position, max-shifting and exponentiating them; the samplers only
    draw from what these return.

    The log emissions are the system's one table (one row per behavior, then
    a zero row): log_emissions holds per-position views of it, extend() adds
    one of its rows, and numerators() stacks the prior's log numerators and
    one gathered row per position in buffers preallocated here, so a core
    serves one caller at a time, as a run does; numerator_table() folds the
    numerators of every assignment at once. _check() is the one
    assignment check (validate(), coherence_bits() and leave_one_out() apply
    it), and posterior_weights() the one degeneracy check.
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
        self.contexts = tuple(_check_index(c, "context index") for c in contexts)
        if len(set(self.contexts)) != len(self.contexts):
            raise ValidationError("context subset has repeated indices")
        # position j, behavior a reads system row offsets[j] + a;
        # global_index range checks each context
        self._offsets = np.array(
            [partition.global_index(c, 0) for c in self.contexts], dtype=np.int64
        )
        self.prior = prior if prior is not None else PolicyState.zero()
        self.sizes = tuple(partition.sizes[c] for c in self.contexts)
        self.emissions = [system.emissions(c) for c in self.contexts]
        self.base = system.log_posterior_numerators(self.prior)
        self._rows = system._log_emission_rows
        self.log_emissions = [
            self._rows[offset : offset + size].T
            for offset, size in zip(self._offsets.tolist(), self.sizes)
        ]
        # numerators() buffers: row 0 the base, then one row per position
        self._index = np.empty(len(self.contexts), dtype=np.int64)
        self._limits = np.array(self.sizes, dtype=np.uint64)
        self._stack = np.empty((len(self.contexts) + 1, system.n_latents))
        self._stack[0] = self.base
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
        """The policy's assignment over the covered positions, after _check."""
        self._check(policy.assignment)
        return np.array(policy.assignment, dtype=np.int64)

    def numerators(
        self, assignment: Sequence[int], skip: Collection[int] = ()
    ) -> np.ndarray:
        """Log numerators of the prior plus every position not in ``skip``,
        added in position order.

        Unchecked: assignment must hold one in-range integer behavior per
        position, as validate() returns it; coherence_bits() and
        leave_one_out() check that first, and the samplers, which validate
        their start and draw in range, call it directly. Out of range, a
        behavior reads another context's row instead of raising.

        One gather of stacked rows, then a left fold down the stack: from
        two latents on add.reduce, which adds whole rows in turn over the
        slow axis (numpy sums pairwise only along the fast axis, the one
        real axis at one latent, where add.accumulate's last row is kept).
        A skipped position reads the zero row, and x + 0.0 == x, -inf
        included; subtracting a row would break on -inf."""
        index = self._index
        # casting: an empty assignment tuple reads as float64
        np.add(self._offsets, assignment, out=index, casting="unsafe")
        for j in skip:
            index[j] = -1
        # mode="wrap" writes straight into the buffer; -1 is the zero row
        self._rows.take(index, axis=0, out=self._stack[1:], mode="wrap")
        if self.base.size == 1:
            return np.add.accumulate(self._stack, axis=0)[-1]
        return np.add.reduce(self._stack, 0)

    def numerator_table(self, skip: Collection[int] = ()) -> np.ndarray:
        """numerators() of every assignment of the positions not in skip,
        as one C-ordered (rows, latents) table whose rows are in mixed-radix
        order over those positions (the first most significant).

        The same left fold, base + r_0 + r_1 + ..., as one broadcast add of
        whole row blocks per position in position order; a skipped position
        adds nothing, which is what adding its zero row does (x + 0.0 == x).
        So every row is bitwise numerators() of its assignment."""
        latents = self.base.size
        table = self.base[None].copy()
        blocks = zip(self._offsets.tolist(), self.sizes)
        for j, (offset, size) in enumerate(blocks):
            if j in skip:
                continue
            grown = np.empty((table.shape[0], size, latents))
            np.add(table[:, None], self._rows[offset : offset + size], out=grown)
            table = grown.reshape(-1, latents)
        return table

    def _check(self, assignment: Sequence[int]) -> None:
        """Raise ValidationError unless assignment holds one integer behavior
        per position, each in range; negatives fail the unsigned compare."""
        try:
            values = np.asarray(assignment)
        except ValueError:  # ragged: a 0-d array fails the shape test
            values = np.empty(())
        if values.shape != self._index.shape or (
            values.size
            and (
                values.dtype.kind not in "iu"
                or np.count_nonzero(values.astype(np.uint64) < self._limits)
                < values.size
            )
        ):
            raise ValidationError(
                f"assignment {assignment!r} does not hold one in-range "
                f"behavior index for each of {len(self.sizes)} positions"
            )

    def extend(
        self, log_numerators: np.ndarray, position: int, behavior: int
    ) -> np.ndarray:
        """Log numerators of a visited prefix grown by one more position."""
        return log_numerators + self._rows[self._offsets[position] + behavior]

    @staticmethod
    def posterior_weights(log_numerators: np.ndarray) -> tuple[np.ndarray, float]:
        """Posterior weights exp(n - top) per latent, max-shifted so the
        largest is 1, and the shift top. Raises DegenerateConditioningError
        when every latent has zero likelihood."""
        top = float(np.maximum.reduce(log_numerators))
        if top == -math.inf:
            raise DegenerateConditioningError(
                "degenerate conditioning: every latent has zero likelihood "
                "for the conditioning state"
            )
        return np.exp(log_numerators - top), top

    def predictive(
        self, log_numerators: np.ndarray, position: int
    ) -> tuple[np.ndarray, float]:
        """Unnormalized predictive masses p at one position, and their log
        scale: exp(scale) · p[a] is the marginal likelihood of the state
        plus behavior a."""
        weights, top = self.posterior_weights(log_numerators)
        return weights @ self.emissions[position], top

    def leave_one_out(
        self, assignment: Sequence[int], position: int
    ) -> tuple[np.ndarray, float]:
        """predictive() at one position given the prior and every other
        position of the assignment."""
        self._check(assignment)
        return self.predictive(
            self.numerators(assignment, skip=(position,)), position
        )

    def coherence_from(self, log_numerators: np.ndarray) -> float:
        """Coherence, relative to the prior, of the state whose log
        numerators these are; -inf when it has zero mass."""
        value = self._log_ml(log_numerators)
        if value == -math.inf:
            return -math.inf
        return (value - self.log_prior_ml) / LN2

    def coherence_bits(self, assignment: Sequence[int]) -> float:
        """coherence_from() of a full sub-policy, after checking it."""
        self._check(assignment)
        return self.coherence_from(self.numerators(assignment))

    def masses(self, cap: int = DEFAULT_ENUMERATION_CAP) -> np.ndarray:
        """Conditional mass of every sub-policy given the prior, in
        mixed-radix index order (position 0 most significant); sums to 1."""
        masses = _enumerate_masses(
            self.posterior_weights(self.base)[0], self.emissions, self.sizes, cap
        )
        return masses / masses.sum()

    def zero_mass_index(self, cap: int = DEFAULT_ENUMERATION_CAP) -> int | None:
        """Index, in masses() order, of the first sub-policy of zero mass
        given the prior, or None; raises EnumerationCapError first when the
        sub-policies outnumber cap.

        Decided on supports, which cannot underflow: a sub-policy has mass
        iff some latent with base > -inf has a nonzero emission at every
        position. A live latent with no zero emission settles it (a
        Dirichlet system); otherwise the enumerator counts such latents on
        0/1 tables."""
        _check_cap(math.prod(self.sizes), cap)
        logs = np.concatenate([self.base[:, None], *self.log_emissions], axis=1)
        if logs.min(axis=1).max() > -math.inf:
            return None
        live = self.base > -math.inf
        ones = [(table > 0.0).astype(np.float64) for table in self.emissions]
        counts = _enumerate_masses(live.astype(np.float64), ones, self.sizes, cap)
        index = int(counts.argmin())
        return index if counts[index] == 0.0 else None


@dataclass(frozen=True)
class ErgodicityReport:
    """Outcome of the positivity check backing the ergodicity decision.

    positive=True means every d-policy has strictly positive joint mass,
    which implies single-coordinate Gibbs moves can reach every policy.
    positive=False means some d-policy has zero mass, decided on supports (an
    underflowing mass is positive); the witness is the first such policy.
    """

    positive: bool
    witness: DPolicy | None = None

    def __bool__(self) -> bool:
        return self.positive


def check_ergodicity(
    system: MixtureBayesSystem, cap: int = DEFAULT_ENUMERATION_CAP
) -> ErgodicityReport:
    """Positivity check over the whole d-policy space:
    Conditioned.zero_mass_index with no prior, its first zero-mass policy
    the witness."""
    index = Conditioned(system).zero_mass_index(cap)
    if index is None:
        return ErgodicityReport(positive=True)
    return ErgodicityReport(
        positive=False, witness=system.partition.policy_at(index)
    )


def generic_partition(sizes: Sequence[int]) -> ContextPartition:
    """Partition with synthetic names: contexts c0, c1, ... and behaviors
    c0_b0, c0_b1, ..."""
    names = [f"c{i}" for i in range(len(sizes))]
    behaviors = [
        [f"c{i}_b{j}" for j in range(_check_index(n, "context size"))]
        for i, n in enumerate(sizes)
    ]
    return ContextPartition(names, behaviors)


def random_mixture_system(
    partition: ContextPartition,
    n_latents: int,
    rng: np.random.Generator,
    emission_concentration: float = 1.0,
) -> MixtureBayesSystem:
    """Mixture with flat-Dirichlet latent weights and Dirichlet-drawn emission
    rows (_draw_mixture).

    Dirichlet draws are almost surely strictly positive, so the system passes
    the positivity check without an enumeration. Smaller emission
    concentration gives more peaked rows and stronger cross-context coupling.
    """
    n_latents = _check_int(n_latents, "n_latents")
    _check_real(emission_concentration, "emission_concentration", "(0, inf)")
    weights, emissions = _draw_mixture(
        partition.sizes, n_latents, rng, emission_concentration
    )
    return MixtureBayesSystem(partition, weights, emissions)


def _draw_mixture(
    sizes: Sequence[int],
    n_latents: int,
    rng: np.random.Generator,
    concentration: float,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """The latent weights and per-context emission tables of a random
    mixture, normalized but not checked. Each run of consecutive contexts of
    one size is drawn in one call, which reads the generator's stream as one
    call per context would."""
    weights = rng.dirichlet([1.0] * n_latents)
    weights = weights / weights.sum()
    emissions: list[np.ndarray] = []
    for size, run in itertools.groupby(sizes):
        rows = rng.dirichlet(
            [concentration] * size, size=(len(list(run)), n_latents)
        )
        emissions.extend(rows / rows.sum(axis=-1, keepdims=True))
    return weights, emissions


def _check_mixtures(
    partition: ContextPartition,
    weights: np.ndarray,
    emissions: Sequence[np.ndarray],
) -> None:
    """Run MixtureBayesSystem's checks once on a stack of systems: weights
    of shape (systems, latents) and one (systems, latents, size) table per
    context. Where one fails, the first failing system's own constructor
    raises its ValidationError."""
    try:
        _check_masses(weights, "latent weights", PROB_ATOL)
        _check_emission_rows([(0, table) for table in emissions])
    except ValidationError:
        for s, row in enumerate(weights):
            MixtureBayesSystem(partition, row, [table[s] for table in emissions])
        raise
