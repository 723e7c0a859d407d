"""Reference computations for the benchmark's correctness checks.

This module does not import cohopt. It recomputes the quantities the
benchmark checks straight from the definitions, with numpy broadcasting:

- joint mass of a d-policy: sum over latents of w_t * prod_c E_c[t, a_c];
- the mass of any multiset of behaviors, in log space;
- coherence as log2 of a ratio of masses, M(prior + policy) / M(prior);
- tempered masses m^beta / sum(m^beta), and the argmax set at beta = inf;
- mutual predictability from the joint/marginal identity
  f(pi) = sum_n log2 J(pi) - log2 sum_a J(pi with a at n).

A system is a pair (weights, emissions): weights has shape (L,), emissions is
a list with one (L, size_c) array per context. Policies are enumerated with
context 0 most significant. Run this file to execute the self-test on the
paper's worked condiments example.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

LN2 = math.log(2.0)


def indicator_emissions(
    table: np.ndarray, epsilon: float
) -> tuple[np.ndarray, list[np.ndarray]]:
    """A joint table as a mixture with one latent per policy.

    Latent t is policy t; its row for context c puts 1 - epsilon on its own
    behavior and spreads epsilon evenly over the others.
    """
    table = np.asarray(table, dtype=np.float64)
    sizes = table.shape
    weights = table.reshape(-1)
    coords = np.indices(sizes).reshape(len(sizes), -1)
    emissions = []
    for c, size in enumerate(sizes):
        if size == 1:
            emissions.append(np.ones((weights.size, 1)))
            continue
        rows = np.full((weights.size, size), epsilon / (size - 1))
        rows[np.arange(weights.size), coords[c]] = 1.0 - epsilon
        emissions.append(rows)
    return weights, emissions


def joint_masses(
    weights: np.ndarray, emissions: Sequence[np.ndarray], block: int = 64
) -> np.ndarray:
    """Joint mass of every policy, flat in policy-index order.

    Latents are processed in blocks so memory stays at block * n_policies.
    """
    sizes = [e.shape[1] for e in emissions]
    total = np.zeros(math.prod(sizes))
    for lo in range(0, weights.size, block):
        hi = min(lo + block, weights.size)
        lik = weights[lo:hi, None]
        for e in emissions:
            lik = (lik[:, :, None] * e[lo:hi, None, :]).reshape(hi - lo, -1)
        total += lik.sum(axis=0)
    return total


def log2_mass(
    weights: np.ndarray,
    emissions: Sequence[np.ndarray],
    pairs: Sequence[tuple[int, int]],
) -> float:
    """log2 of sum_t w_t * prod over (context, behavior) pairs of E_c[t, a].

    Pairs form a multiset: a repeated pair multiplies its factor again.
    """
    with np.errstate(divide="ignore"):
        log_lik = np.log(weights)
        for c, a in pairs:
            log_lik = log_lik + np.log(emissions[c][:, a])
    top = float(log_lik.max())
    if top == -math.inf:
        return -math.inf
    return (top + math.log(float(np.exp(log_lik - top).sum()))) / LN2


def log2_masses_of_rows(
    weights: np.ndarray, emissions: Sequence[np.ndarray], rows: np.ndarray
) -> np.ndarray:
    """log2 joint mass of each full policy in rows, shape (R, n_contexts)."""
    with np.errstate(divide="ignore"):
        log_lik = np.broadcast_to(np.log(weights), (rows.shape[0], weights.size)).copy()
        for c, e in enumerate(emissions):
            log_lik += np.log(e[:, rows[:, c]]).T
    top = log_lik.max(axis=1, keepdims=True)
    return (top[:, 0] + np.log(np.exp(log_lik - top).sum(axis=1))) / LN2


def coherence_bits(
    weights: np.ndarray,
    emissions: Sequence[np.ndarray],
    prior: Sequence[tuple[int, int]],
    policy: Sequence[tuple[int, int]],
) -> float:
    """log2 M(prior + policy) - log2 M(prior)."""
    joint = log2_mass(weights, emissions, list(prior) + list(policy))
    if joint == -math.inf:
        return -math.inf
    return joint - log2_mass(weights, emissions, prior)


def conditional_masses(
    weights: np.ndarray,
    emissions: Sequence[np.ndarray],
    prior: Sequence[tuple[int, int]],
    contexts: Sequence[int],
) -> np.ndarray:
    """Joint over the covered contexts given the prior pairs, normalized."""
    posterior = np.asarray(weights, dtype=np.float64).copy()
    for c, a in prior:
        posterior = posterior * emissions[c][:, a]
    masses = joint_masses(posterior, [emissions[c] for c in contexts])
    return masses / masses.sum()


def tempered(masses: np.ndarray, beta: float, rel_tol: float = 1e-12) -> np.ndarray:
    """masses^beta normalized; at beta = inf, uniform over the entries within
    rel_tol (relative) of the largest."""
    masses = np.asarray(masses, dtype=np.float64)
    if math.isinf(beta):
        support = (masses >= masses.max() * (1.0 - rel_tol)).astype(np.float64)
        return support / support.sum()
    out = (masses / masses.max()) ** beta
    return out / out.sum()


def mutual_predictability_table(joint: np.ndarray) -> np.ndarray:
    """Mutual predictability of every policy of a joint tensor, in bits.

    Uses the joint/marginal identity: each position contributes
    log2 J(pi) - log2 of J summed over that position's behaviors.
    """
    with np.errstate(divide="ignore"):
        log_joint = np.log2(joint)
        out = np.zeros_like(joint)
        for axis in range(joint.ndim):
            out += log_joint - np.log2(joint.sum(axis=axis, keepdims=True))
    return out


def is_single_site_maximum(table: np.ndarray, index: tuple[int, ...], tol: float) -> bool:
    """True when no single-coordinate change from index raises table by
    more than tol."""
    value = table[index]
    for axis, size in enumerate(table.shape):
        for a in range(size):
            neighbor = list(index)
            neighbor[axis] = a
            if table[tuple(neighbor)] > value + tol:
                return False
    return True


def tv(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


def self_test() -> list[str]:
    """Check this module on the paper's condiments example; returns the
    failures (empty when every check holds)."""
    table = np.array([[0.3, 0.0, 0.0], [0.0, 0.175, 0.175], [0.0, 0.175, 0.175]])
    weights, emissions = indicator_emissions(table, 0.0)
    failures = []
    for policy, expected in (((0, 0), 0.3), ((1, 1), 0.175)):
        chi = coherence_bits(weights, emissions, [], list(enumerate(policy)))
        if abs(chi - math.log2(expected)) > 1e-12:
            failures.append(f"coherence of {policy}: {chi} != log2 {expected}")
    # burger given fries=ketchup, fries given burger=mustard: [0, 1/2, 1/2]
    burger = conditional_masses(weights, emissions, [(1, 1)], [0])
    fries = conditional_masses(weights, emissions, [(0, 1)], [1])
    for name, got in (("burger|ketchup", burger), ("fries|mustard", fries)):
        if np.abs(got - [0.0, 0.5, 0.5]).max() > 1e-12:
            failures.append(f"{name}: {got.tolist()} != [0, 1/2, 1/2]")
    masses = joint_masses(weights, emissions)
    if np.abs(masses - table.reshape(-1)).max() > 1e-15:
        failures.append("joint masses do not reproduce the table")
    if abs(tempered(masses, 1.0).sum() - 1.0) > 1e-12:
        failures.append("tempered masses are not normalized")
    return failures


if __name__ == "__main__":
    problems = self_test()
    for line in problems:
        print(f"FAIL {line}")
    print("reference self-test:", "FAIL" if problems else "PASS")
    raise SystemExit(1 if problems else 0)
