"""Walkthrough: inference, coherence, and the tempered policy distribution.

Uses the bundled condiments scenario: two contexts (burger sauce, fries
sauce), one fully consistent preference pattern holding 0.3 of the joint
mass, and the remainder spread over mustard/other x ketchup/other. The
consistent pair is the most coherent policy even though mayo is never the
most popular marginal choice.

Run from the repository root:  python3 demos/01_coherence_basics.py
"""

import math
from pathlib import Path

from cohopt import (
    Conditioned,
    PolicyState,
    coherence,
    infer,
    load_scenario,
    mutual_predictability,
    pmi,
    softmax_over_coherence,
    write_distribution_csv,
)

HERE = Path(__file__).parent
scenario = load_scenario(HERE / "scenarios" / "condiments.json")
partition, system = scenario.partition, scenario.system
zero = PolicyState.zero()

# Base predictive distributions: mayo is marginally dominated in both contexts.
def as_table(context):
    masses = infer(system, zero, context)
    return {name: round(float(p), 4) for name, p in zip(partition.behaviors[context], masses)}

print("burger marginal:", as_table(0))
print("fries marginal: ", as_table(1))

# Conditioning flips the picture: once you know the burger answer is mayo,
# the fries answer is certain.
mayo_state = PolicyState.from_behaviors([partition.global_index(0, 0)])
print("fries | burger=mayo:", infer(system, mayo_state, 1))

# Coherence (base-2 log joint probability) ranks the consistent pair first.
pi_consistent = partition.policy_from_names(["burger_mayo", "fries_mayo"])
pi_popular = partition.policy_from_names(["burger_mustard", "fries_ketchup"])
for name, policy in [("consistent", pi_consistent), ("popular", pi_popular)]:
    chi = coherence(system, zero, policy).bits
    print(
        f"{name}: chi={chi:+.4f} bits  "
        f"(description length {-chi:.4f} bits)  "
        f"pmi={pmi(system, policy):+.4f}  "
        f"f_mp={mutual_predictability(system, policy):+.4f}"
    )
assert math.isclose(coherence(system, zero, pi_consistent).bits, math.log2(0.3))

# The exact tempered distribution over all nine policies. At beta=1 it is the
# joint table itself; at beta=inf it collapses onto the coherence argmax.
for beta in (1.0, 4.0, math.inf):
    dist = softmax_over_coherence(system, beta)
    top = max(range(9), key=lambda i: dist.masses[i])
    names = "|".join(partition.policy_names(partition.policy_at(top)))
    print(f"beta={beta}: top policy {names} with mass {dist.masses[top]:.4f}")

# The table lists each policy's tempered mass next to its coherence, the
# log2 of its untempered joint mass.
out = HERE / "output"
masses = Conditioned(system).masses()
table = write_distribution_csv(
    out / "condiments_x1.csv", partition, softmax_over_coherence(system, 1.0), masses
)
print("wrote", table)
