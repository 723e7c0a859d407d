"""Memory of a block chain whose retained states never repeat: a 40-context
chain keeps the hash of each retained state it has seen once, not its
entry, so what it holds beyond its own trajectory stays bounded by the
table cap whatever the number of rounds."""

from __future__ import annotations

import tracemalloc

import numpy as np

from cohopt import (
    DPolicy,
    SamplerConfig,
    generic_partition,
    random_mixture_system,
    training_friendly_gibbs_run,
)


def test_wide_block_chain_peak_stays_flat():
    system = random_mixture_system(
        generic_partition((4,) * 40), 32, np.random.default_rng(7),
        emission_concentration=0.5,
    )
    initial = DPolicy(tuple(j % 4 for j in range(40)))
    config = SamplerConfig(
        beta=1.0, steps=5_000, seed=3, gamma=0.85, anchor_weight=0.5
    )
    tracemalloc.start()
    try:
        record = training_friendly_gibbs_run(
            system, initial, config, check_positivity=False
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    outputs = (
        record.trajectory.nbytes + record.coherence_bits.nbytes
        + record.moves.nbytes
    )
    # keeping one entry per round peaks at about 11 MB here, 9 MB of it
    # beyond the record's 1.9 MB of arrays
    assert peak < 3e6
    assert peak - outputs < 1.5e6
