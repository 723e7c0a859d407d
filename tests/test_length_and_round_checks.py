"""ContextPartition.policy_index takes one behavior per context, and
RunRecord.policy_at one round of the record: any other assignment length,
or a round index that is not an integer or out of range, raises
ValidationError (exit code 2 at the CLI) instead of naming a wrong policy
or raising numpy's IndexError."""

from __future__ import annotations

import numpy as np
import pytest

from cohopt import (
    DPolicy,
    SamplerConfig,
    ValidationError,
    generic_partition,
    gibbs_run,
    random_mixture_system,
)

S = random_mixture_system(generic_partition([3, 3, 3]), 2, np.random.default_rng(0))
P = S.partition


@pytest.mark.parametrize("assignment", [[], [2], [0, 2], [0, 0, 0, 2], (1, 2, 0, 0)])
def test_policy_index_rejects_wrong_length(assignment):
    with pytest.raises(ValidationError, match="one behavior for each of 3 contexts"):
        P.policy_index(assignment)


def test_policy_index_of_full_assignments_unchanged():
    for index in range(P.policy_count()):
        assignment = P.policy_at(index).assignment
        assert P.policy_index(assignment) == index
        assert P.policy_index(np.array(assignment)) == index


def _record():
    return gibbs_run(S, DPolicy((0, 0, 0)), SamplerConfig(steps=3), check_positivity=False)


@pytest.mark.parametrize("index", [1.5, "1", None])
def test_policy_at_rejects_non_integer_round(index):
    with pytest.raises(ValidationError, match="round index .* must be an integer"):
        _record().policy_at(index)


@pytest.mark.parametrize("index", [-1, -4, 4, 10])
def test_policy_at_rejects_round_out_of_range(index):
    with pytest.raises(ValidationError, match=f"round index {index} out of range"):
        _record().policy_at(index)


def test_policy_at_reads_every_round():
    record = _record()
    for t in range(len(record)):
        expected = DPolicy(tuple(int(a) for a in record.trajectory[t]))
        assert record.policy_at(t) == expected
        assert record.policy_at(np.int64(t)) == expected
