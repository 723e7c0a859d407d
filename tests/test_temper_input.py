"""temper rejects masses that are not a distribution's: a negative, NaN or
infinite entry is a ValidationError (exit 2) at every beta, before the
all-zero check, and every valid row tempers as before."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cohopt import DegenerateConditioningError, ValidationError, temper

BETAS = [0.5, 1.0, 2.0, math.inf]
BAD = [
    [-0.1, 0.5],
    [0.5, -1e-300],
    [math.nan, 0.5],
    [0.5, math.nan],
    [math.inf, 0.5],
    [-math.inf, 1.0],
    [math.nan],
]


@pytest.mark.parametrize("beta", BETAS)
@pytest.mark.parametrize("masses", BAD, ids=[str(row) for row in BAD])
def test_invalid_masses_are_a_validation_error(masses, beta):
    with pytest.raises(ValidationError, match="finite and non-negative") as caught:
        temper(np.array(masses), beta)
    assert caught.value.exit_code == 2


@pytest.mark.parametrize("beta", BETAS)
def test_signs_are_checked_before_the_all_zero_check(beta):
    with pytest.raises(ValidationError):
        temper([-1.0, 0.0], beta)
    with pytest.raises(DegenerateConditioningError):
        temper([0.0, -0.0], beta)
    # -0.0 is a zero mass, not a negative one
    assert np.array_equal(temper([-0.0, 0.5], beta), [0.0, 1.0])
