"""The one draw rule of every chain, _draw_cumulative on lists and _draw on
arrays, index for index against a test-local copy of the rule it keeps:
np.searchsorted(cum, u * cum[-1], side="right") clamped to the last index
by min(), then the walk down past zero weights. The tables have leading,
interior and trailing zeros, subnormals and the 0/1 tie rows of beta = inf;
the uniforms include 0.0 and the largest float below 1.0."""

from __future__ import annotations

import bisect
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cohopt.samplers import _draw, _draw_cumulative

TINY = 5e-324  # the smallest subnormal
LAST_U = math.nextafter(1.0, 0.0)


def _reference(weights: np.ndarray, u: float) -> int:
    cum = np.cumsum(weights)
    idx = min(int(np.searchsorted(cum, u * cum[-1], side="right")), len(weights) - 1)
    while weights[idx] == 0.0 and idx > 0:
        idx -= 1
    return idx


def _assert_same_draw(weights: list[float], u: float) -> int:
    w = np.array(weights, dtype=np.float64)
    expected = _reference(w, u)
    assert _draw_cumulative(np.cumsum(w).tolist(), w.tolist(), u) == expected
    assert _draw(w, u) == expected
    if w.any():
        assert w[expected] != 0.0  # never lands on a zero weight
    return expected


weight = st.one_of(
    st.just(0.0),
    st.just(1.0),
    st.just(TINY),
    st.floats(min_value=0.0, max_value=2.2250738585072014e-308),  # subnormals
    st.floats(min_value=0.0, max_value=1e3),
)
tables = st.lists(weight, min_size=1, max_size=8)
tie_rows = st.lists(st.sampled_from([0.0, 1.0]), min_size=1, max_size=8)
# zeros at the front and the back around a table that may hold some inside
padded = st.tuples(
    st.integers(0, 3), tables, st.integers(0, 3)
).map(lambda t: [0.0] * t[0] + t[1] + [0.0] * t[2])
uniforms = st.one_of(
    st.just(0.0), st.just(LAST_U), st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
)


@settings(max_examples=1000, deadline=None)
@given(tables, uniforms)
def test_draw_matches_clamped_searchsorted(weights, u):
    _assert_same_draw(weights, u)


@settings(max_examples=500, deadline=None)
@given(padded, uniforms)
def test_draw_with_leading_and_trailing_zeros(weights, u):
    _assert_same_draw(weights, u)


@settings(max_examples=300, deadline=None)
@given(tie_rows, uniforms)
def test_draw_on_tie_rows(weights, u):
    _assert_same_draw(weights, u)


def test_clamp_and_walk_both_run():
    # u * cum[-1] rounds up to cum[-1] when the total is subnormal, so the
    # unbounded search lands past the end; the last weight is 0, so the walk
    # then steps back to the one positive weight
    weights = [0.0, TINY, 0.0]
    cum = np.cumsum(weights).tolist()
    assert LAST_U * cum[-1] == cum[-1]
    assert bisect.bisect_right(cum, LAST_U * cum[-1]) == len(weights)
    assert _assert_same_draw(weights, LAST_U) == 1


def test_every_index_on_a_fixed_grid():
    rng = np.random.default_rng(20)
    rows = [[1.0], [0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [TINY, 0.0], [TINY] * 4]
    for size in range(1, 9):
        row = rng.random(size)
        row[rng.random(size) < 0.4] = 0.0
        rows.append(row.tolist())
    for row in rows:
        for u in [0.0, LAST_U, *rng.random(64).tolist()]:
            _assert_same_draw(row, u)
