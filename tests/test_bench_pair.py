"""The gain rule of tools/bench_pair.py on synthetic run lists: a gain
needs at least 9 of the 10 pair wins and a median shift, the better way,
larger than the parent's interquartile spread."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pair.py"
spec = importlib.util.spec_from_file_location("bench_pair", TOOL)
bench_pair = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pair)

BETTER = {"wall_s": "lower", "work_per_s": "higher"}
PARENT_WALL = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def _runs(values, metric="wall_s", traced=None):
    runs = [
        {"seed": seed, "trace": 0, "details": {},
         "result": {"metrics": {metric: {"value": value}}}}
        for seed, value in zip(bench_pair.SEEDS, values)
    ]
    if traced is not None:  # a traced run never counts
        runs.append({"seed": bench_pair.SEEDS[0], "trace": 1, "details": {},
                     "result": {"metrics": {metric: {"value": traced}}}})
    return runs


def _verdict(parent, change, metric="wall_s"):
    out = bench_pair.verdict(
        _runs(parent, metric), _runs(change, metric), {metric: BETTER[metric]}
    )
    return out[metric]["verdict"]


def test_ten_wins_past_the_spread_is_a_gain():
    assert _verdict(PARENT_WALL, [v - 0.1 for v in PARENT_WALL]) == "gain"


def test_eight_wins_is_no_gain():
    change = [v - 0.1 for v in PARENT_WALL]
    change[0] = change[1] = 2.0
    assert _verdict(PARENT_WALL, change) == "none"


def test_nine_wins_is_a_gain():
    change = [v - 0.1 for v in PARENT_WALL]
    change[0] = 2.0
    assert _verdict(PARENT_WALL, change) == "gain"


def test_a_shift_inside_the_spread_is_no_gain():
    # ten wins, but the median moves 0.01 against a spread of about 0.03
    assert _verdict(PARENT_WALL, [v - 0.01 for v in PARENT_WALL]) == "none"


def test_a_ranking_the_wrong_way_is_no_gain():
    assert _verdict(PARENT_WALL, [v + 0.1 for v in PARENT_WALL]) == "none"


@pytest.mark.parametrize("delta, expected", [(50.0, "gain"), (-50.0, "none")])
def test_higher_is_better_metrics(delta, expected):
    parent = [100 * v for v in PARENT_WALL]
    change = [v + delta for v in parent]
    assert _verdict(parent, change, "work_per_s") == expected


def test_traced_runs_do_not_count():
    change = [v - 0.1 for v in PARENT_WALL]
    parent = _runs(PARENT_WALL, traced=100.0)
    out = bench_pair.verdict(parent, _runs(change, traced=0.0), BETTER)
    assert out["wall_s"]["verdict"] == "gain"
    assert out["wall_s"]["pairs"] == 10
    assert out["work_per_s"]["verdict"] == "none"  # no runs of it
