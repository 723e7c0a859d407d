"""Benchmark a change against its parent, alternating the two checkouts.

    python3 tools/bench_pair.py PARENT CHANGE --pr N

PARENT and CHANGE are checkouts of the repository (say, `git clone` of the
parent commit and of the change). For each of the seeds 101-110 (the ten pairs a
claimed gain is judged on) and every workload listed in CHANGE's
BENCHMARK.json, this runs that file's command (`bench/run.py`) for its
`run_seconds` once in each checkout, the parent first on even-numbered
seeds and the change first on odd ones, so that a drift of the host falls
on both sides. Then it runs one traced run (`--trace 1`) per workload and
side on the first seed. Runs go one at a time.

The output, BENCH_N.json at the root of this repository, holds every run's
JSON result line with its detail lines; per workload and side, the median
and the quartiles of every end-to-end metric and detail; per workload and
end-to-end metric, the number of seed pairs each side won (ties count for
neither) and the verdict of the gain rule, which is printed too; the host's
CPU count, the Python and numpy versions, and each checkout's git SHA, with
`clean: false` when it had uncommitted changes. Exits 1 when a run was not
correct.

The gain rule: a metric shows a `gain` when the change won at least 9 of
the 10 pairs and its median moved the better way by more than the parent's
interquartile spread; otherwise the verdict is `none`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = tuple(range(101, 111))
GAIN_WINS = 0.9  # the share of pairs the change must win: 9 of the 10


def git_state(checkout: Path) -> dict:
    def git(*args: str) -> str | None:
        proc = subprocess.run(
            ["git", "-C", str(checkout), *args], capture_output=True, text=True
        )
        return proc.stdout.strip() if proc.returncode == 0 else None

    return {"sha": git("rev-parse", "HEAD"), "clean": git("status", "--porcelain") == ""}


def run_once(checkout: Path, command: list[str], workload: str, seed: int,
             seconds: float, trace: int) -> dict:
    cmd = [*command, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if cmd[0] in ("python", "python3"):
        cmd[0] = sys.executable
    proc = subprocess.run(
        cmd, cwd=checkout, capture_output=True, text=True, timeout=20 * seconds + 600
    )
    lines = proc.stdout.strip().splitlines()
    # run.py exits 1 after its result line when an output check failed
    try:
        if proc.returncode not in (0, 1):
            raise ValueError
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(
            f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}"
        ) from None
    details = {}
    for line in lines:
        if line.startswith("detail "):
            _, name, value, unit = line.split()
            details[name] = {"value": float(value), "unit": unit}
    return {"workload": workload, "seed": seed, "trace": trace,
            "result": result, "details": details}


def values_by_seed(runs: list[dict]) -> dict[str, dict[int, float]]:
    """Every end-to-end metric and detail line of the untraced runs, by
    name, then by seed."""
    values: dict[str, dict[int, float]] = {}
    for run in runs:
        if run["trace"]:
            continue
        for name, metric in {**run["result"]["metrics"], **run["details"]}.items():
            values.setdefault(name, {})[run["seed"]] = metric["value"]
    return values


def medians(runs: list[dict]) -> dict[str, float]:
    """Median of every end-to-end metric and detail line over untraced runs."""
    return {
        name: statistics.median(v.values())
        for name, v in values_by_seed(runs).items()
    }


def quartiles(runs: list[dict]) -> dict[str, list[float]]:
    """First quartile, median and third quartile of every end-to-end metric
    and detail line over untraced runs (linear interpolation between order
    statistics, as numpy.percentile)."""
    return {
        name: statistics.quantiles(v.values(), n=4, method="inclusive")
        for name, v in values_by_seed(runs).items()
    }


def wins(parent: list[dict], change: list[dict], better: dict[str, str]) -> dict:
    """For each end-to-end metric, the number of seed pairs each side won
    in the metric's better direction; a tie counts for neither side."""
    a, b = values_by_seed(parent), values_by_seed(change)
    out = {}
    for name, direction in better.items():
        sign = 1 if direction == "lower" else -1
        pairs = [
            (sign * a[name][seed], sign * b[name][seed])
            for seed in a.get(name, {})
            if seed in b.get(name, {})
        ]
        out[name] = {
            "pairs": len(pairs),
            "parent": sum(p < c for p, c in pairs),
            "change": sum(c < p for p, c in pairs),
        }
    return out


def verdict(parent: list[dict], change: list[dict], better: dict[str, str]) -> dict:
    """For each end-to-end metric, "gain" by the gain rule, else "none",
    with the numbers it was judged on."""
    won = wins(parent, change, better)
    spread, shifted = quartiles(parent), medians(change)
    out = {}
    for name, direction in better.items():
        if name not in spread or name not in shifted:
            out[name] = {"verdict": "none"}
            continue
        q1, median, q3 = spread[name]
        sign = 1 if direction == "lower" else -1
        shift = sign * (median - shifted[name])
        pairs, change_wins = won[name]["pairs"], won[name]["change"]
        gain = pairs > 0 and change_wins >= GAIN_WINS * pairs and shift > q3 - q1
        out[name] = {
            "verdict": "gain" if gain else "none",
            "change_wins": change_wins,
            "pairs": pairs,
            "shift": shift,
            "parent_iqr": q3 - q1,
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pr", type=int, required=True)
    args = parser.parse_args()
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {side: [] for side in sides}

    plan = []
    for n, seed in enumerate(SEEDS):
        order = ("parent", "change") if n % 2 == 0 else ("change", "parent")
        plan += [(side, w, seed, 0) for w in workloads for side in order]
    plan += [(side, w, SEEDS[0], 1) for w in workloads for side in sides]
    for side, workload, seed, trace in plan:
        print(f"{side} {workload} seed {seed} trace {trace}", file=sys.stderr)
        runs[side].append(run_once(
            sides[side], spec["command"], workload, seed, seconds, trace
        ))

    def of(side: str, workload: str) -> list[dict]:
        return [r for r in runs[side] if r["workload"] == workload]

    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    report = {
        "pr": args.pr,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seeds": list(SEEDS),
        "seconds": seconds,
        "checkouts": {side: git_state(path) for side, path in sides.items()},
        "medians": {
            w: {side: medians(of(side, w)) for side in sides} for w in workloads
        },
        "quartiles": {
            w: {side: quartiles(of(side, w)) for side in sides} for w in workloads
        },
        "wins": {w: wins(of("parent", w), of("change", w), better) for w in workloads},
        "verdict": {
            w: verdict(of("parent", w), of("change", w), better) for w in workloads
        },
        "runs": runs,
    }
    for w, metrics in report["verdict"].items():
        for name, v in metrics.items():
            print(f"{w} {name}: {json.dumps(v)}")
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0 if all(r["result"]["correct"] for rs in runs.values() for r in rs) else 1


if __name__ == "__main__":
    sys.exit(main())
