"""Steadiness check and figure regeneration for the cohopt benchmark.

    python3 bench/steadiness.py --seeds 11,12,13,14,15 --sets 2 [--trace]

Runs bench/run.py as one process at a time, for run_seconds of
BENCHMARK.json: for each set, every workload on every seed (--repeats times
each). For every end-to-end metric it prints each set's median and quartile
spread (third minus first quartile over the median), every run's value, and
the change of the last set's median against the first set's, positive when
it got worse. The medians agree when that change, in either direction, is
within the metric's bound in BENCHMARK.json. It also checks that every run
was correct and that the share of failed operations is the same in every set.
The workload detail lines are summarized the same way, without a bound. With
--trace it adds one traced run per workload on the first seed and prints its
non-zero per-layer metrics.

Exits 1 when a run is incorrect, a failed share differs, or two medians do
not agree within their bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    # run.py exits 1 after its result line when an output check failed
    try:
        if proc.returncode not in (0, 1):
            raise ValueError
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}") from None
    result["details"] = {}
    for line in lines:
        if line.startswith("detail "):
            _, name, value, unit = line.split()
            result["details"][name] = {"value": float(value), "unit": unit}
    return result


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first: float, last: float, better: str) -> float:
    """Relative change of the last median against the first, positive when
    it got worse, negative when it got better."""
    change = (last - first) / first
    return -change if better == "higher" else change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="comma-separated workload seeds")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--repeats", type=int, default=1, help="runs per seed in each set")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    runs = {(s, w): [] for s in range(args.sets) for w in workloads}
    for s in range(args.sets):
        for w in workloads:
            for seed in seeds:
                for _ in range(args.repeats):
                    result = run_once(w, seed, seconds, 0)
                    runs[(s, w)].append(result)
                    print(f"set {s + 1} {w} seed {seed}: correct={result['correct']} "
                          f"attempted={result['attempted']} failed={result['failed']}", flush=True)

    ok = True
    for w in workloads:
        print(f"\n== {w} ({len(seeds) * args.repeats} runs per set)")
        sets = [runs[(s, w)] for s in range(args.sets)]
        if not all(r["correct"] for rs in sets for r in rs):
            print("  INCORRECT: some run failed its output checks")
            ok = False
        shares = [{r["failed"] / r["attempted"] for r in rs} for rs in sets]
        same_share = all(len(x) == 1 for x in shares) and len(set().union(*shares)) == 1
        print(f"  failed share per set: {[sorted(x) for x in shares]} {'same' if same_share else 'DIFFERS'}")
        ok = ok and same_share
        print(f"  {'metric':26s} {'unit':10s} " + " ".join(f"{'median' + str(i + 1):>13s} {'spread':>7s}" for i in range(args.sets))
              + f" {'change':>7s} {'bound':>6s}")
        rows = [(m["name"], m["unit"], m["better"], m["bound"], "metrics") for m in spec["end_to_end"]]
        detail_names = sorted(sets[0][0]["details"])
        rows += [(n, sets[0][0]["details"][n]["unit"],
                  "higher" if n.endswith("_per_s") else "lower", None, "details") for n in detail_names]
        for name, unit, better, bound, source in rows:
            medians, cells = [], []
            for rs in sets:
                values = [r[source][name]["value"] for r in rs]
                medians.append(statistics.median(values))
                cells.append(f"{medians[-1]:13.6g} {spread(values):7.3f}")
            change = worse_by(medians[0], medians[-1], better)
            verdict = ""
            if bound is not None:
                agree = abs(change) <= bound
                verdict = "agree" if agree else "MOVED"
                ok = ok and agree
            shown = "-" if bound is None else f"{bound:.2f}"
            print(f"  {name:26s} {unit:10s} {' '.join(cells)} {change:7.3f} {shown:>6s} {verdict}")
            for i, rs in enumerate(sets):
                print(f"    set {i + 1}: " + " ".join(f"{r[source][name]['value']:.5g}" for r in rs))

    if args.trace:
        for w in workloads:
            result = run_once(w, seeds[0], seconds, 1)
            print(f"\n== {w} traced, seed {seeds[0]}: correct={result['correct']}")
            for name, metric in result["metrics"].items():
                if metric["value"]:
                    print(f"  {name:52s} {metric['value']:14.6g} {metric['unit']}")
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
