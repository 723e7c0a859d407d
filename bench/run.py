"""Benchmark entry point for cohopt.

    python3 bench/run.py --workload gibbs-chains --seed 1 --seconds 30 --trace 0

Runs one workload in this process against the cohopt sources under src/ of
the checkout that holds this file. The run repeats whole rounds of the
workload's operations until --seconds have passed, times the workload's
set-up before the first round and after every round, checks every round's
outputs against bench/reference.py or against properties the methods must
have, and prints one JSON object as its last line: correct, attempted,
failed and metrics. Times are scaled to a nominal host speed (see
harness.py). Exits 1 when an output check failed.

--trace 0 reports the end-to-end metrics listed in BENCHMARK.json. --trace 1
alternates untraced and traced rounds and reports the per-layer metrics: span
counts and self times per round from the traced rounds, plus the tracing
overhead (traced minus untraced median round time). Spans are written to
.bench_out/spans-<workload>-seed<seed>.npz.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
# set-up is timed in batches before the first round and after every round,
# so that its samples span the run, as the rounds' samples do
SETUP_FIRST_SECONDS = 0.5
SETUP_ROUND_SECONDS = 0.1


def load_cohopt():
    src = ROOT / "src"
    if not (src / "cohopt" / "__init__.py").is_file():
        raise SystemExit(f"error: no cohopt package under {src}")
    sys.path.insert(0, str(src))
    import cohopt
    import cohopt.cli

    if Path(cohopt.__file__).resolve().parent != (src / "cohopt").resolve():
        raise SystemExit(f"error: imported cohopt from {cohopt.__file__}, not from {src}")
    return cohopt


def time_setups(workload, co, seed: int, workdir: Path, min_seconds: float, meter):
    """Set the workload up at least once and until min_seconds have been
    spent; records each set-up's time and returns the last inputs."""
    spent = 0.0
    while spent < min_seconds:
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        meter.calibrate()
        start = perf_counter()
        inputs = workload.setup(co, seed, ROOT, workdir)
        elapsed = perf_counter() - start
        meter.sample("setup", elapsed)
        spent += elapsed
    return inputs


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    import exact_tables
    import gibbs_chains
    import semi_supervised

    workloads = {m.NAME: m for m in (gibbs_chains, exact_tables, semi_supervised)}
    args = parse_args(argv, workloads)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    co = load_cohopt()

    import reference
    from harness import CALIBRATION_NOMINAL_S, Checks, Meter, typical
    from tracing import Tracer, layer_metrics

    problems = reference.self_test()
    if problems:
        raise SystemExit("error: reference self-test failed: " + "; ".join(problems))

    workload = workloads[args.workload]
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        meter, checks = Meter(co.errors), Checks()
        inputs = time_setups(workload, co, args.seed, workdir, SETUP_FIRST_SECONDS, meter)
        workload.prepare_checks(inputs)

        tracer = Tracer(co) if args.trace else None
        walls: dict[bool, list[float]] = {False: [], True: []}
        first = None
        rounds = 0
        start = perf_counter()
        while True:
            traced = tracer is not None and rounds % 2 == 1
            meter.begin_round(rounds)
            if traced:
                tracer.install()
                tracer.begin_round()
            round_start = perf_counter()
            try:
                out = workload.run_round(co, co.cli.main, inputs, meter)
            finally:
                if traced:
                    tracer.end_round()
                    tracer.uninstall()
            walls[traced].append(perf_counter() - round_start)
            workload.check_round(inputs, rounds, out, first, checks)
            first = first or out
            # drop the finished round's cyclic garbage, so that the peak
            # resident size does not depend on how many rounds ran
            del out
            gc.collect()
            # equal set-ups for timing only; the rounds keep the first inputs
            time_setups(workload, co, args.seed, workdir, SETUP_ROUND_SECONDS, meter)
            rounds += 1
            round_time = statistics.median(walls[False] + walls[True])
            if (
                rounds >= max(workload.MIN_ROUNDS, 2)
                and perf_counter() - start + round_time > args.seconds
            ):
                break
        if hasattr(workload, "final_check"):
            workload.final_check(inputs, checks)

        print(f"rounds {rounds} (traced {len(walls[True])})")
        if tracer is None:
            details = {
                **workload.details(meter),
                "unscaled_wall_s": (meter.round_totals(scaled=False)[1], "s"),
                "host_slowdown": (statistics.median(meter.calibration) / CALIBRATION_NOMINAL_S, "x"),
            }
            for name, (value, unit) in details.items():
                print(f"detail {name} {value!r} {unit}")
            values = {
                "setup_s": typical(meter.scaled("setup")),
                "wall_s": meter.round_totals()[1],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "work_per_s": workload.work_per_s(meter),
            }
            wanted = spec["end_to_end"]
        else:
            wanted = spec["per_layer"]
            layer_names = [m["name"] for m in wanted if not m["name"].startswith("trace.")]
            values, unsteady = layer_metrics(tracer.per_round(), layer_names)
            for name in unsteady:
                print(f"warning: count {name} differs between traced rounds", file=sys.stderr)
            traced_wall = statistics.median(walls[True])
            values["trace.round.wall_s"] = traced_wall
            values["trace.round.overhead_s"] = traced_wall - statistics.median(walls[False])
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({
        "correct": not checks.problems,
        "attempted": meter.attempted,
        "failed": meter.failed,
        "metrics": metrics,
    }))
    return 1 if checks.problems else 0


if __name__ == "__main__":
    sys.exit(main())
