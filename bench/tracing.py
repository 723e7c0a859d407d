"""Span tracing of cohopt's layers, applied from outside the package.

Each traced public function is replaced, at every module attribute that
refers to it (the defining module, each importing module and the package
namespace), by a wrapper that records one span: name, start, end and the
span that was open when it was called. CLI commands are traced by wrapping
each click command's callback. Spans live in flat in-memory arrays and are
written out once, when the run ends.

Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
from array import array
from collections.abc import Callable
from pathlib import Path
from time import perf_counter

import numpy as np


def _arg(fn: Callable, name: str) -> Callable:
    """Extractor for one named argument of fn, positional or keyword."""
    signature = inspect.signature(fn)

    def get(args, kwargs):
        return signature.bind(*args, **kwargs).arguments[name]

    return get


def _counters() -> dict[tuple[str, str], dict[str, Callable]]:
    """Work counts per traced function: (module, function) -> {stat: make},
    where make(fn) returns a counter f(args, kwargs, result)."""
    def steps(fn):
        config = _arg(fn, "config")
        return lambda a, k, out: config(a, k).steps

    def policies(fn):
        system = _arg(fn, "system")
        return lambda a, k, out: system(a, k).partition.policy_count()

    def distribution_rows(fn):
        distribution = _arg(fn, "distribution")
        return lambda a, k, out: len(distribution(a, k))

    def record_rows(fn):
        record = _arg(fn, "record")
        return lambda a, k, out: len(record(a, k))

    return {
        ("systems", "enumerate_policy_masses"): {"policies": policies},
        ("samplers", "gibbs_run"): {"steps": steps},
        ("samplers", "training_friendly_gibbs_run"): {"rounds": steps},
        ("analysis", "bound_validity_trials"): {
            "trials": lambda fn: lambda a, k, out: len(out)
        },
        ("checks", "run_all_sweeps"): {
            "cases": lambda fn: lambda a, k, out: sum(r.cases for r in out)
        },
        ("fileio", "write_distribution_csv"): {
            "rows": distribution_rows,
            "bytes": lambda fn: lambda a, k, out: Path(out).stat().st_size,
        },
        ("fileio", "write_trajectory_csv"): {"rows": record_rows},
    }


TRACED_FUNCTIONS = {
    "systems": ("infer", "enumerate_policy_masses", "random_mixture_system"),
    "coherence": ("coherence", "sequence_coherence", "softmax_over_coherence"),
    "samplers": (
        "gibbs_run",
        "training_friendly_gibbs_run",
        "simple_bootstrap_run",
        "icm_hill_climb",
        "mutual_predictability",
        "exact_conditional_distribution",
        "bootstrap_exact_distribution",
    ),
    "analysis": (
        "srm_select",
        "empirical_distribution",
        "tv_distance",
        "bound_validity_trials",
    ),
    "experiments": ("generate_scenario", "run_semi_supervised", "equivalence_study"),
    "checks": ("run_all_sweeps",),
    "fileio": (
        "load_scenario",
        "write_distribution_csv",
        "write_trajectory_csv",
        "write_rows_csv",
    ),
}
TRACED_COMMANDS = ("enumerate", "run", "check", "equiv", "mc")


class Tracer:
    """Installs span-recording wrappers into cohopt and aggregates spans.

    install() and uninstall() may alternate, so that traced and untraced
    rounds run in one process; only rounds between begin_round() and
    end_round() are aggregated.
    """

    def __init__(self, co) -> None:
        self._co = co
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._counts: list[tuple[int, str, float]] = []  # (span, stat, value)
        self._rounds: list[tuple[int, int]] = []
        self._round_start = 0
        self._patches = self._plan()

    # --- installation

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn: Callable, name: str | Callable, counters: dict) -> Callable:
        fixed = None if callable(name) else self._name_id(name)
        namer = name if callable(name) else None
        stats = {stat: make(fn) for stat, make in counters.items()}
        names, parents, starts, ends, stack = (
            self._name, self._parent, self._start, self._end, self._stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(fixed if namer is None else self._name_id(namer(args, kwargs)))
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            for stat, count in stats.items():
                self._counts.append((sid, stat, float(count(args, kwargs, out))))
            return out

        return traced

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """Every (owner, attribute, original, wrapper) to patch."""
        co = self._co
        modules = [
            m for key, m in sorted(sys.modules.items())
            if key == "cohopt" or key.startswith("cohopt.")
        ]
        counters = _counters()
        plan = []
        for module_name, functions in TRACED_FUNCTIONS.items():
            module = sys.modules[f"cohopt.{module_name}"]
            for function in functions:
                original = getattr(module, function)
                if function == "run_semi_supervised":
                    method = _arg(original, "method")
                    name = lambda a, k, m=method: f"experiments.run_semi_supervised.{m(a, k)}"
                else:
                    name = f"{module_name}.{function}"
                wrapper = self._wrap(
                    original, name, counters.get((module_name, function), {})
                )
                for owner in modules:
                    for attr, value in list(vars(owner).items()):
                        if value is original:
                            plan.append((owner, attr, original, wrapper))
        for command in TRACED_COMMANDS:
            cmd = co.cli.main.commands[command]
            plan.append(
                (cmd, "callback", cmd.callback, self._wrap(cmd.callback, f"cli.{command}", {}))
            )
        return plan

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # --- rounds and aggregation

    def begin_round(self) -> None:
        self._round_start = len(self._start)

    def end_round(self) -> None:
        self._rounds.append((self._round_start, len(self._start)))

    def per_round(self) -> list[dict[str, float]]:
        """For each traced round: '<span>.calls', '<span>.self_s' and
        '<span>.<stat>' for every recorded work count."""
        name = np.frombuffer(self._name, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        duration = np.frombuffer(self._end) - np.frombuffer(self._start)
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=name.size
        )
        self_time = duration - child_time
        counts_by_span: dict[int, list[tuple[str, float]]] = {}
        for sid, stat, value in self._counts:
            counts_by_span.setdefault(sid, []).append((stat, value))
        rounds = []
        for lo, hi in self._rounds:
            ids = name[lo:hi]
            calls = np.bincount(ids, minlength=len(self._names))
            selfs = np.bincount(ids, weights=self_time[lo:hi], minlength=len(self._names))
            out: dict[str, float] = {}
            for nid, label in enumerate(self._names):
                out[f"{label}.calls"] = float(calls[nid])
                out[f"{label}.self_s"] = float(selfs[nid])
            for sid in range(lo, hi):
                for stat, value in counts_by_span.get(sid, ()):
                    key = f"{self._names[name[sid]]}.{stat}"
                    out[key] = out.get(key, 0.0) + value
            rounds.append(out)
        return rounds

    def write(self, path: Path) -> None:
        """All spans as arrays: name id, parent span, start, end, plus the
        name table and the round boundaries."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self._names),
            name=np.frombuffer(self._name, dtype=np.int32),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            start=np.frombuffer(self._start),
            end=np.frombuffer(self._end),
            rounds=np.array(self._rounds, dtype=np.int64).reshape(-1, 2),
        )


def layer_metrics(rounds: list[dict[str, float]], wanted: list[str]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metric values from the per-round aggregates.

    Counts must repeat exactly from round to round; times are the median
    over rounds. Returns the metrics and the names whose counts differed.
    """
    values: dict[str, float] = {}
    unsteady = []
    for metric in wanted:
        span, stat = metric.rsplit(".", 1)
        if stat == "us_per_step":
            series = [
                1e6 * r.get(f"{span}.self_s", 0.0) / r[f"{span}.steps"]
                if r.get(f"{span}.steps") else 0.0
                for r in rounds
            ]
        else:
            series = [r.get(metric, 0.0) for r in rounds]
        if stat.endswith("_s") or stat.startswith("us_"):
            values[metric] = statistics.median(series)
        else:
            if len(set(series)) > 1:
                unsteady.append(metric)
            values[metric] = series[0]
    return values, unsteady
