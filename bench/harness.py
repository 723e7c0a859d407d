"""Operation accounting shared by the workloads.

A run repeats whole rounds of a workload's operations, and every round runs
the same operations in the same order. The meter times each operation,
counts attempts and failures, and keeps one record per timed item:
(position in the round, kind, seconds, work units, calibration index).

On a 2-CPU host shared with other tenants, speed wanders by up to 1.8x
within minutes. The process's own CPU time does not help there: it follows
the wall clock within 2%, because the other tenants slow the CPU down rather
than take it away. So every timing is normalized by the host's speed at the
time: before each operation and each set-up the meter times a fixed
calibration loop, and each time is scaled by CALIBRATION_NOMINAL_S over the
median of the loop times nearest to it, CALIBRATION_WINDOW on either side of
the loop run just before it. Times read in seconds on a host that runs the
loop in CALIBRATION_NOMINAL_S; the loop does not call cohopt, so a change to
cohopt moves the scaled times as it moves the raw ones.

Timings are then summarized with `typical`, the 75th percentile over the
rounds of each position: on such a host the median of repeated timings was
the least steady statistic from run to run, and the upper quartile the
steadiest (see README.md).
"""

from __future__ import annotations

import statistics
import sys
from collections import defaultdict
from collections.abc import Callable
from time import perf_counter

import numpy as np
from click.testing import CliRunner

CALIBRATION_NOMINAL_S = 0.0012
# the host's speed changes over seconds; three loops on either side follow
# it more closely than a whole round's loops do (README.md has the figures)
CALIBRATION_WINDOW = 3
_CALIBRATION_ARRAY = np.linspace(0.1, 1.0, 64)


def calibration_loop() -> float:
    """Seconds taken by a fixed mix of interpreted Python and small numpy
    calls, the mix that cohopt's samplers and enumerators run."""
    start = perf_counter()
    table: dict[int, int] = {}
    for i in range(150):
        b = _CALIBRATION_ARRAY * (1 + i % 3)
        float(np.log2(b / b.sum()).max())
        for j in range(30):
            table[j] = table.get(j, 0) + i * j % 7
    return perf_counter() - start


def typical(values: list[float]) -> float:
    """75th percentile of repeated timings of the same work."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


class Meter:
    def __init__(self, errors) -> None:
        self._errors = errors
        self._runner = CliRunner()
        self.round = 0
        self._position = 0
        self.attempted = 0
        self.failed = 0
        self.records: list[tuple[int, str, float, float, int]] = []
        self.samples: dict[str, list[tuple[float, int]]] = defaultdict(list)
        self.failures: set[str] = set()
        self.calibration: list[float] = []
        self.timed = 0.0  # raw seconds of every recorded item so far

    def begin_round(self, r: int) -> None:
        self.round = r
        self._position = 0

    def _fail(self, label: str) -> None:
        self.failed += 1
        if label not in self.failures:
            self.failures.add(label)
            print(f"operation failed: {label}", file=sys.stderr)

    def calibrate(self) -> None:
        self.calibration.append(calibration_loop())

    def scale(self, i: int) -> float:
        """Factor that turns seconds timed after calibration loop i into
        nominal-speed seconds."""
        near = self.calibration[max(0, i - CALIBRATION_WINDOW):i + CALIBRATION_WINDOW + 1]
        return CALIBRATION_NOMINAL_S / statistics.median(near)

    def note(self, kind: str, seconds: float, units: float) -> None:
        """Record a timed item of the round that is not an operation."""
        self.records.append((self._position, kind, seconds, units, len(self.calibration) - 1))
        self._position += 1
        self.timed += seconds

    def sample(self, name: str, seconds: float) -> None:
        """Record one timing outside the round's positions, e.g. a set-up."""
        self.samples[name].append((seconds, len(self.calibration) - 1))

    def scaled(self, name: str) -> list[float]:
        return [seconds * self.scale(i) for seconds, i in self.samples[name]]

    def op(self, kind: str, units: float, fn: Callable, *args, **kwargs):
        """Run and time one operation; None when it raised."""
        self.attempted += 1
        self.calibrate()
        start = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except self._errors.CohoptError as exc:
            self._position += 1
            self._fail(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        self.note(kind, perf_counter() - start, units)
        return out

    def cli(self, kind: str, units: float, main, args: list[str], expect: int = 0):
        """Invoke one CLI command in this process; the click result, or None
        when the exit code is not the expected one."""
        self.attempted += 1
        self.calibrate()
        start = perf_counter()
        result = self._runner.invoke(main, args)
        elapsed = perf_counter() - start
        if result.exit_code != expect:
            self._position += 1
            detail = (result.output or "").strip().splitlines()[-1:] or [repr(result.exception)]
            self._fail(f"cohopt {args[0]}: exit {result.exit_code}, expected {expect}: {detail[0]}")
            return None
        self.note(kind, elapsed, units)
        return result

    def probe(self, label: str, fn: Callable, *args, **kwargs) -> None:
        """A cap-contract probe: succeeds only if fn raises
        EnumerationCapError (exit code 4 on the command line)."""
        self.attempted += 1
        try:
            fn(*args, **kwargs)
        except self._errors.EnumerationCapError:
            return
        except self._errors.CohoptError as exc:
            self._fail(f"cap probe {label}: raised {type(exc).__name__}, expected EnumerationCapError")
            return
        self._fail(f"cap probe {label}: returned without EnumerationCapError")

    def round_totals(self, kinds: tuple[str, ...] = (), scaled: bool = True) -> tuple[float, float]:
        """(units, seconds) of one round, each position timed at its typical
        time over the rounds; all kinds when kinds is empty. Raw wall-clock
        seconds when scaled is false."""
        by_position: dict[int, list] = {}
        for position, kind, seconds, units, i in self.records:
            if not kinds or kind in kinds:
                if scaled:
                    seconds *= self.scale(i)
                by_position.setdefault(position, [units, []])[1].append(seconds)
        units = sum(u for u, _ in by_position.values())
        seconds = sum(typical(s) for _, s in by_position.values())
        return units, seconds

    def rate(self, *kinds: str) -> float:
        units, seconds = self.round_totals(kinds)
        return units / seconds


class Checks:
    """Collects failed correctness checks; a run is correct when none fail."""

    def __init__(self) -> None:
        self.problems: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok and len(self.problems) < 50:
            self.problems.append(message)
            print(f"check failed: {message}", file=sys.stderr)
