"""Shared measurement plumbing of the benchmark harness.

A workload hands the harness :class:`Pass` records: how many windows a
timed pass released, how long it took on the wall and CPU clocks, and
one latency sample per *request* (the unit a caller
submits and waits on — a window, a broker slice, a sweep cell, a
mechanism run), each weighted by the windows that request released.

Every time is scaled to a reference host.  The host these numbers were
developed on is a 2-vCPU virtual machine that switches, within
fractions of a second and for up to minutes, between two speeds about
45% apart; the slow phase stretches wall and process-CPU time alike,
so neither clock alone can resolve a 25% change.  Every
:data:`SAMPLE_S` of a timed pass the harness times a fixed control loop
and divides the surrounding work's times by how much slower than
:data:`REFERENCE_S` that loop ran.  A change to the program moves the
work's time but not the control's, so it shows in full; a change of
host speed moves both and cancels.
"""

from __future__ import annotations

import contextlib
import cProfile
import math
import pstats
import resource
import signal
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

#: A percentile is emitted only when at least this many samples lie
#: beyond it; below that the tail is a guess, not a measurement.
MIN_SAMPLES_BEYOND = 10


#: The control loop: fixed interpreter work plus small-array numpy
#: calls, the two kinds of work the program does, so its duration
#: follows the host's speed as the program feels it (a pure-Python
#: loop alone tracked the program's slowdowns less closely).
CONTROL_LOOPS = 15_000
CONTROL_ARRAY_OPS = 400
_CONTROL_ARRAY = np.arange(256, dtype=float)
#: The control loop's duration on the reference host (the faster of
#: the two speeds the 2-vCPU development host alternates between).
REFERENCE_S = 0.0022
#: Interval of the host-speed sampling timer during a timed pass.
SAMPLE_S = 0.1


def host_factor() -> float:
    """How much slower than the reference host this host runs now."""
    start = time.perf_counter()
    total = 0
    for i in range(CONTROL_LOOPS):
        total += i * i
    for _ in range(CONTROL_ARRAY_OPS):
        (_CONTROL_ARRAY * 2.0 + 1.0).sum()
    return (time.perf_counter() - start) / REFERENCE_S


@dataclass
class Pass:
    """What one timed pass over a workload produced.

    Inside :meth:`sampling` an interval timer interrupts
    the work every :data:`SAMPLE_S` to measure the host factor (the
    handler runs in the main thread between bytecodes, like any Python
    signal handler).  Each stretch of work between two samples has its
    wall and CPU time divided by the mean of the two factors, and each
    request's latency by the mean factor over the stretches it spans.
    Time spent in the control loops is taken out of everything.
    """

    windows: int = 0
    #: Wall and CPU seconds of the whole pass on this host, control
    #: loops included.
    wall_s: float = 0.0
    cpu_s: float = 0.0
    #: Per request: its latency in seconds on this host (control loops
    #: taken out), the windows it released and when it ended (compact
    #: arrays, so a long pass does not grow the heap it times).
    latency: array = field(default_factory=lambda: array("d"))
    weight: array = field(default_factory=lambda: array("q"))
    started: array = field(default_factory=lambda: array("d"))
    ended: array = field(default_factory=lambda: array("d"))
    #: Per host sample: when it finished, the factor, and the wall and
    #: CPU seconds spent in control loops up to and including it.
    sampled_at: array = field(default_factory=lambda: array("d"))
    factors: array = field(default_factory=lambda: array("d"))
    paused_wall: array = field(default_factory=lambda: array("d"))
    paused_cpu: array = field(default_factory=lambda: array("d"))
    cpu_at: array = field(default_factory=lambda: array("d"))
    #: Wall seconds spent in control loops so far.
    paused_s: float = 0.0
    #: Workload-specific outputs kept for the correctness check.
    outputs: list = field(default_factory=list)

    @contextlib.contextmanager
    def sampling(self):
        """Sample the host factor around and every SAMPLE_S within."""
        self._sample()
        previous = signal.signal(
            signal.SIGALRM, lambda _signum, _frame: self._sample()
        )
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._sample()

    def _sample(self) -> None:
        wall, cpu = time.perf_counter(), time.process_time()
        self.factors.append(host_factor())
        now, now_cpu = time.perf_counter(), time.process_time()
        self.paused_s += now - wall
        self.paused_cpu.append(
            (self.paused_cpu[-1] if self.paused_cpu else 0.0)
            + now_cpu - cpu
        )
        self.paused_wall.append(self.paused_s)
        self.sampled_at.append(now)
        self.cpu_at.append(now_cpu)

    def request(self) -> Tuple[float, float]:
        """A token marking a request's start."""
        return time.perf_counter(), self.paused_s

    def add_request(
        self, token: Tuple[float, float], windows: int, end=None
    ) -> None:
        """Record a request; ``end`` is ``(time, paused_s)`` at its
        completion when that was stamped elsewhere (default: now)."""
        end_at, end_paused = end or (time.perf_counter(), self.paused_s)
        start_at, start_paused = token
        self.latency.append(end_at - start_at - (end_paused - start_paused))
        self.weight.append(windows)
        self.started.append(start_at)
        self.ended.append(end_at)

    def _stretch_factors(self) -> np.ndarray:
        factors = np.asarray(self.factors)
        return (factors[:-1] + factors[1:]) / 2.0

    def reference_latency(self) -> np.ndarray:
        """Request latencies in reference seconds."""
        stretch = self._stretch_factors()
        last = len(stretch) - 1
        at = np.asarray(self.sampled_at)
        first = np.clip(
            np.searchsorted(at, np.asarray(self.started)) - 1, 0, last
        )
        final = np.clip(
            np.searchsorted(at, np.asarray(self.ended)) - 1, first, last
        )
        cumulative = np.concatenate(([0.0], np.cumsum(stretch)))
        mean = (cumulative[final + 1] - cumulative[first]) / (
            final - first + 1
        )
        return np.asarray(self.latency) / mean

    def _stretches(self, at: array, paused: array) -> np.ndarray:
        return np.diff(np.asarray(at)) - np.diff(np.asarray(paused))

    def reference_wall_s(self) -> float:
        """Timed wall seconds, each stretch scaled to the reference host."""
        walls = self._stretches(self.sampled_at, self.paused_wall)
        return float((walls / self._stretch_factors()).sum())

    def reference_cpu_s(self) -> float:
        cpus = self._stretches(self.cpu_at, self.paused_cpu)
        return float((cpus / self._stretch_factors()).sum())

    def raw_wall_s(self) -> float:
        walls = self._stretches(self.sampled_at, self.paused_wall)
        return float(walls.sum())


class Clock:
    """Wall and process-CPU stopwatch around one timed region."""

    def __enter__(self) -> "Clock":
        self._wall = time.perf_counter()
        self._cpu = time.process_time()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = self.elapsed()
        self.cpu_s = time.process_time() - self._cpu

    def elapsed(self) -> float:
        return time.perf_counter() - self._wall


def weighted_percentile(
    record: Pass, q: float
) -> Tuple[Optional[float], int, int]:
    """The ``q``-th percentile of per-window latency in ``record``, in
    reference seconds.

    Every window released by a request shares that request's latency,
    so the distribution is over windows.  Returns ``(seconds, windows,
    windows beyond)``; ``seconds`` is ``None`` when fewer than
    :data:`MIN_SAMPLES_BEYOND` windows lie beyond the percentile.
    """
    weights = np.asarray(record.weight, dtype=np.int64)
    total = int(weights.sum())
    beyond = total - math.ceil(total * q / 100.0)
    if total == 0 or beyond < MIN_SAMPLES_BEYOND:
        return None, total, beyond
    latency = record.reference_latency()
    order = np.argsort(latency, kind="stable")
    cumulative = np.cumsum(weights[order])
    position = int(np.searchsorted(cumulative, total * q / 100.0))
    return float(latency[order[position]]), total, beyond


def latency_ms(record: Pass, q: float) -> Tuple[float, str]:
    """A guarded percentile in ms plus a line stating its support."""
    value, total, beyond = weighted_percentile(record, q)
    note = (
        f"latency p{q:g} over {total} windows from "
        f"{len(record.latency)} requests ({beyond} windows beyond it)"
    )
    if value is None:
        raise RuntimeError(
            f"refusing to report {note}: fewer than "
            f"{MIN_SAMPLES_BEYOND} samples lie beyond the percentile"
        )
    return value * 1000.0, note


def count_calls(unit: Callable[[Pass], None]) -> Tuple[int, int]:
    """One ``unit`` under cProfile: ``(total calls, windows released)``.

    cProfile counts every Python-level and builtin call, so on the same
    input and the same code the count repeats exactly.
    """
    record = Pass()
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        unit(record)
    finally:
        profiler.disable()
    return pstats.Stats(profiler).total_calls, record.windows


def peak_rss_mb() -> float:
    """Peak resident set of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(
    unit: Callable[[Pass], None], *, seconds=None, repeats=None
) -> Pass:
    """A timed, host-sampled pass of whole ``unit``\ s.

    Runs ``repeats`` units, or — with ``seconds`` — stops at the unit
    boundary nearest that many seconds (a unit is started only while at
    least half of an average unit still fits), after at least one.
    """
    record = Pass()
    with Clock() as clock, record.sampling():
        done = 0
        while True:
            elapsed = clock.elapsed()
            if repeats is not None and done == repeats:
                break
            if repeats is None and done and (
                elapsed + 0.5 * elapsed / done >= seconds
            ):
                break
            unit(record)
            done += 1
    record.wall_s, record.cpu_s = clock.wall_s, clock.cpu_s
    return record


def result_metrics(values: Dict[str, Tuple[float, str]]) -> Dict:
    """The ``metrics`` object of the result line."""
    return {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in values.items()
    }
