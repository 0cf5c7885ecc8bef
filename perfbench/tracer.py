"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public entry points of each layer of
``repro`` for the duration of a ``with`` block, recording one span per
call — ``(id, name, start, end, parent, thread)`` — kept in memory and
written once at exit.  Synchronous calls give a span each.  A
coroutine or async generator gives one span per *step* (each stretch
it runs between suspensions), so spans nest properly even when asyncio
interleaves tasks, and a span's self time (its duration minus its
children's) is time that layer held the processor.  For a few async entry points the
wall time from first call to completion, suspensions included, is
summed separately as a *wait*.

Nothing here is imported by the program: the wrappers are installed on
the classes and modules at ``__enter__`` and removed at ``__exit__``.
"""

from __future__ import annotations

import asyncio
import collections
import functools
import gzip
import itertools
import json
import os
import threading
import time
import types
from typing import Dict, List, Tuple

from harness import host_factor
from repro.broker import client as broker_client
from repro.broker import connectors as broker_connectors
from repro.broker import resp as broker_resp
from repro.cep import async_session
from repro.core import adaptive
from repro.experiments import runner
from repro.io import sinks, sources
from repro.obs import metrics as obs_metrics
from repro.runtime import adapters, decisions, rng_pool, stages
from repro.service import gateway, service

#: Decision-kernel row counters (``runtime.decisions.certified_share``).
_ROW_COUNTERS = (
    "repro_decisions_certified_rows_total",
    "repro_decisions_boundary_rows_total",
    "repro_decisions_zero_budget_rows_total",
)
#: Connector counters reported as ``broker.connectors.<name>``.
_BROKER_COUNTERS = {
    "redelivered": "repro_broker_redelivered_total",
    "reconnects": "repro_broker_reconnects_total",
    "backoff": "repro_broker_backoff_total",
    "dead_letter": "repro_broker_dead_letter_total",
}

#: ``(owner, attribute, span name)`` of every synchronous entry point.
SYNC_TARGETS = [
    (stages.WindowStage, "type_sets", "streams.windows"),
    (stages.WindowStage, "windows", "streams.windows"),
    (stages.IndicatorExtractor, "extract_matrix", "runtime.stages.extract"),
    (stages.QueryMatcher, "answer", "runtime.stages.match"),
    (stages.MetricsSink, "update", "runtime.stages.metrics"),
    (stages.MetricsSink, "absorb", "runtime.stages.metrics"),
    (decisions.WEventKernel, "run_block", "runtime.decisions"),
    (decisions.WEventKernel, "replay_block", "runtime.decisions"),
    (decisions.LandmarkKernel, "run_block", "runtime.decisions"),
    (rng_pool.IndexedRngPool, "__init__", "runtime.rng_pool"),
    (rng_pool.IndexedRngPool, "generator", "runtime.rng_pool.generator"),
    (rng_pool.IndexedRngPool, "first_uniforms", "runtime.rng_pool"),
    (rng_pool.IndexedRngPool, "_extend", "runtime.rng_pool"),
    (adapters.RuntimeMechanism, "perturb_batch", "runtime.adapters.perturb"),
    (adapters.FlipStepper, "step_block", "runtime.adapters.step"),
    (adapters._MatrixRRStepper, "step_block", "runtime.adapters.step"),
    (adapters._SequentialStepper, "step_block", "runtime.adapters.step"),
    (adapters._IdentityStepper, "step_block", "runtime.adapters.step"),
    (adaptive.AdaptivePatternPPM, "fit", "core.adaptive.fit"),
    (runner.WorkloadEvaluation, "evaluate", "experiments.runner"),
    (service.StreamService, "run", "service.service.run"),
    (gateway.StreamGateway, "checkpoint", "service.gateway.checkpoint"),
    (sinks.StreamSink, "write", "io.sinks.write"),
    (broker_client.BrokerClient, "xreadgroup", "broker.client.fetch"),
    (broker_client.BrokerClient, "xack", "broker.client.xack"),
    (broker_resp.RespConnection, "execute_pipeline", "broker.resp.pipeline"),
]
#: ``(owner, attribute, span name, wait name or None)`` of coroutines.
ASYNC_TARGETS = [
    (service.StreamService, "pump", "service.pump", None),
    (gateway._Tenant, "serve", "service.gateway.serve", None),
    (async_session.AsyncSession, "_submit_row", "cep.async_session.submit",
     "cep.async_session.submit_wait_s"),
    (async_session.AsyncSession, "_drain", "cep.async_session.drain", None),
]
#: Classes whose ``arows`` async generator is the source's row feed.
SOURCE_CLASSES = [
    cls for cls in (
        sources.StreamSource,
        sources.QueueSource,
        broker_connectors.BrokerSource,
    )
    if "arows" in vars(cls)
]


def _now() -> float:
    return time.perf_counter()


class _TracedRows:
    """An async generator whose every ``__anext__`` is traced."""

    def __init__(self, tracer: "Tracer", rows):
        self._tracer = tracer
        self._rows = rows

    def __aiter__(self):
        return self

    def __anext__(self):
        return self._tracer._drive(
            "io.sources", self._rows.__anext__(), "io.sources.wait_s"
        )

    def aclose(self):
        return self._rows.aclose()


class Tracer:
    """Spans and counts around each layer's entry points."""

    def __init__(self, registries=()):
        self.registries = list(registries)
        #: Closed spans: ``(id, name, start, end, parent id, thread)``;
        #: tuples of atoms, which the garbage collector stops tracking,
        #: so a long trace does not slow the collections it sits through.
        self.spans: List[tuple] = []
        self.waits: Dict[str, float] = collections.defaultdict(float)
        self.counts: Dict[str, float] = collections.defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []

    # -- span bookkeeping ----------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> None:
        self._stack().append((next(self._ids), name, _now()))

    def _close(self) -> None:
        end = _now()
        stack = self._stack()
        span_id, name, start = stack.pop()
        parent = stack[-1][0] if stack else -1
        self.spans.append(
            (span_id, name, start, end, parent, threading.get_ident())
        )

    @types.coroutine
    def _drive(self, name: str, awaitable, wait: str = None):
        """Run ``awaitable`` with one span per step until it finishes."""
        send, throw = awaitable.send, awaitable.throw
        value, error = None, None
        first = _now()
        try:
            while True:
                self._open(name)
                try:
                    if error is None:
                        yielded = send(value)
                    else:
                        yielded = throw(error)
                except StopIteration as stop:
                    return stop.value
                finally:
                    self._close()
                value, error = None, None
                try:
                    value = yield yielded
                except GeneratorExit:
                    awaitable.close()
                    raise
                except BaseException as exc:  # delivered into the step
                    error = exc
        finally:
            if wait is not None:
                self.waits[wait] += _now() - first

    # -- wrappers ------------------------------------------------------

    def _sync(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            tracer._count(name, args, result)
            return result

        return traced

    def _add(self, key: str, amount: float) -> None:
        # Broker fetches and their metrics run on a worker thread.
        with self._lock:
            self.counts[key] += amount

    def _count(self, name: str, args, result) -> None:
        if name == "runtime.adapters.step":
            self._add("runtime.adapters.rows", args[1].shape[0])
        elif name == "broker.client.fetch" and not result:
            self._add("broker.client.empty_fetches", 1)

    def _async(self, name: str, fn, wait):
        tracer = self

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            return await tracer._drive(name, fn(*args, **kwargs), wait)

        return traced

    def _rows(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return _TracedRows(tracer, fn(*args, **kwargs))

        return traced

    def _counted(self, key: str, fn):
        add = self._add

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            add(key, 1)
            return fn(*args, **kwargs)

        return traced

    def _bytes_out(self, fn):
        add = self._add

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            payload = fn(*args, **kwargs)
            add("broker.resp.bytes_out", len(payload))
            return payload

        return traced

    def _patch(self, owner, attribute: str, wrap) -> None:
        original = vars(owner)[attribute]
        if isinstance(original, (classmethod, staticmethod)):
            replacement = type(original)(wrap(original.__func__))
        else:
            replacement = wrap(original)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    # -- install / remove ----------------------------------------------

    def __enter__(self) -> "Tracer":
        for owner, attribute, name in SYNC_TARGETS:
            self._patch(owner, attribute, functools.partial(self._sync, name))
        for owner, attribute, name, wait in ASYNC_TARGETS:
            self._patch(
                owner,
                attribute,
                functools.partial(self._async, name, wait=wait),
            )
        for cls in SOURCE_CLASSES:
            self._patch(cls, "arows", self._rows)
        self._patch(
            obs_metrics.Counter,
            "inc",
            functools.partial(self._counted, "obs.metrics.calls"),
        )
        self._patch(
            obs_metrics.Histogram,
            "observe",
            functools.partial(self._counted, "obs.metrics.calls"),
        )
        self._patch(broker_resp, "encode_command", self._bytes_out)
        self._counters_before = self._read_counters()
        self._thread = threading.get_ident()
        self._open("harness")
        return self

    def __exit__(self, *exc) -> None:
        self._close()
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()
        after = self._read_counters()
        self.counter_deltas = {
            name: after[name] - self._counters_before[name]
            for name in after
        }
        self.costs = self._calibrate()

    def _read_counters(self) -> Dict[str, float]:
        values = {}
        for name in _ROW_COUNTERS + tuple(_BROKER_COUNTERS.values()):
            values[name] = sum(
                registry.get(name).value
                for registry in self.registries
                if registry.get(name) is not None
            )
        return values

    def _calibrate(self, calls: int = 20_000) -> Dict[str, float]:
        """Reference seconds the tracer adds per sync span, per async
        step and per counted call (each the median of 5 timings against
        bare code, scaled by the host factor)."""

        def noop():
            return None

        async def steps(n):
            for _ in range(n):
                await asyncio.sleep(0)

        wrapped = {
            "span": self._sync("calibration", noop),
            "count": self._counted("calibration", noop),
        }
        stepped = self._async("calibration", steps, None)
        costs = collections.defaultdict(list)
        spans_before = len(self.spans)
        loop = asyncio.new_event_loop()
        try:
            for _ in range(5):
                start = _now()
                for _ in range(calls):
                    noop()
                bare = _now() - start
                for kind, fn in wrapped.items():
                    start = _now()
                    for _ in range(calls):
                        fn()
                    costs[kind].append((_now() - start - bare) / calls)
                start = _now()
                loop.run_until_complete(steps(calls))
                bare = _now() - start
                start = _now()
                loop.run_until_complete(stepped(calls))
                costs["step"].append((_now() - start - bare) / (calls + 1))
        finally:
            loop.close()
        del self.spans[spans_before:]
        del self.counts["calibration"]
        factor = host_factor()
        return {
            kind: max(sorted(values)[2], 0.0) / factor
            for kind, values in costs.items()
        }

    # -- reports -------------------------------------------------------

    def _main_spans(self) -> List[tuple]:
        return [span for span in self.spans if span[5] == self._thread]

    def self_times(self) -> Dict[str, Tuple[int, float, float]]:
        """Per span name: ``(calls, busy seconds, self seconds)``.

        Busy time counts a span only when no span of the same name
        encloses it, so recursion is not double counted.  Spans of
        other threads (the broker fetch thread) get busy time but no
        self time, since their time overlaps the main thread's.
        """
        by_id = {span[0]: span for span in self.spans}
        child_time: Dict[int, float] = collections.defaultdict(float)
        for span in self.spans:
            child_time[span[4]] += span[3] - span[2]
        table: Dict[str, list] = {}
        for span_id, name, start, end, parent, thread in self.spans:
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            while parent in by_id and by_id[parent][1] != name:
                parent = by_id[parent][4]
            if parent not in by_id:
                row[1] += end - start
            if thread == self._thread:
                row[2] += end - start - child_time[span_id]
        return {name: tuple(row) for name, row in table.items()}

    def layer_metrics(self, traced, untraced) -> Dict[str, Tuple]:
        """The per-layer metrics, ``name -> (value, unit)``.

        Times are in reference seconds (see :mod:`harness`): raw span
        times scaled by the traced pass's host factor.
        """
        times = self.self_times()
        scale = traced.reference_wall_s() / traced.raw_wall_s()

        def calls(name):
            return times.get(name, (0, 0.0, 0.0))[0]

        def busy(name):
            return times.get(name, (0, 0.0, 0.0))[1] * scale

        def own(name):
            return times.get(name, (0, 0.0, 0.0))[2] * scale

        windows = traced.windows
        rows = [self.counter_deltas[name] for name in _ROW_COUNTERS]
        steps = calls("runtime.adapters.step")
        fetches = calls("broker.client.fetch")
        untraced_s = untraced.reference_wall_s()
        overhead = traced.reference_wall_s() / untraced_s
        # The traced wall less what the tracer itself added: its spans
        # on the main thread and its counting wrappers.
        main = self._main_spans()
        async_names = {name for _o, _a, name, _w in ASYNC_TARGETS}
        async_names.add("io.sources")
        async_steps = sum(1 for span in main if span[1] in async_names)
        estimate = traced.reference_wall_s() - (
            (len(main) - async_steps) * self.costs["span"]
            + async_steps * self.costs["step"]
            + self.counts["obs.metrics.calls"] * self.costs["count"]
        )
        metrics = {
            "streams.windows.busy_s": (busy("streams.windows"), "s"),
            "runtime.stages.extract_busy_s": (
                busy("runtime.stages.extract"), "s"
            ),
            "runtime.stages.match_busy_s": (
                busy("runtime.stages.match"), "s"
            ),
            "runtime.stages.metrics_busy_s": (
                busy("runtime.stages.metrics"), "s"
            ),
            "runtime.decisions.busy_s": (busy("runtime.decisions"), "s"),
            "runtime.decisions.block_calls": (
                calls("runtime.decisions"), "count"
            ),
            "runtime.decisions.certified_share": (
                rows[0] / sum(rows) if sum(rows) else 0.0, "ratio"
            ),
            "runtime.rng_pool.busy_s": (
                busy("runtime.rng_pool")
                + busy("runtime.rng_pool.generator"),
                "s",
            ),
            "runtime.rng_pool.generator_calls_per_window": (
                calls("runtime.rng_pool.generator") / windows, "count"
            ),
            "runtime.adapters.step_calls": (steps, "count"),
            "runtime.adapters.rows_per_step": (
                self.counts["runtime.adapters.rows"] / steps
                if steps else 0.0,
                "count",
            ),
            "runtime.adapters.step_self_s": (
                own("runtime.adapters.step"), "s"
            ),
            "core.adaptive.fit_calls": (calls("core.adaptive.fit"), "count"),
            "core.adaptive.fit_busy_s": (busy("core.adaptive.fit"), "s"),
            "experiments.runner.self_s": (own("experiments.runner"), "s"),
            "service.pump.self_s": (own("service.pump"), "s"),
            "service.gateway.checkpoint_calls": (
                calls("service.gateway.checkpoint"), "count"
            ),
            "service.gateway.checkpoint_busy_s": (
                busy("service.gateway.checkpoint"), "s"
            ),
            "cep.async_session.submit_wait_s": (
                self.waits["cep.async_session.submit_wait_s"], "s"
            ),
            "cep.async_session.drain_self_s": (
                own("cep.async_session.drain"), "s"
            ),
            "io.sources.wait_s": (self.waits["io.sources.wait_s"], "s"),
            "io.sinks.write_calls": (calls("io.sinks.write"), "count"),
            "io.sinks.busy_s": (busy("io.sinks.write"), "s"),
            "broker.client.fetch_calls": (fetches, "count"),
            "broker.client.fetch_busy_s": (
                busy("broker.client.fetch"), "s"
            ),
            "broker.client.empty_fetch_share": (
                self.counts["broker.client.empty_fetches"] / fetches
                if fetches else 0.0,
                "ratio",
            ),
            "broker.client.xack_calls": (
                calls("broker.client.xack"), "count"
            ),
            "broker.resp.bytes_out": (
                self.counts["broker.resp.bytes_out"], "B"
            ),
            "broker.resp.pipeline_calls": (
                calls("broker.resp.pipeline"), "count"
            ),
            "obs.metrics.calls_per_window": (
                self.counts["obs.metrics.calls"] / windows, "count"
            ),
            "trace.overhead_ratio": (overhead, "ratio"),
            "trace.reconcile_error": (
                (estimate - untraced_s) / untraced_s, "ratio"
            ),
            "trace.unattributed_share": (
                own("harness") / (traced.wall_s * scale), "ratio"
            ),
            "trace.spans": (len(self.spans), "count"),
        }
        for short, name in _BROKER_COUNTERS.items():
            metrics[f"broker.connectors.{short}"] = (
                self.counter_deltas[name], "count"
            )
        return metrics

    def self_time_table(self, traced) -> List[str]:
        """The per-layer self-time table (reference seconds)."""
        scale = traced.reference_wall_s() / traced.raw_wall_s()
        lines = [
            f"{'span':34s} {'calls':>9s} {'busy_s':>9s} {'self_s':>9s} "
            f"{'self%':>6s}"
        ]
        total = 0.0
        for name, (count, busy, own) in sorted(
            self.self_times().items(), key=lambda item: -item[1][2]
        ):
            total += own
            lines.append(
                f"{name:34s} {count:9d} {busy * scale:9.4f} "
                f"{own * scale:9.4f} {100 * own / traced.wall_s:6.2f}"
            )
        lines.append(
            f"{'sum of self times':34s} {'':9s} {'':9s} "
            f"{total * scale:9.4f} {100 * total / traced.wall_s:6.2f}"
        )
        return lines

    def write(self, path: str) -> None:
        """All spans as gzipped JSON lines."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fields = ("id", "name", "start", "end", "parent", "thread")
        with gzip.open(path, "wt") as out:
            for span in self.spans:
                out.write(json.dumps(dict(zip(fields, span))) + "\n")
