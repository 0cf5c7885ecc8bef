"""Declarative stream sinks: where the sanitized stream goes.

A :class:`StreamSink` receives, window by window, the *released*
(perturbed) indicator row and the per-query answers computed from it —
never the original data — and egresses them: into memory, into
``csv``/``jsonl`` files, into a quality-metrics aggregate, or into a
user callback.  Sinks are resolved from registered spec strings
(:mod:`repro.io.registry`) or passed as objects when their payload
cannot live in JSON (a Python callback).

The contract: :meth:`StreamSink.open` fixes the alphabet and query
names (``append=True`` continues a previous run's output, which is how
the gateway resumes file sinks); :meth:`StreamSink.write` takes one
window; :meth:`StreamSink.close` flushes; :meth:`StreamSink.result`
returns whatever the sink accumulated.  A sink that sets
:attr:`StreamSink.wants_truth` also receives the engine-internal true
answers (a trusted-engine diagnostic — the metrics sink aggregates
confusion counts from it; file sinks never see it).
"""

from __future__ import annotations

import csv
import json
import os

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.io.registry import register_sink
from repro.obs.metrics import Counter, registry_handles
from repro.service.specgrammar import SpecKey
from repro.streams.indicator import EventAlphabet, IndicatorStream

__all__ = [
    "CallbackSink",
    "CsvSink",
    "JsonlSink",
    "MemorySink",
    "MetricsSink",
    "StreamSink",
    "write_indicator_csv",
]


def write_indicator_csv(
    stream: IndicatorStream, path: str, *, append: bool = False
) -> None:
    """Write an indicator stream as CSV (header = alphabet, rows = 0/1).

    The format round-trips through
    :func:`~repro.io.sources.read_indicator_csv` / the ``csv:`` source.
    """
    sink = CsvSink(path)
    sink.open(alphabet=stream.alphabet, query_names=(), append=append)
    try:
        matrix = stream.matrix_view()
        for index in range(matrix.shape[0]):
            sink.write(index, matrix[index], {})
    finally:
        sink.close()


def _windows_total(registry) -> Counter:
    return registry.counter(
        "repro_sink_windows_total",
        "Windows egressed through any sink, process-wide.",
    )


def _shed_total(registry) -> Counter:
    return registry.counter(
        "repro_sink_shed_windows_total",
        "Windows shed at ingress before any sink, process-wide.",
    )


class StreamSink:
    """Base class of all stream sinks (windows in, egress out)."""

    #: When True, :meth:`write` receives the per-window true answers
    #: (engine-internal ground truth) alongside the released ones.
    wants_truth: bool = False

    def __init__(self):
        self._alphabet: Optional[EventAlphabet] = None
        self._query_names: Tuple[str, ...] = ()
        # Per-sink obs counters are the single source of truth behind
        # windows_written / windows_shed; the process-wide aggregates
        # (repro_sink_*_total in the default registry) ride along.
        # Created on first use: spec-built sinks must stay structurally
        # comparable, and a Counter carries a lock that never compares
        # equal.
        self._written_counter: Optional[Counter] = None
        self._shed_counter: Optional[Counter] = None

    def open(
        self,
        *,
        alphabet: EventAlphabet,
        query_names: Sequence[str] = (),
        append: bool = False,
    ) -> "StreamSink":
        """Prepare for one run's windows.

        ``append=True`` continues earlier output instead of starting
        fresh (file sinks skip their header; accumulating sinks keep
        accumulating) — the gateway resumes sinks this way.
        """
        self._alphabet = alphabet
        self._query_names = tuple(query_names)
        if not append or self._written_counter is None:
            # A fresh open starts a fresh output record: new counters
            # rather than reset() so references handed out earlier keep
            # describing the run they were taken from.
            self._written_counter = Counter("windows_written")
            self._shed_counter = Counter("windows_shed")
        self._open(append=append)
        return self

    def _open(self, *, append: bool) -> None:
        """Subclass hook called by :meth:`open`."""

    @property
    def alphabet(self) -> EventAlphabet:
        if self._alphabet is None:
            raise RuntimeError(
                "sink is not open; call open(alphabet=..., "
                "query_names=...) first (the service does this when it "
                "runs)"
            )
        return self._alphabet

    @property
    def query_names(self) -> Tuple[str, ...]:
        return self._query_names

    @property
    def windows_written(self) -> int:
        """Windows egressed so far (across appends)."""
        if self._written_counter is None:
            return 0
        return int(self._written_counter.value)

    @property
    def windows_shed(self) -> int:
        """Windows the gateway's rate limiter shed before this sink.

        A shed window never reaches :meth:`write` — it was dropped at
        ingress by a tenant's token bucket — but its loss is part of
        this pipeline's output record, so the count is surfaced here
        (and in the metrics sink's ``result()``) instead of vanishing.
        """
        if self._shed_counter is None:
            return 0
        return int(self._shed_counter.value)

    def shed(self, index: int, row: Optional[np.ndarray] = None) -> None:
        """Record one window shed upstream of this sink (never written)."""
        if self._shed_counter is None:
            self._shed_counter = Counter("windows_shed")
        self._shed_counter.inc()
        registry_handles(_shed_total).inc()

    def write(
        self,
        index: int,
        row: np.ndarray,
        answers: Dict[str, bool],
        truth: Optional[Dict[str, bool]] = None,
    ) -> None:
        """Egress one window: its released row and per-query answers."""
        self.alphabet  # open check
        self._write(index, np.asarray(row).reshape(-1), answers, truth)
        self._written_counter.inc()
        registry_handles(_windows_total).inc()

    def _write(self, index, row, answers, truth) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release any underlying resources (idempotent)."""

    def result(self):
        """Whatever this sink accumulated (``None`` for pure egress)."""
        return None


# ---------------------------------------------------------------------------
# Built-in sinks
# ---------------------------------------------------------------------------


@register_sink("memory", keys=())
class MemorySink(StreamSink):
    """Collect the released stream and answers in memory.

    ``result()`` returns ``{"released": IndicatorStream, "answers":
    {query: [bool, ...]}}`` over everything written so far.
    """

    def __init__(self):
        super().__init__()
        self._rows: List[np.ndarray] = []
        self._answers: Dict[str, List[bool]] = {}

    def _open(self, *, append: bool) -> None:
        if not append:
            self._rows = []
            self._answers = {}
        for name in self.query_names:
            self._answers.setdefault(name, [])

    def _write(self, index, row, answers, truth) -> None:
        self._rows.append(row.astype(bool))
        for name, value in answers.items():
            self._answers.setdefault(name, []).append(bool(value))

    def result(self):
        width = len(self.alphabet)
        matrix = (
            np.stack(self._rows)
            if self._rows
            else np.zeros((0, width), dtype=bool)
        )
        return {
            "released": IndicatorStream(self.alphabet, matrix),
            "answers": {
                name: list(values) for name, values in self._answers.items()
            },
        }


@register_sink("csv", raw_tail=True, keys=(SpecKey("path", raw=True),))
class CsvSink(StreamSink):
    """Write released indicator rows as CSV (``csv:<path>``).

    The output is exactly the ``csv:`` source / indicator-CSV format
    (header = alphabet, rows = 0/1), so a sanitized stream written
    here can be served again as a source.  Answers are not part of
    this format — pair it with ``jsonl:`` when verdicts must ride
    along.
    """

    def __init__(self, path: str):
        super().__init__()
        if not isinstance(path, str) or not path:
            raise ValueError("csv sink needs a path: 'csv:<path>'")
        self.path = path
        self._handle = None
        self._writer = None

    def _open(self, *, append: bool) -> None:
        fresh = not (append and os.path.exists(self.path))
        self._handle = open(self.path, "w" if fresh else "a", newline="")
        self._writer = csv.writer(self._handle)
        if fresh:
            self._writer.writerow(self.alphabet.types)

    def _write(self, index, row, answers, truth) -> None:
        if self._writer is None:
            raise RuntimeError("sink is closed")
        self._writer.writerow([int(value) for value in row])

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
            self._writer = None


@register_sink(
    "jsonl", raw_tail=True, keys=(SpecKey("path", raw=True),)
)
class JsonlSink(StreamSink):
    """Write one JSON object per window (``jsonl:<path>``).

    Each line is ``{"window": i, "types": [...], "answers": {...}}`` —
    the released window's event types plus the query verdicts.  The
    ``jsonl:`` source reads the same format back (via ``"types"``).
    """

    def __init__(self, path: str):
        super().__init__()
        if not isinstance(path, str) or not path:
            raise ValueError("jsonl sink needs a path: 'jsonl:<path>'")
        self.path = path
        self._handle = None

    def _open(self, *, append: bool) -> None:
        fresh = not (append and os.path.exists(self.path))
        self._handle = open(self.path, "w" if fresh else "a")

    def _write(self, index, row, answers, truth) -> None:
        if self._handle is None:
            raise RuntimeError("sink is closed")
        types = [
            name
            for name, present in zip(self.alphabet.types, row)
            if present
        ]
        record = {
            "window": int(index),
            "types": types,
            "answers": {name: bool(value) for name, value in answers.items()},
        }
        self._handle.write(json.dumps(record, sort_keys=True) + "\n")

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


@register_sink("metrics", keys=(SpecKey("alpha", convert=float),))
class MetricsSink(StreamSink):
    """Aggregate released-versus-truth quality (``metrics``).

    Accumulates micro-averaged :class:`~repro.metrics.ConfusionCounts`
    of every query's released answers against the engine-internal
    ground truth, per query and overall.  ``result()`` returns
    ``{"confusion", "quality", "mre", "windows", "per_query"}`` —
    ``quality`` is Section III-B's ``Q`` under ``alpha``, ``mre`` is
    Eq. (4) against the perfect ``Q_ord = 1``.  A trusted-engine
    diagnostic: it consumes the truth the engine never releases.
    """

    wants_truth = True

    def __init__(self, alpha: float = 0.5):
        super().__init__()
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        self.alpha = float(alpha)
        self._counts: Dict[str, List[float]] = {}

    def _open(self, *, append: bool) -> None:
        if not append:
            self._counts = {}
        for name in self.query_names:
            self._counts.setdefault(name, [0.0, 0.0, 0.0, 0.0])

    def _write(self, index, row, answers, truth) -> None:
        if truth is None:
            raise ValueError(
                "the metrics sink aggregates released-vs-truth "
                "confusion and needs per-window true answers; drive it "
                "through StreamService.run()/pump()"
            )
        for name, value in answers.items():
            counts = self._counts.setdefault(name, [0.0, 0.0, 0.0, 0.0])
            expected = bool(truth[name])
            got = bool(value)
            if expected and got:
                counts[0] += 1.0
            elif not expected and got:
                counts[1] += 1.0
            elif expected and not got:
                counts[2] += 1.0
            else:
                counts[3] += 1.0

    def result(self):
        from repro.metrics.confusion import ConfusionCounts
        from repro.metrics.mre import mean_relative_error
        from repro.metrics.quality import DataQuality

        per_query = {
            name: ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=tn)
            for name, (tp, fp, fn, tn) in sorted(self._counts.items())
        }
        total = ConfusionCounts()
        for counts in per_query.values():
            total = total + counts
        quality = DataQuality.from_confusion(total, alpha=self.alpha)
        return {
            "confusion": total,
            "quality": quality,
            "mre": mean_relative_error(1.0, quality.q),
            "windows": self.windows_written,
            "shed": self.windows_shed,
            "per_query": per_query,
        }


@register_sink("callback", keys=())
class CallbackSink(StreamSink):
    """Invoke a Python callable per window (``callback``).

    The callable receives ``(index, row, answers)``.  A callable is
    not JSON, so ``sink="callback"`` in a spec declares the intent and
    the live ``CallbackSink(fn)`` rides in at run time.
    """

    def __init__(self, fn: Optional[Callable] = None):
        super().__init__()
        if fn is not None and not callable(fn):
            raise TypeError(
                f"callback sink needs a callable, got {type(fn).__name__}"
            )
        self._fn = fn

    def _write(self, index, row, answers, truth) -> None:
        if self._fn is None:
            raise ValueError(
                "the 'callback' sink has no callable bound; construct "
                "CallbackSink(fn) and pass it at run time"
            )
        self._fn(index, row, answers)

    def result(self):
        return {"windows": self.windows_written}
