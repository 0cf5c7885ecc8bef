"""w-event differential privacy machinery (Kellaris et al., VLDB 2014).

w-event ε-DP protects any event sequence occurring within a sliding
window of ``w`` timestamps: over any ``w`` consecutive releases the
total budget spent must not exceed ε.  The two classic schedulers —
Budget Distribution (BD) and Budget Absorption (BA) — share the same
skeleton, implemented here:

1. split ε into ``ε_1 = ε/2`` for *dissimilarity* estimation and
   ``ε_2 = ε/2`` for *publications*;
2. at each timestamp, privately estimate the distance between the
   current statistics and the last release (spending ``ε_1/w``);
3. publish a fresh Laplace release when the estimated distance exceeds
   the error a publication would itself introduce, otherwise
   re-release the previous output (an *approximation*, free of charge);
4. the publication budget per timestamp is chosen by the subclass
   (:class:`~repro.baselines.budget_distribution.BudgetDistribution` or
   :class:`~repro.baselines.budget_absorption.BudgetAbsorption`).

The release loop is exposed both batched (:meth:`WEventMechanism.perturb`)
and incrementally (:meth:`WEventMechanism.online_releaser`, used by
:class:`repro.cep.online.OnlineSession`); the batch path runs on top of
the same stepper, so the two agree bit for bit under the same seed.

The per-timestamp decision loop itself lives in
:mod:`repro.runtime.decisions`: each scheduler declares its decision
rule as data (:meth:`WEventMechanism.decision_rule`) and the shared
plan → scan → resolve kernel drives the release — vectorized U-space
scans certify skip runs, exact scalar arithmetic decides everything
near a decision boundary.  ``scan=`` on the mechanism constructor (or
the ``scan=/margin=/prefetch=`` spec keys) tunes or disables the scan.

In this library the per-timestamp statistics are the windowed existence
indicators (one 0/1 entry per event type, L1 sensitivity 1 under a
single-event change); released vectors are thresholded at 1/2 to answer
the binary pattern queries.
"""

from __future__ import annotations

import abc
import copy
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.baselines.base import StreamMechanism
from repro.runtime.decisions import (
    TRACE_PENDING_MAX,
    DecisionRule,
    ScanConfig,
    WEventKernel,
)
from repro.streams.indicator import IndicatorStream
from repro.utils.rng import RngLike
from repro.utils.validation import check_positive, check_positive_int


class TraceColumn:
    """One trace column on chunk-doubling numpy storage.

    Behaves like the plain Python list it replaces — ``append``,
    ``extend``, ``len``, indexing/slicing (slices return lists),
    iteration, equality against lists — but stores the values in a
    contiguous typed buffer that grows geometrically, so
    million-timestamp traces stop paying per-element object overhead
    and the accounting accessors read straight numpy arrays.

    Single appends land on a bounded pending Python list first and move
    into the buffer in one slice assignment once
    :data:`~repro.runtime.decisions.TRACE_PENDING_MAX` values wait or
    anything reads the column — every accessor, ``extend*``,
    assignment, equality, pickling and :attr:`version` flushes, so
    readers (a scheduler hook handed the trace mid-block included)
    always see the column current.  The conversion is exact: a float
    or bool lands in the buffer as the same value either way.

    Additions the release kernel relies on:

    - :meth:`extend_constant` appends ``count`` copies of one value
      without materializing a Python list (the bulk-skip paths);
    - :attr:`push` is the pending list's own ``append`` — an unchecked
      single append for a caller that calls :meth:`flush` at least once
      every ``TRACE_PENDING_MAX`` pushes (the kernel's scalar path);
    - :attr:`version` counts mutations, letting
      :meth:`ReleaseTrace._spend_prefix` cache derived arrays and
      invalidate on any append/extend/restore.
    """

    def __init__(self, values: Iterable = (), *, dtype=float):
        self._dtype = np.dtype(dtype)
        self._data = np.zeros(0, dtype=self._dtype)
        self._n = 0
        self._version = 0
        self._pending: List = []
        self.push = self._pending.append
        if values is not None:
            self.extend(values)

    def _reserve(self, extra: int) -> None:
        needed = self._n + extra
        capacity = self._data.shape[0]
        if needed <= capacity:
            return
        grown = np.zeros(max(16, 2 * capacity, needed), dtype=self._dtype)
        grown[: self._n] = self._data[: self._n]
        self._data = grown

    def flush(self) -> None:
        """Move the pending appends into the buffer."""
        pending = self._pending
        if pending:
            count = len(pending)
            self._reserve(count)
            self._data[self._n : self._n + count] = pending
            self._n += count
            pending.clear()
            self._version += 1

    def _view(self) -> np.ndarray:
        if self._pending:
            self.flush()
        return self._data[: self._n]

    @property
    def version(self) -> int:
        if self._pending:
            self.flush()
        return self._version

    def append(self, value) -> None:
        pending = self._pending
        pending.append(value)
        if len(pending) >= TRACE_PENDING_MAX:
            self.flush()

    def extend(self, values: Iterable) -> None:
        if self._pending:
            self.flush()
        if isinstance(values, TraceColumn):
            values = values._view()
        elif not isinstance(values, (np.ndarray, list, tuple)):
            values = list(values)
        count = len(values)
        if count:
            self._reserve(count)
            self._data[self._n : self._n + count] = values
            self._n += count
        self._version += 1

    def extend_constant(self, value, count: int) -> None:
        """Append ``count`` copies of ``value`` (one buffer fill)."""
        if self._pending:
            self.flush()
        if count:
            self._reserve(count)
            self._data[self._n : self._n + count] = value
            self._n += count
        self._version += 1

    def __len__(self) -> int:
        return self._n + len(self._pending)

    def __bool__(self) -> bool:
        return self._n > 0 or bool(self._pending)

    def __getitem__(self, key):
        if isinstance(key, slice):
            return self._view()[key].tolist()
        return self._view()[key].item()

    def __setitem__(self, key, value) -> None:
        if isinstance(key, slice) and key == slice(None, None, None):
            # Full-slice replacement (the restore path) may change the
            # length, exactly as ``list[:] = values`` does.
            self._pending.clear()
            self._n = 0
            self.extend(value)
            return
        self._view()[key] = value
        self._version += 1

    def __iter__(self):
        return iter(self._view().tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, TraceColumn):
            return (
                len(self) == len(other)
                and bool(np.array_equal(self._view(), other._view()))
            )
        if isinstance(other, (list, tuple)):
            return self._view().tolist() == list(other)
        if isinstance(other, np.ndarray):
            return bool(np.array_equal(self._view(), other))
        return NotImplemented

    __hash__ = None

    def __array__(self, dtype=None, copy=None):
        view = self._view()
        if dtype is not None and np.dtype(dtype) != self._dtype:
            return view.astype(dtype)
        if copy:
            return view.copy()
        return view

    def __getstate__(self) -> Dict:
        if self._pending:
            self.flush()
        state = self.__dict__.copy()
        del state["push"], state["_pending"]
        return state

    def __setstate__(self, state: Dict) -> None:
        self.__dict__.update(state)
        self._pending = []
        self.push = self._pending.append

    def tolist(self) -> List:
        return self._view().tolist()

    def __repr__(self) -> str:
        return f"TraceColumn({self._view().tolist()!r})"


def _bool_column() -> TraceColumn:
    return TraceColumn(dtype=bool)


@dataclass
class ReleaseTrace:
    """Per-timestamp record of a w-event run (for tests and ablations)."""

    published: TraceColumn = field(default_factory=_bool_column)
    publication_budgets: TraceColumn = field(default_factory=TraceColumn)
    dissimilarity_budgets: TraceColumn = field(default_factory=TraceColumn)

    def __post_init__(self):
        if not isinstance(self.published, TraceColumn):
            self.published = TraceColumn(self.published, dtype=bool)
        if not isinstance(self.publication_budgets, TraceColumn):
            self.publication_budgets = TraceColumn(self.publication_budgets)
        if not isinstance(self.dissimilarity_budgets, TraceColumn):
            self.dissimilarity_budgets = TraceColumn(
                self.dissimilarity_budgets
            )
        self._prefix_cache: Optional[Tuple[Tuple[int, int, int], np.ndarray]]
        self._prefix_cache = None

    def _spend_prefix(self) -> np.ndarray:
        """Prefix sums of the per-timestamp total spend.

        ``prefix[t]`` is the budget spent strictly before timestamp
        ``t``, so any window's spend is one subtraction.  Both window
        accessors read through this, keeping them mutually consistent.

        The array is cached against the columns' length and mutation
        counters — any append, bulk extend or restore invalidates it —
        so repeated guarantee checks on a long trace cost O(1) after
        the first instead of recomputing the full cumsum every call.
        """
        key = (
            len(self.publication_budgets),
            self.publication_budgets.version,
            self.dissimilarity_budgets.version,
        )
        cached = self._prefix_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        totals = np.asarray(self.publication_budgets, dtype=float) + (
            np.asarray(self.dissimilarity_budgets, dtype=float)
        )
        prefix = np.empty(totals.shape[0] + 1)
        prefix[0] = 0.0
        np.cumsum(totals, out=prefix[1:])
        self._prefix_cache = (key, prefix)
        return prefix

    def spent_in_window(self, start: int, w: int) -> float:
        """Total budget spent in the ``w`` timestamps from ``start``."""
        n = len(self.published)
        start = min(max(start, 0), n)
        stop = min(start + w, n)
        prefix = self._spend_prefix()
        return float(prefix[stop] - prefix[start])

    def max_window_spend(self, w: int) -> float:
        """The largest spend over any sliding window of ``w`` timestamps.

        The w-event guarantee requires this never to exceed ε.  Computed
        from the spend prefix sums in O(n) — not O(n·w) slicing — so the
        guarantee checks stay cheap on long traces.
        """
        if not self.published:
            return 0.0
        prefix = self._spend_prefix()
        n = len(self.published)
        starts = np.arange(n)
        stops = np.minimum(starts + w, n)
        return float(np.max(prefix[stops] - prefix[starts]))


class OnlineReleaser:
    """Incremental w-event release: one indicator vector per step.

    Owns the scheduler state, the dissimilarity/publication accounting
    trace and the last release; created by
    :meth:`WEventMechanism.online_releaser`.  The decision loop itself
    is the shared :class:`~repro.runtime.decisions.WEventKernel`,
    driven by the mechanism's declared
    :class:`~repro.runtime.decisions.DecisionRule`.

    The per-timestamp randomness is ``derive_rng(rng, "w-event", t)``,
    drawn through an :class:`~repro.runtime.rng_pool.IndexedRngPool`:
    bit-identical to per-step derivation, but the pool prefetches parent
    entropy — exactly ``horizon`` words when the stream length is known
    (the batch path), in blocks otherwise.
    """

    def __init__(
        self,
        mechanism: "WEventMechanism",
        n_types: int,
        rng: RngLike,
        *,
        horizon: Optional[int] = None,
    ):
        if n_types <= 0:
            raise ValueError(f"n_types must be positive, got {n_types}")
        self.mechanism = mechanism
        self.n_types = n_types
        from repro.runtime.rng_pool import IndexedRngPool

        self._children = IndexedRngPool(rng, "w-event", count=horizon)
        self.trace = ReleaseTrace()
        self.last_release: Optional[np.ndarray] = None
        self.t = 0
        self.scheduler_state: Dict = mechanism._initial_scheduler_state()
        # Per-step constants, hoisted out of the hot loop (identical
        # floating-point values to recomputing them per timestamp).
        self._dissimilarity_draw_scale = (
            mechanism.w
            * mechanism.sensitivity
            / mechanism.epsilon_dissimilarity
            / n_types
        )
        self._dissimilarity_charge = (
            mechanism.epsilon_dissimilarity / mechanism.w
        )
        self._kernel = WEventKernel(
            mechanism.decision_rule(),
            mechanism.scan_config,
            n_types=n_types,
            sensitivity=mechanism.sensitivity,
            dissimilarity_scale=self._dissimilarity_draw_scale,
            dissimilarity_charge=self._dissimilarity_charge,
        )

    #: Default block length above which the kernel precomputes the
    #: dissimilarity uniforms vectorized; tunable per mechanism through
    #: :class:`~repro.runtime.decisions.ScanConfig` (``prefetch=`` in
    #: the spec grammar).  Kept here as the documented default.
    _UNIFORM_PREFETCH_MIN = ScanConfig.prefetch_min

    def step(self, true_vector: np.ndarray) -> np.ndarray:
        """Release one timestamp's statistics."""
        true_vector = np.asarray(true_vector, dtype=float)
        if true_vector.shape != (self.n_types,):
            raise ValueError(
                f"expected a vector of {self.n_types} statistics, got "
                f"shape {true_vector.shape}"
            )
        self._run_block(true_vector.reshape(1, -1), None)
        return self.last_release.copy()

    def step_block(self, matrix: np.ndarray) -> np.ndarray:
        """Release a block of timestamps; rows are indicator vectors."""
        matrix = np.asarray(matrix, dtype=float)
        released = np.empty_like(matrix)
        self._run_block(matrix, released)
        return released

    def advance_block(self, matrix: np.ndarray) -> None:
        """Step the scheduler through a block without materializing output.

        The checkpoint prepass of
        :class:`~repro.runtime.executors.ShardedExecutor` walks the whole
        stream through this — state, trace and randomness evolve exactly
        as under :meth:`step_block`, only the released rows are not
        built.  Under the decision kernel this is the fastest path of
        all: certified-skip runs and zero-budget stretches cost a few
        array operations regardless of length, so the prepass shrinks
        toward the publication timestamps alone.
        """
        self._run_block(np.asarray(matrix, dtype=float), None)

    def _run_block(
        self, matrix: np.ndarray, released: Optional[np.ndarray]
    ) -> None:
        """The release loop over a block (``released=None`` ⇒ prepass).

        Thin wrapper over
        :meth:`repro.runtime.decisions.WEventKernel.run_block` — the
        plan → scan → resolve pipeline documented there.  Bit-identity
        with the historical scalar loop holds in every scan mode.
        """
        self._kernel.run_block(self, matrix, released)

    # -- checkpointing -------------------------------------------------

    def snapshot(self, *, include_trace: bool = True) -> Dict:
        """A picklable checkpoint of the full release state at time ``t``.

        Captures everything a bit-identical continuation needs: the
        scheduler state, the accounting trace, the last release, the
        step counter and the rng-pool derivation source.  Restoring it
        on a fresh releaser (same mechanism parameters) and stepping on
        reproduces an uninterrupted run exactly.

        ``include_trace=False`` omits the trace prefix (its length
        grows with ``t``, and copying/pickling it at every shard
        boundary would make the checkpoint prepass quadratic).  The
        built-in schedulers never read the trace — BD budgets come
        from the in-window publication state, BA from its markers —
        so shard replicas replay identically without it; only session
        checkpoints, whose restored trace must equal the uninterrupted
        run's, need the full form.
        """
        return {
            "format": 1,
            "t": self.t,
            "n_types": self.n_types,
            "scheduler_state": copy.deepcopy(self.scheduler_state),
            "last_release": (
                None
                if self.last_release is None
                else np.array(self.last_release, copy=True)
            ),
            "trace": (
                (
                    list(self.trace.published),
                    list(self.trace.publication_budgets),
                    list(self.trace.dissimilarity_budgets),
                )
                if include_trace
                else None
            ),
            "rng": self._children.snapshot(),
        }

    def restore(self, snapshot: Dict) -> None:
        """Adopt a checkpoint produced by :meth:`snapshot`.

        The trace object is mutated in place (not replaced) so callers
        holding a reference — ``mechanism.last_trace``, the runtime
        stepper — keep observing the restored run.  A trace-free
        checkpoint leaves the current trace untouched.
        """
        if snapshot["n_types"] != self.n_types:
            raise ValueError(
                f"checkpoint covers {snapshot['n_types']} event types, "
                f"this releaser has {self.n_types}"
            )
        self.t = int(snapshot["t"])
        self.scheduler_state = copy.deepcopy(snapshot["scheduler_state"])
        last_release = snapshot["last_release"]
        self.last_release = (
            None if last_release is None else np.array(last_release, copy=True)
        )
        if snapshot["trace"] is not None:
            published, publication_budgets, dissimilarity_budgets = snapshot[
                "trace"
            ]
            self.trace.published[:] = published
            self.trace.publication_budgets[:] = publication_budgets
            self.trace.dissimilarity_budgets[:] = dissimilarity_budgets
        self._children.restore(snapshot["rng"])

    # -- decision replay -----------------------------------------------

    def decision_slice(self, start: int, stop: int) -> Tuple:
        """The recorded scheduler decisions for timestamps [start, stop).

        Only meaningful after the trace covers ``stop`` (i.e. on a
        releaser that already advanced past it — the checkpoint
        prepass).  Feed the result to :meth:`replay_block` on a restored
        releaser to reproduce those timestamps without re-running the
        scheduler.
        """
        if stop > len(self.trace.published):
            raise ValueError(
                f"trace covers {len(self.trace.published)} timestamps; "
                f"cannot slice decisions up to {stop}"
            )
        return (
            list(self.trace.published[start:stop]),
            list(self.trace.publication_budgets[start:stop]),
        )

    def replay_block(self, matrix: np.ndarray, decisions: Tuple) -> np.ndarray:
        """Reproduce :meth:`step_block` from recorded scheduler decisions.

        ``decisions`` is :meth:`decision_slice` of a completed run for
        exactly the rows of ``matrix`` (absolute timestamps ``t`` to
        ``t + n``); the heavy lifting is
        :meth:`repro.runtime.decisions.WEventKernel.replay_block`.
        State, trace and step counter advance exactly as under
        :meth:`step_block`, so stepping may resume afterwards.
        """
        matrix = np.asarray(matrix, dtype=float)
        return self._kernel.replay_block(self, matrix, decisions)


class WEventMechanism(StreamMechanism):
    """Shared skeleton of the BD and BA schedulers."""

    def __init__(
        self,
        epsilon: float,
        w: int,
        *,
        sensitivity: float = 1.0,
        scan: Union[None, str, ScanConfig] = None,
    ):
        super().__init__(epsilon)
        self.w = check_positive_int("w", w)
        self.sensitivity = check_positive("sensitivity", sensitivity)
        self.epsilon_dissimilarity = epsilon / 2.0
        self.epsilon_publication = epsilon / 2.0
        self.scan_config = ScanConfig.coerce(scan)
        self.last_trace: Optional[ReleaseTrace] = None

    # -- subclass hooks -----------------------------------------------------

    def _initial_scheduler_state(self) -> Dict:
        """Fresh per-run scheduler state (subclasses may extend)."""
        return {}

    @abc.abstractmethod
    def _publication_budget(
        self, t: int, trace: ReleaseTrace, state: Dict
    ) -> float:
        """Budget available for publishing at timestamp ``t`` (0 = skip)."""

    def _after_publication(
        self, t: int, budget: float, trace: ReleaseTrace, state: Dict
    ) -> None:
        """Hook invoked after a publication is committed."""

    def _zero_budget_until(self, t: int, state: Dict) -> int:
        """Exclusive end of a data-independent zero-budget stretch at ``t``.

        When every timestamp in ``[t, end)`` is guaranteed publication
        budget 0 regardless of the data (BA's nullified periods), the
        release loop bulk-approximates them without consuming any
        randomness — bit-identical to stepping, since zero-budget steps
        never draw.  The default declares no stretch.
        """
        return t

    def _budget_schedule(
        self, t0: int, count: int, state: Dict
    ) -> Optional[np.ndarray]:
        """Per-timestamp budgets for ``[t0, t0 + count)``, no-publication
        hypothesis — the vectorized twin of :meth:`_publication_budget`.

        Every value must be bit-equal to the float the scalar hook would
        return at that timestamp given no publication occurs in the
        span; the call must not mutate ``state`` (the kernel applies
        :meth:`_after_skip_run` when it commits a skip run).  Returning
        ``None`` — the default, so third-party subclasses keep working
        unchanged — disables the decision scan and the kernel runs the
        scalar loop.
        """
        return None

    def _after_skip_run(
        self, t_last: int, trace: ReleaseTrace, state: Dict
    ) -> None:
        """Normalize state after a bulk-applied skip run ending at ``t_last``.

        The scalar loop calls :meth:`_publication_budget` at every
        timestamp; a scheduler whose budget call prunes state as a side
        effect (BD's sliding publication window) must reproduce here
        the state its scalar calls would have left after ``t_last``.
        The default does nothing — correct whenever the budget hook is
        read-only.
        """

    def decision_rule(self) -> DecisionRule:
        """This scheduler's decision logic as data (the kernel's *plan*)."""
        return DecisionRule(
            budget_schedule=self._budget_schedule,
            publication_budget=self._publication_budget,
            zero_budget_until=self._zero_budget_until,
            after_publication=self._after_publication,
            after_skip_run=self._after_skip_run,
        )

    # -- release -----------------------------------------------------------

    def online_releaser(
        self,
        n_types: int,
        *,
        rng: RngLike = None,
        horizon: Optional[int] = None,
    ) -> OnlineReleaser:
        """An incremental releaser for push-based processing.

        Pass ``horizon`` when the number of steps is known up front: the
        releaser then consumes exactly as much parent entropy as the
        equivalent sequence of ``derive_rng`` calls.
        """
        return OnlineReleaser(self, n_types, rng, horizon=horizon)

    def perturb(
        self, stream: IndicatorStream, *, rng: RngLike = None
    ) -> IndicatorStream:
        matrix = stream.matrix_view().astype(float)
        n_windows, n_types = matrix.shape
        releaser = self.online_releaser(n_types, rng=rng, horizon=n_windows)
        released = releaser.step_block(matrix)
        self.last_trace = releaser.trace
        return stream.with_matrix(released >= 0.5)
