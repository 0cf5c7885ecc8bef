"""The scheduler decision kernel: one **plan → scan → resolve** pipeline.

The sequential release mechanisms (BD/BA in
:mod:`repro.baselines.w_event`, landmark in
:mod:`repro.baselines.landmark`) share one shape of per-timestamp work:
estimate how far the data drifted from the last release, add Laplace
noise, compare against a budget-derived publish threshold, and either
publish (spending budget, drawing a noise vector) or approximate
(re-emit the last release, free of charge).  Historically each releaser
hand-rolled that loop in Python; this module lifts the decision logic
into a shared kernel with three stages:

**plan**
    Each scheduler declares its decision rule *as data* — a
    :class:`DecisionRule` bundling a vectorized publish-budget schedule,
    the zero-budget stretch predicate and the post-publication state
    transition — instead of owning a bespoke loop.

**scan**
    A vectorized U-space pass over a block: the per-timestamp first
    uniforms (:meth:`~repro.runtime.rng_pool.IndexedRngPool.first_uniforms`)
    are pushed through the Laplace inverse CDF
    (:func:`laplace_noise_from_uniforms`) and compared against the
    schedule's publish thresholds with a configurable safety margin
    (:func:`classify_decisions`), classifying every timestamp as
    *certainly-skip*, *certainly-publish-candidate* or *boundary*.

**resolve**
    Contiguous certified-skip runs are bulk-applied — constant trace
    appends, released rows filled from the last release, **zero
    generator touches** — while boundary and publication timestamps
    fall back to the exact scalar arithmetic of the original loop,
    preserving bit-identity by construction: a certified skip is only a
    skip the scalar path would also have taken, and every timestamp
    that might publish is decided by exactly the old code path.

Why the margin is sound: the scan's vectorized ``numpy.log`` may differ
from the scalar path's ``math.log`` in the last ulp, and the vectorized
distance/threshold arithmetic may round differently than the scalar
spelling.  A timestamp is therefore certified only when its decision
score clears the threshold by more than ``margin * (1 + |noise| + θ)``
— astronomically wider than any ulp-level disagreement at the default
``1e-9``, yet vanishingly unlikely to catch a real decision (the score
is a continuous random variable).  Timestamps inside the band resolve
through the scalar arithmetic, so a margin that is *too wide* only
costs speed, never correctness.  ``scan=exact`` (audit mode)
additionally re-verifies every certified skip against the scalar
arithmetic and raises :class:`ScanMarginError` on disagreement.

The pure helpers (:func:`laplace_noise_from_uniforms`,
:func:`decision_thresholds`, :func:`classify_decisions`) are
arrays-in/arrays-out with no object state — this is the documented seam
for a future ``numba``/GPU decision executor with a counter-based RNG:
an accelerator only needs to reproduce these three functions over its
own uniform plane and hand the boundary indices back to the host.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.obs.metrics import registry_handles

__all__ = [
    "BOUNDARY",
    "CANDIDATE",
    "CERTAIN_SKIP",
    "DecisionRule",
    "LandmarkKernel",
    "ScanConfig",
    "ScanMarginError",
    "WEventKernel",
    "classify_decisions",
    "decision_thresholds",
    "laplace_noise_from_uniforms",
]

#: Verdict codes of :func:`classify_decisions` (uint8 array values).
CERTAIN_SKIP = 0
CANDIDATE = 1
BOUNDARY = 2

#: Valid ``scan=`` modes, in spec-string spelling.
SCAN_MODES = ("margin", "exact", "off")

#: Power-of-two buckets for the scan-segment-size histogram (rows per
#: vectorized scan, 1 .. the segment cap).
_SEGMENT_BUCKETS = tuple(float(2**i) for i in range(14))


def _kernel_telemetry(registry):
    """The decision kernels' counters and segment histogram.

    Resolved through :func:`~repro.obs.metrics.registry_handles` once
    per block: cached per registry object rather than on the kernel,
    so a kernel pickled into a cluster worker reports into that
    worker's per-task registry — the increments then ride the
    ``_METRICS`` frame back to the parent.
    """
    return (
        registry.counter(
            "repro_decisions_certified_rows_total",
            "Rows bulk-skipped under a certified scan verdict.",
        ),
        registry.counter(
            "repro_decisions_boundary_rows_total",
            "Rows resolved by the exact scalar step.",
        ),
        registry.counter(
            "repro_decisions_zero_budget_rows_total",
            "Rows bulk-approximated over zero-budget stretches.",
        ),
        registry.histogram(
            "repro_decisions_scan_segment_rows",
            "Rows classified per vectorized scan segment.",
            buckets=_SEGMENT_BUCKETS,
        ),
    )


def _count_rows(
    telemetry, certified: int, boundary: int, zero_budget: int
) -> None:
    """Add one block's row tallies to the kernel counters.

    The kernels tally rows in locals and settle them here once per
    block, not with one ``inc`` per row.
    """
    obs_certified, obs_boundary, obs_zero_budget, _ = telemetry
    if certified:
        obs_certified.inc(certified)
    if boundary:
        obs_boundary.inc(boundary)
    if zero_budget:
        obs_zero_budget.inc(zero_budget)


#: Upper bound on one scan segment's row count.  Segments double from
#: the prefetch granularity while the stream stays skip-only and are
#: invalidated at every publication, so the bound caps the vector work
#: a publication can throw away without limiting how far bulk skips
#: reach on stable stretches (consuming a segment just starts the
#: next one).
_SCAN_SEGMENT_MAX = 8192

#: Exact scalar steps taken after a publication before the next scan
#: segment is built.  Publications invalidate the segment cache, so on
#: publish-dense stretches (short skip runs) eager rescanning pays
#: per-publication vector work for runs too short to matter — the
#: warm-up keeps those stretches at scalar-loop speed and only re-arms
#: the scan once skips persist, which is exactly when certified runs
#: get long enough to win (measured: 16 holds publish-dense BD/BA at
#: scalar parity while still catching every budget-depleted stretch).
#: Landmark counts the warm-up in landmark steps.
_SCAN_WARMUP = 16

#: Most values a release-trace column
#: (:class:`~repro.baselines.w_event.TraceColumn`) holds on its pending
#: Python list before moving them into its numpy buffer.  The w-event
#: kernel's scalar step pushes unchecked and flushes every this many
#: rows, so the pending lists stay bounded by a constant.
TRACE_PENDING_MAX = 256


class ScanMarginError(RuntimeError):
    """Audit mode found a certified skip the scalar arithmetic rejects.

    Raised only under ``scan=exact``; seeing this means the configured
    safety margin is too narrow for the platform's ``numpy.log`` /
    ``math.log`` disagreement and must be widened.
    """


@dataclass(frozen=True)
class ScanConfig:
    """Tunables of the U-space decision scan.

    Attributes
    ----------
    mode:
        ``"margin"`` (the default) certifies skip runs through the
        margin classification; ``"exact"`` additionally re-verifies
        every certified skip with the exact scalar arithmetic (the
        audit mode — slow, raises :class:`ScanMarginError` on any
        disagreement); ``"off"`` disables the scan entirely and runs
        the per-timestamp scalar loop (the pre-kernel behavior, for
        debugging).
    margin:
        The safety margin of the certification band (see the module
        docstring for why the default is sound).
    prefetch_min:
        Blocks at least this long precompute their first uniforms
        vectorized (the former ``_UNIFORM_PREFETCH_MIN``); shorter
        blocks — single pushes, async micro-batches — draw per-step,
        which is cheaper below this size.  Both paths produce
        bit-identical draws.
    """

    mode: str = "margin"
    margin: float = 1e-9
    prefetch_min: int = 32

    def __post_init__(self):
        if self.mode not in SCAN_MODES:
            raise ValueError(
                f"unknown scan mode {self.mode!r}; valid scan modes: "
                f"{', '.join(SCAN_MODES)}"
            )
        if not self.margin > 0.0:
            raise ValueError(
                f"scan margin must be positive, got {self.margin}"
            )
        if self.prefetch_min < 1:
            raise ValueError(
                f"scan prefetch_min must be >= 1, got {self.prefetch_min}"
            )

    @property
    def enabled(self) -> bool:
        """Whether the scan runs at all (``margin`` or ``exact``)."""
        return self.mode != "off"

    @property
    def audit(self) -> bool:
        """Whether certified skips are re-verified (``exact`` mode)."""
        return self.mode == "exact"

    @classmethod
    def coerce(cls, value: Union[None, str, "ScanConfig"]) -> "ScanConfig":
        """Normalize a constructor argument into a :class:`ScanConfig`.

        ``None`` means the defaults, a string names a mode, and a
        config passes through — so mechanism constructors can take
        ``scan="off"`` as tersely as ``scan=ScanConfig(...)``.
        """
        if value is None:
            return cls()
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(mode=value)
        raise TypeError(
            f"scan must be a ScanConfig, a mode string or None, "
            f"got {value!r}"
        )

    @classmethod
    def from_options(
        cls,
        scan: Optional[str] = None,
        margin: Optional[float] = None,
        prefetch: Optional[int] = None,
    ) -> Optional["ScanConfig"]:
        """Build a config from spec-grammar options, ``None`` if unset.

        This is the mechanism factories' entry point for specs like
        ``"bd:scan=off"`` or ``"bd:margin=1e-9,prefetch=64"`` — any
        option given yields a config (unset options keep defaults),
        all-``None`` yields ``None`` so the mechanism falls back to its
        own default.
        """
        if scan is None and margin is None and prefetch is None:
            return None
        defaults = cls()
        return cls(
            mode=scan if scan is not None else defaults.mode,
            margin=float(margin) if margin is not None else defaults.margin,
            prefetch_min=(
                int(prefetch) if prefetch is not None else defaults.prefetch_min
            ),
        )


@dataclass(frozen=True)
class DecisionRule:
    """One scheduler's decision rule, declared as data (the *plan*).

    The callables mirror the scheduler hooks on
    :class:`~repro.baselines.w_event.WEventMechanism`:

    - ``budget_schedule(t0, count, state)`` — the *exact* per-timestamp
      publication budgets for ``[t0, t0 + count)`` under the assumption
      that no publication occurs in the span (bit-equal floats to
      calling the scalar ``_publication_budget`` per step).  Returns
      ``None`` when the scheduler declares no vectorized schedule, in
      which case the kernel falls back to the scalar loop;
    - ``publication_budget(t, trace, state)`` — the scalar budget (may
      mutate the state exactly as the scheduler's per-step call does);
    - ``zero_budget_until(t, state)`` — exclusive end of a
      data-independent zero-budget stretch (BA's nullified periods);
    - ``after_publication(t, budget, trace, state)`` — post-publication
      state transition;
    - ``after_skip_run(t_last, trace, state)`` — state normalization
      after a bulk-applied skip run: the scalar loop calls
      ``publication_budget`` at every timestamp, and schedulers whose
      budget call prunes state (BD's sliding publication window) must
      reproduce the pruned state the scalar loop would hold after its
      last call at ``t_last``.
    """

    budget_schedule: Callable[[int, int, Dict], Optional[np.ndarray]]
    publication_budget: Callable[[int, object, Dict], float]
    zero_budget_until: Callable[[int, Dict], int]
    after_publication: Callable[[int, float, object, Dict], None]
    after_skip_run: Callable[[int, object, Dict], None]


# ---------------------------------------------------------------------------
# The pure scan stage (accelerator seam: arrays in, arrays out)
# ---------------------------------------------------------------------------


def laplace_noise_from_uniforms(
    uniforms: np.ndarray, scale: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized replay of ``Generator.laplace(0, scale)`` first draws.

    ``uniforms`` are the per-index first ``next_double`` values (from
    :meth:`~repro.runtime.rng_pool.IndexedRngPool.first_uniforms`);
    the return is ``(noises, needs_exact)`` where ``noises`` replays
    numpy's ``random_laplace`` branch arithmetic —
    ``-scale*log(2 - 2u)`` for ``u >= 1/2``, ``scale*log(2u)`` for
    ``0 < u < 1/2`` — through ``numpy.log`` (equal to the scalar
    ``math.log`` spelling up to ulps; consumers must protect decisions
    with a margin), and ``needs_exact`` flags ``u <= 0`` rows, where
    numpy retries internally and only the real generator reproduces the
    draw.
    """
    uniforms = np.asarray(uniforms, dtype=float)
    needs_exact = uniforms <= 0.0
    upper = uniforms >= 0.5
    arguments = np.where(
        upper, 2.0 - uniforms - uniforms, uniforms + uniforms
    )
    # Flagged rows get a harmless argument so no log(0) warning fires;
    # their noise value is never read.
    arguments[needs_exact] = 1.0
    noises = np.log(arguments)
    noises = np.where(upper, -scale * noises, scale * noises)
    return noises, needs_exact


def decision_thresholds(
    budgets: np.ndarray, sensitivity: float
) -> np.ndarray:
    """Publish thresholds ``sensitivity / budget`` (``inf`` ⇔ never).

    A timestamp publishes when its noisy distance exceeds the error a
    publication would itself introduce; zero (or negative) budget means
    the threshold is unreachable and the timestamp certainly skips —
    encoded as ``+inf`` so one comparison covers both cases.
    """
    budgets = np.asarray(budgets, dtype=float)
    thresholds = np.full(budgets.shape, np.inf)
    positive = budgets > 0.0
    np.divide(sensitivity, budgets, out=thresholds, where=positive)
    return thresholds


def classify_decisions(
    distances: np.ndarray,
    noises: np.ndarray,
    needs_exact: np.ndarray,
    thresholds: np.ndarray,
    margin: float,
) -> np.ndarray:
    """Margin-certified three-way classification of a block (uint8).

    Returns :data:`CERTAIN_SKIP` where the decision score
    ``distance + noise`` sits below the threshold by more than the
    tolerance band (or the threshold is ``inf`` — zero budget skips
    whatever the randomness), :data:`CANDIDATE` where it clears the
    threshold by more than the band, and :data:`BOUNDARY` for rows
    inside the band or flagged ``needs_exact`` — rows the resolver must
    decide with the exact scalar arithmetic.

    The tolerance scales with the magnitudes entering the comparison
    (``margin * (1 + |noise| + θ)``) so one relative knob covers blocks
    whose scales differ by orders of magnitude.
    """
    thresholds = np.asarray(thresholds, dtype=float)
    infinite = ~np.isfinite(thresholds)
    finite_thresholds = np.where(infinite, 0.0, thresholds)
    tolerance = margin * (1.0 + np.abs(noises) + finite_thresholds)
    scores = distances + noises
    verdicts = np.full(thresholds.shape, BOUNDARY, dtype=np.uint8)
    verdicts[scores > finite_thresholds + tolerance] = CANDIDATE
    verdicts[scores < finite_thresholds - tolerance] = CERTAIN_SKIP
    # Rows whose uniform the vectorized transform cannot replay are
    # never certified either way...
    verdicts[np.asarray(needs_exact, dtype=bool)] = BOUNDARY
    # ...but zero budget skips regardless of the randomness: the scalar
    # loop never even computes the noise there.
    verdicts[infinite] = CERTAIN_SKIP
    return verdicts


# ---------------------------------------------------------------------------
# The w-event resolve stage
# ---------------------------------------------------------------------------


class WEventKernel:
    """Plan → scan → resolve driver for one w-event releaser.

    The *host* is an :class:`~repro.baselines.w_event.OnlineReleaser`:
    it owns the mutable release state (``t``, ``trace``,
    ``last_release``, ``scheduler_state``, the rng pool) while the
    kernel owns the decision pipeline.  ``run_block`` is bit-identical
    to the pre-kernel scalar loop in every mode — the scan only decides
    *which* timestamps may be bulk-skipped, never what any timestamp
    releases.
    """

    def __init__(
        self,
        rule: DecisionRule,
        config: ScanConfig,
        *,
        n_types: int,
        sensitivity: float,
        dissimilarity_scale: float,
        dissimilarity_charge: float,
    ):
        self.rule = rule
        self.config = config
        self.n_types = n_types
        self.sensitivity = sensitivity
        self.scale = dissimilarity_scale
        self.charge = dissimilarity_charge
        # Unchecked pushes left before the trace columns must flush.
        self._trace_room = TRACE_PENDING_MAX

    # -- resolve -------------------------------------------------------

    def run_block(self, host, matrix: np.ndarray, released) -> None:
        """Release a block (``released=None`` ⇒ prepass, rows skipped).

        Per-timestamp draws come from the host's index-derived child
        streams, so the kernel is free to consume them smartly without
        changing a single output bit: certified-skip runs and
        zero-budget stretches touch no generator at all, and only
        publishing timestamps install a child and draw from it.
        """
        rule = self.rule
        config = self.config
        n = matrix.shape[0]
        if n == 0:
            return
        uniforms = (
            host._children.first_uniforms(host.t, host.t + n)
            if n >= config.prefetch_min
            else None
        )
        scanning = config.enabled and uniforms is not None
        trace = host.trace
        published = trace.published
        publication_budgets = trace.publication_budgets
        dissimilarity_budgets = trace.dissimilarity_budgets
        charge = self.charge
        state = host.scheduler_state
        # Scan segment cache: verdicts for rows [seg_row, seg_stop)
        # computed against the state and last release at seg_row;
        # ``stops`` are the segment-relative offsets of non-certified
        # rows.  Valid until a publication changes the threshold
        # schedule or the reference release.  Segments are *bounded*
        # (starting at the prefetch granularity, doubling while runs
        # stay skip-only) because every publication invalidates the
        # cache — scanning to the end of the block would redo O(n)
        # vector work per publication, quadratic on publish-dense
        # streams, while a bounded segment costs O(chunk) there and
        # still amortizes to one pass over skip-dominated stretches.
        chunk = config.prefetch_min
        seg_row = -1
        seg_stop = 0
        seg_stops: Optional[np.ndarray] = None
        cooldown = 0
        row = 0
        telemetry = registry_handles(_kernel_telemetry)
        # Row tallies and the trace columns' pending room live in
        # locals and are settled once per block.
        certified = boundary = zero_budget = 0
        room = self._trace_room
        try:
            while row < n:
                last_release = host.last_release
                if last_release is not None:
                    skip = min(
                        rule.zero_budget_until(host.t, state) - host.t,
                        n - row,
                    )
                    if skip > 0:
                        # Zero budget, data-independent: approximate in
                        # bulk (no randomness is consumed here).
                        if released is not None:
                            released[row : row + skip] = last_release
                        published.extend_constant(False, skip)
                        publication_budgets.extend_constant(0.0, skip)
                        dissimilarity_budgets.extend_constant(charge, skip)
                        zero_budget += skip
                        host.t += skip
                        row += skip
                        continue
                    if scanning and cooldown == 0:
                        if seg_stops is None or row < seg_row:
                            chunk = config.prefetch_min
                        elif row >= seg_stop:
                            # The previous segment was consumed without a
                            # publication: the stream is in a stable
                            # stretch, so scan farther ahead this time.
                            chunk = min(chunk * 2, _SCAN_SEGMENT_MAX)
                            seg_stops = None
                        if seg_stops is None:
                            seg_row = row
                            seg_stop = min(n, row + chunk)
                            seg_stops = self._scan_segment(
                                host, matrix, uniforms, row, seg_stop
                            )
                            if seg_stops is None:
                                # No vectorized schedule: scalar loop.
                                scanning = False
                            else:
                                telemetry[3].observe(seg_stop - row)
                        if seg_stops is not None:
                            run = self._certified_run(
                                seg_stops, seg_row, row, seg_stop
                            )
                            if run > 0:
                                if config.audit:
                                    self._audit_run(
                                        host, matrix, uniforms, row, run
                                    )
                                if released is not None:
                                    released[row : row + run] = last_release
                                published.extend_constant(False, run)
                                publication_budgets.extend_constant(0.0, run)
                                dissimilarity_budgets.extend_constant(
                                    charge, run
                                )
                                rule.after_skip_run(
                                    host.t + run - 1, trace, state
                                )
                                certified += run
                                host.t += run
                                row += run
                                continue
                published_now = self._exact_step(
                    host, matrix, released, row, uniforms
                )
                boundary += 1
                room -= 1
                if not room:
                    # _exact_step pushes one unchecked value per column;
                    # flush before the pending lists outgrow their bound.
                    published.flush()
                    publication_budgets.flush()
                    dissimilarity_budgets.flush()
                    room = TRACE_PENDING_MAX
                if published_now:
                    # The publication changed the budget schedule and the
                    # reference release; certified verdicts past this row
                    # are stale.
                    seg_stops = None
                    cooldown = _SCAN_WARMUP
                elif cooldown:
                    cooldown -= 1
                row += 1
        finally:
            self._trace_room = room
            _count_rows(telemetry, certified, boundary, zero_budget)

    def _scan_segment(
        self, host, matrix, uniforms, row: int, stop: int
    ) -> Optional[np.ndarray]:
        """Scan rows ``[row, stop)`` against the current state.

        Returns the segment-relative offsets of rows that are *not*
        certified skips (``None`` when the scheduler declares no
        vectorized budget schedule).  Only valid while no publication
        occurs — the resolver drops the cache at each publication.
        """
        count = stop - row
        budgets = self.rule.budget_schedule(
            host.t, count, host.scheduler_state
        )
        if budgets is None:
            return None
        thresholds = decision_thresholds(budgets, self.sensitivity)
        distances = (
            np.add.reduce(
                np.abs(matrix[row:stop] - host.last_release), axis=1
            )
            / self.n_types
        )
        noises, needs_exact = laplace_noise_from_uniforms(
            uniforms[row:stop], self.scale
        )
        verdicts = classify_decisions(
            distances, noises, needs_exact, thresholds, self.config.margin
        )
        return np.nonzero(verdicts != CERTAIN_SKIP)[0]

    @staticmethod
    def _certified_run(
        seg_stops: np.ndarray, seg_row: int, row: int, seg_stop: int
    ) -> int:
        """Length of the certified-skip run starting at ``row``."""
        offset = row - seg_row
        position = np.searchsorted(seg_stops, offset)
        if position == seg_stops.shape[0]:
            return seg_stop - row
        return int(seg_stops[position]) - offset

    def _audit_run(self, host, matrix, uniforms, row: int, run: int) -> None:
        """Re-verify a certified run with the exact scalar arithmetic.

        Walks every certified row, recomputing the publish decision
        exactly as :meth:`_exact_step` would (``math.log`` branches,
        scalar reduction order), and raises :class:`ScanMarginError`
        when any row the scan certified as a skip would in fact
        publish.  The budget calls reproduce the state mutations the
        scalar loop performs, so auditing never perturbs the run.
        """
        rule = self.rule
        state = host.scheduler_state
        trace = host.trace
        last_release = host.last_release
        log = math.log
        for offset in range(run):
            t = host.t + offset
            budget = rule.publication_budget(t, trace, state)
            if budget <= 0:
                continue
            uniform = uniforms[row + offset]
            if uniform <= 0.0:
                raise ScanMarginError(
                    f"timestamp {t} was certified as a skip but its "
                    f"uniform ({uniform}) needs the exact generator path"
                )
            if uniform >= 0.5:
                noise = 0.0 - self.scale * log(2.0 - uniform - uniform)
            else:
                noise = 0.0 + self.scale * log(uniform + uniform)
            distance = float(
                np.add.reduce(np.abs(matrix[row + offset] - last_release))
                / self.n_types
            )
            if distance + noise > self.sensitivity / budget:
                raise ScanMarginError(
                    f"timestamp {t} was certified as a skip but the exact "
                    f"arithmetic publishes (score "
                    f"{distance + noise!r} > threshold "
                    f"{self.sensitivity / budget!r}); widen the scan margin"
                )

    def _exact_step(
        self, host, matrix, released, row: int, uniforms
    ) -> bool:
        """One timestamp through the exact scalar arithmetic.

        This is the pre-kernel release loop's body, verbatim: the
        boundary/publication fallback of the scan path and the whole
        loop under ``scan=off``.  Returns whether the step published.
        """
        rule = self.rule
        trace = host.trace
        state = host.scheduler_state
        last_release = host.last_release
        scale = self.scale
        budget = rule.publication_budget(host.t, trace, state)
        publish = False
        rng_t = None
        if last_release is None:
            publish = budget > 0
        elif budget > 0:
            # Private dissimilarity: mean absolute deviation from the
            # last release, plus Laplace noise (Kellaris' `dis`).  The
            # reduce spelling is bit-identical to .mean() and skips its
            # dispatch overhead.
            if uniforms is None:
                rng_t = host._children.generator(host.t)
                noise = float(rng_t.laplace(0.0, scale))
            else:
                uniform = uniforms[row]
                if uniform >= 0.5:
                    # numpy random_laplace, loc=0: branch and
                    # arithmetic order replayed exactly.
                    noise = 0.0 - scale * math.log(2.0 - uniform - uniform)
                elif uniform > 0.0:
                    noise = 0.0 + scale * math.log(uniform + uniform)
                else:
                    # U == 0 retries inside numpy; take the real
                    # generator for this (astronomically rare) step.
                    rng_t = host._children.generator(host.t)
                    noise = float(rng_t.laplace(0.0, scale))
            true_distance = float(
                np.add.reduce(np.abs(matrix[row] - last_release))
                / self.n_types
            )
            publish = true_distance + noise > self.sensitivity / budget
        trace.dissimilarity_budgets.push(self.charge)
        if publish:
            if rng_t is None:
                rng_t = host._children.generator(host.t)
                if last_release is not None:
                    # The stepped stream spent one word on the
                    # dissimilarity draw; reposition past it.
                    rng_t.laplace(0.0, scale)
            noise_vector = rng_t.laplace(
                0.0, self.sensitivity / budget, size=self.n_types
            )
            host.last_release = matrix[row] + noise_vector
            trace.published.push(True)
            trace.publication_budgets.push(budget)
            rule.after_publication(host.t, budget, trace, state)
        else:
            if last_release is None:
                # Nothing released yet and no budget: emit pure noise
                # around 1/2 so the output is data-independent.
                host.last_release = np.full(self.n_types, 0.5)
            trace.published.push(False)
            trace.publication_budgets.push(0.0)
        if released is not None:
            released[row] = host.last_release
        host.t += 1
        return publish

    # -- decision replay ----------------------------------------------

    def replay_block(
        self, host, matrix: np.ndarray, decisions: Tuple
    ) -> np.ndarray:
        """Reproduce a stepped block from recorded scheduler decisions.

        ``decisions`` is a ``(published, budgets)`` pair covering
        exactly the rows of ``matrix``.  Bit-identity with stepping
        holds because the per-timestamp randomness is index-derived: a
        publishing timestamp draws its dissimilarity word (when one
        preceded it) and its Laplace noise from the same child
        generator the stepped run used, and non-publishing timestamps
        repeat the previous release.  Only the publishing timestamps
        cost Python-loop work, which is what makes sharded replay fast
        on the sparse publication schedules BD/BA produce.
        """
        n = matrix.shape[0]
        published, budgets = decisions
        if len(published) != n or len(budgets) != n:
            raise ValueError(
                f"decisions cover {len(published)} timestamps but the "
                f"block has {n} rows"
            )
        rule = self.rule
        released = np.empty_like(matrix)
        publish_rows = [row for row in range(n) if published[row]]
        values = []
        current = host.last_release
        for row in publish_rows:
            rng_t = host._children.generator(host.t + row)
            if not (row == 0 and current is None):
                # The stepped run drew the noisy dissimilarity estimate
                # before publishing whenever a previous release
                # existed; consume the same word so the noise stream
                # aligns.
                rng_t.laplace(0.0, self.scale)
            noise = rng_t.laplace(
                0.0,
                self.sensitivity / budgets[row],
                size=self.n_types,
            )
            value = matrix[row] + noise
            values.append(value)
            released[row] = value
        # Forward-fill approximating timestamps from the publication
        # at-or-before them, vectorized (no per-row Python work).
        published_flags = np.asarray(published, dtype=bool)
        ordinals = np.cumsum(published_flags) - 1
        approx = ~published_flags
        before_first = approx & (ordinals < 0)
        after = approx & (ordinals >= 0)
        if np.any(after):
            stacked = np.stack(values)
            released[after] = stacked[ordinals[after]]
        if np.any(before_first):
            if current is None:
                current = np.full(self.n_types, 0.5)
            released[before_first] = current
        # Bring state, trace and accounting to where stepping would be.
        host.trace.published.extend(bool(flag) for flag in published)
        host.trace.publication_budgets.extend(
            float(budget) for budget in budgets
        )
        host.trace.dissimilarity_budgets.extend_constant(self.charge, n)
        for row in publish_rows:
            rule.after_publication(
                host.t + row,
                float(budgets[row]),
                host.trace,
                host.scheduler_state,
            )
        if n:
            if publish_rows and publish_rows[-1] == n - 1:
                host.last_release = values[-1].copy()
            else:
                host.last_release = np.array(released[n - 1], copy=True)
        host.t += n
        return released


# ---------------------------------------------------------------------------
# The landmark resolve stage
# ---------------------------------------------------------------------------


class LandmarkKernel:
    """Plan → scan → resolve driver for one landmark releaser.

    Landmark privacy has two row kinds with very different decision
    shapes, and the kernel exploits both:

    - **regular rows** never touch the release state (their noise is
      per-timestamp, parallel-composed); during a prepass
      (``released=None``) the kernel hops over them entirely — zero
      draws, zero Python work — which is what shrinks the checkpoint
      prepass toward the landmark publication steps alone;
    - **landmark rows** carry the adaptive budget thread
      (``remaining_publication`` / ``landmarks_left``); their skip
      decisions scan exactly like the w-event schedulers': nominal
      budgets for the segment are exact closed-form floats
      (``remaining / left`` with ``left`` counting down per landmark),
      so certified-skip landmarks are bulk-applied with no generator
      touches and only boundary/publishing landmarks fall back to the
      scalar :meth:`~repro.baselines.landmark.LandmarkReleaser._advance`.
      After a publication the kernel takes :data:`_SCAN_WARMUP` scalar
      landmark steps before it rescans, as :class:`WEventKernel` does.
    """

    def __init__(self, config: ScanConfig):
        self.config = config

    def run_block(self, host, matrix: np.ndarray, released) -> None:
        config = self.config
        n = matrix.shape[0]
        if n == 0:
            return
        if not config.enabled:
            # scan=off: the pre-kernel per-row loop, verbatim.
            for row in range(n):
                value = host._advance(matrix[row])
                if released is not None:
                    released[row] = value
            return
        mechanism = host.mechanism
        mask = host._landmarks
        t0 = host.t
        sensitivity = mechanism.sensitivity
        n_types = host.n_types
        regular_scale = sensitivity / mechanism.regular_epsilon
        # The dissimilarity draw's scale, spelled exactly as _advance
        # spells it (total landmark scale, then the per-type division
        # at the laplace call).
        dissimilarity_scale = (
            host._n_landmarks * sensitivity / host._landmark_dissimilarity
            if host._landmark_dissimilarity > 0
            else 0.0
        )
        uniform_scale = dissimilarity_scale / n_types
        uniforms = (
            host._children.first_uniforms(t0, t0 + n)
            if n >= config.prefetch_min
            else None
        )
        # Landmark rows of this block, as block-relative offsets.  Rows
        # past the mask's end fall off the slice; the loop raises the
        # scalar path's own error when it reaches them.
        block_mask = mask[t0 : t0 + n]
        limit = block_mask.shape[0]
        landmark_rows = np.nonzero(block_mask)[0]
        # Scan segment cache over landmark ordinals: built at a
        # landmark ordinal against the budget thread at that point,
        # valid until a publication changes it.  Bounded and doubling
        # for the same reason as the w-event kernel's segments: every
        # publication throws the cache away, so unbounded segments go
        # quadratic on publish-dense landmark stretches.
        chunk = config.prefetch_min
        seg_ordinal = -1
        seg_end = 0
        seg_stops: Optional[np.ndarray] = None
        ordinal = 0  # landmark rows consumed so far
        row = 0
        cooldown = 0
        telemetry = registry_handles(_kernel_telemetry)
        certified = boundary = 0
        try:
            while row < n:
                if row >= limit:
                    # Replicate _advance's bounds error (state already
                    # advanced through the in-mask prefix, as stepping
                    # would have).
                    raise ValueError(
                        f"landmark mask covers {mask.shape[0]} windows; "
                        f"cannot step past it (t={host.t})"
                    )
                if not block_mask[row]:
                    # Regular rows: individual budget, no state coupling.
                    if released is None:
                        # Prepass: the draws are discarded and the state
                        # untouched — hop to the next landmark row.
                        position = np.searchsorted(landmark_rows, row)
                        hop = (
                            int(landmark_rows[position]) - row
                            if position < landmark_rows.shape[0]
                            else min(n, limit) - row
                        )
                        host.t += hop
                        row += hop
                        continue
                    rng_t = host._children.generator(host.t)
                    released[row] = matrix[row] + rng_t.laplace(
                        0.0, regular_scale, size=n_types
                    )
                    host.t += 1
                    row += 1
                    continue
                # Landmark row.
                scannable = (
                    uniforms is not None
                    and host.last_release is not None
                    and host._n_landmarks > 0
                )
                if scannable and cooldown == 0:
                    if seg_stops is None or ordinal < seg_ordinal:
                        chunk = config.prefetch_min
                    elif ordinal >= seg_end:
                        # Segment consumed without a publication: scan
                        # farther ahead this time.
                        chunk = min(chunk * 2, _SCAN_SEGMENT_MAX)
                        seg_stops = None
                    if seg_stops is None:
                        seg_ordinal = ordinal
                        seg_end = min(landmark_rows.shape[0], ordinal + chunk)
                        telemetry[3].observe(seg_end - ordinal)
                        seg_stops = self._scan_landmarks(
                            host,
                            matrix,
                            uniforms,
                            landmark_rows[ordinal:seg_end],
                            sensitivity,
                            uniform_scale,
                        )
                    run = WEventKernel._certified_run(
                        seg_stops,
                        seg_ordinal,
                        ordinal,
                        seg_end,
                    )
                    if run > 0:
                        stop_row = (
                            int(landmark_rows[ordinal + run])
                            if ordinal + run < landmark_rows.shape[0]
                            else min(n, limit)
                        )
                        if config.audit:
                            self._audit_landmarks(
                                host,
                                matrix,
                                uniforms,
                                landmark_rows[ordinal : ordinal + run],
                                sensitivity,
                                uniform_scale,
                            )
                        # Bulk-apply the certified-skip landmarks (zero
                        # draws) and release the interleaved regular rows.
                        span_rows = landmark_rows[ordinal : ordinal + run]
                        if released is not None:
                            released[span_rows] = host.last_release
                            for regular in range(row, stop_row):
                                if block_mask[regular]:
                                    continue
                                rng_t = host._children.generator(t0 + regular)
                                released[regular] = matrix[regular] + (
                                    rng_t.laplace(
                                        0.0, regular_scale, size=n_types
                                    )
                                )
                        # The per-step clamp max(0, left - 1) composes to
                        # one clamped subtraction over the run.
                        host._landmarks_left = max(
                            0, host._landmarks_left - run
                        )
                        certified += run
                        host.t = t0 + stop_row
                        row = stop_row
                        ordinal += run
                        continue
                remaining_before = host._remaining_publication
                value = host._advance(matrix[row])
                boundary += 1
                if released is not None:
                    released[row] = value
                if host._remaining_publication != remaining_before:
                    # A publication moved the budget thread; certified
                    # verdicts past this landmark are stale, and
                    # rescanning waits out the warm-up as in WEventKernel.
                    seg_stops = None
                    cooldown = _SCAN_WARMUP
                elif cooldown:
                    cooldown -= 1
                ordinal += 1
                row += 1
        finally:
            _count_rows(telemetry, certified, boundary, 0)

    def _landmark_nominals(self, host, count: int) -> np.ndarray:
        """Exact nominal budgets for the next ``count`` landmark rows.

        Assumes no publication in the span: ``left`` counts down by one
        per landmark while ``remaining`` stays fixed, exactly the
        scalar ``remaining / left if left > 0 else 0.0`` per step.
        """
        remaining = host._remaining_publication
        left = host._landmarks_left - np.arange(count)
        nominals = np.zeros(count)
        positive = left > 0
        np.divide(remaining, left, out=nominals, where=positive)
        # A fully spent thread yields nominal <= 0 → unreachable
        # threshold downstream; negative nominals (impossible by
        # construction, guarded anyway) are zeroed too.
        nominals[nominals < 0.0] = 0.0
        return nominals

    def _scan_landmarks(
        self,
        host,
        matrix,
        uniforms,
        rows: np.ndarray,
        sensitivity: float,
        uniform_scale: float,
    ) -> np.ndarray:
        """Classify the remaining landmark rows; offsets of non-skips."""
        nominals = self._landmark_nominals(host, rows.shape[0])
        thresholds = decision_thresholds(nominals, sensitivity)
        distances = (
            np.add.reduce(
                np.abs(matrix[rows] - host.last_release), axis=1
            )
            / host.n_types
        )
        noises, needs_exact = laplace_noise_from_uniforms(
            uniforms[rows], uniform_scale
        )
        verdicts = classify_decisions(
            distances, noises, needs_exact, thresholds, self.config.margin
        )
        return np.nonzero(verdicts != CERTAIN_SKIP)[0]

    def _audit_landmarks(
        self,
        host,
        matrix,
        uniforms,
        rows: np.ndarray,
        sensitivity: float,
        uniform_scale: float,
    ) -> None:
        """Re-verify certified landmark skips with scalar arithmetic."""
        remaining = host._remaining_publication
        left = host._landmarks_left
        log = math.log
        for offset, row in enumerate(rows):
            nominal = (
                remaining / (left - offset) if left - offset > 0 else 0.0
            )
            if nominal <= 0:
                continue
            uniform = uniforms[row]
            if uniform <= 0.0:
                raise ScanMarginError(
                    f"landmark timestamp {host.t + int(row)} was certified "
                    f"as a skip but its uniform ({uniform}) needs the "
                    f"exact generator path"
                )
            if uniform >= 0.5:
                noise = -uniform_scale * log(2.0 - uniform - uniform)
            else:
                noise = uniform_scale * log(uniform + uniform)
            distance = float(
                np.add.reduce(np.abs(matrix[row] - host.last_release))
                / host.n_types
            )
            if distance + noise > sensitivity / nominal:
                raise ScanMarginError(
                    f"landmark timestamp {host.t + int(row)} was certified "
                    f"as a skip but the exact arithmetic publishes; widen "
                    f"the scan margin"
                )
