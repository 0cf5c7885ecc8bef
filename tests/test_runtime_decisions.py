"""Unit tests for the decision kernel (repro.runtime.decisions).

Covers the pure scan helpers (the documented accelerator seam), the
ScanConfig grammar, the generator-word elision guarantee for certified
skip runs, the U==0 exact-fallback path, audit mode's disagreement
detection, and the chunked trace storage backing ReleaseTrace.
"""

import numpy as np
import pytest

from repro.baselines.budget_absorption import BudgetAbsorption
from repro.baselines.budget_distribution import BudgetDistribution
from repro.baselines.landmark import LandmarkPrivacy
from repro.baselines.w_event import ReleaseTrace, TraceColumn
from repro.runtime import decisions as decisions_module
from repro.runtime.decisions import (
    BOUNDARY,
    CANDIDATE,
    CERTAIN_SKIP,
    ScanConfig,
    ScanMarginError,
    classify_decisions,
    decision_thresholds,
    laplace_noise_from_uniforms,
)
from repro.runtime.rng_pool import IndexedRngPool
from repro.service import (
    MechanismContext,
    ServiceSpec,
    build_mechanism_from_spec,
)
from repro.streams.indicator import EventAlphabet

N_TYPES = 4


def constant_matrix(n, value=0.0):
    return np.full((n, N_TYPES), value, dtype=float)


# ---------------------------------------------------------------------------
# ScanConfig
# ---------------------------------------------------------------------------


class TestScanConfig:
    def test_defaults(self):
        config = ScanConfig()
        assert config.mode == "margin"
        assert config.margin == 1e-9
        assert config.prefetch_min == 32
        assert config.enabled and not config.audit

    def test_modes(self):
        assert not ScanConfig(mode="off").enabled
        assert ScanConfig(mode="exact").audit
        assert ScanConfig(mode="margin").enabled

    def test_unknown_mode_lists_valid_modes(self):
        with pytest.raises(ValueError, match="margin, exact, off"):
            ScanConfig(mode="speedy")

    def test_invalid_margin_and_prefetch(self):
        with pytest.raises(ValueError, match="margin"):
            ScanConfig(margin=0.0)
        with pytest.raises(ValueError, match="margin"):
            ScanConfig(margin=-1e-9)
        with pytest.raises(ValueError, match="prefetch"):
            ScanConfig(prefetch_min=0)

    def test_coerce(self):
        assert ScanConfig.coerce(None) == ScanConfig()
        assert ScanConfig.coerce("off").mode == "off"
        config = ScanConfig(mode="exact", margin=1e-8)
        assert ScanConfig.coerce(config) is config
        with pytest.raises(TypeError, match="ScanConfig"):
            ScanConfig.coerce(1.5)

    def test_from_options(self):
        assert ScanConfig.from_options(None, None, None) is None
        config = ScanConfig.from_options("exact", 1e-8, 16)
        assert (config.mode, config.margin, config.prefetch_min) == (
            "exact",
            1e-8,
            16,
        )
        partial = ScanConfig.from_options(None, None, 64)
        assert partial.mode == "margin" and partial.prefetch_min == 64


# ---------------------------------------------------------------------------
# Pure scan helpers (the accelerator seam: arrays in, arrays out)
# ---------------------------------------------------------------------------


class TestScanHelpers:
    def test_laplace_noise_replays_numpy_branches(self):
        uniforms = np.array([0.9, 0.5, 0.3, 1e-12])
        noises, needs_exact = laplace_noise_from_uniforms(uniforms, 2.0)
        assert not needs_exact.any()
        np.testing.assert_array_equal(
            noises[:2],
            [-2.0 * np.log(2.0 - 0.9 - 0.9), -2.0 * np.log(1.0)],
        )
        assert noises[2] == 2.0 * np.log(0.3 + 0.3)

    def test_laplace_noise_flags_nonpositive_uniforms(self):
        with np.errstate(all="raise"):  # no log(0) warning may fire
            noises, needs_exact = laplace_noise_from_uniforms(
                np.array([0.0, -1e-9, 0.7]), 1.0
            )
        assert needs_exact.tolist() == [True, True, False]
        assert np.isfinite(noises).all()

    def test_decision_thresholds(self):
        thresholds = decision_thresholds(np.array([2.0, 0.0, -1.0]), 1.0)
        assert thresholds[0] == 0.5
        assert np.isinf(thresholds[1]) and np.isinf(thresholds[2])

    def test_classify_three_ways(self):
        distances = np.array([0.0, 10.0, 1.0, 0.0, 0.0])
        noises = np.zeros(5)
        needs_exact = np.array([False, False, False, True, False])
        thresholds = np.array([1.0, 1.0, 1.0, 1.0, np.inf])
        verdicts = classify_decisions(
            distances, noises, needs_exact, thresholds, 1e-9
        )
        assert verdicts.tolist() == [
            CERTAIN_SKIP,
            CANDIDATE,
            BOUNDARY,  # inside the tolerance band
            BOUNDARY,  # u <= 0: only the real generator reproduces it
            CERTAIN_SKIP,  # zero budget skips whatever the randomness
        ]

    def test_zero_budget_overrides_needs_exact(self):
        verdicts = classify_decisions(
            np.array([5.0]),
            np.array([0.0]),
            np.array([True]),
            np.array([np.inf]),
            1e-9,
        )
        assert verdicts.tolist() == [CERTAIN_SKIP]

    def test_wider_margin_grows_boundary_band(self):
        distances = np.array([0.9999, 1.0001])
        verdicts_tight = classify_decisions(
            distances, np.zeros(2), np.zeros(2, bool), np.ones(2), 1e-9
        )
        verdicts_wide = classify_decisions(
            distances, np.zeros(2), np.zeros(2, bool), np.ones(2), 1e-2
        )
        assert verdicts_tight.tolist() == [CERTAIN_SKIP, CANDIDATE]
        assert verdicts_wide.tolist() == [BOUNDARY, BOUNDARY]


# ---------------------------------------------------------------------------
# Generator-word elision
# ---------------------------------------------------------------------------


def install_generator_counter(releaser):
    """Record every child-generator index the releaser installs."""
    requested = []
    pool = releaser._children
    original = pool.generator

    def counting(index):
        requested.append(index)
        return original(index)

    pool.generator = counting
    return requested


class TestGeneratorElision:
    @pytest.mark.parametrize("cls", [BudgetDistribution, BudgetAbsorption])
    def test_certified_skip_runs_touch_no_generator(self, cls):
        n = 300
        matrix = constant_matrix(n)
        mechanism = cls(1.0, w=20, scan="margin")
        releaser = mechanism.online_releaser(N_TYPES, rng=11, horizon=n)
        requested = install_generator_counter(releaser)
        releaser.step_block(matrix)
        published_rows = [
            t for t in range(n) if releaser.trace.published[t]
        ]
        # Only publishing timestamps install a child generator; every
        # certified-skip timestamp is resolved from the prefetched
        # uniforms alone.
        assert requested == published_rows
        assert len(requested) <= n // 2  # plenty of certified skips

    def test_below_prefetch_blocks_install_generator_per_drawing_row(self):
        # Blocks under prefetch_min get no uniform prefetch: every
        # budget-positive row must install its child generator, so
        # installs strictly exceed the scan path's publication-only set.
        n = 304
        matrix = constant_matrix(n)
        mechanism = BudgetDistribution(1.0, w=20, scan="margin")
        releaser = mechanism.online_releaser(N_TYPES, rng=11, horizon=n)
        requested = install_generator_counter(releaser)
        small = [
            releaser.step_block(matrix[row : row + 8])
            for row in range(0, n, 8)
        ]
        scanned = BudgetDistribution(
            1.0, w=20, scan="margin"
        ).online_releaser(N_TYPES, rng=11, horizon=n)
        assert np.array_equal(np.vstack(small), scanned.step_block(matrix))
        assert len(requested) > len(
            [t for t in range(n) if releaser.trace.published[t]]
        )

    def test_landmark_prepass_hops_regular_rows(self):
        n = 128
        mask = np.zeros(n, dtype=bool)
        mask[[5, 40, 90]] = True
        matrix = constant_matrix(n)
        mechanism = LandmarkPrivacy(
            2.0, landmarks=mask, rho=0.5, scan="margin"
        )
        releaser = mechanism.online_releaser(N_TYPES, rng=3, horizon=n)
        requested = install_generator_counter(releaser)
        releaser.advance_block(matrix)
        # The prepass needs randomness only for landmark timestamps
        # that actually publish; regular rows are hopped entirely.
        assert set(requested) <= {5, 40, 90}
        assert releaser.t == n


# ---------------------------------------------------------------------------
# The U == 0 retry path
# ---------------------------------------------------------------------------


class TestUniformZeroFallback:
    @pytest.mark.parametrize("cls", [BudgetDistribution, BudgetAbsorption])
    def test_zero_uniforms_fall_back_to_generator(self, cls, monkeypatch):
        """u <= 0 rows are BOUNDARY: numpy's laplace retries internally,
        so only the real generator path reproduces the draw — all scan
        modes must agree while consuming the same patched uniforms."""
        monkeypatch.setattr(
            IndexedRngPool,
            "first_uniforms",
            lambda self, start, stop: np.zeros(stop - start),
        )
        n = 64
        rng = np.random.default_rng(5)
        matrix = (rng.random((n, N_TYPES)) < 0.5).astype(float)
        outputs = {}
        for scan in ("off", "margin", "exact"):
            mechanism = cls(2.0, w=8, scan=scan)
            releaser = mechanism.online_releaser(
                N_TYPES, rng=17, horizon=n
            )
            outputs[scan] = releaser.step_block(matrix)
        np.testing.assert_array_equal(outputs["margin"], outputs["off"])
        np.testing.assert_array_equal(outputs["exact"], outputs["off"])


# ---------------------------------------------------------------------------
# Audit mode
# ---------------------------------------------------------------------------


class TestAuditMode:
    def test_bogus_certification_raises_scan_margin_error(
        self, monkeypatch
    ):
        """scan=exact re-verifies every certified skip with the scalar
        arithmetic; a classifier that certifies publishing rows as
        skips must be caught, not silently bulk-applied."""

        def certify_everything(
            distances, noises, needs_exact, thresholds, margin
        ):
            return np.full(
                np.shape(thresholds), CERTAIN_SKIP, dtype=np.uint8
            )

        monkeypatch.setattr(
            decisions_module, "classify_decisions", certify_everything
        )
        n = 64
        matrix = constant_matrix(n)
        matrix[40:] = 1.0  # a drift the schedule must publish
        mechanism = BudgetDistribution(8.0, w=4, scan="exact")
        releaser = mechanism.online_releaser(N_TYPES, rng=0, horizon=n)
        with pytest.raises(ScanMarginError, match="certified as a skip"):
            releaser.step_block(matrix)

    def test_honest_scan_passes_audit(self):
        n = 96
        rng = np.random.default_rng(8)
        matrix = (rng.random((n, N_TYPES)) < 0.4).astype(float)
        mechanism = BudgetDistribution(4.0, w=6, scan="exact")
        releaser = mechanism.online_releaser(N_TYPES, rng=2, horizon=n)
        baseline = BudgetDistribution(4.0, w=6, scan="off")
        expected = baseline.online_releaser(
            N_TYPES, rng=2, horizon=n
        ).step_block(matrix)
        np.testing.assert_array_equal(releaser.step_block(matrix), expected)


# ---------------------------------------------------------------------------
# Spec grammar integration
# ---------------------------------------------------------------------------


ALPHABET = ("e1", "e2", "e3", "e4")


def build_context():
    spec = ServiceSpec(
        alphabet=ALPHABET,
        patterns=[("private", ("e1", "e2"))],
        queries=[("q", ("e2", "e3"))],
        mechanism="bd",
        seed=7,
    )
    return MechanismContext(
        alphabet=EventAlphabet(ALPHABET),
        private_patterns=spec.pattern_objects(),
    )


class TestSpecGrammar:
    def test_scan_keys_reach_the_mechanism(self):
        context = build_context()
        mechanism = build_mechanism_from_spec(
            "bd:epsilon=1.0,w=10,scan=off", context
        )
        assert mechanism.scan_config.mode == "off"
        mechanism = build_mechanism_from_spec(
            "ba:epsilon=0.5,w=8,scan=exact,margin=1e-8,prefetch=16",
            context,
        )
        assert mechanism.scan_config == ScanConfig(
            mode="exact", margin=1e-8, prefetch_min=16
        )

    def test_default_scan_config(self):
        mechanism = build_mechanism_from_spec(
            "bd:epsilon=1.0,w=10", build_context()
        )
        assert mechanism.scan_config == ScanConfig()

    def test_unknown_key_fails_at_parse_time_listing_keys(self):
        with pytest.raises(ValueError, match="valid keys.*scan"):
            build_mechanism_from_spec(
                "bd:epsilon=1.0,w=10,scam=off", build_context()
            )

    def test_unknown_scan_mode_lists_valid_modes(self):
        with pytest.raises(ValueError, match="margin, exact, off"):
            build_mechanism_from_spec(
                "bd:epsilon=1.0,w=10,scan=speedy", build_context()
            )


# ---------------------------------------------------------------------------
# Chunked trace storage
# ---------------------------------------------------------------------------


class TestTraceColumn:
    def test_append_extend_and_accessors(self):
        column = TraceColumn(dtype=np.float64)
        column.append(1.5)
        column.extend([2.5, 3.5])
        column.extend_constant(0.0, 3)
        assert len(column) == 6
        assert column[0] == 1.5 and isinstance(column[0], float)
        assert column[-1] == 0.0
        assert column[1:3] == [2.5, 3.5]
        assert list(column) == [1.5, 2.5, 3.5, 0.0, 0.0, 0.0]

    def test_growth_beyond_initial_chunk(self):
        column = TraceColumn(dtype=bool)
        for i in range(5000):
            column.append(i % 3 == 0)
        assert len(column) == 5000
        assert column[4999] == (4999 % 3 == 0)

    def test_equality(self):
        column = TraceColumn(dtype=np.float64)
        column.extend([1.0, 2.0])
        other = TraceColumn(dtype=np.float64)
        other.extend([1.0, 2.0])
        assert column == [1.0, 2.0]
        assert column == other
        assert column == np.array([1.0, 2.0])
        assert column != [1.0, 2.0, 3.0]

    def test_full_slice_assignment_replaces_content(self):
        # The snapshot-restore path: the restored trace may be shorter.
        column = TraceColumn(dtype=np.float64)
        column.extend([1.0, 2.0, 3.0, 4.0])
        column[:] = [9.0, 8.0]
        assert list(column) == [9.0, 8.0]

    def test_bool_and_asarray(self):
        column = TraceColumn(dtype=bool)
        assert not column
        column.append(True)
        assert column
        np.testing.assert_array_equal(
            np.asarray(column), np.array([True])
        )

    def test_version_bumps_on_every_mutation(self):
        column = TraceColumn(dtype=np.float64)
        seen = {column.version}
        column.append(1.0)
        seen.add(column.version)
        column.extend([2.0])
        seen.add(column.version)
        column.extend_constant(0.0, 2)
        seen.add(column.version)
        column[:] = [5.0]
        seen.add(column.version)
        assert len(seen) == 5


class TestSpendPrefixCache:
    def make_trace(self):
        trace = ReleaseTrace()
        for budget in (0.5, 0.0, 0.25):
            trace.published.append(budget > 0)
            trace.publication_budgets.append(budget)
            trace.dissimilarity_budgets.append(0.1)
        return trace

    def test_prefix_is_cached_until_mutation(self):
        trace = self.make_trace()
        first = trace._spend_prefix()
        assert trace._spend_prefix() is first  # cache hit
        trace.publication_budgets.append(0.75)
        trace.dissimilarity_budgets.append(0.1)
        trace.published.append(True)
        second = trace._spend_prefix()
        assert second is not first
        assert len(second) == len(first) + 1

    def test_spent_in_window_reflects_mutations(self):
        trace = self.make_trace()
        assert trace.spent_in_window(0, 3) == pytest.approx(
            0.5 + 0.25 + 3 * 0.1
        )
        trace.published.append(True)
        trace.publication_budgets.append(1.0)
        trace.dissimilarity_budgets.append(0.1)
        assert trace.spent_in_window(2, 2) == pytest.approx(
            0.25 + 1.0 + 2 * 0.1
        )


# ---------------------------------------------------------------------------
# Buffered trace columns and per-block row counters
# ---------------------------------------------------------------------------


class _TraceCheckingHooks:
    """Scheduler hooks that assert the trace is current when called.

    The kernel's scalar step pushes trace values onto the columns'
    pending lists; every reader must still see all of them.
    """

    def _publication_budget(self, t, trace, state):
        lengths = {
            len(trace.published),
            len(trace.publication_budgets),
            len(trace.dissimilarity_budgets),
        }
        assert len(lengths) == 1
        (length,) = lengths
        if self.scan_config.audit:
            # The audit walks a certified run before committing it.
            assert length <= t
        else:
            assert length == t
        # A read through the buffer sees every pending push.
        assert np.asarray(trace.dissimilarity_budgets).shape == (length,)
        return super()._publication_budget(t, trace, state)

    def _after_publication(self, t, budget, trace, state):
        # Called once row t's values are in the trace.
        assert (
            len(trace.published)
            == len(trace.publication_budgets)
            == len(trace.dissimilarity_budgets)
            == t + 1
        )
        assert trace.published[t] is True
        assert trace.publication_budgets[t] == budget
        super()._after_publication(t, budget, trace, state)


class CheckedBD(_TraceCheckingHooks, BudgetDistribution):
    pass


class CheckedBA(_TraceCheckingHooks, BudgetAbsorption):
    pass


ROW_COUNT_ROWS = 400


def row_count_matrix():
    """Random rows around a long constant stretch: every row kind."""
    rng = np.random.default_rng(5)
    matrix = (rng.random((ROW_COUNT_ROWS, N_TYPES)) < 0.5).astype(float)
    matrix[100:260] = matrix[100]
    return matrix


def kernel_row_counts(cls, scan, block):
    """(certified, boundary, zero-budget) rows counted over one run."""
    from repro.obs.metrics import MetricsRegistry, use_registry

    matrix = row_count_matrix()
    releaser = cls(1.0, w=12, scan=scan).online_releaser(
        N_TYPES, rng=21, horizon=ROW_COUNT_ROWS
    )
    registry = MetricsRegistry()
    with use_registry(registry):
        released = np.vstack(
            [
                releaser.step_block(matrix[row : row + block])
                for row in range(0, ROW_COUNT_ROWS, block)
            ]
        )
    counts = tuple(
        int(registry.counter(f"repro_decisions_{kind}_rows_total").value)
        for kind in ("certified", "boundary", "zero_budget")
    )
    return counts, released, releaser.trace


#: (certified, boundary, zero-budget) rows for :func:`row_count_matrix`,
#: as counted when the kernel still incremented its counters per row —
#: tallying per block must report exactly these.
EXPECTED_ROW_COUNTS = {
    ("bd", "off"): {b: (0, 400, 0) for b in (1, 31, 32, 33)},
    ("bd", "margin"): {
        1: (0, 400, 0), 31: (0, 400, 0), 32: (25, 375, 0), 33: (27, 373, 0)
    },
    ("ba", "off"): {b: (0, 231, 169) for b in (1, 31, 32, 33)},
    ("ba", "margin"): {
        1: (0, 231, 169),
        31: (0, 231, 169),
        32: (21, 210, 169),
        33: (30, 201, 169),
    },
}
# Audit mode certifies exactly what margin mode certifies.
EXPECTED_ROW_COUNTS[("bd", "exact")] = EXPECTED_ROW_COUNTS[("bd", "margin")]
EXPECTED_ROW_COUNTS[("ba", "exact")] = EXPECTED_ROW_COUNTS[("ba", "margin")]


class TestBufferedTraceAndRowCounters:
    @pytest.mark.parametrize("block", [1, 31, 32, 33])
    @pytest.mark.parametrize("scan", ["off", "margin", "exact"])
    @pytest.mark.parametrize(
        "name, cls", [("bd", CheckedBD), ("ba", CheckedBA)]
    )
    def test_hooks_see_current_trace_and_rows_add_up(
        self, name, cls, scan, block
    ):
        counts, released, trace = kernel_row_counts(cls, scan, block)
        assert sum(counts) == ROW_COUNT_ROWS
        assert counts == EXPECTED_ROW_COUNTS[(name, scan)][block]
        # Same release and trace as one unchecked block with scan=off.
        plain = (BudgetDistribution if name == "bd" else BudgetAbsorption)(
            1.0, w=12, scan="off"
        ).online_releaser(N_TYPES, rng=21, horizon=ROW_COUNT_ROWS)
        assert np.array_equal(
            released, plain.step_block(row_count_matrix())
        )
        assert trace == plain.trace

    def test_pending_appends_stay_bounded(self):
        n = 3 * decisions_module.TRACE_PENDING_MAX + 5
        releaser = BudgetDistribution(1.0, w=12, scan="off").online_releaser(
            N_TYPES, rng=2, horizon=n
        )
        matrix = np.random.default_rng(0).random((n, N_TYPES))
        for row in range(n):
            releaser.step(matrix[row])
            for column in (
                releaser.trace.published,
                releaser.trace.publication_budgets,
                releaser.trace.dissimilarity_budgets,
            ):
                assert (
                    len(column._pending)
                    <= decisions_module.TRACE_PENDING_MAX
                )
        assert len(releaser.trace.published) == n

    def test_pickling_and_snapshots_flush_pending(self):
        import pickle

        column = TraceColumn(dtype=np.float64)
        column.append(1.0)
        column.push(2.0)
        restored = pickle.loads(pickle.dumps(column))
        assert restored == [1.0, 2.0] and column == restored
        restored.push(3.0)
        assert list(restored) == [1.0, 2.0, 3.0]
        assert list(column) == [1.0, 2.0]
        releaser = BudgetDistribution(1.0, w=12).online_releaser(
            N_TYPES, rng=2
        )
        for row in range(5):
            releaser.step(np.full(N_TYPES, row % 2, dtype=float))
        _published, _budgets, charges = releaser.snapshot()["trace"]
        assert len(charges) == 5
