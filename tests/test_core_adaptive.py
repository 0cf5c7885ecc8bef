"""Tests for repro.core.adaptive — Algorithm 1."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cep.patterns import Pattern
from repro.core.adaptive import (
    AdaptivePatternPPM,
    _IMPROVEMENT_TOLERANCE,
    default_step_size,
    fit_allocation,
)
from repro.core.budget import BudgetAllocation
from repro.core.quality_model import (
    AnalyticQualityEstimator,
    MonteCarloQualityEstimator,
)
from repro.core.uniform import UniformPatternPPM
from repro.datasets.synthetic import SyntheticConfig, synthesize_dataset
from repro.experiments import ExperimentConfig
from repro.mechanisms.randomized_response import epsilon_to_flip_probability
from repro.metrics.quality import quality_score
from repro.streams.indicator import EventAlphabet, IndicatorStream
from repro.utils.rng import derive_rng


class TestDefaultStepSize:
    def test_paper_suggestion(self):
        # Line 2: δε = mε/100.
        assert default_step_size(2.0, 3) == pytest.approx(0.06)


class TestFitAllocation:
    def test_budget_conserved(self, stream200, private_pattern, target_pattern):
        estimator = AnalyticQualityEstimator(
            stream200, private_pattern, [target_pattern]
        )
        result = fit_allocation(3.0, 3, estimator)
        assert result.allocation.total == pytest.approx(3.0)

    def test_quality_trace_monotone(self, stream200, private_pattern, target_pattern):
        estimator = AnalyticQualityEstimator(
            stream200, private_pattern, [target_pattern]
        )
        result = fit_allocation(3.0, 3, estimator)
        for earlier, later in zip(result.quality_trace, result.quality_trace[1:]):
            assert later >= earlier

    def test_starves_private_only_elements(
        self, stream200, private_pattern, target_pattern
    ):
        # e1 appears only in the private pattern: noising it is free, so
        # the search should strip its budget and feed e2/e3 (shared with
        # the target).
        estimator = AnalyticQualityEstimator(
            stream200, private_pattern, [target_pattern]
        )
        result = fit_allocation(3.0, 3, estimator, max_iterations=300)
        assert result.allocation[0] == pytest.approx(0.0, abs=1e-6)
        assert result.allocation[1] > 1.0
        assert result.allocation[2] > 1.0

    def test_beats_uniform(self, stream200, private_pattern, target_pattern):
        estimator = AnalyticQualityEstimator(
            stream200, private_pattern, [target_pattern]
        )
        result = fit_allocation(3.0, 3, estimator, max_iterations=300)
        uniform_q = estimator.evaluate(BudgetAllocation.uniform(3.0, 3)).q
        assert result.quality_trace[-1] > uniform_q

    def test_single_element_trivially_converges(
        self, stream200, target_pattern
    ):
        pattern = Pattern.of_types("single", "e2")
        estimator = AnalyticQualityEstimator(
            stream200, pattern, [target_pattern]
        )
        result = fit_allocation(2.0, 1, estimator)
        assert result.converged
        assert result.iterations == 0
        assert result.allocation.epsilons == (2.0,)

    def test_iteration_cap_respected(
        self, stream200, private_pattern, target_pattern
    ):
        estimator = AnalyticQualityEstimator(
            stream200, private_pattern, [target_pattern]
        )
        result = fit_allocation(
            3.0, 3, estimator, step_size=0.001, max_iterations=5
        )
        assert result.iterations <= 5

    def test_invalid_arguments(self, stream200, private_pattern, target_pattern):
        estimator = AnalyticQualityEstimator(
            stream200, private_pattern, [target_pattern]
        )
        with pytest.raises(Exception):
            fit_allocation(0.0, 3, estimator)
        with pytest.raises(ValueError):
            fit_allocation(1.0, 0, estimator)
        with pytest.raises(ValueError):
            fit_allocation(1.0, 3, estimator, max_iterations=0)


class TestAdaptivePatternPPM:
    def test_fit_returns_ppm_with_trace(
        self, stream200, private_pattern, target_pattern
    ):
        ppm = AdaptivePatternPPM.fit(
            private_pattern, 3.0, stream200, [target_pattern]
        )
        assert ppm.name == "adaptive"
        assert ppm.fit_result is not None
        assert ppm.fit_result.quality_trace

    def test_guarantee_matches_requested_budget(
        self, stream200, private_pattern, target_pattern
    ):
        ppm = AdaptivePatternPPM.fit(
            private_pattern, 2.0, stream200, [target_pattern]
        )
        assert ppm.guarantee.epsilon == pytest.approx(2.0)

    def test_adaptive_at_least_as_good_as_uniform_on_history(
        self, stream200, private_pattern, target_pattern
    ):
        estimator = AnalyticQualityEstimator(
            stream200, private_pattern, [target_pattern]
        )
        adaptive = AdaptivePatternPPM.fit(
            private_pattern, 3.0, stream200, [target_pattern]
        )
        uniform = UniformPatternPPM(private_pattern, 3.0)
        assert estimator.evaluate(adaptive.allocation).q >= estimator.evaluate(
            uniform.allocation
        ).q

    def test_custom_estimator_factory(
        self, stream200, private_pattern, target_pattern
    ):
        calls = []

        def factory(history, pattern, targets, alpha=0.5):
            calls.append(alpha)
            return AnalyticQualityEstimator(
                history, pattern, targets, alpha=alpha
            )

        AdaptivePatternPPM.fit(
            private_pattern,
            1.0,
            stream200,
            [target_pattern],
            alpha=0.7,
            estimator_factory=factory,
        )
        assert calls == [0.7]

    def test_invalid_alpha(self, stream200, private_pattern, target_pattern):
        with pytest.raises(Exception):
            AdaptivePatternPPM.fit(
                private_pattern, 1.0, stream200, [target_pattern], alpha=1.5
            )


# ---------------------------------------------------------------------------
# Batched candidate scoring
# ---------------------------------------------------------------------------


def scalar_quality(estimator, allocation):
    """``Q`` by the one-allocation arithmetic, target by target.

    An independent spelling of the analytic model: per-type flips
    pooled in element order, an ``(N, k)`` presence matrix per target,
    its row products and the TP/FP sums as 1-D reductions, counts added
    across targets from ``0.0``.
    """
    totals = {}
    for element, epsilon in zip(
        estimator.private_pattern.elements, allocation.epsilons
    ):
        totals[element] = totals.get(element, 0.0) + epsilon
    flip_by_type = {
        element: epsilon_to_flip_probability(total)
        for element, total in totals.items()
    }
    matrix = estimator.history.matrix_view()
    tp_total = fp_total = fn_total = 0.0
    for pattern in estimator.target_patterns:
        distinct = list(dict.fromkeys(pattern.elements))
        columns = estimator.history.alphabet.indices(distinct)
        floats = matrix[:, columns].astype(float)
        truth = matrix[:, columns].all(axis=1)
        flips = np.array(
            [flip_by_type.get(element, 0.0) for element in distinct]
        )
        presence = floats * (1.0 - flips) + (1.0 - floats) * flips
        detection = presence.prod(axis=1)
        tp = float(detection[truth].sum())
        fp = float(detection[~truth].sum())
        tp_total += tp
        fp_total += fp
        fn_total += float(truth.sum()) - tp
    precision = 1.0 if tp_total + fp_total == 0 else tp_total / (
        tp_total + fp_total
    )
    recall = 1.0 if tp_total + fn_total == 0 else tp_total / (
        tp_total + fn_total
    )
    return quality_score(precision, recall, estimator.alpha)


def reference_fit(epsilon, length, estimator, max_iterations=200):
    """Algorithm 1 scoring one candidate at a time (the spec)."""
    step_size = default_step_size(epsilon, length)
    allocation = BudgetAllocation.uniform(epsilon, length)
    quality = estimator.evaluate(allocation).q
    trace = [quality]
    iterations = 0
    converged = length == 1
    while not converged and iterations < max_iterations:
        best_quality, best_allocation = quality, None
        for index in range(length):
            candidate = allocation.with_move(index, step_size)
            if candidate.epsilons == allocation.epsilons:
                continue
            candidate_quality = estimator.evaluate(candidate).q
            if candidate_quality > best_quality + _IMPROVEMENT_TOLERANCE:
                best_quality, best_allocation = candidate_quality, candidate
        if best_allocation is None:
            converged = True
            break
        allocation, quality = best_allocation, best_quality
        trace.append(quality)
        iterations += 1
    return allocation, trace, iterations, converged


BATCH_ALPHABET = EventAlphabet.numbered(5)


def batch_history(seed, n_windows=150):
    rng = np.random.default_rng(seed)
    rates = rng.random(5) * 0.8 + 0.1
    return IndicatorStream(
        BATCH_ALPHABET, rng.random((n_windows, 5)) < rates
    )


#: A private pattern with a repeated type (budgets pool per type) and
#: targets touching protected and unprotected columns.
BATCH_PRIVATE = Pattern.of_types("p", "e1", "e2", "e1", "e4")
BATCH_TARGETS = [
    Pattern.of_types("t1", "e2", "e3"),
    Pattern.of_types("t2", "e1", "e4", "e5"),
]

allocation_rows = st.lists(
    st.lists(
        st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
        min_size=4,
        max_size=4,
    ),
    min_size=0,
    max_size=6,
)


class TestBatchedCandidates:
    @given(
        rows=allocation_rows,
        seed=st.integers(min_value=0, max_value=10_000),
        alpha=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_evaluate_many_equals_evaluate_exactly(self, rows, seed, alpha):
        estimator = AnalyticQualityEstimator(
            batch_history(seed), BATCH_PRIVATE, BATCH_TARGETS, alpha=alpha
        )
        candidates = [BudgetAllocation(row) for row in rows]
        batched = estimator.evaluate_many(candidates)
        assert batched == [
            estimator.evaluate(candidate).q for candidate in candidates
        ]
        assert batched == [
            scalar_quality(estimator, candidate) for candidate in candidates
        ]

    def test_default_evaluate_many_loops_over_evaluate(self, stream200):
        private = Pattern.of_types("private", "e1", "e2")
        target = Pattern.of_types("target", "e2", "e3")
        estimator = MonteCarloQualityEstimator(
            stream200, private, [target], n_trials=3, rng=5
        )
        candidates = [
            BudgetAllocation((0.5, 1.5)),
            BudgetAllocation((1.0, 1.0)),
        ]
        assert estimator.evaluate_many(candidates) == [
            estimator.evaluate(candidate).q for candidate in candidates
        ]

    @pytest.mark.parametrize("dataset", range(5))
    def test_fit_matches_reference_loop_on_fig4_datasets(self, dataset):
        workload = synthesize_dataset(
            SyntheticConfig(n_windows=500, n_history_windows=300),
            rng=derive_rng(
                ExperimentConfig().seed, "synthetic-workload", dataset
            ),
        )
        for pattern in workload.private_patterns:
            estimator = AnalyticQualityEstimator(
                workload.history, pattern, workload.target_patterns
            )
            length = len(pattern.elements)
            for epsilon in ExperimentConfig().epsilon_grid:
                result = fit_allocation(epsilon, length, estimator)
                allocation, trace, iterations, converged = reference_fit(
                    epsilon, length, estimator
                )
                assert result.allocation.epsilons == allocation.epsilons
                assert result.quality_trace == trace
                assert result.iterations == iterations
                assert result.converged == converged
                assert trace[0] == scalar_quality(
                    estimator, BudgetAllocation.uniform(epsilon, length)
                )
                assert trace[-1] == scalar_quality(estimator, allocation)
