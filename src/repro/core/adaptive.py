"""The adaptive pattern-level PPM (Section V-B, Algorithm 1).

Uniform budget distribution is not optimal when some elements are
critical for detecting *target* patterns while carrying little private
information; shifting budget towards those elements (weaker protection,
less noise) buys data quality at no cost to the total pattern-level
budget.  Algorithm 1 finds such a distribution by bidirectional
stepwise search over the quality metric estimated on historical data.

Implementation note (see DESIGN.md): the paper's pseudocode mutates the
allocation cumulatively inside its candidate loop and compensates by
``δε/m``; we implement the evident intent — candidates are evaluated
independently from the current allocation, compensation is
``δε/(m-1)``, allocations are clamped to ``[0, ε]`` and renormalized so
the total budget is conserved, and the search commits the best strictly
improving move until none exists or the iteration cap is reached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.cep.patterns import Pattern
from repro.core.budget import BudgetAllocation
from repro.core.ppm import PatternLevelPPM
from repro.core.quality_model import (
    AnalyticQualityEstimator,
    QualityEstimator,
)
from repro.streams.indicator import IndicatorStream
from repro.utils.validation import check_positive, check_probability

_IMPROVEMENT_TOLERANCE = 1e-12


def default_step_size(epsilon: float, length: int) -> float:
    """The paper's suggested step ``δε = mε/100`` (Algorithm 1, line 2)."""
    return length * epsilon / 100.0


@dataclass
class AdaptiveFitResult:
    """Trace of one Algorithm 1 run.

    Attributes
    ----------
    allocation:
        The final budget distribution.
    quality_trace:
        ``Q`` after the initial uniform allocation and after each
        committed move (monotone non-decreasing by construction).
    iterations:
        Number of committed moves.
    converged:
        True when the search stopped because no move improved ``Q``
        (False when it hit ``max_iterations``).
    """

    allocation: BudgetAllocation
    quality_trace: List[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False


def fit_allocation(
    epsilon: float,
    length: int,
    estimator: QualityEstimator,
    *,
    step_size: Optional[float] = None,
    max_iterations: int = 200,
) -> AdaptiveFitResult:
    """Run the bidirectional stepwise search of Algorithm 1.

    Starts from the uniform allocation (line 1), repeatedly tries moving
    ``step_size`` of budget onto each element (lines 6-9) — scoring an
    iteration's candidate moves in one
    :meth:`~repro.core.quality_model.QualityEstimator.evaluate_many`
    call — and commits the best move while it improves the estimated
    quality (lines 10-12).
    """
    check_positive("epsilon", epsilon)
    if length <= 0:
        raise ValueError(f"length must be positive, got {length}")
    if max_iterations <= 0:
        raise ValueError(f"max_iterations must be positive, got {max_iterations}")
    if step_size is None:
        step_size = default_step_size(epsilon, length)
    check_positive("step_size", step_size)

    allocation = BudgetAllocation.uniform(epsilon, length)
    quality = estimator.evaluate(allocation).q
    trace = [quality]

    if length == 1:
        # A single element leaves nothing to redistribute.
        return AdaptiveFitResult(
            allocation=allocation,
            quality_trace=trace,
            iterations=0,
            converged=True,
        )

    iterations = 0
    converged = False
    while iterations < max_iterations:
        candidates = []
        for index in range(length):
            candidate = allocation.with_move(index, step_size)
            if candidate.epsilons != allocation.epsilons:
                candidates.append(candidate)  # else clamping absorbed it
        best_quality = quality
        best_allocation: Optional[BudgetAllocation] = None
        # One batched estimate per iteration; the scan keeps the first
        # strictly best candidate, as evaluating them in turn did.
        for candidate, candidate_quality in zip(
            candidates, estimator.evaluate_many(candidates)
        ):
            if candidate_quality > best_quality + _IMPROVEMENT_TOLERANCE:
                best_quality = candidate_quality
                best_allocation = candidate
        if best_allocation is None:
            converged = True
            break
        allocation = best_allocation
        quality = best_quality
        trace.append(quality)
        iterations += 1

    return AdaptiveFitResult(
        allocation=allocation,
        quality_trace=trace,
        iterations=iterations,
        converged=converged,
    )


class AdaptivePatternPPM(PatternLevelPPM):
    """Pattern-level PPM with the Algorithm 1 budget distribution.

    Build it with :meth:`fit` (runs the search on historical data) or
    directly from a pre-computed allocation.
    """

    mechanism_name = "adaptive"

    def __init__(
        self,
        private_pattern: Pattern,
        allocation: BudgetAllocation,
        *,
        fit_result: Optional[AdaptiveFitResult] = None,
    ):
        super().__init__(private_pattern, allocation, name=self.mechanism_name)
        self.fit_result = fit_result

    @classmethod
    def fit(
        cls,
        private_pattern: Pattern,
        epsilon: float,
        history: IndicatorStream,
        target_patterns: Sequence[Pattern],
        *,
        alpha: float = 0.5,
        step_size: Optional[float] = None,
        max_iterations: int = 200,
        estimator_factory: Optional[
            Callable[..., QualityEstimator]
        ] = None,
    ) -> "AdaptivePatternPPM":
        """Run Algorithm 1 on historical data and return the fitted PPM.

        Parameters
        ----------
        private_pattern:
            The protected pattern ``P = seq(e_1..e_m)``.
        epsilon:
            Total pattern-level budget (conserved by every move).
        history:
            Historical windows granted by the data subjects
            (Section V-B: they trust the engine with this data).
        target_patterns:
            The data consumers' target patterns whose detection quality
            the search maximizes.
        alpha:
            The quality metric's precision weight (Eq. (3)).
        step_size:
            Budget moved per committed step; defaults to the paper's
            ``mε/100``.
        estimator_factory:
            Alternative estimator constructor with the signature of
            :class:`AnalyticQualityEstimator`; the default is the exact
            analytic model.
        """
        check_positive("epsilon", epsilon)
        check_probability("alpha", alpha)
        if private_pattern.elements is None:
            raise ValueError(
                f"pattern {private_pattern.name!r} has no element list"
            )
        factory = estimator_factory or AnalyticQualityEstimator
        estimator = factory(
            history, private_pattern, list(target_patterns), alpha=alpha
        )
        result = fit_allocation(
            epsilon,
            len(private_pattern.elements),
            estimator,
            step_size=step_size,
            max_iterations=max_iterations,
        )
        return cls(private_pattern, result.allocation, fit_result=result)
