"""Estimating data quality under a budget allocation (Section V-B).

Algorithm 1 steers the budget distribution by the quality metric
``Q = alpha * Prec + (1 - alpha) * Rec`` evaluated on *historical data*
supplied by the data subjects.  Two estimators are provided:

:class:`AnalyticQualityEstimator`
    Exact expected confusion counts under independent indicator flips.
    For a window ``w`` and target pattern ``T``, the perturbed detection
    probability is ``d_w = Π_{e ∈ T} Pr[e present after flip]`` (flips
    are independent across elements); summing ``d_w`` over truth/false
    windows gives expected TP/FP (recall's denominator ``TP + FN`` is
    the constant number of positive windows, so expected recall is
    exact; expected precision uses the standard plug-in ratio of
    expectations).  Deterministic and fast — the estimator the shipped
    Algorithm 1 uses.

:class:`MonteCarloQualityEstimator`
    Simulates the perturbation end-to-end and averages the measured
    quality over trials.  Slower but assumption-free; used as a
    cross-check in tests and ablations.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Sequence

import numpy as np

from repro.cep.patterns import Pattern
from repro.core.budget import BudgetAllocation
from repro.core.ppm import apply_randomized_response
from repro.metrics.confusion import ConfusionCounts
from repro.metrics.quality import DataQuality
from repro.mechanisms.randomized_response import epsilon_to_flip_probability
from repro.streams.indicator import IndicatorStream
from repro.utils.rng import RngLike, derive_rng
from repro.utils.validation import check_probability


class QualityEstimator(abc.ABC):
    """Maps a budget allocation to the expected data quality."""

    @abc.abstractmethod
    def evaluate(self, allocation: BudgetAllocation) -> DataQuality:
        """Expected quality of the PPM induced by ``allocation``."""

    def evaluate_many(
        self, allocations: Sequence[BudgetAllocation]
    ) -> List[float]:
        """``Q`` of each allocation — one Algorithm 1 iteration's
        candidate moves.

        Must equal ``[self.evaluate(a).q for a in allocations]`` exactly;
        this default is that loop, and estimators with a batched form
        override it.
        """
        return [self.evaluate(allocation).q for allocation in allocations]


def _check_setup(
    history: IndicatorStream,
    private_pattern: Pattern,
    target_patterns: Sequence[Pattern],
) -> None:
    if history.n_windows == 0:
        raise ValueError("historical data must contain at least one window")
    if private_pattern.elements is None:
        raise ValueError(
            f"private pattern {private_pattern.name!r} has no element list"
        )
    if not target_patterns:
        raise ValueError("at least one target pattern is required")
    for pattern in target_patterns:
        if pattern.elements is None:
            raise ValueError(
                f"target pattern {pattern.name!r} has no element list"
            )
        for element in pattern.elements:
            if element not in history.alphabet:
                raise ValueError(
                    f"target pattern {pattern.name!r} uses {element!r}, "
                    "absent from the historical alphabet"
                )
    for element in private_pattern.elements:
        if element not in history.alphabet:
            raise ValueError(
                f"private pattern uses {element!r}, absent from the "
                "historical alphabet"
            )


def _flip_probabilities_by_type(
    private_pattern: Pattern, allocation: BudgetAllocation
) -> Dict[str, float]:
    """Per distinct protected type (repeated types pool their budgets)."""
    totals: Dict[str, float] = {}
    for element, epsilon in zip(private_pattern.elements, allocation.epsilons):
        totals[element] = totals.get(element, 0.0) + epsilon
    return {
        element: epsilon_to_flip_probability(epsilon)
        for element, epsilon in totals.items()
    }


class AnalyticQualityEstimator(QualityEstimator):
    """Exact expected quality under independent indicator flips."""

    def __init__(
        self,
        history: IndicatorStream,
        private_pattern: Pattern,
        target_patterns: Sequence[Pattern],
        *,
        alpha: float = 0.5,
    ):
        _check_setup(history, private_pattern, target_patterns)
        self.history = history
        self.private_pattern = private_pattern
        self.target_patterns = list(target_patterns)
        self.alpha = check_probability("alpha", alpha)
        # Distinct protected types (repeated elements pool their
        # budgets) and each element's slot among them.
        protected = list(dict.fromkeys(private_pattern.elements))
        self._element_slots = [
            protected.index(element) for element in private_pattern.elements
        ]
        self._n_protected = len(protected)
        # Pre-extract per-target flip slots (-1: a column the PPM does
        # not touch), float indicator matrices, truth masks and
        # positive/negative counts once: every Algorithm 1 candidate
        # evaluation reuses them.
        self._targets = []
        matrix = history.matrix_view()
        for pattern in self.target_patterns:
            distinct = list(dict.fromkeys(pattern.elements))
            columns = history.alphabet.indices(distinct)
            truth = matrix[:, columns].all(axis=1)
            negative = ~truth
            floats = matrix[:, columns].astype(float)
            self._targets.append(
                (
                    [
                        protected.index(element)
                        if element in protected
                        else -1
                        for element in distinct
                    ],
                    floats,
                    1.0 - floats,
                    np.flatnonzero(truth),
                    np.flatnonzero(negative),
                    float(truth.sum()),
                    float(negative.sum()),
                )
            )

    def expected_confusion(
        self, allocation: BudgetAllocation
    ) -> ConfusionCounts:
        """Expected confusion counts summed over all target patterns.

        For each target, the probability each element is present after
        perturbation is ``I*(1-p) + (1-I)*p`` (``p = 0`` for columns the
        PPM does not touch — exact in float arithmetic); windows detect
        the target with the product over its elements.
        """
        tp, fp, fn, tn = self._confusion_arrays([allocation])
        return ConfusionCounts(
            tp=float(tp[0]), fp=float(fp[0]), fn=float(fn[0]), tn=float(tn[0])
        )

    def evaluate(self, allocation: BudgetAllocation) -> DataQuality:
        counts = self.expected_confusion(allocation)
        return DataQuality.from_confusion(counts, alpha=self.alpha)

    def evaluate_many(
        self, allocations: Sequence[BudgetAllocation]
    ) -> List[float]:
        """``Q`` of every allocation in one numpy pass.

        Bit-equal to :meth:`evaluate` per allocation: the counts come
        from the same arrays (see :meth:`_confusion_arrays`), and
        precision, recall and ``Q`` are the scalar formulas applied
        elementwise — IEEE arithmetic rounds each operation the same
        in numpy as in Python.
        """
        if not allocations:
            return []
        tp, fp, fn, _tn = self._confusion_arrays(allocations)
        detections = tp + fp
        positives = tp + fn
        # An empty denominator scores 1, as ConfusionCounts does.
        precision = np.divide(
            tp, detections, out=np.ones_like(tp), where=detections != 0
        )
        recall = np.divide(
            tp, positives, out=np.ones_like(tp), where=positives != 0
        )
        alpha = self.alpha
        return (alpha * precision + (1.0 - alpha) * recall).tolist()

    def _confusion_arrays(self, allocations: Sequence[BudgetAllocation]):
        """Expected ``(tp, fp, fn, tn)`` per allocation, as ``(c,)`` arrays.

        The flips of all ``c`` allocations stack as ``(c, 1, k)``
        against each target's cached ``(N, k)`` float matrix; the
        detection product and the TP/FP sums reduce over the same
        contiguous innermost axes as a single allocation's ``(N, k)``
        and ``(N,)`` arrays, in the same order, so every count is
        bit-equal to evaluating the allocations one at a time.  Counts
        add across targets left to right from ``0.0``, as
        :class:`ConfusionCounts` addition does.
        """
        length = len(self.private_pattern.elements)
        slots = self._element_slots
        # Column n_protected stays 0.0: the flip of untouched columns.
        flips_by_slot = np.zeros((len(allocations), self._n_protected + 1))
        for row, allocation in enumerate(allocations):
            if allocation.length != length:
                raise ValueError(
                    f"allocation length {allocation.length} does not "
                    f"match private pattern length {length}"
                )
            totals = [0.0] * self._n_protected
            for slot, epsilon in zip(slots, allocation.epsilons):
                totals[slot] += epsilon
            flips_by_slot[row, :-1] = [
                epsilon_to_flip_probability(total) for total in totals
            ]
        tp_total = fp_total = fn_total = tn_total = 0.0
        for (
            target_slots,
            floats,
            complements,
            truth_rows,
            negative_rows,
            positives,
            negatives,
        ) in self._targets:
            flips = flips_by_slot[:, target_slots][:, np.newaxis, :]
            presence = floats * (1.0 - flips) + complements * flips
            detection = presence.prod(axis=2)
            # take() keeps the selection C-contiguous; boolean indexing
            # on axis 1 would return it F-ordered, and a sum over a
            # strided axis adds in another order than the 1-D sum.
            tp = detection.take(truth_rows, axis=1).sum(axis=1)
            fp = detection.take(negative_rows, axis=1).sum(axis=1)
            tp_total = tp_total + tp
            fp_total = fp_total + fp
            fn_total = fn_total + (positives - tp)
            tn_total = tn_total + (negatives - fp)
        return tp_total, fp_total, fn_total, tn_total


class MonteCarloQualityEstimator(QualityEstimator):
    """Simulation-based quality estimate (cross-check of the analytic model)."""

    def __init__(
        self,
        history: IndicatorStream,
        private_pattern: Pattern,
        target_patterns: Sequence[Pattern],
        *,
        alpha: float = 0.5,
        n_trials: int = 50,
        rng: RngLike = None,
    ):
        _check_setup(history, private_pattern, target_patterns)
        if n_trials <= 0:
            raise ValueError(f"n_trials must be positive, got {n_trials}")
        self.history = history
        self.private_pattern = private_pattern
        self.target_patterns = list(target_patterns)
        self.alpha = check_probability("alpha", alpha)
        self.n_trials = n_trials
        self._rng = rng
        self._truths = {
            pattern.name: history.detect_all(list(pattern.elements))
            for pattern in self.target_patterns
        }

    def evaluate(self, allocation: BudgetAllocation) -> DataQuality:
        flip_by_type = _flip_probabilities_by_type(
            self.private_pattern, allocation
        )
        precisions: List[float] = []
        recalls: List[float] = []
        for trial in range(self.n_trials):
            child = derive_rng(self._rng, "mc-quality", trial)
            perturbed = apply_randomized_response(
                self.history, flip_by_type, rng=child
            )
            counts = ConfusionCounts()
            for pattern in self.target_patterns:
                predicted = perturbed.detect_all(list(pattern.elements))
                counts = counts + ConfusionCounts.from_vectors(
                    self._truths[pattern.name], predicted
                )
            precisions.append(counts.precision)
            recalls.append(counts.recall)
        return DataQuality(
            precision=float(np.mean(precisions)),
            recall=float(np.mean(recalls)),
            alpha=self.alpha,
        )


def combine_flip_probabilities(maps: Sequence[Dict[str, float]]) -> Dict[str, float]:
    """Net flip probability per column under independent mechanisms.

    Section V-A: overlapping private patterns are protected by
    *independent* PPMs, so a shared column is flipped by several
    mechanisms in sequence.  Two independent flips with probabilities
    ``p`` and ``q`` leave a bit flipped with probability
    ``p(1-q) + q(1-p)``; folding this over all mechanisms gives the net
    per-column flip probability (never exceeding 1/2 when all inputs are
    at most 1/2 — more mechanisms only push towards pure noise).
    """
    combined: Dict[str, float] = {}
    for mapping in maps:
        for element, probability in mapping.items():
            if not 0.0 <= probability <= 0.5:
                raise ValueError(
                    f"flip probability for {element!r} must be in [0, 1/2], "
                    f"got {probability}"
                )
            current = combined.get(element, 0.0)
            combined[element] = (
                current * (1.0 - probability)
                + probability * (1.0 - current)
            )
    return combined


def expected_confusion_for_flips(
    history: IndicatorStream,
    flip_by_type: Dict[str, float],
    target_patterns: Sequence[Pattern],
) -> ConfusionCounts:
    """Exact expected confusion counts for arbitrary per-column flips.

    Generalizes :class:`AnalyticQualityEstimator` to any flip map (e.g.
    the net flips of a :class:`~repro.core.ppm.MultiPatternPPM`).
    """
    matrix = history.matrix_view()
    total = ConfusionCounts()
    for pattern in target_patterns:
        if pattern.elements is None:
            raise ValueError(
                f"target pattern {pattern.name!r} has no element list"
            )
        distinct = list(dict.fromkeys(pattern.elements))
        columns = history.alphabet.indices(distinct)
        truth = matrix[:, columns].all(axis=1)
        presence = np.empty((history.n_windows, len(distinct)), dtype=float)
        for position, element in enumerate(distinct):
            indicator = matrix[:, columns[position]].astype(float)
            p = flip_by_type.get(element)
            if p is None:
                presence[:, position] = indicator
            else:
                presence[:, position] = indicator * (1.0 - p) + (
                    1.0 - indicator
                ) * p
        detection = presence.prod(axis=1)
        tp = float(detection[truth].sum())
        fp = float(detection[~truth].sum())
        total = total + ConfusionCounts(
            tp=tp,
            fp=fp,
            fn=float(truth.sum()) - tp,
            tn=float((~truth).sum()) - fp,
        )
    return total


def baseline_quality(
    history: IndicatorStream,
    target_patterns: Sequence[Pattern],
    *,
    alpha: float = 0.5,
) -> DataQuality:
    """The *ordinary* quality ``Q_ord`` without any PPM (perfect detection).

    With no perturbation every window is answered correctly, so
    ``Q_ord = 1`` by construction in the windowed model; provided as a
    function so call sites make the definition of Eq. (4)'s numerator
    explicit, and so alternative (noisy-ground-truth) setups can swap it.
    """
    counts = ConfusionCounts()
    for pattern in target_patterns:
        if pattern.elements is None:
            raise ValueError(
                f"target pattern {pattern.name!r} has no element list"
            )
        truth = history.detect_all(list(pattern.elements))
        counts = counts + ConfusionCounts.from_vectors(truth, truth)
    return DataQuality.from_confusion(counts, alpha=alpha)
