"""``fig4-sweep``: the paper's Fig. 4 evaluation, run back to back.

Five Algorithm 2 synthetic datasets (500 evaluation windows, 300
history windows each) are each swept over the five Fig. 4 mechanisms,
the 7-point ε grid and 3 trials through
:meth:`WorkloadEvaluation.evaluate` on the default batch executor; a
round sweeps every dataset once, and rounds repeat for the run.  A
request is one (dataset, mechanism, ε) cell: 3 trials × 500 windows.
The short horizon is where the per-row decision-kernel overhead, the
adaptive fits and the rng-pool derivations dominate; no windowing, io,
service or broker code runs.

The datasets are a fixed corpus — the five that ``run_fig4_synthetic``
draws under the default experiment seed, as the Fig. 4 bench uses —
and ``--seed`` draws every cell's randomness.  Algorithm 2 draws each
dataset's occurrence probabilities at random and the adaptive fit's
iteration count follows them, so a seed-drawn dataset moves the cost
by ±15% (the mean of five still by ±7%), which would swamp the
changes the benchmark exists to catch.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from harness import Pass, count_calls, measure
from repro.datasets.synthetic import SyntheticConfig, synthesize_dataset
from repro.experiments import FIG4_MECHANISMS, ExperimentConfig
from repro.experiments.runner import WorkloadEvaluation
from repro.obs.metrics import default_registry
from repro.runtime.executors import ChunkedExecutor
from repro.utils.rng import derive_rng

EPSILON_GRID = (0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0)
N_TRIALS = 3
N_DATASETS = 5
DATASET_SEED = ExperimentConfig().seed
CONFIG = SyntheticConfig(n_windows=500, n_history_windows=300)
CELL_WINDOWS = N_TRIALS * CONFIG.n_windows

#: Mechanisms whose ReleaseTrace carries the w-event ledger.
W_EVENT = ("bd", "ba")


class Fig4Sweep:
    name = "fig4-sweep"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        self.contexts = [
            WorkloadEvaluation(
                synthesize_dataset(
                    CONFIG,
                    rng=derive_rng(DATASET_SEED, "synthetic-workload", i),
                )
            )
            for i in range(N_DATASETS)
        ]
        # One int seed per cell: evaluate() derives its trial streams
        # from it afresh, so every repetition of a cell is the same
        # release and can be checked against one reference.
        grid = [
            (dataset, kind, epsilon)
            for dataset in range(N_DATASETS)
            for kind in FIG4_MECHANISMS
            for epsilon in EPSILON_GRID
        ]
        self.cells: List[Tuple[int, str, float, int]] = [
            cell + (self.seed * len(grid) + position,)
            for position, cell in enumerate(grid)
        ]
        # Warm-up: one full sweep of the first dataset, then one cell
        # per mechanism on the others, which fills their ground-truth,
        # converter and adaptive-estimator caches.
        self._round(Pass(), datasets=(0,))
        for context in self.contexts[1:]:
            for kind in FIG4_MECHANISMS:
                context.evaluate(kind, EPSILON_GRID[0], n_trials=1)

    def _round(self, record: Pass, executor=None, datasets=None) -> None:
        for dataset, kind, epsilon, cell_seed in self.cells:
            if datasets is not None and dataset not in datasets:
                continue
            token = record.request()
            result = self.contexts[dataset].evaluate(
                kind,
                epsilon,
                n_trials=N_TRIALS,
                rng=cell_seed,
                executor=executor,
            )
            record.add_request(token, CELL_WINDOWS)
            record.outputs.append((dataset, result))
            record.windows += CELL_WINDOWS

    def timed(self, seconds: float) -> Pass:
        return measure(self._round, seconds=seconds)

    def fixed(self) -> Pass:
        return measure(self._round, repeats=1)

    def profile(self) -> Tuple[int, int]:
        return count_calls(self._round)

    def check(self, passes: List[Pass]) -> Tuple[int, int, List[str]]:
        """Cells against the same round under ChunkedExecutor."""
        reference = Pass()
        self._round(reference, executor=ChunkedExecutor(128))
        expected = {
            (dataset, result.mechanism, result.pattern_epsilon): result
            for dataset, result in reference.outputs
        }
        failed_cells = self._ledger_failures()
        notes = list(failed_cells.values())
        correct = offered = 0
        for record in passes:
            for dataset, result in record.outputs:
                key = (dataset, result.mechanism, result.pattern_epsilon)
                offered += CELL_WINDOWS
                if result == expected[key] and key not in failed_cells:
                    correct += CELL_WINDOWS
        return correct, offered, notes

    def _ledger_failures(self) -> Dict[Tuple[int, str, float], str]:
        """Cells whose w-event release overspent a window of w."""
        failures = {}
        for dataset, kind, epsilon, cell_seed in self.cells:
            if kind not in W_EVENT:
                continue
            context = self.contexts[dataset]
            mechanism = context.build_mechanism(kind, epsilon)
            context.measure(mechanism, n_trials=1, rng=cell_seed)
            spend = mechanism.last_trace.max_window_spend(context.workload.w)
            if spend > mechanism.epsilon * (1 + 1e-9):
                failures[(dataset, kind, epsilon)] = (
                    f"ledger: dataset {dataset} {kind} at ε={epsilon}: "
                    f"window spend {spend} > {mechanism.epsilon}"
                )
        return failures

    def registries(self):
        return [default_registry()]

    def close(self) -> None:
        pass
