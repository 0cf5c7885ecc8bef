"""``events-long``: raw events through the service at a long horizon.

About 400k events over 8 types are windowed ``tumbling:10`` into 100k
windows and released by each of the seven mechanism specs through
``ServiceSpec(...).build().run(events)`` on the batch executor.  A
request is one mechanism's run over the whole stream.  This is the
horizon where the decision kernel's scan/skip paths engage, and the
only workload where windowing and extraction do real work.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Tuple

import numpy as np

from harness import Pass, count_calls, measure
from repro.obs.metrics import default_registry
from repro.service import ServiceSpec
from repro.streams.events import Event
from repro.streams.indicator import EventAlphabet, IndicatorStream
from repro.streams.stream import EventStream

N_TYPES = 8
N_WINDOWS = 100_000
WIDTH = 10.0
EVENTS_PER_WINDOW = 4
#: Share of each event type among all events; fixed, so the seed draws
#: the instance, not the shape of the traffic.
TYPE_SHARE = np.array([0.10, 0.15, 0.10, 0.05, 0.15, 0.10, 0.20, 0.15])
#: Windows of the causal prefix the second executor re-releases.
PREFIX_WINDOWS = 20_000
#: Mechanisms whose release over a prefix is the prefix of the full
#: release.  ``landmark`` splits its budget over all landmarks and
#: ``user-rr`` over all indicators, so those are re-released in full.
CAUSAL = ("uniform-ppm", "adaptive-ppm", "bd", "ba", "event-rr")
MECHANISMS = CAUSAL[:4] + ("landmark", "event-rr", "user-rr")
W = 10
NAMES = tuple(f"e{i + 1}" for i in range(N_TYPES))
PATTERNS = (("p0", ("e1", "e2")), ("p1", ("e3", "e4")))
QUERIES = (
    ("q0", ("e2", "e3")),
    ("q1", ("e5", "e6")),
    ("q2", ("e7", "e8")),
)


def _options(kind: str, landmarks: List[bool]) -> Dict:
    if kind in ("bd", "ba"):
        return {"epsilon": 1.0, "w": W}
    if kind == "landmark":
        return {"epsilon": 1.0, "landmarks": landmarks}
    if kind == "user-rr":
        return {"epsilon": float(N_WINDOWS)}
    return {"epsilon": 2.0}


def _charge(mechanism) -> float:
    """ε one release charges the service's accountant."""
    if hasattr(mechanism, "guarantees"):
        return sum(g.epsilon for g in mechanism.guarantees())
    return mechanism.epsilon


class EventsLong:
    name = "events-long"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        n_events = N_WINDOWS * EVENTS_PER_WINDOW
        times = np.sort(rng.random(n_events) * (N_WINDOWS * WIDTH))
        types = rng.choice(N_TYPES, n_events, p=TYPE_SHARE)
        self.events = EventStream(
            Event(NAMES[kind], stamp)
            for kind, stamp in zip(types.tolist(), times.tolist())
        )
        # Independent windowing: the same tumbling arithmetic in numpy.
        buckets = ((times - times[0]) // WIDTH).astype(np.int64)
        self.matrix = np.zeros((int(buckets[-1]) + 1, N_TYPES), bool)
        self.matrix[buckets, types] = True
        self.n_windows = self.matrix.shape[0]
        cut = int(np.searchsorted(buckets, PREFIX_WINDOWS))
        self.prefix = self.events[:cut]
        alphabet = EventAlphabet(NAMES)
        self.history = IndicatorStream(
            alphabet, rng.random((300, N_TYPES)) < self.matrix.mean(0)
        )
        private = [name for _p, elements in PATTERNS for name in elements]
        mask = np.zeros(self.n_windows, dtype=bool)
        for name in private:
            mask |= self.matrix[:, NAMES.index(name)]
        self.specs = {
            kind: self._spec(kind, index, mask)
            for index, kind in enumerate(MECHANISMS)
        }
        self.services = {
            kind: spec.build(history=self.history)
            for kind, spec in self.specs.items()
        }
        self.runs = dict.fromkeys(MECHANISMS, 0)
        # Warm-up on the prefix, through services of their own so the
        # ledgers checked later hold only the measured runs: imports,
        # first-use allocations and lazily built tables.
        prefix_windows = int(buckets[cut - 1]) + 1
        for index, kind in enumerate(MECHANISMS):
            spec = self._spec(kind, index, mask[:prefix_windows])
            spec.build(history=self.history).run(self.prefix)

    def _spec(self, kind: str, index: int, mask: np.ndarray):
        return ServiceSpec(
            alphabet=NAMES,
            patterns=PATTERNS,
            queries=QUERIES,
            mechanism=kind,
            mechanism_options=_options(kind, mask.tolist()),
            window=f"tumbling:{WIDTH:g}",
            accounting=float("inf"),
            seed=self.seed * 100 + index,
        )

    def _pass(self, record: Pass) -> None:
        for kind in MECHANISMS:
            self.runs[kind] += 1
            token = record.request()
            report = self.services[kind].run(self.events)
            record.add_request(token, self.n_windows)
            record.windows += self.n_windows
            record.outputs.append((
                kind,
                {n: a.detections for n, a in report.answers.items()},
                bool(
                    np.array_equal(
                        report.original.matrix_view(), self.matrix
                    )
                ),
            ))

    def timed(self, seconds: float) -> Pass:
        return measure(self._pass, seconds=seconds)

    def fixed(self) -> Pass:
        return measure(self._pass, repeats=1)

    def profile(self) -> Tuple[int, int]:
        return count_calls(self._pass)

    def _reference(self, kind: str) -> Dict[str, np.ndarray]:
        """The release under a second executor (chunked)."""
        spec = dataclasses.replace(
            self.specs[kind], executor="chunked:4096"
        )
        events = self.prefix if kind in CAUSAL else self.events
        report = spec.build(history=self.history).run(events)
        return {n: a.detections for n, a in report.answers.items()}

    def check(self, passes: List[Pass]) -> Tuple[int, int, List[str]]:
        notes = []
        bad = set()
        for kind in MECHANISMS:
            service = self.services[kind]
            mechanism = service.mechanism
            spent = service.accountant.spent()
            expected = self.runs[kind] * _charge(mechanism)
            if not np.isclose(spent, expected, rtol=1e-9, atol=0):
                bad.add(kind)
                notes.append(f"ledger: {kind} spent {spent} != {expected}")
            if kind in ("bd", "ba"):
                spend = mechanism.last_trace.max_window_spend(W)
                if spend > mechanism.epsilon * (1 + 1e-9):
                    bad.add(kind)
                    notes.append(f"ledger: {kind} window spend {spend}")
        references = {kind: self._reference(kind) for kind in MECHANISMS}
        # Repeats of one seeded release must be identical in full; the
        # reference pins the first of them.
        first = {}
        correct = offered = 0
        for record in passes:
            for kind, answers, windowing_ok in record.outputs:
                offered += self.n_windows
                reference = references[kind]
                baseline = first.setdefault(kind, answers)
                same = windowing_ok and kind not in bad and all(
                    np.array_equal(
                        answers[name][: len(reference[name])],
                        reference[name],
                    )
                    and np.array_equal(answers[name], baseline[name])
                    for name in reference
                )
                if same:
                    correct += self.n_windows
                else:
                    notes.append(f"{kind}: answers differ from reference")
        return correct, offered, notes

    def registries(self):
        return [default_registry()]

    def close(self) -> None:
        pass
