"""``serve-closed``: live serving, one outstanding window per client.

One :class:`StreamGateway` serves two ``bd`` tenants (w=10) over
``queue:`` sources.  Each tenant has one client coroutine that puts a
window on its queue and waits for the released answer at the tenant's
:class:`CallbackSink` before sending the next, so the session drains
one row at a time — the path a low-rate live feed takes.  A request is
one window; its latency runs from the client's ``put`` to the release.
The loop is closed because an open loop paced by asyncio timers on a
small shared host measures the timer, not the program.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from harness import Clock, Pass, count_calls
from repro.io.sinks import CallbackSink
from repro.io.sources import QueueSource
from repro.obs.metrics import default_registry
from repro.service import ServiceSpec, StreamGateway, StreamService
from repro.streams.indicator import EventAlphabet, IndicatorStream
from repro.utils.rng import derive_rng

N_TYPES = 8
NAMES = tuple(f"e{i + 1}" for i in range(N_TYPES))
TENANTS = ("t0", "t1")
#: Per-type occurrence probability of a window's indicator; fixed, so
#: the seed draws the instance, not the shape of the traffic.
DENSITY = np.array([0.30, 0.20, 0.40, 0.25, 0.35, 0.30, 0.15, 0.45])
EPSILON = 1.0
W = 10
#: Rows generated per tenant: more than a 60 s run can consume.
FEED_ROWS = 400_000
WARMUP_WINDOWS = 2_000
FIXED_WINDOWS = 8_000
PROFILE_WINDOWS = 8_000


def tenant_spec(seed: int, **fields) -> ServiceSpec:
    """A representative multi-query ``bd`` tenant."""
    return ServiceSpec(
        alphabet=NAMES,
        patterns=[(f"p{i}", (NAMES[i], NAMES[i + 1])) for i in range(3)],
        queries=[
            (f"q{i}", (NAMES[i + 1], NAMES[i + 2])) for i in range(3)
        ],
        mechanism="bd",
        mechanism_options={"epsilon": EPSILON, "w": W},
        accounting=10 * EPSILON,
        seed=seed,
        **fields,
    )


def reference_answers(spec: ServiceSpec, rows: np.ndarray) -> np.ndarray:
    """One tenant's answers from a batch run over the same rows.

    ``StreamService(spec).run(rows)`` with the tenant's spec minus its
    connectors, seeded as a session seeds a sequential releaser (the
    spec seed's ``"online"`` child, see ``session_stepper``).  One row
    per window, one column per query in declaration order.
    """
    report = StreamService(
        dataclasses.replace(spec, source=None, sink=None)
    ).run(
        IndicatorStream(EventAlphabet(NAMES), rows),
        rng=derive_rng(spec.seed, "online"),
    )
    return np.column_stack([
        report.answers[query.name].detections for query in spec.queries
    ])


def check_tenant(
    expected: np.ndarray, answers: np.ndarray, spent: float, trace
) -> Tuple[int, List[str]]:
    """Windows of one tenant whose answers match ``expected``.

    ``answers`` holds one row per released window; ``spent`` is what
    the tenant's accountant recorded and ``trace`` its releaser's
    ReleaseTrace.  Returns ``(correct windows, notes)``; every window
    fails when the tenant's ε ledger does.
    """
    spend = trace.max_window_spend(W)
    if spent != EPSILON or spend > EPSILON * (1 + 1e-9):
        return 0, [f"ledger: spent {spent}, max window spend {spend}"]
    correct = int(
        (answers == expected[: len(answers)]).all(axis=1).sum()
    )
    if correct != len(answers):
        return correct, [f"{len(answers) - correct} windows differ"]
    return correct, []


class _Client:
    """One tenant's closed-loop client and its release callback."""

    def __init__(self, rows: np.ndarray, n_queries: int):
        self.rows = rows
        self.queue: asyncio.Queue = asyncio.Queue()
        self.next = 0
        #: Released answers, one row per window, preallocated.
        self.answers = np.zeros((len(rows), n_queries), dtype=bool)
        self.released_count = 0
        self.waiter: Optional[asyncio.Future] = None
        self.record: Optional[Pass] = None

    def released(self, index, row, answers) -> None:
        self.answers[self.released_count] = tuple(answers.values())
        self.released_count += 1
        self.waiter.set_result(self.record.request())

    async def run(self, record: Pass, deadline, count) -> None:
        loop = asyncio.get_running_loop()
        self.record = record
        sent = 0
        while self.next < len(self.rows) and (
            sent < count if count is not None
            else time.perf_counter() < deadline
        ):
            self.waiter = loop.create_future()
            token = record.request()
            await self.queue.put(self.rows[self.next])
            record.add_request(token, 1, end=await self.waiter)
            self.next += 1
            sent += 1
        record.windows += sent
        await self.queue.put(None)


class ServeClosed:
    name = "serve-closed"

    def __init__(self, seed: int):
        self.seed = seed
        self.loop: Optional[asyncio.AbstractEventLoop] = None

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.loop = asyncio.new_event_loop()
        self.gateway = StreamGateway()
        self.specs: Dict[str, ServiceSpec] = {}
        self.clients: Dict[str, _Client] = {}
        for index, tenant in enumerate(TENANTS):
            spec = tenant_spec(
                self.seed * 10 + index, source="queue", sink="callback"
            )
            client = _Client(
                rng.random((FEED_ROWS, N_TYPES)) < DENSITY,
                len(spec.queries),
            )
            self.gateway.add_tenant(
                tenant,
                spec,
                source=QueueSource(client.queue),
                sink=CallbackSink(client.released),
            )
            self.specs[tenant] = spec
            self.clients[tenant] = client
        self._phase(Pass(), count=WARMUP_WINDOWS, sampled=False)

    def _phase(
        self, record: Pass, *, seconds=None, count=None, sampled=True
    ) -> None:
        async def serve():
            deadline = None if seconds is None else (
                time.perf_counter() + seconds
            )
            await asyncio.gather(*(
                client.run(record, deadline, count)
                for client in self.clients.values()
            ))

        async def phase():
            serving = asyncio.ensure_future(self.gateway.serve())
            if sampled:
                with record.sampling():
                    await serve()
            else:
                await serve()
            await serving

        with Clock() as clock:
            self.loop.run_until_complete(phase())
        record.wall_s += clock.wall_s
        record.cpu_s += clock.cpu_s

    def timed(self, seconds: float) -> Pass:
        record = Pass()
        self._phase(record, seconds=seconds)
        return record

    def fixed(self) -> Pass:
        record = Pass()
        self._phase(record, count=FIXED_WINDOWS)
        return record

    def profile(self) -> Tuple[int, int]:
        return count_calls(
            lambda record: self._phase(
                record, count=PROFILE_WINDOWS, sampled=False
            )
        )

    def check(self, passes: List[Pass]) -> Tuple[int, int, List[str]]:
        """Every window served so far against a batch run per tenant.

        Covers the warm-up and profiled windows too, so ``attempted``
        counts all of them.
        """
        correct = offered = 0
        notes = []
        for tenant, client in self.clients.items():
            service = self.gateway.service(tenant)
            released = client.answers[: client.released_count]
            good, tenant_notes = check_tenant(
                reference_answers(
                    self.specs[tenant], client.rows[: len(released)]
                ),
                released,
                service.accountant.spent(),
                service.mechanism.last_trace,
            )
            correct += good
            offered += client.next
            notes += [f"{tenant}: {note}" for note in tenant_notes]
        return correct, offered, notes

    def registries(self):
        return [default_registry(), self.gateway.registry]

    def close(self) -> None:
        if self.loop is None:
            return
        # The sessions' drainer tasks outlive each phase; stop them.
        pending = asyncio.all_tasks(self.loop)
        for task in pending:
            task.cancel()
        self.loop.run_until_complete(
            asyncio.gather(*pending, return_exceptions=True)
        )
        self.loop.close()
        self.loop = None
