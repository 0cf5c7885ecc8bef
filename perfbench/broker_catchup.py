"""``broker-catchup``: draining a pre-published backlog through brokers.

Each of two ``bd`` tenants' feeds (30k windows, 16 rows per chunked
entry) is published to the in-process :class:`FakeRedisServer` during
set-up.  A catch-up is a fresh gateway whose tenants read their feeds
through ``broker:`` sources under a new consumer group, served in
slices with a fleet :meth:`StreamGateway.checkpoint` — which commits
the acks — after each slice.  A request is one slice plus its
checkpoint.  This is the only workload on the broker client, RESP
codec and connector code, and it drives the same service and session
layers as ``serve-closed`` in micro-batches of up to 64 rows.
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Dict, List, Optional, Tuple

import numpy as np

from harness import Pass, count_calls, measure
from repro.broker import FakeRedisServer
from repro.broker.connectors import publish_indicator_stream
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.service import StreamGateway
from repro.streams.indicator import EventAlphabet, IndicatorStream
from serve_closed import (
    DENSITY,
    N_TYPES,
    NAMES,
    check_tenant,
    reference_answers,
    tenant_spec,
)

TENANTS = ("t0", "t1")
FEED_WINDOWS = 30_000
ROWS_PER_ENTRY = 16
#: Windows per tenant per slice; each slice ends in a checkpoint.
SLICE_WINDOWS = 1024
WARMUP_SLICES = 4


class BrokerCatchup:
    name = "broker-catchup"

    def __init__(self, seed: int):
        self.seed = seed
        self.server: Optional[FakeRedisServer] = None
        self.loop: Optional[asyncio.AbstractEventLoop] = None

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.server = FakeRedisServer().start()
        self.loop = asyncio.new_event_loop()
        # One registry for every catch-up's gateway, so the traced run
        # can read broker counters as deltas.
        self.registry = MetricsRegistry()
        self.groups = itertools.count()
        self.feeds: Dict[str, np.ndarray] = {}
        self.specs = {}
        for index, tenant in enumerate(TENANTS):
            rows = rng.random((FEED_WINDOWS, N_TYPES)) < DENSITY
            publish_indicator_stream(
                self.server.url,
                f"feed-{tenant}",
                IndicatorStream(EventAlphabet(NAMES), rows),
                rows_per_entry=ROWS_PER_ENTRY,
            )
            self.feeds[tenant] = rows
            self.specs[tenant] = tenant_spec(self.seed * 10 + index)
        self.catchups: List[Tuple[str, Dict]] = []
        # Warm-up: the first slices of a drain that is not checked.
        self._catchup(Pass(), max_slices=WARMUP_SLICES)

    def _source(self, tenant: str, group: str) -> str:
        return (
            f"broker:url={self.server.url},stream=feed-{tenant},"
            f"group={group},consumer=c0,block_ms=100,batch=64"
        )

    def _catchup(self, record: Pass, max_slices=None) -> None:
        """Drain both feeds under a new consumer group, slice by slice."""
        group = f"g{next(self.groups)}"
        gateway = StreamGateway(registry=self.registry)
        for index, tenant in enumerate(TENANTS):
            gateway.add_tenant(
                tenant,
                tenant_spec(
                    self.seed * 10 + index,
                    source=self._source(tenant, group),
                ),
            )
        served = slices = 0
        while served < FEED_WINDOWS * len(TENANTS) and (
            max_slices is None or slices < max_slices
        ):
            slices += 1
            token = record.request()
            self.loop.run_until_complete(
                gateway.serve(max_windows=SLICE_WINDOWS)
            )
            gateway.checkpoint()
            total = sum(gateway.windows_served().values())
            if total == served:
                raise RuntimeError(f"catch-up {group} stalled at {total}")
            record.add_request(token, total - served)
            served = total
        record.windows += served
        for tenant in TENANTS:
            service = gateway.service(tenant)
            self.loop.run_until_complete(service.session.aclose())
            service.last_source.close()
        if max_slices is None:
            # Keep only what the check needs, not the gateway, so memory
            # does not follow the number of catch-ups a run fits.
            results = gateway.results()
            self.catchups.append((group, {
                tenant: (
                    np.column_stack(list(results[tenant].values())),
                    gateway.service(tenant).accountant.spent(),
                    gateway.service(tenant).mechanism.last_trace,
                )
                for tenant in TENANTS
            }))

    def timed(self, seconds: float) -> Pass:
        return measure(self._catchup, seconds=seconds)

    def fixed(self) -> Pass:
        return measure(self._catchup, repeats=1)

    def profile(self) -> Tuple[int, int]:
        return count_calls(self._catchup)

    def check(self, passes: List[Pass]) -> Tuple[int, int, List[str]]:
        """Every catch-up so far against the memory-fed run.

        Delivery must be exact: each group released every published
        window once, in order, and the last checkpoint acked every data
        entry.  The connector leaves the end-of-stream marker pending on
        purpose (a resumed consumer learns from it that the feed ended),
        so exactly one entry stays pending.  Entries a slice prefetched
        but never emitted are re-read from the pending list by the next
        slice; they count in ``repro_broker_redelivered_total`` but
        release no window twice, which the count check would catch.
        """
        correct = offered = 0
        notes = []
        expected = {
            tenant: reference_answers(self.specs[tenant], self.feeds[tenant])
            for tenant in TENANTS
        }
        for group, tenants in self.catchups:
            for tenant, (answers, spent, trace) in tenants.items():
                good, tenant_notes = check_tenant(
                    expected[tenant], answers, spent, trace
                )
                pending = self.server.pending_count(f"feed-{tenant}", group)
                if len(answers) != FEED_WINDOWS or pending != 1:
                    tenant_notes.append(
                        f"released {len(answers)} of {FEED_WINDOWS}, "
                        f"{pending} entries pending"
                    )
                    good = 0
                correct += good
                offered += FEED_WINDOWS
                notes += [f"{group}/{tenant}: {n}" for n in tenant_notes]
        return correct, offered, notes

    def registries(self):
        return [default_registry(), self.registry]

    def close(self) -> None:
        if self.loop is not None:
            self.loop.run_until_complete(
                self.loop.shutdown_default_executor()
            )
            self.loop.close()
            self.loop = None
        if self.server is not None:
            self.server.stop()
            self.server = None
