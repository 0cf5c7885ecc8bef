"""Broker connector benchmark: bit-identity under faults + throughput.

The broker subsystem's two pinned promises, written into
``BENCH_broker.json`` for ``benchmarks/check_gates.py``:

- ``broker_bit_identity`` (always): a broker-fed pipeline releases
  exactly what the memory-fed pipeline releases — through an
  uninterrupted run, a checkpoint/kill/resume cycle, *and* killed
  connections mid-run (1.0 = every arm identical).
- ``broker_vs_queue_throughput`` (always): median paired ratio of
  broker-fed over ``queue:``-fed wall-clock throughput across
  interleaved rounds; the floor of :data:`THROUGHPUT_FLOOR` bounds the
  cost of real sockets, RESP2 framing and ack bookkeeping at ~20%
  versus the in-process live-feed baseline.  Each round alternates
  single pumps of the two arms until each has run for at least
  :data:`ARM_SECONDS` (one 2000-window pump takes ~80 ms, and rounds
  of one pump per arm measured ratios as low as 0.51), and every arm
  also records ``time.process_time()`` so the artifact carries the
  CPU-time ratio and both spreads next to the gated value.

The feed is published with chunked entries
(``rows_per_entry=ROWS_PER_ENTRY``) — the record batching a
high-rate deployment would use — and the kill/resume arm deliberately
cuts mid-chunk (``N_WINDOWS // 3`` is not a multiple of the chunk
size), pinning the row-exact partial-chunk replay path under the
throughput workload.
"""

import asyncio
import time

import numpy as np

from benchmarks.conftest import (
    emit,
    emit_json,
    paired_speedup,
    ratio_spread,
)
from repro.broker import FakeRedisServer
from repro.broker.connectors import publish_indicator_stream
from repro.io.sources import QueueSource
from repro.service import ServiceSpec, StreamGateway, StreamService
from repro.streams.indicator import EventAlphabet, IndicatorStream
from repro.utils.tables import ResultTable

#: Pinned floor on the median paired queue/broker wall-time ratio:
#: broker ingestion must stay within ~20% of queue ingestion.
THROUGHPUT_FLOOR = 0.8

N_WINDOWS = 2_000

#: Windows per chunked broker entry (Kafka-style record batching).
ROWS_PER_ENTRY = 16

_ROUNDS = 7

#: Minimum time each arm runs per round (seconds of repeated pumps).
ARM_SECONDS = 1.0

N_TYPES = 8

ALPHABET = EventAlphabet.numbered(N_TYPES)


def _stream(seed=20230811):
    rng = np.random.default_rng(seed)
    return IndicatorStream(
        ALPHABET, rng.random((N_WINDOWS, N_TYPES)) < 0.3
    )


def _spec(source=None, seed=17):
    # A representative multi-query tenant (the obs soak workload's
    # shape), so the gate measures connector overhead against real
    # pipeline compute rather than a toy single-query loop.
    names = [f"e{i + 1}" for i in range(N_TYPES)]
    return ServiceSpec(
        alphabet=ALPHABET,
        patterns=[
            (f"p{i}", (names[i], names[i + 1])) for i in range(3)
        ],
        queries=[
            (f"q{i}", (names[i + 1], names[i + 2])) for i in range(3)
        ],
        mechanism="bd",
        mechanism_options={"epsilon": 1.0, "w": 40},
        source=source,
        seed=seed,
    )


def _broker_spec(url, *, group, seed=17):
    return _spec(
        f"broker:url={url},stream=bench,group={group},consumer=c0,"
        "block_ms=100,batch=64",
        seed=seed,
    )


def _pump_broker(url, *, group, seed=17):
    return asyncio.run(
        StreamService(_broker_spec(url, group=group, seed=seed)).pump()
    )


def _pump_queue(stream, seed=17):
    matrix = stream.matrix_view()

    async def drive():
        queue = asyncio.Queue(maxsize=256)
        service = StreamService(_spec("queue", seed=seed))

        async def produce():
            for index in range(matrix.shape[0]):
                await queue.put(matrix[index])
            await queue.put(None)

        producer = asyncio.ensure_future(produce())
        answers = await service.pump(QueueSource(queue))
        await producer
        return answers

    return asyncio.run(drive())


def _interleaved_round(*pumps):
    """Run the arms' pumps alternately until each has run ARM_SECONDS.

    Returns ``[pumps, wall_s, cpu_s]`` per arm: whole pumps, timed by
    the wall clock and by process CPU time (all threads, so the broker
    arm's in-process server counts too).  Alternating single pumps
    (~80 ms each) keeps both arms under the same host speed, which on
    a shared host drifts over seconds.
    """
    totals = [[0, 0.0, 0.0] for _ in pumps]
    while min(total[1] for total in totals) < ARM_SECONDS:
        for pump, total in zip(pumps, totals):
            wall_start = time.perf_counter()
            cpu_start = time.process_time()
            pump(total[0])
            total[0] += 1
            total[1] += time.perf_counter() - wall_start
            total[2] += time.process_time() - cpu_start
    return totals


class TestBrokerBench:
    def test_bit_identity_and_throughput(self, results_dir):
        stream = _stream()
        reference = asyncio.run(StreamService(_spec()).pump(stream))

        with FakeRedisServer() as server:
            publish_indicator_stream(
                server.url,
                "bench",
                stream,
                rows_per_entry=ROWS_PER_ENTRY,
            )

            # -- bit-identity arms ------------------------------------
            identity_rows = []
            identity_rows.append((
                "uninterrupted",
                _pump_broker(server.url, group="plain") == reference,
            ))

            gateway = StreamGateway()
            gateway.add_tenant(
                "t", _broker_spec(server.url, group="resume")
            )
            # N_WINDOWS // 3 is not a multiple of ROWS_PER_ENTRY, so
            # the kill lands mid-chunk and resume must replay the
            # partial chunk row-exactly.
            asyncio.run(gateway.serve(max_windows=N_WINDOWS // 3))
            resumed = StreamGateway.resume(gateway.checkpoint())
            asyncio.run(resumed.serve())
            combined = {
                name: gateway.results()["t"][name]
                + resumed.results()["t"][name]
                for name in reference
            }
            identity_rows.append(("kill_resume", combined == reference))

            gateway = StreamGateway()
            gateway.add_tenant(
                "t", _broker_spec(server.url, group="faulted")
            )
            asyncio.run(gateway.serve(max_windows=N_WINDOWS // 3))
            server.inject_fault("reset", command="XREADGROUP", count=1)
            server.inject_fault("drop", command="XREADGROUP", count=1)
            asyncio.run(gateway.serve())
            faults_fired = len(server.faults_fired)
            identity_rows.append((
                "connection_kill",
                gateway.results()["t"] == reference
                and faults_fired == 2,
            ))
            bit_identical = all(same for _, same in identity_rows)

            # -- throughput: interleaved paired rounds ----------------
            _pump_queue(stream)  # warm both arms' code paths
            _pump_broker(server.url, group="warm")
            rounds = [
                _interleaved_round(
                    lambda repeat: _pump_queue(stream),
                    lambda repeat, index=index: _pump_broker(
                        server.url, group=f"round{index}-{repeat}"
                    ),
                )
                for index in range(_ROUNDS)
            ]

        def per_pump(arm, clock):
            return arm[clock] / arm[0]

        # Throughput ratio = broker windows/s over queue windows/s,
        # i.e. queue seconds per pump over broker seconds per pump.
        ratios = [
            per_pump(queue, 1) / per_pump(broker, 1)
            for queue, broker in rounds
        ]
        cpu_ratios = [
            per_pump(queue, 2) / per_pump(broker, 2)
            for queue, broker in rounds
        ]
        throughput_ratio = paired_speedup(ratios)

        table = ResultTable(
            [
                "round",
                "queue_s",
                "broker_s",
                "ratio",
                "queue_cpu_s",
                "broker_cpu_s",
                "cpu_ratio",
            ],
            title="broker vs queue ingestion (seconds per pump)",
        )
        rows = []
        for index, (queue, broker) in enumerate(rounds):
            row = {
                "round": index,
                "queue_s": per_pump(queue, 1),
                "broker_s": per_pump(broker, 1),
                "queue_cpu_s": per_pump(queue, 2),
                "broker_cpu_s": per_pump(broker, 2),
                "queue_pumps": queue[0],
                "broker_pumps": broker[0],
            }
            rows.append(row)
            table.add_row(
                round=index,
                queue_s=round(row["queue_s"], 4),
                broker_s=round(row["broker_s"], 4),
                ratio=round(ratios[index], 4),
                queue_cpu_s=round(row["queue_cpu_s"], 4),
                broker_cpu_s=round(row["broker_cpu_s"], 4),
                cpu_ratio=round(cpu_ratios[index], 4),
            )
        emit(table, results_dir, "broker_throughput")

        metrics = {
            "n_windows": N_WINDOWS,
            "rows_per_entry": ROWS_PER_ENTRY,
            "bit_identity": 1.0 if bit_identical else 0.0,
            "connection_faults_fired": faults_fired,
            "throughput_ratio": throughput_ratio,
            "cpu_throughput_ratio": paired_speedup(cpu_ratios),
            "arm_seconds_min": min(
                arm[1] for pair in rounds for arm in pair
            ),
            "broker_windows_per_second": (
                N_WINDOWS / min(row["broker_s"] for row in rows)
            ),
            "queue_windows_per_second": (
                N_WINDOWS / min(row["queue_s"] for row in rows)
            ),
            "floor_enforced": True,
        }
        metrics.update(ratio_spread("throughput_ratio", ratios))
        metrics.update(ratio_spread("cpu_throughput_ratio", cpu_ratios))
        for name, same in identity_rows:
            metrics[f"bit_identity_{name}"] = 1.0 if same else 0.0
        emit_json(
            results_dir,
            "broker",
            metrics,
            rows=rows,
            gates={
                "broker_bit_identity": {
                    "floor": 1.0,
                    "value": 1.0 if bit_identical else 0.0,
                },
                "broker_vs_queue_throughput": {
                    "floor": THROUGHPUT_FLOOR,
                    "value": throughput_ratio,
                },
            },
        )

        assert bit_identical, identity_rows
        assert throughput_ratio >= THROUGHPUT_FLOOR, ratios
