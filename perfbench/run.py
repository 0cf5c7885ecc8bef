"""Benchmark entry point: one workload, one seed, one result line.

Run from the repository root::

    python3 perfbench/run.py --workload fig4-sweep --seed 1 \
        --seconds 10 --trace 0

``--workload all`` runs every workload, each in a fresh interpreter.

``--trace 0`` sets the workload up several times (``setup_s`` is the
median), runs the timed pass for about ``--seconds``, counts calls in a
separate profiled pass, checks every released window against an
independent path and prints the end-to-end metrics.  ``--trace 1``
runs a fixed amount of the workload untraced and then traced (spans
recorded around each layer's public entry points by :mod:`tracer`),
checks both, and prints the per-layer metrics and the tracing
overhead.  Times are in reference seconds (see :mod:`harness`).
Human-readable notes go to stderr; the last line of stdout is the JSON
result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.join(os.path.dirname(HERE), "src")

#: Where ``--trace 1`` writes its spans (ignored by git).
OUTPUT = os.path.join(os.path.dirname(HERE), ".perfbench")

#: Setups per ``--trace 0`` run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Largest accepted gap between the traced wall, less the calibrated
#: cost of its spans, and the untraced wall of the same work.
RECONCILE_TOLERANCE = 0.40


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


#: Workload name -> (module, class) under this directory.
WORKLOADS = {
    "fig4-sweep": ("fig4_sweep", "Fig4Sweep"),
    "events-long": ("events_long", "EventsLong"),
    "serve-closed": ("serve_closed", "ServeClosed"),
    "broker-catchup": ("broker_catchup", "BrokerCatchup"),
}


def end_to_end(workload_cls, seed: int, seconds: float) -> dict:
    from harness import Pass, latency_ms, peak_rss_mb, result_metrics

    setups = []
    for _ in range(SETUP_REPEATS):
        workload = workload_cls(seed)
        with Pass().sampling() as record:
            workload.setup()
        setups.append(record.reference_wall_s())
        if len(setups) < SETUP_REPEATS:
            workload.close()
            # Free this set-up before the next, so peak RSS holds one.
            del workload
            gc.collect()
    try:
        timed = workload.timed(seconds)
        # Set-up plus the timed pass; the profiled pass and the checks
        # hold references whose size follows the windows served.
        peak_mb = peak_rss_mb()
        calls, profiled_windows = workload.profile()
        correct, offered, notes = workload.check([timed])
    finally:
        workload.close()
    for note in notes:
        _log(f"[{workload.name}] {note}")
    p50, p50_note = latency_ms(timed, 50)
    p90, p90_note = latency_ms(timed, 90)
    wall_s = timed.reference_wall_s()
    timed_n = (
        f"{timed.windows} windows in {wall_s:.3f} reference s "
        f"({timed.raw_wall_s():.3f} s on this host, "
        f"{len(timed.factors)} host-speed samples)"
    )
    rows = {
        "windows_per_s": (timed.windows / wall_s, "1/s", timed_n),
        "cpu_ms_per_kwindow": (
            timed.reference_cpu_s() * 1e6 / timed.windows, "ms", timed_n
        ),
        "calls_per_window": (
            calls / profiled_windows,
            "count",
            f"{calls} calls over {profiled_windows} profiled windows",
        ),
        "latency_p50_ms": (p50, "ms", p50_note),
        "latency_p90_ms": (p90, "ms", p90_note),
        "peak_rss_mb": (peak_mb, "MB", "set-up and timed pass"),
        "setup_s": (
            statistics.median(setups),
            "s",
            f"median of {[round(s, 3) for s in setups]}",
        ),
        "success_rate": (
            correct / offered, "ratio", f"{correct} of {offered} windows"
        ),
    }
    for name, (value, unit, support) in rows.items():
        _log(f"[{workload.name}] {name} = {value:.6g} {unit} ({support})")
    return {
        "correct": correct == offered,
        "attempted": offered,
        "failed": offered - correct,
        "metrics": result_metrics({
            name: (value, unit) for name, (value, unit, _n) in rows.items()
        }),
    }


def per_layer(workload_cls, seed: int) -> dict:
    from harness import latency_ms, result_metrics
    from tracer import Tracer

    workload = workload_cls(seed)
    workload.setup()
    try:
        untraced = workload.fixed()
        tracer = Tracer(workload.registries())
        with tracer:
            traced = workload.fixed()
        correct, offered, notes = workload.check([untraced, traced])
    finally:
        workload.close()
    for note in notes:
        _log(f"[{workload.name}] {note}")
    values = tracer.layer_metrics(traced, untraced)
    for line in tracer.self_time_table(traced):
        _log(f"[{workload.name}] {line}")
    error = values["trace.reconcile_error"][0]
    _log(
        f"[{workload.name}] traced {traced.reference_wall_s():.3f} s, "
        f"untraced {untraced.reference_wall_s():.3f} reference s; "
        f"{len(tracer.spans)} spans; tracer cost "
        f"per span {tracer.costs['span'] * 1e6:.2f} us, per async step "
        f"{tracer.costs['step'] * 1e6:.2f} us, per counted call "
        f"{tracer.costs['count'] * 1e6:.2f} us; "
        f"self times reconcile with the untraced wall to {error:+.1%} "
        f"(tolerance {RECONCILE_TOLERANCE:.0%})"
    )
    if abs(error) > RECONCILE_TOLERANCE:
        _log(f"[{workload.name}] self times do not reconcile")
    spans_path = os.path.join(
        OUTPUT, f"{workload.name}-seed{seed}-spans.jsonl.gz"
    )
    tracer.write(spans_path)
    _log(f"[{workload.name}] spans written to {spans_path}")
    for q, name in ((99, "latency_p99_ms"), (99.9, "latency_p999_ms")):
        value, note = latency_ms(untraced, q)
        values[name] = (value, "ms")
        _log(f"[{workload.name}] {note}")
    return {
        "correct": correct == offered,
        "attempted": offered,
        "failed": offered - correct,
        "metrics": result_metrics(values),
    }


def every_workload(args) -> dict:
    """Each workload in a fresh interpreter; metrics keyed by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        completed = subprocess.run(
            [
                sys.executable,
                os.path.abspath(__file__),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            stdout=subprocess.PIPE,
            text=True,
            check=True,
        )
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    return merged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SOURCE, "repro")):
        _log(f"no program source at {SOURCE}; run from a full checkout")
        return 2
    sys.path.insert(0, SOURCE)
    if args.workload == "all":
        print(json.dumps(every_workload(args)), flush=True)
        return 0
    if args.workload not in WORKLOADS:
        _log(
            f"unknown workload {args.workload!r}; "
            f"known: {sorted(WORKLOADS)} or 'all'"
        )
        return 2
    if args.seed < 0 or args.seconds <= 0:
        _log("--seed must be >= 0 and --seconds > 0")
        return 2
    module, name = WORKLOADS[args.workload]
    cls = getattr(importlib.import_module(module), name)
    if args.trace:
        result = per_layer(cls, args.seed)
    else:
        result = end_to_end(cls, args.seed, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
