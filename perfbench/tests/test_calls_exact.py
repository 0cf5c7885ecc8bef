"""``calls_per_window`` must be an exact count, not a measurement.

Runs the profiled pass of the two batch workloads in fresh interpreters
under two different ``PYTHONHASHSEED`` values (and, for ``fig4-sweep``,
twice under the same one) and requires identical call counts: a count
that moved with hash randomisation or between runs could not carry a
tight gate.  Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
SOURCE = os.path.join(os.path.dirname(BENCH), "src")

PROGRAM = """
import sys
sys.path[:0] = [{source!r}, {bench!r}]
from {module} import {cls}
workload = {cls}(3)
workload.setup()
calls, windows = workload.profile()
print(calls, windows)
"""


def profiled_calls(module, cls, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    completed = subprocess.run(
        [
            sys.executable,
            "-c",
            PROGRAM.format(
                source=SOURCE, bench=BENCH, module=module, cls=cls
            ),
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    calls, windows = completed.stdout.split()
    return int(calls), int(windows)


@pytest.mark.parametrize(
    "module, cls",
    [("fig4_sweep", "Fig4Sweep"), ("events_long", "EventsLong")],
)
def test_calls_repeat_across_hash_seeds(module, cls):
    first = profiled_calls(module, cls, 1)
    assert first == profiled_calls(module, cls, 2)


def test_calls_repeat_across_runs():
    assert profiled_calls("fig4_sweep", "Fig4Sweep", 7) == profiled_calls(
        "fig4_sweep", "Fig4Sweep", 7
    )
