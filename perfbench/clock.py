"""Time measured against a fixed probe, so that the machine's speed cancels.

On a shared machine the interpreter's speed drifts: slow phases lasting 0.1 to
1 s alternate with fast ones and run up to 1.8 times slower, and how much of a
minute is slow changes from minute to minute.  Wall-clock item times then move
by a third between identical runs.  The benchmark therefore times a fixed
probe right before and right after each timed region: its time over the
probe's nominal time is the machine's slowness at that moment, and the region's
time divided by the mean slowness is its time at nominal speed.  Two probes:

- a loop of integer, dict and set work, for work done in this process;
- a bare interpreter start in a child process, for items that are child
  processes (in-process probes do not track process start-up).

The nominal times are the probes' fast-phase times on the recorded machine
(see README.md).  Both sides of a comparison run on one machine, so they only
set the unit.
"""
from __future__ import annotations

import statistics
import subprocess
import sys
from time import perf_counter

LOOP_NOMINAL_S = 26e-6
CHILD_NOMINAL_S = 67e-3


def _probe_work() -> int:
    """A fixed mix of the interpreter work the program does: ints, dicts, sets."""
    seen = {}
    masks = set()
    x = 0x5A5A
    for i in range(120):
        x = (x * 1103515245 + 12345) & 0xFFFF
        seen[x & 0xFF] = i
        if x & 3:
            masks.add(x >> 4)
    return len(seen) + len(masks)


def _loop_s() -> float:
    start = perf_counter()
    _probe_work()
    return perf_counter() - start


def loop_slowness(count: int = 3) -> float:
    """Median of ``count`` probe loops over their nominal time.

    The median of three skips the first loop after a long item or a wait,
    which runs cold.
    """
    return statistics.median(_loop_s() for _ in range(count)) / LOOP_NOMINAL_S


def child_slowness(cwd, env) -> float:
    """A bare interpreter start over its nominal time, one child, waited for."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], capture_output=True, cwd=cwd, env=env,
                   check=True, timeout=60)
    return (perf_counter() - start) / CHILD_NOMINAL_S
