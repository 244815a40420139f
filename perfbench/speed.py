"""The machine-speed probe that the timed loop runs between operations.

The benchmark was defined on two vCPUs of a shared host whose speed swings
by up to 1.7x over seconds to minutes, as other tenants come and go.  A
metric taken straight from the clock moves with it, run to run, by more
than any regression bound.  So the timed loop runs a fixed piece of pure
Python, independent of braidcode, about every ``EVERY_S`` seconds, and
each operation's times are scaled to the speed at which that piece takes
``REF_S``: an operation is multiplied by ``REF_S`` over the mean of the
probes just before and just after it.  A change to the program moves the
scaled times; a change in the machine's speed moves the probe as well and
cancels out.  Raw clock times are reported next to the scaled ones.
"""

from __future__ import annotations

import time

EVERY_S = 0.1  # probe after the first operation that ends this long after the last probe
# The piece's time on an idle host (Intel Xeon vCPU, CPython 3.11): the
# speed scaled times refer to.  A constant, so that runs at different
# times and of different commits are comparable.
REF_S = 0.00076


def _piece() -> int:
    counts: dict[int, int] = {}
    for i in range(6000):
        k = i % 997
        counts[k] = counts.get(k, 0) + i * 3
    return len(sorted(str(v) for v in counts.values()))


def probe() -> float:
    """Seconds the piece takes now: the fastest of three runs, about 0.8 ms each."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _piece()
        best = min(best, time.perf_counter() - t0)
    return best


def factor(before: float, after: float) -> float:
    """Scale of an operation between two probes, to the reference speed."""
    return REF_S / ((before + after) / 2)
