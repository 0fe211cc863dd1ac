"""The reference work: a fixed computation that gauges the machine's speed.

The benchmark's host is shared, and the speed it gives one process drifts
by 20-50% over tens of seconds as other tenants' load comes and goes (a
pure-Python loop timed for minutes shows the same drift as the program).
Timed items alone would measure that drift as much as the program.  So
run.py runs this work once before every timed item, in its own process,
pinned to the same CPU as the worker and while the worker waits, and
scales each item's time by the reference times measured nearest it, to
the speed at which the reference work takes ``REFERENCE_S``.

The work is benchmark code and imports nothing from kordered, so no
change to the program alters it; it resembles the program's own inner
loops: set and dict layers over vertex bitsets, and a subset DP over a
list indexed by bitmask.
"""

from __future__ import annotations

import random
import statistics
import time

import checks

# seconds the reference work takes at reference speed: its median on the
# 2-vCPU machine the bounds were set on (Python 3.11)
REFERENCE_S = 0.0105
# reference times on each side of an item that scale it
REFERENCE_WINDOW = 10

_N = 12
_SEQ = [0, 3, 6, 9]
_DP_N = 13


def _graph(n: int, p: float, seed: int) -> list[int]:
    rng = random.Random(seed)
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return rows


_ROWS = _graph(_N, 0.6, 5)
_DP_ROWS = _graph(_DP_N, 0.5, 7)


def _path_ends(rows: list[int]) -> int:
    """Subset DP: for each vertex set holding vertex 0, the bitset of the
    vertices a path from 0 through exactly that set can end at."""
    n = len(rows)
    ends = [0] * (1 << n)
    ends[1] = 1
    for mask in range(1, 1 << n, 2):
        at = ends[mask]
        while at:
            low = at & -at
            step = rows[low.bit_length() - 1] & ~mask
            while step:
                nxt = step & -step
                ends[mask | nxt] |= nxt
                step ^= nxt
            at ^= low
    return ends[-1]


def reference_work() -> float:
    """Run the reference work once; return its wall time in seconds."""
    t0 = time.perf_counter()
    checks.has_s_cycle(_ROWS, _SEQ)
    _path_ends(_DP_ROWS)
    return time.perf_counter() - t0


def at_reference_speed(times: list[float], reference: list[float],
                       window: int = REFERENCE_WINDOW) -> list[float]:
    """Each time scaled to the reference speed.

    ``reference[i]`` is the reference work's time measured just before
    ``times[i]``; each time is scaled by the median of the reference times
    within ``window`` places of its own, so that a shift of the machine's
    speed during a run is matched where it happened.
    """
    return [t * REFERENCE_S / statistics.median(reference[max(0, i - window):i + window + 1])
            for i, t in enumerate(times)]
