"""Times in reference seconds: measured seconds rescaled to one CPU speed.

The speed a thread gets on a shared virtual machine changes in steps that
last from seconds to minutes.  On a 2-vCPU sandbox, identical passes of the
exact workload took either about 0.9 s or about 1.25 s, in phases of 20 to
30 s; process CPU time tracked wall time, and no steal time was reported.
A median of raw pass times then flips between the two levels from run to
run (ten runs spread by 26% of their median, between quartiles).

So right next to each timed section the benchmark runs `probe`, a fixed
mix of interpreter work (integer loop, dict updates, a list-based BFS) and
a small numpy kernel that uses no hypactions code, and rescales the section
by REFERENCE_S / (probe time now).  A program that gets faster or slower
changes its time in reference seconds in the same proportion as in raw
seconds; the machine's speed steps are divided out, to the extent that the
probe slows down as the program does.  Raw times are recorded alongside.
"""

import time

REFERENCE_S = 0.010  # the probe's time at the reference speed

_NODES = 3000
_ADJ = [[(i * 7 + k * 13) % _NODES for k in range(4)] for i in range(_NODES)]


def probe():
    """Seconds the fixed probe takes now."""
    import numpy as np

    matrix = (np.arange(1600, dtype=np.float64).reshape(40, 40) * 7) % 9
    started = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    table = {}
    for i in range(15_000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i
    for source in (0, 1):
        dist = [None] * _NODES
        dist[source] = 0
        frontier, d = [source], 0
        while frontier:
            d += 1
            nxt = []
            for u in frontier:
                for v in _ADJ[u]:
                    if dist[v] is None:
                        dist[v] = d
                        nxt.append(v)
            frontier = nxt
    for col in range(6):
        c = matrix[:, col]
        gromov = (c[:, None] + c[None, :] - matrix) / 2.0
        total += float((np.minimum(gromov[:, :, None], gromov[None, :, :]) - gromov[:, None, :]).max())
    return time.perf_counter() - started


def rescale(seconds, probe_seconds):
    """Measured seconds in reference seconds, given the probe time beside them."""
    return seconds * REFERENCE_S / probe_seconds
