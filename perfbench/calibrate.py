"""Host speed, measured with a fixed piece of pure-Python work.

The benchmark shares its host with other tenants, and the host's speed for
the same single-threaded Python code drifts by a third or more over tens of
seconds to minutes, and within a pass too.  To keep that drift out of the
timings, every pass runs one calibration chunk before each operation, and
each import probe runs a few chunks around the import.  A timing is then
reported at reference speed: multiplied by REF_CHUNK_S over the median time
of the chunks run next to it, so it reads as if those chunks had taken
REF_CHUNK_S.  An operation's neighbours are the chunks of the NEIGHBOURS
operations on either side of it and its own.  Of the schemes tried on a
2-vCPU host (no scaling, one scale per pass, neighbourhoods of 1 to 40
operations), this one gave the smallest run-to-run spreads overall.

The chunk does the kinds of work lagmono does (integer arithmetic with gcd
normalisation as in Fraction, dict lookups on tuple keys, list indexing and
small function calls) without touching lagmono.  It allocates no objects the
garbage collector tracks, so the program's heap cannot change its cost.
"""

from __future__ import annotations

import math
import statistics
import time

# About the median chunk time on a quiet 2-vCPU Intel Xeon host under Python
# 3.11.7 (2.1 to 2.4 ms were seen).  It only fixes the scale of the reported
# times; any constant would do.
REF_CHUNK_S = 0.002
NEIGHBOURS = 10

_ROWS = [[(7 * i + 3 * j) % 23 - 11 for j in range(6)] for i in range(6)]
_KEYS = [(i % 5, i % 7, i % 3) for i in range(105)]
_TABLE = {key: n * 37 + 11 for n, key in enumerate(_KEYS)}


def _reduce(num, den):
    g = math.gcd(num, den)
    return num // g, den // g


def chunk() -> int:
    """The fixed work; returns a checksum so that nothing is optimised away."""
    acc = 1
    rows, keys, table = _ROWS, _KEYS, _TABLE
    for rep in range(40):
        for i in range(6):
            row = rows[i]
            for j in range(6):
                s = 0
                for k in range(6):
                    s += row[k] * rows[k][j]
                num, den = _reduce(s * (rep + 1) + acc % 97, 6 * (i + 1) * (j + 1))
                acc = (acc * 31 + num + den + table[keys[(i * 6 + j + rep) % 105]]) % 1_000_003
    return acc


def time_chunk() -> float:
    start = time.perf_counter()
    chunk()
    return time.perf_counter() - start


def scale(chunk_seconds) -> float:
    """Factor that brings times measured beside these chunks to reference speed."""
    return REF_CHUNK_S / statistics.median(chunk_seconds)


def local_scales(chunk_seconds) -> list[float]:
    """Per operation of a pass, the scale of the chunks next to it."""
    n = len(chunk_seconds)
    return [scale(chunk_seconds[max(0, i - NEIGHBOURS):min(n, i + NEIGHBOURS + 1)]) for i in range(n)]
