"""Host-speed correction of op times.

The benchmark's host shares its CPUs with other tenants, and its speed swings
by up to 2x over tens of seconds.  Every op is therefore followed (untimed)
by a fixed calibration snippet that uses nothing of ``hyperbft``.  An op's
corrected time is its wall time scaled by how long the snippet took around
that op, relative to the snippet's reference time:

    corrected = wall * reference_s / median(snippet times of nearby ops)

A change to the program moves the op's wall time and not the snippet's, so
it moves the corrected time by the same share.  Set-up time is scaled the
same way, by samples taken right after set-up.

Slow spells do not slow all code alike, so each workload uses the snippet
closest to the kind of work its ops do: ``BITS``, a small-integer bit loop
like the condition detector's, or ``OBJECTS``, dict, tuple and JSON work
like the simulator's and the harness's.  Snippets run with the garbage
collector off and free what they allocate, so they neither trigger nor
absorb the program's collections.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from dataclasses import dataclass
from typing import Callable

PASSES = 2                  # snippet passes after each op
HALF_WINDOW = 7             # ops on either side whose samples are pooled

_KEYS = [str(i) for i in range(64)]
_OUT_BITS = [0b101101, 0b011010, 0b110101, 0b001011, 0b111000, 0b010110]


def _objects() -> int:
    """A 64-entry dict of lists and tuples, a sort, a JSON dump and an
    integer loop."""
    d = {}
    for i, k in enumerate(_KEYS):
        d[k] = [i, i * 3, (i, k)]
    s = 0
    for k in sorted(d, reverse=True):
        s += d[k][1] % 7
    s += len(json.dumps(d, sort_keys=True))
    for i in range(300):
        s ^= (i * 2654435761) & 0xFFFF
    return s


def _bits() -> int:
    """Lowest-bit walks over every subset of 6 nodes, testing each node's
    neighbour mask."""
    full = 63
    n = 0
    for _ in range(2):
        for p in range(1, full + 1):
            t = p & ~3
            rest = full & ~p
            while rest:
                low = rest & -rest
                rest ^= low
                if _OUT_BITS[low.bit_length() - 1] & t:
                    n += 1
    return n


@dataclass(frozen=True)
class Snippet:
    run: Callable[[], int]
    reference_s: float      # one pass at the reference speed


OBJECTS = Snippet(_objects, 200e-6)
BITS = Snippet(_bits, 65e-6)


def sample(snippet: Snippet) -> float:
    """Seconds one snippet pass takes now (mean of PASSES passes)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(PASSES):
            snippet.run()
        t1 = time.perf_counter()
    finally:
        if enabled:
            gc.enable()
    return (t1 - t0) / PASSES


def scaled(seconds: float, samples: list[float], snippet: Snippet) -> float:
    """A wall time scaled to the reference speed, by samples taken with it."""
    return seconds * snippet.reference_s / statistics.median(samples)


def corrected(times: list[float], samples: list[float], snippet: Snippet) -> list[float]:
    """Each op's wall time scaled to the reference speed; ``samples[i]`` is
    the snippet time taken right after op ``i``."""
    return [
        scaled(t, samples[max(0, i - HALF_WINDOW): i + HALF_WINDOW + 1], snippet)
        for i, t in enumerate(times)
    ]
