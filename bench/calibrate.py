"""Host-speed calibration for the benchmark's timings.

The shared 2-core hosts this benchmark runs on change speed by 20-40 % over
seconds to minutes, which moves the timings of a run together.  A fixed
kernel (pure Python arithmetic plus a small numpy complex pairwise kernel,
the two kinds of work the CLI does) is timed between ops and set-up
samples.  Each timing is then multiplied by REFERENCE_S / (median of the
kernel samples nearest to it), which reports it as seconds on a host
running at the reference speed.
"""
from __future__ import annotations

import math
import time

import numpy as np

# Median kernel time on the reference host: a 2-core x86-64 sandbox with
# Python 3.11 and numpy 2.4.
REFERENCE_S = 0.0026

# Kernel runs per sample (the fastest counts), and kernel samples per scale.
REPS = 3
NEAREST = 5

_Z = 0.5 * np.exp(1j * np.linspace(0.0, 6.0, 200))


def _kernel() -> float:
    s = 0.0
    for i in range(25000):
        s += (i * 0.5) % 7.0
    # In blocks of rows, whose temporaries stay small, so that the kernel
    # does not raise the worker's peak RSS.
    for r in range(0, _Z.size, 25):
        z = _Z[r : r + 25, None]
        s += float(np.abs((z - _Z[None, :]) / (1.0 - np.conj(_Z)[None, :] * z)).sum())
    return s


def sample() -> float:
    """Seconds for one kernel run, the fastest of REPS runs."""
    best = math.inf
    for _ in range(REPS):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def scales(sample_at: list, samples: list, at: list) -> list:
    """For each time in `at`, REFERENCE_S over the median of the NEAREST
    kernel samples taken closest to it (`sample_at` holds their times)."""
    out = []
    for t in at:
        near = sorted(range(len(samples)), key=lambda i: abs(sample_at[i] - t))[:NEAREST]
        out.append(REFERENCE_S / float(np.median([samples[i] for i in near])))
    return out
