"""Host-speed calibration for the benchmark's timings.

On a shared host the same work can take 15-70% longer for seconds to
minutes at a time, in CPU time as well as wall time.  The benchmark times a fixed
kernel -- 4x4 Hermitian eigensolves, small SVDs and float formatting, the
same kinds of work jcpairs does -- before and after every timed request and
set-up sample, and rescales each one's time to a host on which one kernel
round takes ``REFERENCE_S``:

    reported = measured * REFERENCE_S / median(kernel rounds around it)

The kernel is part of the benchmark, not of the program, so a change to the
program moves the reported time and a change in host speed does not.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.02
_ROUNDS_PER_CALL = 3

_rng = np.random.default_rng(0)
_MATS = [a @ a.conj().T for a in (_rng.standard_normal((8, 4, 4))
                                  + 1j * _rng.standard_normal((8, 4, 4)))]


def _round():
    start = time.perf_counter()
    acc = 0.0
    for k in range(450):
        w, v = np.linalg.eigh(_MATS[k % 8])
        acc += float(np.linalg.svd(v * w, compute_uv=False)[0])
        acc += len(",".join(f"{acc * j:.17g}" for j in range(8)))
    return time.perf_counter() - start


def calibrate():
    """Seconds of each of a few kernel rounds, run back to back."""
    return [_round() for _ in range(_ROUNDS_PER_CALL)]


def rescale_pass(request_s, rounds):
    """Seconds of each request of a pass at reference speed.

    ``rounds[i]`` holds the kernel rounds run just before request i, and
    ``rounds[-1]`` those after the last request.
    """
    return [t * REFERENCE_S / statistics.median(rounds[i] + rounds[i + 1])
            for i, t in enumerate(request_s)]
