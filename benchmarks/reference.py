"""Machine-speed reference: a fixed computation timed beside every measured call.

The shared 2-vCPU machine this benchmark was defined on drifts in speed by
up to ~50% over tens of seconds as other tenants load the host; medians of
raw wall times differed by 20-60% (quartile distance over median) between
runs of one workload.  So each measured wall time t is reported as
``t * NOMINAL_S / r``, where r is the mean wall time of this reference
just before and just after the call: seconds at the machine speed where the
reference takes NOMINAL_S.  The reference runs no bellsim code, so a change
to the program moves the scaled time exactly as it moves the wall time.

Contention slows some kinds of work more than others, so the reference is
made of small copies of the loops the calls spend their time in: CSV rows
formatted from numpy int8 pairs, floats formatted with repr, CSV text parsed
by numpy, hashed seeds for fresh generators, and categorical draws on small
and on large arrays.
"""

from __future__ import annotations

import gc
import hashlib
import io
import time

import numpy as np

NOMINAL_S = 0.014  # the reference's median on that machine while the host was quiet

_PAIRS = np.where(np.random.default_rng(1).random((3000, 2)) < 0.5, 1, -1).astype(np.int8)
_READINGS = np.random.default_rng(2).standard_normal((600, 4))
_EDGES = np.cumsum(np.full(4, 0.25))


def reference_s() -> float:
    """Wall time of the reference computation, with the cyclic GC paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        text = "\n".join(f"{k},1,2,{a},{b}" for k, (a, b) in enumerate(_PAIRS))
        np.loadtxt(io.StringIO(text), delimiter=",", dtype=np.int64, ndmin=2)
        for k in range(len(_READINGS)):
            r = [float(v) for v in _READINGS[k]]
            f"{k},{r[0]!r},{r[1]!r},{r[2]!r},{r[3]!r}"
        for k in range(80):
            seed = int.from_bytes(hashlib.sha256(f"int:{k}".encode()).digest()[:8], "little")
            rng = np.random.default_rng(seed)
            np.searchsorted(_EDGES, rng.random(1000), side="right")
        draws = np.searchsorted(_EDGES, np.random.default_rng(3).random(60_000), side="right")
        outcomes = np.where(draws < 2, 1, -1).astype(np.int8)
        bool((np.abs(outcomes) == 1).all())
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(before_s: float, after_s: float) -> float:
    """Factor that turns a wall time measured between two references into nominal seconds."""
    return NOMINAL_S / ((before_s + after_s) / 2.0)
