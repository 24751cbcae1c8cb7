"""Host-speed reference: a fixed computation timed between the units.

The host this benchmark was built on drifts between fast and slow states
1.6x to 2x apart, on scales from seconds to minutes, and the drift moves the
library and any other CPU-bound Python alike.  The benchmark therefore times
a fixed slice of work that does not touch vblast, before and after each
short block of units (and each set-up probe), and scales the wall time
measured in between by ``NOMINAL_S / slice time``: the reported times are
what the host would give when the slice takes ``NOMINAL_S``.  A change to
the library moves them as it moves wall time, while the host's drift
cancels.  The slice mixes a Python loop with small complex numpy calls, the
profile of a detector's SIC loop, so that both slow down together.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

import numpy as np

# slice time on the development host (2 vCPUs, Python 3.11, numpy 2.4)
NOMINAL_S = 0.010
_N = 16
_REPS = 72

_rng = np.random.default_rng(20230217)
_G = _rng.standard_normal((_N, _N)) + 1j * _rng.standard_normal((_N, _N))
_A = _G @ _G.conj().T + _N * np.eye(_N)
_V = _rng.standard_normal(_N) + 1j * _rng.standard_normal(_N)


def _slice() -> float:
    acc = 0.0
    for _ in range(_REPS):
        b = _A.copy()
        for k in range(_N):
            x = b[:, k] / b[k, k]
            b -= 1e-3 * np.outer(x, x.conj())
            acc += float(np.vdot(_V, x).real)
            acc += sum(i * i % 7 for i in range(40))
    return acc


def time_slice() -> float:
    """Seconds one reference slice takes now."""
    t0 = perf_counter()
    _slice()
    return perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor from wall time to reference-speed time, for work timed
    between two slices."""
    return NOMINAL_S / ((before + after) / 2.0)


def host_speed(slices) -> float:
    """The host's speed relative to nominal over a run (above 1: faster)."""
    return NOMINAL_S / median(slices)
