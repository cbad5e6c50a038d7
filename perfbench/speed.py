"""Machine-speed sampling inside a timed CLI call.

The 2-core VM this benchmark was written on changes speed by up to 2x
over seconds to minutes as the host gets busier.  It reports no steal
time while this happens, and CPU time slows as much as wall time does.
Raw host seconds of one workload then spread by 14-40% from run to run,
which would drown any change worth measuring.

``SpeedSampler`` interrupts the timed call every INTERVAL_S seconds of
process CPU time (SIGPROF) and times one run of a fixed kernel, a Newton
iteration in miniature on 22 unknowns: stamps read and added one scalar
at a time into numpy arrays, the way the engine assembles, then an LU
solve written the way the engine's solver is, a Python loop over numpy
rows.  Either half alone tracked the call's speed less well than the two
together, because the engine spends its time in both kinds of code.
The samples are spread evenly over the call, so they see the speed the
call saw.  ``normalize`` removes the kernel's own time from the call's
wall time and scales the rest by the mean of KERNEL_REF_S / sample,
which gives seconds at a fixed kernel speed.  The kernel is this file's
own code, so it stays the same while the package changes.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

INTERVAL_S = 0.03
KERNEL_REF_S = 8e-4  # kernel time the normalized seconds are scaled to
STAMPS = 180


def _lu_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = a.copy()
    x = b.copy()
    n = a.shape[0]
    for k in range(n - 1):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if p != k:
            a[[k, p]] = a[[p, k]]
            x[[k, p]] = x[[p, k]]
        mult = a[k + 1:, k] / a[k, k]
        a[k + 1:, k + 1:] -= np.outer(mult, a[k, k + 1:])
        x[k + 1:] -= mult * x[k]
    for i in range(n - 1, -1, -1):
        x[i] = (x[i] - a[i, i + 1:] @ x[i + 1:]) / a[i, i]
    return x


def _stamp(a: np.ndarray, r: np.ndarray, x: np.ndarray,
           pairs: list[tuple[int, int]]) -> None:
    for ia, ib in pairs:
        va = x[ia] if ia >= 0 else 0.0
        vb = x[ib] if ib >= 0 else 0.0
        g = 1e-3 * (va - vb)
        if ia >= 0:
            a[ia, ia] += g
            r[ia] += g
        if ib >= 0:
            a[ib, ib] += g
            r[ib] -= g


class SpeedSampler:
    """Context manager that samples the kernel's time while it is open."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((22, 22)) + 22.0 * np.eye(22)
        self._b = rng.standard_normal(22)
        self._x = rng.standard_normal(22)
        # node -1 is ground, as in the engine's node numbering
        self._pairs = [(int(i), int(j))
                       for i, j in rng.integers(-1, 22, size=(STAMPS, 2))]
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        a, r = self._a.copy(), self._b.copy()
        _stamp(a, r, self._x, self._pairs)
        _lu_solve(a, r)
        self.samples.append(perf_counter() - t0)

    def __enter__(self) -> "SpeedSampler":
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def normalize(self, wall_s: float) -> float:
        """``wall_s`` minus the sampling time, at the reference kernel speed."""
        if not self.samples:
            return wall_s
        scale = sum(KERNEL_REF_S / s for s in self.samples) / len(self.samples)
        return (wall_s - sum(self.samples)) * scale
