"""Machine-speed calibration for the levelpers benchmark.

On a shared machine the speed of one core drifts by up to two times
within minutes while CPU time keeps tracking wall time, so the drift is
in the machine, not in scheduling, and it does not hit all code alike:
interpreted Python slows the most, scans of large arrays the least.  The
benchmark therefore times a fixed calibration kernel between jobs, in the
same process, and scales each job's time by ``reference / median(kernel
time)`` over the samples nearest to the job in time: times are given in
seconds at a fixed reference speed.  Each workload uses the kernel whose
work is most like its own.  The kernels never call levelpers, so a
change to the program cannot move them.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

import numpy as np

_MATRIX = np.random.default_rng(12345).integers(0, 2, (24, 24)).astype(np.uint8)


def interp_kernel() -> None:
    """Interpreted work over tuples and dicts, and small uint8 eliminations:
    the mix of the band route (slabs, gf2 echelon on small matrices)."""
    table: dict = {}
    for i in range(12000):
        key = (i % 97, i % 13, i)
        table[key] = table.get(key[:2], 0) + 1
    sorted(table, key=lambda k: (k[1], k[0]))
    for _ in range(60):
        m = _MATRIX.copy()
        row = 0
        for col in range(m.shape[1]):
            hits = np.flatnonzero(m[row:, col])
            if hits.size == 0:
                continue
            p = row + int(hits[0])
            if p != row:
                m[[row, p]] = m[[p, row]]
            below = row + 1 + np.flatnonzero(m[row + 1:, col])
            if below.size:
                m[below] ^= m[row]
            row += 1
            if row == m.shape[0]:
                break


def _grid_lower_star(k: int):
    values = [(i * 7919) % (k * k) for i in range(k * k)]
    simplices = set()
    for r in range(k - 1):
        for c in range(k - 1):
            a, b, d, e = r * k + c, r * k + c + 1, (r + 1) * k + c, (r + 1) * k + c + 1
            for x, y in ((a, b), (a, d)):
                simplices.update([(x,), (y,), (x, y), (x, e), (y, e), (x, y, e), (e,)])
    return values, simplices


def reduce_kernel(k: int = 30) -> None:
    """A lower-star column reduction of a k x k grid written out plainly:
    tuple sorting, a dense boundary matrix, column scans and big-integer
    column additions, the mix of the sub-level route."""
    values, simplices = _grid_lower_star(k)
    order = sorted(simplices, key=lambda s: (max(values[v] for v in s), len(s), s))
    index = {s: i for i, s in enumerate(order)}
    n = len(order)
    data = np.zeros((n, n), dtype=np.uint8)
    for j, s in enumerate(order):
        if len(s) > 1:
            for i in range(len(s)):
                data[index[s[:i] + s[i + 1:]], j] = 1
    owner: dict = {}
    reduced = [0] * n
    for j in range(n):
        bits = 0
        for r in np.flatnonzero(data[:, j]):
            bits |= 1 << int(r)
        while bits:
            low = bits.bit_length() - 1
            if low not in owner:
                owner[low] = j
                break
            bits ^= reduced[owner[low]]
        reduced[j] = bits


# kernel -> (function, median seconds at the reference speed, seconds between samples).
# The reference times are those of a 2-CPU x86-64 container (Python 3.11,
# numpy 2.4) in its faster state; only ratios matter.
KERNELS = {
    "interp": (interp_kernel, 0.0280, 0.25),
    "reduce": (reduce_kernel, 0.300, 3.0),
}


def kernel_seconds(kernel: str = "interp") -> float:
    """Time of one run of a calibration kernel, with the cyclic garbage
    collector held off so that the benchmark's own heap cannot slow it."""
    fn = KERNELS[kernel][0]
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Kernel samples taken between jobs, spaced by the kernel's interval."""

    def __init__(self, kernel: str = "interp") -> None:
        self.kernel = kernel
        self.reference, self.every = KERNELS[kernel][1:]
        self.times: list[float] = []
        self.samples: list[float] = []

    def maybe_sample(self) -> None:
        now = time.perf_counter()
        if not self.times or now - self.times[-1] >= self.every:
            self.times.append(now)
            self.samples.append(kernel_seconds(self.kernel))

    def scale(self, at: float | None = None, nearest: int = 5) -> float:
        """Factor that turns measured seconds into reference seconds.

        With ``at`` (a perf_counter time) it comes from the ``nearest``
        samples closest to that time, which follows the drift within a
        run; without, from all samples.
        """
        chosen = self.samples
        if at is not None and len(chosen) > nearest:
            k = bisect.bisect_left(self.times, at)
            lo = max(0, min(k - nearest // 2, len(chosen) - nearest))
            chosen = chosen[lo:lo + nearest]
        return self.reference / statistics.median(chosen)
