"""Host-speed reference that the benchmark scales its timings by.

The benchmark host is shared.  On a 2-vCPU Intel Xeon VM, the same op
took anywhere from 0.55 s to 1.1 s within a few minutes, with no steal
time reported, so medians over a 20 s run still differed by 25-30%
between runs.  Pure-Python work and small-array numpy work slowed far
more than large int64 products.  Each op is therefore bracketed by a
fixed kernel of the kind of work that dominates it.  The op's time is
scaled by the kernel's reference time over its measured time, which
cancels the host's slowdown and keeps the program's own speed.  The kernels use only the
standard library and numpy, never pdmm, so no change to pdmm can move
them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np


def _python_loop(_) -> int:
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return total


def _eliminate(mats, p: int = 37) -> None:
    """Gauss-Jordan on many tiny matrices with small numpy operations."""
    for mat in mats:
        a = mat.copy()
        rank = 0
        for col in range(a.shape[1]):
            nz = np.nonzero(a[rank:, col])[0]
            if nz.size == 0:
                continue
            piv = rank + int(nz[0])
            a[[rank, piv]] = a[[piv, rank]]
            a[rank] = a[rank] * pow(int(a[rank, col]), -1, p) % p
            hits = np.nonzero(a[:, col])[0]
            hits = hits[hits != rank]
            a[hits] = (a[hits] - np.outer(a[hits, col], a[rank])) % p
            rank += 1
            if rank == a.shape[0]:
                break


def _product(operands) -> None:
    a, b = operands
    (a @ b) % 11


class HostSpeed:
    """Times one reference kernel: ``python`` (an interpreter loop),
    ``elimination`` (Gauss-Jordan mod 37 on 3x32 matrices, the shape of
    the privacy audit's work) or ``product`` (an int64 matrix product
    mod 11, the path ``gf.matmul`` takes).
    """

    # Kernel time at reference speed: its 5th percentile over 20 s in a
    # quiet spell on a 2-vCPU Intel Xeon VM (Python 3.11.7, numpy 2.4.6).
    REFERENCE_S = {"python": 0.0062, "elimination": 0.0067, "product": 0.0045}

    def __init__(self, kind: str):
        self.reference = self.REFERENCE_S[kind]
        rng = np.random.default_rng(0)
        self._kernel, self._data = {
            "python": (_python_loop, None),
            "elimination": (_eliminate, rng.integers(0, 37, size=(150, 3, 32))),
            "product": (_product, (rng.integers(0, 11, size=(128, 256)),
                                   rng.integers(0, 11, size=(256, 128)))),
        }[kind]

    def sample(self) -> float:
        """Seconds one kernel run takes now."""
        start = time.perf_counter()
        self._kernel(self._data)
        return time.perf_counter() - start

    def scale(self, samples) -> float:
        """Factor turning a time measured next to ``samples`` into reference time."""
        return self.reference / statistics.mean(samples)
