"""Host-speed reference for the end-to-end timings.

On a shared 2-core guest the speed of one core changes by up to 1.6x for
stretches of 10-60 s, independently of the program: a run that falls in a
slow stretch reads 20-40 % slower than its neighbours. The benchmark times a
fixed reference kernel, which uses no acfdi code, between consecutive items
and scales each item's wall time by REFERENCE_S / (the mean of the kernel
times measured just before and just after it). The scaled time is the wall
time the item would take on a host on which the kernel takes REFERENCE_S;
a change to the program moves it exactly as it moves the wall time, while a
slow stretch of the host moves the kernel and the item together and cancels.
"""

from __future__ import annotations

import time

import numpy as np


class HostSpeed:
    """Reference kernel: interpreter loop, dict building, BLAS products and an
    LU solve on seeded data, about 20 ms on one core."""

    REFERENCE_S = 0.020  # about the kernel's time on the baseline host, one BLAS thread

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((300, 300))
        self.b = rng.standard_normal((300, 300))
        self.m = self.a + 300.0 * np.eye(300)
        self.samples: list[float] = []

    def kernel_seconds(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(40000):
            acc += i * i % 7
        table = {i: str(i) for i in range(5000)}
        for _ in range(3):
            self.a @ self.b
        np.linalg.solve(self.m, self.b)
        seconds = time.perf_counter() - t0
        del acc, table
        self.samples.append(seconds)
        return seconds

    def scale(self, before: float, after: float) -> float:
        """Factor that turns a wall time measured between two kernel runs
        into reference seconds."""
        return self.REFERENCE_S / (0.5 * (before + after))
