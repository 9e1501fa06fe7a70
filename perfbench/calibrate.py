"""A fixed reference kernel, timed between the workload's operations.

The benchmark runs on a few virtual CPUs of a shared host, where the speed
of the same process drifts by 20 to 50% over tens of seconds to minutes as
other guests load the machine. The drift slows BLAS, array traffic and
interpreter overhead together, though not by exactly the same share. This
kernel does a fixed amount of each, with inputs that never change and no
sliceseg code, so its time measures the machine's current speed and
nothing about the program. The runner times a block of it after every
operation (and after every set-up) and scales the run's times to the speed
at which one repetition takes ``REFERENCE_REP_S``, by the share
``ELASTICITY`` of the kernel's change that the workloads follow; a change
to sliceseg moves the workload's times and leaves the kernel's alone.
"""
from __future__ import annotations

import gc
import statistics
import time

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Seconds one repetition is scaled to; about one repetition's time on a
# quiet 2-vCPU x86-64 virtual machine, so scaled times read close to wall
# times there.
REFERENCE_REP_S = 0.011
# Share of the kernel's change in speed that the workloads follow, as the
# slope of log wall time on log repetition time. Over sets of five to ten
# 25 s runs of each workload on a 2-vCPU virtual machine the slope was 0.55
# to 0.95 and the spread between runs was smallest near 0.7 on all three
# workloads: a slow spell seems to slow the kernel's cache-resident
# interpreter and array work more than the workloads' larger arrays.
ELASTICITY = 0.7
# Share of each operation's time spent on the kernel right after it.
BLOCK_SHARE = 0.1
# Seconds of the block after each set-up: there are only a few set-ups,
# so their blocks are longer than an operation's.
SETUP_BLOCK_S = 0.3
# Seconds of untimed repetitions before the first block.
WARMUP_S = 0.2


class Calibration:
    """Times blocks of the reference kernel."""

    def __init__(self):
        rng = np.random.default_rng(0)
        # A 3x3 convolution of three 32x32 maps, 16 to 16 channels, as
        # im2col and three matrix products (forward, both gradients).
        self.x = rng.standard_normal((3, 34, 34, 16))
        self.w = rng.standard_normal((144, 16))
        self.g = rng.standard_normal((3 * 32 * 32, 16))
        self.cols = np.empty((3, 32, 32, 16, 3, 3))
        self.y = np.empty((3 * 32 * 32, 16))
        self.gw = np.empty((144, 16))
        self.gcols = np.empty((3 * 32 * 32, 144))
        # Elementwise passes over 1.6 MB, as activations and optimiser
        # updates make. Every large array is allocated here, once, so the
        # kernel's time does not depend on the allocator state the
        # workload leaves behind.
        self.a = rng.standard_normal(200_000)
        self.b = np.empty_like(self.a)
        # Many calls on tiny arrays, as graph bookkeeping makes.
        self.small = np.ones(16)
        self.reset()

    def reset(self) -> None:
        self.blocks: list[float] = []

    def rep(self) -> float:
        np.copyto(self.cols, sliding_window_view(self.x, (3, 3), axis=(1, 2)))
        cols = self.cols.reshape(-1, 144)
        np.matmul(cols, self.w, out=self.y)
        np.matmul(cols.T, self.g, out=self.gw)
        np.matmul(self.g, self.w.T, out=self.gcols)
        total = float(self.y[0, 0] + self.gw[0, 0] + self.gcols[0, 0])
        for _ in range(7):
            np.multiply(self.a, 1.0001, out=self.b)
            np.add(self.b, self.a, out=self.b)
            np.maximum(self.b, 0.0, out=self.b)
        for _ in range(1000):
            total += float((self.small * 1.5).sum())
        return total

    def block(self, seconds: float) -> float:
        """Time whole repetitions for about ``seconds`` (at least one),
        after one untimed repetition that refills the caches the workload
        evicted, and keep the block's seconds per repetition. The garbage
        collector is off meanwhile, so that no collection of the
        workload's objects lands in the kernel's time. Returns the seconds
        the block took in all."""
        start = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            self.rep()
            reps = 0
            t0 = time.perf_counter()
            end = t0 + seconds
            while True:
                self.rep()
                reps += 1
                now = time.perf_counter()
                if now >= end:
                    break
        finally:
            if enabled:
                gc.enable()
        self.blocks.append((now - t0) / reps)
        return time.perf_counter() - start

    @property
    def rep_s(self) -> float:
        """Median over blocks of seconds per repetition. A block is short,
        so one descheduling of the process can slow it a lot; the median
        ignores such a block where a mean would not."""
        return statistics.median(self.blocks)

    @property
    def scale(self) -> float:
        """Factor that turns a time measured alongside these blocks into
        reference seconds: below 1 while the machine runs slower than the
        reference speed."""
        return (REFERENCE_REP_S / self.rep_s) ** ELASTICITY
