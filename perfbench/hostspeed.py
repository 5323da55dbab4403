"""The speed of the host at the moment, from a fixed block of reference work.

On a shared host the same code can run 1.5x slower for minutes at a time,
because other tenants share the cores and caches.  The benchmark times a
fixed block of work like the workload's own between its operations, and
scales each stretch of work between two samples by the mean block time on
either side of it.  Such a ratio stays put while the host's speed moves,
and is quoted in seconds of a host on which the block takes its
``REF_S``.  No block calls perinet code, so a change to perinet cannot
move one.

Two blocks, because the host's drift slows the two kinds of work by
different amounts: on a 2-vCPU host, scaling ``recover``'s wide batches by
the small block widened their spread over five seeds from 0.04 raw to
0.28, while the wide block kept it at 0.11 to 0.16 in three sets.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

SAMPLE_S = 1.0          # work between two samples; a longer stretch gets more blocks
MAX_BLOCKS = 10


class SmallBlock:
    """Interpreter loops and 6x6 numpy calls, like most of perinet's API."""

    REF_S = 0.010       # the block's time on the host the scaled figures are quoted for

    def __init__(self):
        self._a = np.random.default_rng(0).normal(size=(6, 6)) + 6.0 * np.eye(6)
        self._b = np.arange(200)[::-1].copy()

    def __call__(self) -> None:
        a, b = self._a, self._b
        for _ in range(150):
            s = 0
            for i in range(300):
                s += i * i
            for _ in range(10):
                np.linalg.solve(a, a[0])
            np.sort(b)


class WideBlock:
    """Batched 3x3 numpy over 65,536 rows, like the optimizer's wide batches."""

    REF_S = 0.035

    def __init__(self):
        rng = np.random.default_rng(0)
        self._B = rng.normal(size=(1 << 16, 3, 3))
        self._S = rng.normal(size=(3, 6))
        self._X = rng.normal(size=(1 << 16, 2, 3))
        self._tails = np.array([0, 0, 0, 1, 1, 1])
        self._heads = 1 - self._tails

    def __call__(self) -> None:
        vec = (self._B @ self._S).transpose(0, 2, 1) \
            + self._X[:, self._heads] - self._X[:, self._tails]
        np.sqrt(np.einsum("aei,aei->ae", vec, vec))
        np.linalg.det(self._B)


class HostSpeed:
    """Samples a reference block and scales the stretches of work between samples."""

    def __init__(self, block):
        self._block = block
        self.samples: list[float] = []              # block times
        self._mark = (perf_counter(), block.REF_S)  # end of the latest sample, its time

    def _time_block(self) -> float:
        start = perf_counter()
        self._block()
        return perf_counter() - start

    def sample(self, blocks: int = 1) -> float:
        """The median time of ``blocks`` runs of the block, in seconds."""
        took = statistics.median(self._time_block() for _ in range(blocks))
        self.samples.append(took)
        self._mark = (perf_counter(), took)
        return took

    def scale(self, seconds: float, before: float, after: float) -> float:
        """``seconds`` of work in seconds of the reference host, given the
        block times sampled before and after it."""
        return seconds * 2.0 * self._block.REF_S / (before + after)

    def due(self) -> bool:
        """Whether ``SAMPLE_S`` has passed since the latest sample."""
        return perf_counter() - self._mark[0] >= SAMPLE_S

    def segment(self) -> tuple[float, float]:
        """Close the stretch since the latest sample with a new sample.

        Returns the stretch's length in seconds and in seconds of the
        reference host.
        """
        end = perf_counter()
        start, before = self._mark
        seconds = end - start
        after = self.sample(min(MAX_BLOCKS, max(1, round(seconds / SAMPLE_S))))
        return seconds, self.scale(seconds, before, after)
