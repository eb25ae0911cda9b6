"""A fixed reference kernel that measures how fast the machine runs now.

On a shared host the speed of the same code drifts by about a fifth
between half-minute windows, and every operation of a run drifts
together. The kernel does the same fixed work every time, in the two
kinds degmatch spends its time on: an interpreted integer loop and a
random numpy gather over an array larger than the CPU caches. It shares
no code with degmatch and allocates nothing after its first pass: the
gather writes into a buffer made once. It still runs in the benchmark's
process, right after degmatch's own calls, so it shares the caches and
the heap with what they leave behind; a program change can therefore
move it a little, and each run keeps the kernel's times next to the raw
operation times. A run divides each operation's time by the kernel's
median over the passes around it to cancel the drift (README.md,
"Speed reference").
"""

import time

import numpy as np

#: Median kernel time on the machine the README's reference figures come
#: from; times scaled to it read as seconds on that machine.
NOMINAL_S = 0.08


class ReferenceKernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._values = np.arange(1 << 21, dtype=np.int64)  # 16 MiB
        self._index = rng.integers(0, self._values.size, 1 << 20)
        self._gathered = np.empty(self._index.size, dtype=np.int64)  # 8 MiB
        self()  # the first pass also faults in the gather's pages

    def __call__(self) -> float:
        """Seconds one pass of the fixed work takes."""
        t0 = time.perf_counter()
        total = 0
        for i in range(400_000):
            total += i * i % 7
        for _ in range(4):
            np.take(self._values, self._index, out=self._gathered)
            total += int(self._gathered.sum())
        return time.perf_counter() - t0
