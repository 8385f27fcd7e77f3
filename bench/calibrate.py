"""Host speed: a fixed kernel timed next to every measured process.

The benchmark shares its host with other tenants, whose load slows every
process on it by up to 1.5x for minutes at a time, which no number of samples
in one run can average out. The kernel below uses only the standard library
and numpy: CSV parsing into floats, Python integer arithmetic, and an
elementwise numpy power, the mix synthaudit spends its time in. Its duration
tracks the host's current speed and nothing of synthaudit. The kernel runs
before each measured process and once after the last, and each process's wall
time times NOMINAL_S over the mean of the kernel times around it is the time
it would take on a host where the kernel takes NOMINAL_S.
"""

from __future__ import annotations

import csv
import io
import time

import numpy as np

NOMINAL_S = 0.04  # the kernel's time on an unloaded 2 GHz Xeon core


class Calibration:
    """Kernel times of one phase: one before each measured process, one after the last."""

    def __init__(self) -> None:
        self._text = "\n".join(
            ",".join(str((i * 7919 + j * 104_729) % 100_000) for j in range(12)) for i in range(4_000)
        )
        self._array = np.linspace(0.0, 3.0, 400_000)
        self.samples: list[float] = []

    def sample(self) -> float:
        begin = time.perf_counter()
        [[float(cell) for cell in row] for row in csv.reader(io.StringIO(self._text))]
        total = 0
        for k in range(150_000):
            total += k * k
        for _ in range(3):
            np.power(2.0, -(self._array * self._array))
        seconds = time.perf_counter() - begin
        self.samples.append(seconds)
        return seconds

    def scale(self, seconds: list[float]) -> list[float]:
        """The phase's wall times, in order, at nominal host speed."""
        if len(self.samples) != len(seconds) + 1:
            raise ValueError(f"{len(seconds)} processes need {len(seconds) + 1} kernel samples, got {len(self.samples)}")
        return [
            wall * NOMINAL_S / ((before + after) / 2)
            for wall, before, after in zip(seconds, self.samples, self.samples[1:])
        ]
