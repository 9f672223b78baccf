"""A probe of the CPU's current speed, sampled through a pass.

On a shared host the same pure-Python code runs up to 1.8x slower in
phases that last from milliseconds to minutes, on every vCPU at once, so
a pass's wall time says as much about the host as about the program.
``SpeedProbe`` measures the host alongside the program: a timer signal
interrupts the process every ``INTERVAL_S`` and runs a fixed loop of
pure-Python integer and list work (``LOOPS`` iterations) in the
program's own thread, between two of its bytecodes.  The loop's time is
a sample of the current speed.

``Window.normalise`` turns a stretch of wall time into seconds at the
reference speed: the stretch minus the probe's own time in it, times
the mean speed around it, the speed of a sample being ``NOMINAL_S``
over its probe time.  ``Window.factor`` is the mean speed of the whole
window.  ``NOMINAL_S`` is the probe's time in a fast phase of a 2-vCPU
Intel Xeon host, so on that host a normalised time reads about as the
same pass would in a fast phase.  A program that does less work gets a
smaller normalised time in proportion; a slower host does not.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL_S = 0.02
LOOPS = 2000
NOMINAL_S = 170e-6


class SpeedProbe:
    def __init__(self) -> None:
        self.starts: list[float] = []
        self.costs: list[float] = []
        self._slots = [0] * 256

    def sample(self, *_) -> None:
        slots = self._slots
        began = time.perf_counter()
        s = 0
        for i in range(LOOPS):
            s += i * i % 7
            slots[i & 255] = s
        self.costs.append(time.perf_counter() - began)
        self.starts.append(began)

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def window(self, begin: float, end: float) -> "Window":
        return Window(self, begin, end)


class Window:
    """The probe's samples between two clock readings.

    The speed at a sample is ``NOMINAL_S`` over its probe time, and a
    stretch's speed is the mean over the samples of that stretch: every
    sample stands for the same share of time, so this mean weighs each
    moment alike, and one probe that a context switch stretched barely
    moves it.  A stretch of an operation takes the samples within
    ``LOCAL_S`` of it, so a short operation still has a dozen.
    """

    LOCAL_S = 0.12

    def __init__(self, probe: SpeedProbe, begin: float, end: float) -> None:
        lo = bisect.bisect_left(probe.starts, begin)
        hi = bisect.bisect_left(probe.starts, end)
        if lo == hi:
            raise ValueError("no speed samples in the window")
        self.starts = probe.starts[lo:hi]
        self.costs = [0.0]  # prefix sums of the probe time
        self.speeds = [0.0]  # prefix sums of the speed
        for cost in probe.costs[lo:hi]:
            self.costs.append(self.costs[-1] + cost)
            self.speeds.append(self.speeds[-1] + NOMINAL_S / cost)
        self.factor = self.speeds[-1] / len(self.starts)

    def _range(self, begin: float, end: float) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, begin), bisect.bisect_left(self.starts, end)

    def probe_s(self, begin: float, end: float) -> float:
        """The probe's own time spent between two clock readings."""
        lo, hi = self._range(begin, end)
        return self.costs[hi] - self.costs[lo]

    def program_s(self, begin: float, end: float) -> float:
        return end - begin - self.probe_s(begin, end)

    def normalise(self, begin: float, end: float) -> float:
        """Program time between two clock readings at the reference speed."""
        lo, hi = self._range(begin - self.LOCAL_S, end + self.LOCAL_S)
        speed = (self.speeds[hi] - self.speeds[lo]) / (hi - lo) if hi > lo else self.factor
        return self.program_s(begin, end) * speed
