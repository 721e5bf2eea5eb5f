"""Host-speed calibration: scale timings to a fixed reference speed.

On a shared host the speed of a core drifts with its neighbours' load. On
a 2-vCPU VM a fixed pure-Python loop read anywhere from 1.0x to 1.7x its
fastest time within one minute, with CPU time equal to wall time, so the
drift is not lost time that CPU time could leave out. The same drift moved
whole-run medians of the workloads by up to a third between runs minutes
apart.

A ``Timeline`` reads a short fixed pure-Python kernel every ``EVERY_S``
seconds from a ``SIGALRM`` handler, in the timed thread itself, so long
calls are read inside as well as at their ends. ``scaled(a, b)`` is the
time from ``a`` to ``b`` with the readings' own windows left out and each
stretch between two readings multiplied by ``REFERENCE_S`` over the mean
of those two readings. A scaled time reads "seconds on a host where the
kernel takes ``REFERENCE_S``". A change to the program moves it as it
moves wall time; a change of host speed moves the readings with it and
cancels out.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

KERNEL_LOOPS = 20_000  # arithmetic loop: the interpreter's speed
KERNEL_KEYS = 7_500  # str keys built and looked up: allocation and memory
REFERENCE_S = 0.005  # kernel time on the reference host; scaled times are relative to it
REPEATS = 3  # a reading is the median of this many kernel runs
EVERY_S = 0.1  # seconds between timer readings


def _kernel_once() -> float:
    start = time.perf_counter()
    acc = 0
    for i in range(KERNEL_LOOPS):
        acc += i * i % 7
    table = {}
    for i in range(KERNEL_KEYS):
        table[str(i)] = i
    for i in range(KERNEL_KEYS):
        acc += table[str(i)]
    return time.perf_counter() - start


def kernel_s() -> float:
    """One reading: the median time of the fixed kernel."""
    enabled = gc.isenabled()
    gc.disable()  # a collection of the program's garbage must not land in a reading
    try:
        return statistics.median(_kernel_once() for _ in range(REPEATS))
    finally:
        if enabled:
            gc.enable()


class Timeline:
    """Kernel readings over a stretch of work, and the scaled clock they give.

    ``start`` takes a reading and, with ``timer`` set, arms a periodic
    ``SIGALRM`` that takes one every ``EVERY_S`` seconds; ``read`` takes
    one on demand; ``stop`` disarms the timer and takes the closing reading.
    ``scaled`` and ``work`` need readings at or before the start and at or
    after the end of their interval. Use it as a context manager so that
    the timer is always disarmed.
    """

    def __init__(self, timer: bool = True):
        self.timer = timer
        self.begins: list = []  # start of each reading's window
        self.ends: list = []  # end of each reading's window
        self.values: list = []  # kernel time of each reading
        self._busy = False
        self._previous_handler = None

    def read(self) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            begin = time.perf_counter()
            value = kernel_s()
            self.begins.append(begin)
            self.values.append(value)
            self.ends.append(time.perf_counter())
        finally:
            self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        self.read()

    def start(self) -> "Timeline":
        self.read()
        if self.timer:
            self._previous_handler = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.siginterrupt(signal.SIGALRM, False)  # restart interrupted system calls
            signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def stop(self) -> None:
        if self.timer:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._previous_handler or signal.SIG_DFL)
            self.timer = False
        self.read()

    __enter__ = start

    def __exit__(self, *exc) -> None:
        self.stop()

    def _integrate(self, a: float, b: float, scaled: bool) -> float:
        if not self.ends or a < self.begins[0] or b > self.ends[-1]:
            raise ValueError("interval is not bracketed by readings")
        total = 0.0
        # stretch i runs from the end of reading i to the start of reading i+1
        i = max(0, bisect.bisect_right(self.ends, a) - 1)
        while i + 1 < len(self.begins) and self.ends[i] < b:
            lo, hi = max(a, self.ends[i]), min(b, self.begins[i + 1])
            if hi > lo:
                factor = 1.0
                if scaled:
                    factor = 2.0 * REFERENCE_S / (self.values[i] + self.values[i + 1])
                total += (hi - lo) * factor
            i += 1
        return total

    def scaled(self, a: float, b: float) -> float:
        """Seconds from ``a`` to ``b`` at the reference speed, readings left out."""
        return self._integrate(a, b, scaled=True)

    def work(self, a: float, b: float) -> float:
        """Unscaled seconds from ``a`` to ``b``, readings left out."""
        return self._integrate(a, b, scaled=False)
