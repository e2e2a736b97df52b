"""Untraced pass timing, optionally scaled to a reference host speed.

The speed of a shared host drifts by a quarter or more, in stretches of 5
seconds to a minute, longer than a pass and sometimes longer than a run.  No
statistic over one run's passes removes that.  So, when calibrating, every
few tenths of a second, at a boundary between segments of the workload, the
driving thread runs a short calibration burst: fixed Python and numpy work
that belongs to neither the program nor the workload.  Segments are the
jobs, and inside a job the calls of a split function made on the driving
thread (the optimizer's objective) and the stretches between them.  The
seconds between two bursts are scaled by ``REFERENCE_BURST_S`` over the mean
of the two bursts, so a pass reads what it would take at the speed where a
burst takes ``REFERENCE_BURST_S``.  Wall seconds are scaled by the bursts'
wall seconds and CPU seconds by their CPU seconds, since time the host takes
the core away inflates the first and not the second.  Burst time is left
out of the pass.  The raw seconds are kept beside the scaled ones.

Bursts follow the host only where they come often; between jobs that run
for seconds on a thread pool they sample it too seldom and add noise, so a
workload made of such jobs is timed without calibrating.
"""

from __future__ import annotations

import threading
import time

import numpy as np

# Seconds one burst takes at the reference speed: about its median on a
# 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4).  A scaled time is in seconds
# at that speed.  Changing it rescales every scaled time.
REFERENCE_BURST_S = 3.7e-3
# Bursts are run at the first segment boundary after this much pass time.
BURST_EVERY_S = 0.2
_BURST_ARRAY = np.linspace(0.0, 1.0, 2048)


def calibration_burst() -> tuple[float, float]:
    """Wall and thread CPU seconds of a fixed piece of interpreter and numpy work."""
    t0 = time.perf_counter()
    c0 = time.thread_time()
    acc = 0
    for i in range(40_000):
        acc += i * i
    for _ in range(100):
        (np.exp(_BURST_ARRAY) * _BURST_ARRAY).sum()
    return time.perf_counter() - t0, time.thread_time() - c0


class Laps:
    """Raw and scaled wall and CPU seconds of each pass.

    Without calibrating, no bursts run and the scaled seconds are the raw ones.
    """

    def __init__(self, calibrate: bool):
        self.calibrate = calibrate
        self.raw: list[tuple[float, float]] = []
        self.scaled: list[tuple[float, float]] = []
        self.bursts: list[tuple[float, float]] = []
        self._owner = threading.get_ident()
        self._open = False
        self._depth = 0
        self._restore: list[tuple[object, str, object]] = []

    def _reset(self) -> None:
        self._mark = (time.perf_counter(), time.process_time())
        self._since = (0.0, 0.0)

    def _burst(self) -> tuple[float, float]:
        if not self.calibrate:
            return REFERENCE_BURST_S, REFERENCE_BURST_S
        burst = calibration_burst()
        self.bursts.append(burst)
        return burst

    def start(self) -> None:
        self._open = True
        self._pass_raw = [0.0, 0.0]
        self._pass_scaled = [0.0, 0.0]
        self._last_burst = self._burst()
        self._reset()

    def lap(self) -> None:
        """End a segment; run a burst if enough pass time has gone since the last."""
        if not self._open or threading.get_ident() != self._owner:
            return
        now = (time.perf_counter(), time.process_time())
        self._since = (self._since[0] + now[0] - self._mark[0],
                       self._since[1] + now[1] - self._mark[1])
        self._mark = now
        if self._since[0] >= BURST_EVERY_S:
            self._settle()

    def _settle(self) -> None:
        """Scale the time since the last burst by the speed around it."""
        burst = self._burst()
        for k in (0, 1):
            factor = REFERENCE_BURST_S / (0.5 * (self._last_burst[k] + burst[k]))
            self._pass_raw[k] += self._since[k]
            self._pass_scaled[k] += self._since[k] * factor
        self._last_burst = burst
        self._reset()

    def stop(self) -> tuple[float, float]:
        """End the pass; its raw wall and CPU seconds."""
        self.lap()
        if self._since != (0.0, 0.0):
            self._settle()
        self._open = False
        self.raw.append(tuple(self._pass_raw))
        self.scaled.append(tuple(self._pass_scaled))
        return self.raw[-1]

    def split_at(self, module, attr: str) -> None:
        """Open a segment around each outermost driving-thread call of ``module.attr``.

        A name that no longer exists is skipped: its jobs are then timed whole.
        """
        original = getattr(module, attr, None)
        if original is None:
            return

        def wrapper(*args, **kwargs):
            if self._depth or threading.get_ident() != self._owner:
                return original(*args, **kwargs)
            self.lap()
            self._depth += 1
            try:
                return original(*args, **kwargs)
            finally:
                self._depth -= 1
                self.lap()

        setattr(module, attr, wrapper)
        self._restore.append((module, attr, original))

    def close(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()
