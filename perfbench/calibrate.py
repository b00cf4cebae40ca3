"""Calibration: fixed pure-Python work that measures the host's speed.

The host this benchmark was tuned on runs the same code at two speeds about
1.7x apart and switches between them several times a second; CPU time
tracks wall time, so raw times of identical code drift between runs by tens
of percent.  Every time the benchmark reports is therefore expressed in
units of a calibration kernel: a fixed piece of pure-Python work shaped like
the verifier's own (tuples, frozenset hashing, dict probes).  The kernel
imports nothing from the program, so no change to the program can move it.

The kernel is timed right before each request and, because the speed also
changes while one request runs, every :data:`SAMPLE_INTERVAL_S` of wall
time during it, from a ``SIGALRM`` handler — on the verifier's own thread,
between its bytecodes.  A request's time is scaled by the ratio of
:data:`NOMINAL_MS` to the mean of those kernel times, raised to
:data:`EXPONENT`: the result is the time the request takes on a host where
one kernel run takes the nominal time.
The kernel runs with the cyclic garbage collector paused, so its time does
not depend on the heap the verifier leaves behind
(``python3 perfbench/run.py --self-check`` shows it).
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

#: Calibrated times are times on a host where one kernel run takes this
#: many milliseconds.
NOMINAL_MS = 0.25

#: The kernel's time swings more between the host's two speeds than the
#: verifier's does (about 1.85x against 1.45x), so a request's time is
#: scaled by this power of the kernel's speed ratio.  Fitted on
#: ltl_registration (110 requests, medians of 12-request windows): the
#: windows spread 1.8% with 0.8, against 3.1% with 1.0 and 13% raw.
EXPONENT = 0.8

#: Wall time between two kernel samples while a request runs.
SAMPLE_INTERVAL_S = 0.02

_ROUNDS = 400


def _kernel(rounds: int = _ROUNDS) -> int:
    seen: dict = {}
    acc = 0
    for i in range(rounds):
        pair = (i % 61, i % 53)
        key = frozenset((pair, (i % 7,)))
        hit = seen.get(key)
        if hit is None:
            seen[key] = (pair, i)
        else:
            acc += hit[1] & 7
        acc += len(key)
    return acc


def kernel_ms() -> float:
    """One kernel run's time in ms, with the cyclic GC paused."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _kernel()
        return (time.perf_counter() - start) * 1e3
    finally:
        if was_enabled:
            gc.enable()


def calibrated(raw: float, kernel: float) -> float:
    """``raw`` (any time unit) on the nominal host, given the kernel's ms."""
    return raw * (NOMINAL_MS / kernel) ** EXPONENT


class Sampler:
    """Kernel times: one per :meth:`sample` call, and one every
    :data:`SAMPLE_INTERVAL_S` while the sampler is entered.

    Interval timers are not inherited across ``fork``, so pool workers and
    child interpreters never run the handler.
    """

    def __init__(self) -> None:
        self.times: list[float] = []
        self._previous = None

    def sample(self) -> None:
        self.times.append(kernel_ms())

    def _on_alarm(self, signum, frame) -> None:
        self.times.append(kernel_ms())

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(
            signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S
        )
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self) -> int:
        """A position to average from with :meth:`mean_since`."""
        return len(self.times)

    def mean_since(self, mark: int) -> float:
        """Mean kernel ms of the samples taken since ``mark``."""
        return statistics.fmean(self.times[mark:])
