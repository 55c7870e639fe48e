"""Machine-speed calibration for the benchmark's timed passes.

On a shared virtual machine the whole host can run slower for seconds to
minutes at a time, by 1.4 to 2 times, as neighbours contend for cores,
caches and memory.  Raw wall time then mostly measures the neighbours.
The benchmark therefore times a small fixed kernel, which uses no
infoplay code, every ``INTERVAL_S`` seconds during a pass, from a timer
signal that interrupts the pass between bytecodes.  Each stretch of the
pass between two samples is scaled by ``REFERENCE_S`` over the kernel's
time around it, which gives the pass's time at the reference speed.  The
samples' own time is left out of the pass.

The kernel mixes the kinds of work infoplay does: an interpreter loop,
dict and set traffic on tuple keys, and small numpy element-wise
operations.  It allocates no large arrays, so it adds only a few MiB to
the process's peak RSS.
"""

from __future__ import annotations

import signal
import time

import numpy as np

_clock = time.perf_counter

# About the kernel's fastest time on a 2-vCPU Intel Xeon virtual machine
# (Python 3.11.7, numpy 2.4.6), so that a scaled time reads about as the
# wall time there when the host is quiet.
REFERENCE_S = 0.0125
INTERVAL_S = 0.5

_KEYS = [(i % 3, i // 3, i & 7, i ^ 5) for i in range(20_000)]
_ARRAY = np.arange(4096, dtype=float)


def kernel() -> float:
    """Seconds taken by one run of the fixed calibration work."""
    start = _clock()
    x = 0.0
    for i in range(60_000):
        x = x * 0.5 + i
    seen, counts = set(), {}
    for key in _KEYS:
        seen.add(key)
        counts[key] = counts.get(key, 0) + 1
    for key in _KEYS:
        if key not in seen:
            raise RuntimeError("calibration kernel lost a key")
    for _ in range(50):
        np.maximum(_ARRAY, _ARRAY[::-1]) + np.log1p(np.exp(-np.abs(_ARRAY)))
    return _clock() - start


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between kernel times ``before`` and ``after``,
    restated at the reference speed."""
    return seconds * REFERENCE_S / ((before + after) / 2)


class SpeedSampler:
    """Context manager that samples the kernel while its block runs.

    After the block, ``raw_s`` is the block's wall time without the
    samples and ``scaled_s`` the same time at the reference speed.  Only
    the main thread may use it, since it installs a ``SIGALRM`` handler.
    """

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.samples: list[tuple[float, float, float]] = []  # (start, end, kernel s)
        self.raw_s = self.scaled_s = 0.0
        self._active = False

    def _sample(self, signum=None, frame=None) -> None:
        start = _clock()
        seconds = kernel()
        self.samples.append((start, _clock(), seconds))

    def _sample_and_rearm(self, signum, frame) -> None:
        # One-shot timer, armed again only after the sample: a sample that
        # outlasts the interval on a stalled host is never interrupted by
        # the next one.
        if not self._active:  # delivered after the block ended
            return
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval)

    def __enter__(self) -> SpeedSampler:
        self.samples = []
        self._active = True
        self._previous = signal.signal(signal.SIGALRM, self._sample_and_rearm)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval)
        return self

    def __exit__(self, *exc_info) -> None:
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()
        samples = self.samples
        self.raw_s = self.scaled_s = 0.0
        for (_, before_end, before), (after_start, _, after) in zip(samples, samples[1:]):
            self.raw_s += after_start - before_end
            self.scaled_s += scale(after_start - before_end, before, after)

    @property
    def slowdown(self) -> float:
        """How many times slower than the reference speed the block ran."""
        return self.raw_s / self.scaled_s if self.scaled_s else 0.0
