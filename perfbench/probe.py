"""Host-speed probe that runs beside the measured code, in the same process.

On a small shared host, neighbours' load makes the same code run up to 1.5x
slower for seconds to minutes at a time, and a run cannot wait for a quiet
moment.  ``Probe`` measures that slowdown while it happens: a daemon thread
times a fixed piece of work (dictionary updates plus small numpy products)
with ``time.thread_time`` every ``PERIOD_S`` seconds, for as long as the
measured code runs.  Because the process is pinned to one CPU (see
``pin_to_one_cpu``), the probe and the measured code share the core and see
the same contention.

``reference_s(cpu_s)`` rescales a CPU time to what it would have been at the
reference speed, on which one probe sample takes ``REFERENCE_SAMPLE_S``:

    reference seconds = CPU seconds * REFERENCE_SAMPLE_S / median sample

The probe thread's own CPU time is reported so that callers can subtract it.
It takes about 3% of the core.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

import numpy as np

PERIOD_S = 0.05
REFERENCE_SAMPLE_S = 0.0015     # one sample on the sizing machine when it was quiet
_DICT_STEPS = 3000
_SMALL = np.random.default_rng(0).random((60, 60))


def pin_to_one_cpu() -> None:
    """Keep this process, its threads and its children on one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _sample() -> float:
    start = time.thread_time()
    counts: dict[tuple[int, int], int] = {}
    for i in range(_DICT_STEPS):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
    for _ in range(20):
        block = np.zeros((120, 120))
        block[:60, :60] = _SMALL
        block.sum(axis=1)
        _SMALL @ _SMALL
    return time.thread_time() - start


class Probe:
    """Context manager: samples host speed on a thread while the body runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread_cpu_s = 0.0

    def _loop(self) -> None:
        start = time.thread_time()
        while True:
            self.samples.append(_sample())
            if self._stop.wait(PERIOD_S):
                break
        self._thread_cpu_s = time.thread_time() - start

    def __enter__(self) -> "Probe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def cpu_s(self) -> float:
        """CPU seconds the probe thread itself used."""
        return self._thread_cpu_s

    @property
    def sample_s(self) -> float:
        """Median CPU seconds of one sample while the body ran."""
        return statistics.median(self.samples)


def reference_s(cpu_s: float, sample_s: float) -> float:
    """``cpu_s`` rescaled to the reference speed given the probe's median sample."""
    return cpu_s * REFERENCE_SAMPLE_S / sample_s
