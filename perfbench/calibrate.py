"""Machine-speed calibration of a timed interval.

The shared virtual machines this benchmark runs on change speed in phases:
the same code runs up to half again slower for seconds to minutes at a
time, and a run's wall time follows.  To see through that, a fixed
reference slice of work (``reference``) is timed right before the clock
starts, every ``INTERVAL_S`` while it runs (from a SIGALRM handler, between
two bytecodes of whatever chartab is doing) and right after it stops.  Each
stretch of measured work between two slices is scaled by
``REF_S / (mean of the two slices' durations)``: the seconds it would have
taken on a machine on which a slice takes ``REF_S``.  The slices' own time
is left out of both the raw and the calibrated time.

    cal = Calibrator()
    cal.start()
    ...                      # the measured work
    raw_s, calibrated_s = cal.stop()

Start-up time is a different kind of work (exec, dynamic loading, page
faults, reading bytecode), which the slice does not follow.  It is scaled
instead by ``REF_START_S / (mean of two bare interpreter start-ups)``
(``start_s``), timed just before and just after the start-up it scales.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import time

import numpy

REF_S = 0.005          # a slice's duration at the reference speed, by definition
REF_START_S = 0.013    # a bare interpreter start-up's duration at the reference speed
INTERVAL_S = 0.1       # time between slices while the clock runs

_MATRIX = numpy.arange(48 * 48, dtype=numpy.int64).reshape(48, 48) % 101
_SWAP = (1, 0, 3, 2, 5, 4, 7, 6, 9, 8, 11, 10, 13, 12, 15, 14)


def reference() -> int:
    """Fixed work in the mix chartab does: tuple permutations, dicts, small
    int64 matrices.  It allocates nothing that outlives it, so it adds
    nothing to peak memory.  Its result is returned so none of it is
    optimised away."""
    perm = tuple(range(16))
    table: dict[tuple, int] = {}
    for i in range(1500):
        perm = tuple(perm[j] for j in _SWAP)
        table[perm] = table.get(perm, 0) + i
    m = _MATRIX
    for _ in range(12):
        m = (m @ _MATRIX) % 101
    return len(table) + int(m[0, 0])


def start_s() -> float:
    """Duration of one bare interpreter start-up (no site, no imports)."""
    t = time.monotonic()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
    return time.monotonic() - t


class Calibrator:
    def __init__(self):
        self._marks: list[tuple[float, float]] = []   # (slice start, duration)

    def _mark(self) -> None:
        t = time.perf_counter()
        reference()
        self._marks.append((t, time.perf_counter() - t))

    def _on_alarm(self, signum, frame) -> None:
        self._mark()

    def start(self) -> None:
        for _ in range(3):          # warm the slice up in this interpreter
            reference()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._mark()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._start = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """Stop the clock; returns (raw seconds, calibrated seconds) of the
        measured work."""
        end = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._mark()
        first, last = self._marks[0], self._marks[-1]
        inner = [(t, d) for t, d in self._marks[1:-1] if t + d <= end]
        # stretches of work: start .. slice, slice end .. next slice, .. end
        bounds = [self._start] + [x for t, d in inner for x in (t, t + d)] + [end]
        durations = [first[1]] + [d for _, d in inner] + [last[1]]
        raw = calibrated = 0.0
        for k in range(len(durations) - 1):
            stretch = bounds[2 * k + 1] - bounds[2 * k]
            raw += stretch
            calibrated += stretch * REF_S / ((durations[k] + durations[k + 1]) / 2)
        return raw, calibrated
