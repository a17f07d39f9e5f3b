"""Host speed calibration: command times in reference seconds.

On a shared host the same pure-Python code can run up to twice as slow
for seconds or minutes at a time, because other tenants load the
physical cores.  A fixed calibration loop tracks that state.  It runs
right before and right after a command, and every SAMPLE_PERIOD_S while
the command runs, from a SIGALRM handler: in the benchmark process until
the command forks worker processes, then in each worker.  The command's
wall time, with the handler's own time in this process left out, is
scaled by NOMINAL_S over the median loop time.  The result is the
command's time in reference seconds: what it would take with the host
at the speed where the loop takes NOMINAL_S.  The loop belongs to the
benchmark, not to the program, so the scale means the same on every
commit.

The loop multiplies two dictionary polynomials with large integer
coefficients, the kind of work macdet's q,t kernel does.
"""

from __future__ import annotations

import os
import signal
import statistics
import struct
from time import perf_counter

# A round figure between the loop's fastest and its median time on the
# host the benchmark was defined on (Python 3.11, 2 vCPUs).
NOMINAL_S = 0.002
SAMPLE_PERIOD_S = 0.1

_TERMS = [((i, j), (i * 7919 + j * 104729) ** 3) for i in range(12) for j in range(12)]
_OTHER = _TERMS[:40]
# A worker's sample: its loop time, as one write no longer than
# PIPE_BUF, so that samples of several workers never interleave.
_RECORD = struct.Struct("d")


def _loop() -> int:
    out: dict[tuple[int, int], int] = {}
    for (i1, j1), x in _TERMS:
        for (i2, j2), y in _OTHER:
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + x * y
    return len(out)


def calibrate() -> float:
    """Seconds one run of the calibration loop takes now."""
    start = perf_counter()
    _loop()
    return perf_counter() - start


class Stopwatch:
    """Times the command run inside ``with Stopwatch() as watch:``."""

    def __init__(self):
        self.loops: list[float] = []
        self.paused = 0.0
        self.wall_s = 0.0
        self._pipe: tuple[int, int] | None = None

    def sample(self) -> None:
        start = perf_counter()
        self.loops.append(calibrate())
        self.paused += perf_counter() - start

    def __enter__(self) -> Stopwatch:
        global _running
        self.sample()
        self._pipe = os.pipe()
        _running = self
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        self._start = perf_counter()
        self.paused = 0.0
        return self

    def __exit__(self, *exc) -> None:
        global _running
        self.wall_s = perf_counter() - self._start - self.paused
        signal.setitimer(signal.ITIMER_REAL, 0)
        _running = None
        self.sample()
        read, write = self._pipe
        os.close(write)
        os.set_blocking(read, False)
        data = b""
        try:
            while chunk := os.read(read, 65536):
                data += chunk
        except BlockingIOError:
            pass  # a worker that has not exited yet still holds the write end
        os.close(read)
        size = _RECORD.size
        self.loops += [_RECORD.unpack_from(data, i)[0]
                       for i in range(0, len(data) - size + 1, size)]

    @property
    def reference_s(self) -> float:
        return self.wall_s * NOMINAL_S / statistics.median(self.loops)


class _WorkerSampler:
    """The sampler of a worker process forked during a command: it sends
    each loop time to the benchmark process through the pipe."""

    def __init__(self, write: int):
        self.write = write

    def sample(self) -> None:
        global _running
        try:
            os.write(self.write, _RECORD.pack(calibrate()))
        except OSError:
            # The command has ended and nobody reads any more.
            signal.setitimer(signal.ITIMER_REAL, 0)
            _running = None


_running: Stopwatch | _WorkerSampler | None = None


def _on_alarm(signum, frame) -> None:
    if _running is not None:
        _running.sample()


def _after_fork_in_parent() -> None:
    # The command's work has moved to worker processes, which sample
    # themselves; samples here would compete with them for the CPUs.
    if isinstance(_running, Stopwatch):
        signal.setitimer(signal.ITIMER_REAL, 0)


def _after_fork_in_child() -> None:
    global _running
    if isinstance(_running, Stopwatch):
        _running = _WorkerSampler(_running._pipe[1])
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)


signal.signal(signal.SIGALRM, _on_alarm)
os.register_at_fork(after_in_parent=_after_fork_in_parent,
                    after_in_child=_after_fork_in_child)
