"""Host speed sampled during timed work, to scale its wall time to a fixed speed.

On a shared virtual machine the same work runs up to 40 % slower in phases
that last from under a second to minutes, so raw wall times of runs made
minutes apart spread wider than any useful bound.  `SpeedProbe` samples the
speed of the host while the work runs: a `SIGALRM` interval timer interrupts
the benchmark's single thread every `INTERVAL_S`, and the handler times one
call of `reference`, a fixed loop of the interpreter operations the library
spends its time on (list indexing and small-integer arithmetic).

`SpeedProbe.scaled_s` reports a span of work in seconds at the reference
speed.  The samples cut the span into slices; each slice's wall time, the
handler's own time left out, is multiplied by `REFERENCE_S` over the median
of the `2 * WINDOW + 1` samples nearest to it.  A change to the library moves
that number as it moves the wall time; a slow phase of the host slows the
reference with it and cancels.  The local median follows phases shorter
than a pass, which one median over the whole pass does not.

The reference allocates no container, so it never triggers the cyclic
garbage collector, whose cost would otherwise land in a sample.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import NamedTuple

INTERVAL_S = 0.05
# Samples on each side of a slice whose median scales it.
WINDOW = 2
# Median time of one `reference()` call from the handler, during a pass, on
# a 2-vCPU Xeon virtual machine (Python 3.11).  It only sets the scale of the
# reported seconds; both sides of a comparison use the same constant.
REFERENCE_S = 0.0030
_TABLE = [[(7 * a + 13 * b + 1) % 60 for b in range(60)] for a in range(60)]
_ROUNDS = 400


def reference() -> int:
    """The fixed reference loop: walks a 60 x 60 table by products."""
    table = _TABLE
    x = 0
    acc = 0
    for _ in range(_ROUNDS):
        for a in range(60):
            row = table[a]
            x = row[table[x][a]]
            acc += x * a % 7
    return acc


class Span(NamedTuple):
    start: float
    end: float

    @property
    def wall_s(self) -> float:
        return self.end - self.start


class SpeedProbe:
    """Samples `reference()` from a `SIGALRM` timer while it is active.

    Use it as a context manager around the timed work; `mark()` and `span()`
    cut the work into spans, which `scaled_s` scales, also after the probe
    has stopped.  It must run in the main thread, and nothing else in the
    process may use `SIGALRM`.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []  # when each sample started
        self.samples: list[float] = []  # how long each sample took
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        reference()
        self.starts.append(start)
        self.samples.append(time.perf_counter() - start)

    def take(self, count: int) -> None:
        """Take `count` samples now, outside any span."""
        for _ in range(count):
            self._sample(signal.SIGALRM, None)

    def __enter__(self) -> SpeedProbe:
        self.take(1)  # so that every span has a sample to scale by
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> float:
        """A point in the work, to be closed by `span`."""
        return time.perf_counter()

    def span(self, mark: float) -> Span:
        """The span from `mark` to now."""
        return Span(mark, time.perf_counter())

    def _local(self, i: int) -> float:
        """Median of the samples nearest to sample `i`."""
        return statistics.median(self.samples[max(0, i - WINDOW):i + WINDOW + 1])

    def scaled_s(self, span: Span) -> float:
        """The work time of `span`, handler left out, at the reference speed.

        The slice before each sample is scaled by the samples around that
        sample; the slice after the span's last sample by the samples around
        the last one.
        """
        first = bisect.bisect_left(self.starts, span.start)
        last = bisect.bisect_left(self.starts, span.end)
        total, prev = 0.0, span.start
        for i in range(first, last):
            total += (self.starts[i] - prev) / self._local(i)
            prev = self.starts[i] + self.samples[i]
        total += (span.end - prev) / self._local(max(last - 1, 0))
        return total * REFERENCE_S
