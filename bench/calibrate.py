"""Host-speed calibration: a fixed pure-Python loop timed beside the work.

On a shared virtual machine the speed of the guest's CPU changes by up to
1.7x, in phases from under a second to minutes.  A run that falls into a
slow stretch reads slow on every statistic taken inside it, so timings
alone spread by 15-40% from run to run.

The benchmark therefore times ``loop`` beside the work and scales each
timed interval to the reference speed, at which ``loop(n)`` takes
``REF_S * n / LOOP_N`` seconds:

* during a pass, ``Sampler`` times a short ``loop`` from a ``SIGALRM``
  handler every ``SAMPLE_INTERVAL_S`` of wall time, so that the speed
  estimate of a segment comes from inside it; ``Sampler.clock`` leaves
  out the time spent in the handler;
* around a set-up probe, which runs in another process, ``calibrate``
  times ``loop`` right before and right after it.

The loop uses no yangkit code, so a change to the library does not move
it; it runs with the garbage collector off, so the size of the heap the
library leaves behind does not move it either.  Its work is the kind the
library spends its time on: exact ``Fraction`` arithmetic and updates of
small tuple-keyed dicts.
"""

import bisect
import gc
import signal
import statistics
import time
from fractions import Fraction

LOOP_N = 400
REF_S = 0.004  # seconds for ``loop(LOOP_N)`` at the reference speed
REPEATS = 5  # ``calibrate`` keeps the fastest of this many loops

SAMPLE_N = 50  # a sample is ``loop(SAMPLE_N)``, about 0.5 ms
SAMPLE_INTERVAL_S = 0.05  # about 1% of the pass
MIN_SAMPLES = 4  # per scaled interval; the nearest neighbours fill up


def loop(n=LOOP_N):
    row = {}
    acc = Fraction(0)
    for i in range(1, n):
        if i % 16 == 0:
            acc = Fraction(0)
        c = Fraction(i, i + 7) * Fraction(3, i + 1) - acc / 5
        acc += c
        key = (i % 31, i % 7)
        row[key] = row.get(key, 0) + c.numerator % 1009
    return acc, len(row)


def _timed_loop(n):
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        loop(n)
        return time.perf_counter() - t
    finally:
        if enabled:
            gc.enable()


def calibrate():
    """The fastest of ``REPEATS`` timings of ``loop``, in seconds."""
    return min(_timed_loop(LOOP_N) for _ in range(REPEATS))


def scale(seconds, before, after):
    """``seconds`` at the reference speed, given the calibrations taken
    before and after it."""
    return seconds * REF_S * 2.0 / (before + after)


class Sampler:
    """Speed samples taken from inside the work.

    Use as a context manager around a pass.  The handler runs in the
    main thread between bytecodes, also while it waits for the CLI's
    suite threads.  ``clock()`` is ``perf_counter`` minus the time spent
    in the handler; time every segment with it."""

    def __init__(self):
        self.spent = 0.0
        self.times = []  # ``clock()`` at each sample
        self.loops = []  # seconds of each sample's ``loop(SAMPLE_N)``
        self._previous = None

    def clock(self):
        spent = self.spent  # read first: a sample in between reads late
        return time.perf_counter() - spent

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        took = _timed_loop(SAMPLE_N)
        self.times.append(t0 - self.spent)
        self.loops.append(took)
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, start, end):
        """``end - start`` (``clock()`` readings) at the reference speed,
        by the mean of the samples taken in that interval, or of the
        ``MIN_SAMPLES`` nearest to it when it holds fewer."""
        times = self.times
        lo = bisect.bisect_left(times, start)
        hi = bisect.bisect_right(times, end)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(times)):
            if hi == len(times) or (
                    lo > 0 and start - times[lo - 1] < times[hi] - end):
                lo -= 1
            else:
                hi += 1
        if lo == hi:
            raise RuntimeError("no speed samples")
        ref = REF_S * SAMPLE_N / LOOP_N
        return (end - start) * ref / statistics.fmean(self.loops[lo:hi])

    def median_loop(self):
        """The median sample, scaled to ``loop(LOOP_N)``."""
        return statistics.median(self.loops) * LOOP_N / SAMPLE_N
