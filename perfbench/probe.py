"""Host-speed sampler: times a fixed chunk of work inside each repetition.

On a shared host, other work changes the speed of every process by up to
~40%, for stretches from seconds to minutes, and CPU time tracks wall time
through it: it is the host that runs slower, not the scheduler that runs the
process less.  A Sampler started in a repetition's process runs `chunk` (small
numpy ops and interpreter work, the mix finsent spends its time on) twice
from a SIGALRM handler every PERIOD_S, on the same thread and so the same CPU
as the program, and times the second, warm run.  The first run brings the
chunk's code and data back into cache, so that the timed run does not depend
on how much of the cache the program itself used.  run.py takes the time
spent in the handler out of every timing, then scales the repetition's
timings by the host's speed (run.REF_CHUNK_S over the median chunk time)
raised to run.SPEED_ELASTICITY.  The chunk is the
benchmark's own code: a change to finsent cannot change what it measures.
"""
import signal
import time

import numpy as np

PERIOD_S = 0.05         # two chunks (~0.5 ms each) per period: ~2% of the time

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((24, 32))
_W = _rng.standard_normal((32, 32))


def chunk() -> None:
    for _ in range(20):
        h = np.tanh(_X @ _W + 1.0)
        e = np.exp(h - h.max(axis=1, keepdims=True))
        e /= e.sum(axis=1, keepdims=True)
    counts: dict[int, int] = {}
    for i in range(400):
        counts[i & 63] = counts.get(i & 63, 0) + i


class Sampler:
    """`chunks` holds each timed chunk's seconds; `busy` the seconds spent in
    the handler so far."""

    def __init__(self):
        self.chunks: list[float] = []
        self.busy = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        chunk()
        t1 = time.perf_counter()
        chunk()
        t2 = time.perf_counter()
        self.chunks.append(t2 - t1)
        self.busy += t2 - t0

    def start(self) -> None:
        chunk()                                 # warm up before the first sample
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
