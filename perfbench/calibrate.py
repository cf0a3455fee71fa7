"""How fast the interpreter runs right now, from a fixed pure-Python loop.

On a shared machine the speed of one core changes by up to 60% within
seconds, as other tenants load the host. Every op time the benchmark
reports is therefore scaled to a reference speed: it is multiplied by
REFERENCE_S over the mean time this loop took while the op ran. The loop
uses nothing from quatlat, so a change to the program cannot move it.

A Speedometer takes a sample every EVERY_S seconds from a SIGALRM
handler, so long ops are sampled while they run. `op_time` takes the
samples taken inside an op out of the op's time.
"""

import bisect
import random
import signal
import time

# Time of one sample at the reference speed; reported times are in
# milliseconds and seconds at this speed.
REFERENCE_S = 0.002
EVERY_S = 0.05

_rng = random.Random(0)
_VECTORS = [tuple(_rng.randint(-81, 81) | 1 for _ in range(4)) for _ in range(64)]


def _loop() -> int:
    # Two halves, because other tenants slow different kinds of code by
    # different factors: quaternion products in doubled coordinates
    # (small-int tuple arithmetic), then building, hashing and sorting
    # small tuples.
    acc = (2, 0, 0, 0)
    for _ in range(20):
        for b0, b1, b2, b3 in _VECTORS:
            a0, a1, a2, a3 = acc
            acc = (
                (a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3) // 2 % 1000003,
                (a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2) // 2 % 1000003,
                (a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1) // 2 % 1000003,
                (a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0) // 2 % 1000003,
            )
    table = {}
    for a in range(-30, 31):
        for b in range(-15, 16):
            key = (a, b, a * b, a - b)
            table[key] = [key, str(a)]
    ordered = sorted(table.items(), key=lambda item: item[0][2])
    return acc[0] + sum(len(value[1]) for _, value in ordered)


def sample() -> float:
    """Seconds one run of the fixed loop takes now."""
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


class Speedometer:
    """Speed samples over a stretch of ops; use as a context manager."""

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []
        self.spent: list[float] = []

    def _take(self, *_signal_args) -> None:
        start = time.perf_counter()
        self.samples.append(sample())
        self.times.append(start)
        self.spent.append(time.perf_counter() - start)

    def __enter__(self):
        self._take()
        self._previous = signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._take()
        return False

    def op_time(self, start: float, end: float) -> tuple[float, float]:
        """(raw, scaled) seconds of an op that ran from start to end.

        The handler runs in this thread, so a sample either lies wholly
        inside the op or starts after it. The scale comes from the samples
        inside and the nearest one on either side.
        """
        first = bisect.bisect_left(self.times, start)
        last = bisect.bisect_left(self.times, end)
        raw = end - start - sum(self.spent[first:last])
        around = self.samples[max(first - 1, 0):min(last, len(self.samples) - 1) + 1]
        return raw, raw * REFERENCE_S * len(around) / sum(around)
