"""Statistics the benchmark reports: medians, tail percentiles and
open-loop latency accounting.

Everything here is a pure function of its inputs so the self-tests in
perfbench/tests can pin it down.
"""

import math
import statistics

# A tail percentile is reported only when at least this many samples lie
# beyond it; below that it is noise, not a measurement.
MIN_SAMPLES_BEYOND = 10


def median(values):
    return statistics.median(values)


def samples_beyond(n, q):
    """How many of n samples lie strictly beyond the q-quantile."""
    return n - math.ceil(q * n)


def tail_percentile(values, q):
    """Nearest-rank q-quantile of values, or None when fewer than
    MIN_SAMPLES_BEYOND samples lie beyond it."""
    n = len(values)
    if n == 0 or samples_beyond(n, q) < MIN_SAMPLES_BEYOND:
        return None
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * n) - 1)]


class Record:
    """One request as the generator saw it; times in ns from run start."""

    __slots__ = ("id", "due", "sent", "done", "ok", "cycles", "check",
                 "error")

    def __init__(self, id, due, sent, done, ok, cycles, check, error):
        self.id = id
        self.due = due
        self.sent = sent
        self.done = done
        self.ok = ok
        self.cycles = cycles
        self.check = check
        self.error = error

    @classmethod
    def parse(cls, line):
        f = line.split()
        return cls(int(f[0]), int(f[1]), int(f[2]), int(f[3]), f[4] == "1",
                   int(f[5]), f[6], f[7])

    @property
    def answered(self):
        return self.done >= 0


def due_latencies_ms(records):
    """Latency of every answered request, from when it was due to be
    sent: a stall that delays later sends is charged to them."""
    return [(r.done - r.due) / 1e6 for r in records if r.answered]


def sent_latencies_ms(records):
    """Latency from the actual send (excludes generator lag)."""
    return [(r.done - r.sent) / 1e6 for r in records if r.answered]


def send_lags_ms(records):
    """How late the generator sent each request."""
    return [(r.sent - r.due) / 1e6 for r in records if r.sent >= 0]
