"""A fixed probe timed throughout a run, to express timings at one host speed.

The reference host is a few cores of a shared machine, and its speed moves by
up to 1.6x over seconds and minutes as other tenants load it (see README,
Statistics). Every timed sample of a run is therefore divided by the time of
a fixed probe measured around it, and multiplied by the probe's reference
time `REF_PROBE_S`: the result reads as the sample's time on the reference
host at its reference speed. The probe is benchmark code, not charngram code,
so a change to charngram moves the adjusted times by the same factor as the
raw ones.

The probe mixes what charngram's time goes to: an interpreted Python loop
and NumPy row gathers and a small matrix product, in about equal parts.
"""

from __future__ import annotations

import time

import numpy as np

clock = time.perf_counter

REF_PROBE_S = 3.2e-4  # median probe time on the reference box (2-CPU Xeon VM)
PROBE_GAP_S = 0.025  # least time between two probes
WINDOW_S = 1.0  # a sample is adjusted by the probes up to this far around it

_TABLE = np.random.default_rng(0).standard_normal((20000, 50))
_ROWS = np.random.default_rng(1).integers(0, len(_TABLE), 200)
_LOOP = 800


def probe() -> None:
    """The fixed work whose time stands for the host's speed."""
    s = 0
    for i in range(_LOOP):
        s += i * i % 7
    block = _TABLE[_ROWS]
    block[:100] @ block.T


class HostSpeed:
    """Probe times over a run, and timings adjusted by them."""

    def __init__(self):
        self.stamps: list[float] = []  # probe start times
        self.times: list[float] = []
        self.used = 0.0  # time spent probing
        self._last = -float("inf")

    def probe(self) -> None:
        t0 = clock()
        probe()
        t1 = clock()
        self.stamps.append(t0)
        self.times.append(t1 - t0)
        self.used += t1 - t0
        self._last = t1

    def maybe_probe(self) -> None:
        """Probe, unless the last probe ended less than `PROBE_GAP_S` ago."""
        if clock() - self._last >= PROBE_GAP_S:
            self.probe()

    def adjust(self, spans) -> list[float]:
        """Durations of (start, end) spans at the reference host speed.

        Each duration is scaled by `REF_PROBE_S` over the median probe time
        within `WINDOW_S` of its span (of all probes, if none is that near).
        """
        stamps = np.asarray(self.stamps)
        times = np.asarray(self.times)
        overall = float(np.median(times))
        out = []
        for start, end in spans:
            lo, hi = np.searchsorted(stamps, [start - WINDOW_S, end + WINDOW_S])
            local = float(np.median(times[lo:hi])) if hi > lo else overall
            out.append((end - start) * REF_PROBE_S / local)
        return out
