"""Host-speed calibration of measured times.

The benchmark runs on a share of a machine whose speed follows the load of
its other tenants. The host runs in two states, fast and about 1.6 times
slower, and switches between them every few tenths of a second to a few
seconds; steal time stays near zero (the vCPU keeps running, only slower, so
CPU time drifts with wall time). Raw times of the same code therefore differ
between 30-second runs by 20-45%, more than a regression bound.

The runner times a short, fixed piece of pure-Python reference work before,
after and every ``CAL_EVERY_S`` seconds during a phase of the run (between
operations), and scales each measured duration by ``REF_NOMINAL_S`` over the
mean reference time of the samples taken within ``CAL_EVERY_S`` of it. A
calibrated time is the time the same work would take on a host where the
reference work takes ``REF_NOMINAL_S``. The reference uses no raag code, so a
change to raag cannot move it; it adds about 5 MB to the benchmark process's
peak RSS.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

REF_NOMINAL_S = 0.0035
CAL_EVERY_S = 0.1


class ReferenceWork:
    """Fixed pure-Python work, made from a fixed seed: piling normalization of
    short words over an 8-generator graph, and random lookups over a few MB of
    tuples. Alone, the lookups followed the host's drift best in one period and
    the normalization in another (log-log fit of windowed medians against
    raag's three workloads on the 2-vCPU host the bounds were set on); the sum
    followed it with slopes of 0.7 to 1.1."""

    GENERATORS = 8

    def __init__(self):
        rng = random.Random(0)
        n = self.GENERATORS
        self.noncomm = [[j for j in range(n) if j != i and ((i + j) % 3 == 0 or abs(i - j) == 1)]
                        for i in range(n)]
        self.words = [[rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(2, 60))]
                      for _ in range(50)]
        self.table = [(rng.getrandbits(16), rng.getrandbits(16)) for _ in range(40_000)]
        self.probes = [rng.randrange(len(self.table)) for _ in range(2_500)]

    def run(self) -> int:
        forms = {tuple(_normalize(w, self.GENERATORS, self.noncomm)) for w in self.words}
        buckets = {}
        for i in self.probes:
            a, b = self.table[i]
            buckets[a & 1023] = buckets.get(a & 1023, ()) + (b,)
        return len(forms) + len(buckets)


def _normalize(codes, n, noncomm):
    """Piling normalization (Crisp, Godelle & Wiest), as raag's pure kernel
    had it when this benchmark was written; a frozen copy, so that a change
    to raag's kernel cannot move the reference."""
    piles = [[] for _ in range(n)]
    count = 0
    for c in codes:
        i, eps = (c - 1, 1) if c > 0 else (-c - 1, -1)
        p = piles[i]
        if p and p[-1] == -eps:
            p.pop()
            for j in noncomm[i]:
                piles[j].pop()
            count -= 1
        else:
            p.append(eps)
            for j in noncomm[i]:
                piles[j].append(0)
            count += 1
    out = []
    ptr = [0] * n
    while count:
        for i in range(n):
            k = ptr[i]
            p = piles[i]
            if k < len(p) and p[k]:
                out.append((i + 1) * p[k])
                ptr[i] = k + 1
                for j in noncomm[i]:
                    ptr[j] += 1
                count -= 1
                break
    return out


class HostClock:
    """Timed samples of the reference work taken during one run."""

    def __init__(self):
        self.work = ReferenceWork()
        self.at: list[float] = []
        self.ref_s: list[float] = []

    def sample(self) -> None:
        t0 = time.perf_counter()
        self.work.run()
        t1 = time.perf_counter()
        self.at.append(t1)
        self.ref_s.append(t1 - t0)

    def due(self) -> bool:
        return not self.at or time.perf_counter() - self.at[-1] >= CAL_EVERY_S

    def factor(self, start: float, end: float) -> float:
        """REF_NOMINAL_S over the mean reference time of the samples taken
        within CAL_EVERY_S of [start, end] (``time.perf_counter`` seconds),
        or of the nearest sample if none was."""
        if not self.at:
            raise ValueError("no reference samples taken")
        lo = bisect.bisect_left(self.at, start - CAL_EVERY_S)
        hi = bisect.bisect_right(self.at, end + CAL_EVERY_S)
        if lo == hi:
            lo = min(range(len(self.at)), key=lambda i: abs(self.at[i] - end))
            hi = lo + 1
        return REF_NOMINAL_S / statistics.fmean(self.ref_s[lo:hi])

    def speed(self) -> float:
        """REF_NOMINAL_S over the mean of all samples, for the report."""
        return REF_NOMINAL_S / statistics.fmean(self.ref_s)
