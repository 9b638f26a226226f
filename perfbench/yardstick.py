"""Machine-speed yardstick for the end-to-end timings.

The benchmark runs on a few cores of a shared host, whose speed for one
Python thread drifts by a third and more within seconds as other tenants
come and go; that drift, not the program, dominates raw times from run to
run.  So while a pass runs, an interval timer interrupts it every EVERY_S
seconds, and the signal handler times a fixed pure-Python kernel (no
knotforge code).  An operation's measured time, less the time its
interruptions took, is scaled by REF_S / (mean kernel time of the readings
taken during it, or of the NEAREST readings when it is shorter).  A scaled
time is in seconds at the reference speed, the speed at which the kernel
takes REF_S: a change to knotforge moves it in full, and a change of machine
speed that slows the kernel and knotforge alike cancels out.  The readings
cost about 2% of a pass; the raw times are printed beside the scaled ones.
"""

from __future__ import annotations

import bisect
import signal
import time

# kernel seconds at the reference speed (about its median on a 2-vCPU VM)
REF_S = 0.0005
EVERY_S = 0.025
NEAREST = 5


class _Poly:
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def mul(self, other, p):
        r = {}
        for i, a in self.c.items():
            for j, b in other.c.items():
                r[i + j] = (r.get(i + j, 0) + a * b) % p
        return _Poly({k: v for k, v in r.items() if v})


def kernel():
    """A third each of dict and tuple work on small integers, method calls
    on small objects, and arithmetic on integers of a few hundred bits: the
    kinds of work the enumeration, the polynomial code and the Bareiss
    determinants do."""
    d, s = {}, 0
    for i in range(350):
        k = (i * 7919) % 1009
        d[k] = d.get(k, 0) + i
        t = (i, k, s)
        s = (s + t[1] * t[0]) % 1000003
    x, y = _Poly({0: 1, 1: 3, 2: 5}), _Poly({0: 2, 1: 1, 3: 4})
    for _ in range(20):
        x = _Poly(dict(list(x.mul(y, 7).c.items())[:6]))
    a, b = 3 ** 150, 7 ** 120
    for i in range(100):
        c = a * b + i
        s ^= c // (b + i + 1)
        a, b = b + i, c % (a + 1) + 1
    return s


class Yardstick:
    """Kernel readings taken on SIGALRM while entered; `spent` is the time
    they took."""

    def __init__(self):
        self.at = []        # perf_counter at each reading's middle
        self.readings = []  # kernel seconds
        self.spent = 0.0
        self._saved = None

    def read(self, *_):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.at.append((t0 + t1) / 2)
        self.readings.append(t1 - t0)
        self.spent += t1 - t0

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self.read)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def factor(self, t0, t1):
        """REF_S / mean kernel time over the readings in [t0, t1], or over
        the NEAREST readings to its middle when there are fewer."""
        i = bisect.bisect_left(self.at, t0)
        j = bisect.bisect_right(self.at, t1)
        if j - i < NEAREST:
            mid = bisect.bisect_left(self.at, (t0 + t1) / 2)
            i = max(0, min(mid - NEAREST // 2, len(self.at) - NEAREST))
            j = min(len(self.at), i + NEAREST)
        return REF_S * (j - i) / sum(self.readings[i:j])
