"""Host time at a reference interpreter speed.

On a shared host the same pure-Python work runs at very different speeds
from one minute to the next: a fixed calibration loop (below) was
measured at 0.39 ms in one stretch and 0.7 ms in the next, inside one
process, with CPU time tracking wall time (so the process was not
descheduled; the host ran slower).  Host-time figures measured raw
therefore spread 15-30% across runs of identical work.

:class:`HostClock` runs the timed section in short slices and measures
the calibration loop before each one.  Each slice's host time is scaled
by ``CAL_REF_S / calibration``, giving *reference seconds*: the time the
slice would have taken on a host where the loop takes ``CAL_REF_S``.  The
calibration loop is fixed pure-Python code independent of the program,
so a faster program still shows in full; only the host's own speed
changes cancel.  Raw host seconds are kept beside the reference ones.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import Callable

#: calibration-loop time that defines one reference second
CAL_REF_S = 0.0004
#: time of the big-integer calibration at the same reference speed
BIGINT_REF_S = 0.0013
#: RFC 2409 group 2's 1024-bit prime, and a fixed 256-bit exponent
_MODULUS = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE65381FFFFFFFFFFFFFFFF",
    16,
)
_EXPONENT = _MODULUS >> 768


def _calibration_loop() -> int:
    """Fixed interpreter work shaped like the kernel's hot loop:
    generator resumes, heap pushes/pops, dict updates, string keys."""
    def proc(i):
        x = 0
        while True:
            v = yield x
            x = (x * 31 + v + i) & 0xFFFF

    procs = [proc(i) for i in range(16)]
    for p in procs:
        next(p)
    heap: list = []
    counts: dict = {}
    for k in range(400):
        heapq.heappush(heap, ((k * 7919) % 101, k, k & 15))
        if len(heap) > 8:
            _, _, j = heapq.heappop(heap)
            key = f"k{procs[j].send(k) & 63}"
            counts[key] = counts.get(key, 0) + 1
    return len(counts)


def calibrate() -> float:
    """Host seconds of one calibration loop (after one warm-up pass)."""
    _calibration_loop()
    t0 = time.perf_counter()
    _calibration_loop()
    return time.perf_counter() - t0


def calibrate_bigint() -> float:
    """Host seconds of one 1024-bit modular exponentiation (after one
    warm-up), the arithmetic that dominates SSL handshakes."""
    pow(4, _EXPONENT, _MODULUS)
    t0 = time.perf_counter()
    pow(4, _EXPONENT, _MODULUS)
    return time.perf_counter() - t0


class HostClock:
    """Accumulates raw and reference host seconds over timed slices.

    ``bigint_share`` is the share of the measured work that is big-integer
    arithmetic rather than interpreter work.  The two slow down very
    differently on this host (about 1.1x against 2x), so a slice's scale
    blends the two calibrations in that proportion.
    """

    def __init__(self, bigint_share: float = 0.0) -> None:
        self.bigint_share = bigint_share
        self.raw_s = 0.0
        self.ref_s = 0.0
        self.cpu_s = 0.0
        self.slices = 0
        gc.collect()

    def slice(self, fn: Callable[[], object]) -> None:
        """Run ``fn`` as one timed slice, calibrated just before."""
        scale = CAL_REF_S / calibrate()
        if self.bigint_share:
            scale = ((1.0 - self.bigint_share) * scale
                     + self.bigint_share * BIGINT_REF_S / calibrate_bigint())
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        self.cpu_s += time.process_time() - cpu0
        self.raw_s += dt
        self.ref_s += dt * scale
        self.slices += 1
