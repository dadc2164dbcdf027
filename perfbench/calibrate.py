"""A fixed reference workload that measures how fast the host runs now.

The shared hosts this benchmark runs on change speed by up to a third
from one minute to the next.  Each timed run is therefore scaled by the
speed of this loop, timed in the same process just before and just after
it: ``normalized = measured * REFERENCE_S / calibration``, with
``calibration`` the mean of the two.  On a 2-vCPU VM this cut the spread
of the median wall time between benchmark invocations from 11% to 3%,
and of the set-up time from 32% to 6%.  The loop
mixes what the simulator spends its time on -- a heap of timestamped
tuples, generator resumption, dict and list churn, small objects, and a
pickle round trip -- and does not depend on the program under test, so a
change to the program cannot move it.
"""

from __future__ import annotations

import gc
import heapq
import pickle
import time

#: A typical duration of the loop beside a timed run on the host the
#: bounds were set on (a 2-vCPU Intel Xeon VM, Python 3.11; 0.2-0.3 s as
#: its speed drifts); normalized times read in that host's seconds.
REFERENCE_S = 0.23


def _process(inbox):
    total = 0
    while True:
        total += (yield total) or 0
        inbox.append(total)


def workload() -> int:
    heap = []
    table = {}
    inbox = []
    procs = [_process(inbox) for _ in range(64)]
    for proc in procs:
        next(proc)
    seq = 0
    now = 0.0
    for i in range(200_000):
        seq += 1
        heapq.heappush(heap, (now + (i * 7919 % 1000) / 1000.0, seq, i))
        if len(heap) > 256:
            now, _seq, item = heapq.heappop(heap)
            procs[item % 64].send(item & 7)
        table[i % 4096] = (i, [i, seq])
        if len(inbox) > 512:
            inbox.clear()
    blob = pickle.dumps(table, protocol=pickle.HIGHEST_PROTOCOL)
    return len(pickle.loads(blob)) + seq


def calibration_s() -> float:
    """Wall seconds of one pass of the reference workload.  The cyclic
    garbage collector is paused, so that the objects a finished run left
    in the process do not slow the loop down."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        workload()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
