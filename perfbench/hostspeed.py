"""Host speed, measured with a fixed reference loop that never changes.

On a shared host other tenants slow every process down, to half its speed
or less, in stretches from under a second to tens of seconds; a timing
taken in such a stretch says more about the neighbours than about the
program. The benchmark therefore times a fixed loop of the same kind of
work as the program (Python dict and tuple churn, the C JSON encoder and
SHA-256) between the items, and scales each time it reports by
``REF_LOOP_S / loop time``: times are reported as they would read on a host
where the loop takes ``REF_LOOP_S``. A change to gridgram cannot change the
loop, so it moves the scaled times as much as the raw ones; only the host's
speed is divided out. Raw times are kept next to the scaled ones in the
detail file.
"""

from __future__ import annotations

import hashlib
import json
from time import perf_counter_ns

# About the median loop time on a 2-vCPU Xeon VM (Python 3.11.7) in a quiet
# stretch. It only sets the scale of the reported times; changing it
# rescales them all.
REF_LOOP_S = 0.0025


def reference_loop() -> str:
    table = {}
    for i in range(5000):
        table[(i * 7919) % 2053] = (i, str(i))
    text = json.dumps(sorted(table.items()), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def loop_ns() -> int:
    """Time of one reference loop, in nanoseconds."""
    t0 = perf_counter_ns()
    reference_loop()
    return perf_counter_ns() - t0
