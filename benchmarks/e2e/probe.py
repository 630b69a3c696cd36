"""Host-speed probe: times one fixed CPU kernel at a steady duty cycle.

Usage: ``python probe.py OUT_PATH``.  Runs beside a measured phase until
terminated and appends one ``"<perf_counter start> <seconds>"`` line per
kernel run to ``OUT_PATH``.  ``perf_counter`` is the system-wide monotonic
clock on Linux, so the parent can match samples to its own operation
windows.

Why: on a shared host the speed of the same code swings by a third over
tens of seconds (other tenants' load on the physical cores), far more than
a 15-second run can average away.  The kernel slows down with the
program, so timings divided by the kernel time taken during the same
window, times :data:`REFERENCE_S`, read as milliseconds at one fixed host
speed.  The kernel mixes interpreted Python with small numpy calls, like
the program's hot paths, and takes ~7% of one core.
"""

from __future__ import annotations

import sys
import time

import numpy as np

#: Kernel time that normalised timings are scaled to (its uncontended
#: duration on the 2-core Xeon box the bounds were set on).
REFERENCE_S = 1.5e-3

PERIOD_S = 0.05

_MATRIX = np.random.default_rng(0).random((64, 64))


def kernel() -> None:
    acc = 0
    for i in range(20000):
        acc += i * i
    for _ in range(20):
        _MATRIX @ _MATRIX


def main(argv) -> int:
    with open(argv[0], "w", buffering=1, encoding="ascii") as fh:
        while True:
            start = time.perf_counter()
            kernel()
            fh.write(f"{start!r} {time.perf_counter() - start!r}\n")
            time.sleep(max(0.0, PERIOD_S - (time.perf_counter() - start)))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
