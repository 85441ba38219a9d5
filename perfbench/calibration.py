"""A fixed piece of work that measures how fast the host runs right now.

The reference machine (2 vCPU, Intel Xeon at 2.0 GHz, shared with other
tenants) changes speed by 10-40% over minutes while the work stays the
same. Every timed run is paired with calls of ``calibrate`` made next
to it, and the benchmark reports the run time divided by the
calibration time, scaled by ``REFERENCE_S``: seconds at the speed the
calibration ran at on the reference machine. A change to the program
does not touch this work, so it moves the reported time as it moves
the wall time; a change in the host's speed moves both and cancels.

The work mixes what the program's time is spent on: interpreted Python,
a NumPy sort, streaming through memory, and formatting numbers into a
text file that is written and deleted, as the exports do. Measured on
the national-export workload over five minutes, this mix cut the
spread of 30-second medians of the run time from 0.07 to 0.05 (IQR
over median) and the largest swing from 0.30 to 0.15; without the file
step the swing stayed at 0.20. It allocates about 25 MB and frees it
before returning, and writes about 1.7 MB under ``.perfbench``.
"""

import os
import time
from pathlib import Path

import numpy as np

# Median of calibrate() on the reference machine.
REFERENCE_S = 0.17

STATE = Path(__file__).resolve().parent.parent / ".perfbench"
_LOOP = 400_000
_SORT = 1 << 20
_STREAM = 1 << 21
_ROWS = 60_000


def calibrate():
    """Seconds this process takes for the fixed calibration work."""
    start = time.perf_counter()
    total = 0
    for i in range(_LOOP):
        total += i * i
    values = np.random.default_rng(0).random(_SORT)
    values.sort()
    block = np.empty(_STREAM)
    for _ in range(8):
        block.fill(1.0)
        total += int(block.sum())
    scratch = STATE / f"calibration-{os.getpid()}.csv"
    with open(scratch, "w", encoding="utf-8") as fh:
        fh.write("\n".join(f"{i},{i + 1},{x:.10g}" for i, x in
                           enumerate(values[:_ROWS].tolist())))
    os.remove(scratch)
    del values, block
    return time.perf_counter() - start
