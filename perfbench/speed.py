"""Machine-speed probe that the benchmark scales its times by.

The benchmark was built on a shared 2-vCPU VM whose speed switches, every few
seconds, between two levels about 1.6x apart, and whose average speed drifts
by a quarter over half an hour. Ten runs of identical work spread by up to a
fifth in wall time (interquartile range over median). A fixed probe of
generic work (small NumPy operations and a Python loop, the mix the package
itself runs) slows by the same factor. So the benchmark runs the probe
between scenes, outside scene time, and scales a run's times by REFERENCE_S
over the probe's mean time in that run: times read as seconds at the speed
the machine has when nothing else loads it. Over ten runs of each workload
this cut the spread of `scenes_per_s` to 0.03-0.06. Raw wall times stay in
the report.

The probe does not call the package, so a change to the package cannot
change the probe's time.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# the probe's time on the VM above in its fast phase
REFERENCE_S = 0.0155

_A = np.random.default_rng(0).random((200, 3))


def probe() -> float:
    """Run the fixed probe work once; return its wall time in seconds."""
    start = perf_counter()
    for _ in range(300):
        np.cross(_A, _A[::-1]).sum()
    total = 0
    for i in range(80_000):
        total += i * i
    return perf_counter() - start


def scale(probe_times: list[float]) -> float:
    """Factor that turns this run's wall times into reference-speed times."""
    return REFERENCE_S / statistics.fmean(probe_times)
