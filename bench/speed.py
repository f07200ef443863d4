"""Machine speed sampled during a run, so that times share one scale.

The 2-vCPU host this benchmark was written on runs the same code at
speeds up to 2x apart, changing within fractions of a second and holding
for seconds to minutes ("machine_noise" in workloads.json).  No statistic
of raw times within one run removes that.  So while a workload runs, a
timer signal interrupts it every PERIOD_S seconds and times PROBE, a fixed
run of small numpy calls that uses nothing of qsurg.  A span of the
workload is then reported as

    scaled = (span - probe time inside it) * REF_PROBE_S * mean(1 / probe)

over the probes that fell inside the span (the two nearest ones when none
did): its own time, rescaled to the speed at which PROBE takes
REF_PROBE_S.  REF_PROBE_S is a fixed unit, near PROBE's usual time on
that host, so scaled times read as seconds there; a change in qsurg moves
the span and not the probes.  Of the probes tried (an interpreter loop,
small numpy calls, column XORs on a tableau-sized array), small numpy
calls tracked the workloads' own speed best.

Signal handlers run between bytecodes, so a probe due during a long
numpy call runs when the call returns.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

PERIOD_S = 0.025
REF_PROBE_S = 0.0004

_A = (np.arange(32 * 64, dtype=np.int64).reshape(32, 64) * 2654435761 >> 7) & 1
_V = _A[:, 0].copy()


def probe() -> int:
    """The fixed probe work: small numpy calls made from the interpreter,
    the pattern most of qsurg's time has.  The result only keeps the work
    from being skipped."""
    acc = 0
    for j in range(40):
        acc += int(((_V @ _A) & 1).sum()) + int(_A[j % 32].argmax())
    return acc


class Sampler:
    """Times PROBE every PERIOD_S seconds between start() and stop()."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe()
        self.at.append(t0)
        self.took.append(time.perf_counter() - t0)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def own(self, t0: float, t1: float) -> float:
        """Seconds of [t0, t1) spent outside the probes."""
        i = bisect.bisect_left(self.at, t0)
        j = bisect.bisect_left(self.at, t1)
        return (t1 - t0) - sum(self.took[i:j])

    def scaled(self, t0: float, t1: float) -> float:
        """The own seconds of [t0, t1) at the reference speed."""
        i = bisect.bisect_left(self.at, t0)
        j = bisect.bisect_left(self.at, t1)
        near = self.took[i:j] or self.took[max(i - 1, 0):i + 1]
        speed = sum(REF_PROBE_S / d for d in near) / len(near)
        return self.own(t0, t1) * speed
