"""Machine-speed probe.

The CPU share this benchmark gets on a shared host changes by up to a factor
of two within seconds and from one minute to the next, and a run's
wall-clock figures move with it. To take that out, the untraced run interleaves a fixed reference kernel
with the operations it times, about once every PROBE_EVERY_S, and scales each
operation's latency by

    NOMINAL_PROBE_S / median(the WINDOW probes before and WINDOW after it)

so each reported time reads as it would on a machine on which the probe takes
exactly NOMINAL_PROBE_S. The speed changes within seconds, so each operation
is scaled by the probes next to it, not by a figure for the whole run.

The kernel uses numpy and the standard library only, never quadnmr, so a
change to the program cannot move it. Its mix follows the program's hot
path: 4x4 complex eigendecompositions and matrix products, float formatting
and regex parsing of short lines. Its working set is a few kilobytes, like
the program's propagators. Set-up time (interpreter start and imports) does
not follow the kernel and is reported unscaled. The unscaled wall-clock
figures and the run's overall factor go into the run record.
"""

from __future__ import annotations

import re
import statistics
from time import perf_counter

import numpy as np

# Probe seconds on the reference machine: a round figure near the probe's
# median on a 2-core Intel Xeon sandbox (Python 3.11, numpy 2.4).
NOMINAL_PROBE_S = 1.0e-3
PROBE_EVERY_S = 0.025
MAX_CATCH_UP = 10
WINDOW = 3

_RNG = np.random.default_rng(12345)
_H = _RNG.standard_normal((4, 4)) + 1j * _RNG.standard_normal((4, 4))
_H = _H + _H.conj().T
_LINE = re.compile(r"^(pulse|zpulse|delay)\s+(\S+)\s+(-?[0-9.]+)(us|ms)?$")
_TEXT = [f"pulse x{i % 4} {i * 0.125:.3f}us" for i in range(40)]


def probe_once() -> float:
    """Run the reference kernel once; return its wall seconds."""
    start = perf_counter()
    m = np.eye(4, dtype=complex)
    for k in range(40):
        w, v = np.linalg.eigh(_H * (1.0 + 0.01 * k))
        u = (v * np.exp(-1j * w * 1e-3)) @ v.conj().T
        m = u @ m @ u.conj().T
    rows = "".join(f"{k:d},{x.real:.9e},{x.imag:.9e}\n"
                   for k, x in enumerate(m.ravel()))
    parsed = [_LINE.match(line) for line in _TEXT * 3]
    if len(rows) == 0 or any(p is None for p in parsed):
        raise RuntimeError("probe kernel broke")
    return perf_counter() - start


class SpeedMeter:
    """Probes collected over one run."""

    def __init__(self):
        self.samples: list[float] = []
        self.last = perf_counter()

    def probe(self, times: int = 1) -> None:
        for _ in range(times):
            self.samples.append(probe_once())
        self.last = perf_counter()

    def catch_up(self) -> None:
        """Probe once for each PROBE_EVERY_S since the last probe, at most
        MAX_CATCH_UP times, so probes sample the run evenly whether its
        operations take milliseconds or most of a second."""
        due = int((perf_counter() - self.last) / PROBE_EVERY_S)
        if due:
            self.probe(min(due, MAX_CATCH_UP))

    def factor(self) -> float:
        """The speed factor of the whole run."""
        return NOMINAL_PROBE_S / statistics.median(self.samples)

    def local_factor(self, mark: int) -> float:
        """The speed factor of an operation that started when mark probes
        had been taken."""
        near = self.samples[max(0, mark - WINDOW):mark + WINDOW]
        return NOMINAL_PROBE_S / statistics.median(near)
