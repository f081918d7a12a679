"""Host speed, sampled between the benchmark's timed calls.

The benchmark runs on a few cores of a shared host whose speed drifts.
On the 2-core x86 container its bounds were set on, the same pass over
the same input took from 0.74 to 1.52 s within three minutes, in spells
of a few seconds to a minute, and CPU time drifted with wall time: the
cores themselves ran slower, so neither CPU time nor a median over a
longer run removes it.

:class:`HostSpeed` times a fixed reference loop between the timed calls
of a pass, at most every ``EVERY_S`` seconds, and gives the pass's
speed as ``REF_S`` over the mean time of the loop.  The loop mixes the
kinds of work the program does (interpreter, small numpy arrays, small
matrix products) and never calls the program, so a change to the
program cannot move it.  The benchmark multiplies each time it reports
by the speed of the pass the time was taken in, which gives the time on
a host where the loop takes ``REF_S``; the raw times are printed beside.
Timed calls run on :meth:`HostSpeed.clock`, which leaves out the time
spent in the loop.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["HostSpeed", "REF_S", "EVERY_S", "BOUNDARY"]

#: Median time of one reference loop on the host the bounds were set on.
REF_S = 2.0e-3
#: Least time between two reference loops (about 2% of the host's time).
EVERY_S = 0.1
#: Reference loops at each end of a timed period.
BOUNDARY = 3


def reference_loop() -> float:
    """Fixed work whose time moves only with the host's speed."""
    counts: dict[int, int] = {}
    for i in range(15000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    a = np.arange(4000.0)
    for _ in range(40):
        a = np.sqrt(a * a + 1.0)
    m = np.full((48, 48), 0.01)
    for _ in range(30):
        m = np.tanh(m @ m)
    return float(a[0] + m[0, 0] + counts[1])


class HostSpeed:
    """Reference-loop samples taken between timed calls.

    The samples fall into periods (a pass, a model build) that
    :meth:`take` closes; call it once before the first period too.
    """

    def __init__(self) -> None:
        self._times: list[float] = []
        self._spent = 0.0
        self._last = 0.0

    def clock(self) -> float:
        """``perf_counter`` less the time spent in reference loops."""
        return time.perf_counter() - self._spent

    def sample(self, force: bool = False) -> None:
        """Time one reference loop, unless one ran in the last ``EVERY_S``.

        Call it only between timed calls.
        """
        start = time.perf_counter()
        if not force and start - self._last < EVERY_S:
            return
        reference_loop()
        self._last = time.perf_counter()
        self._times.append(self._last - start)
        self._spent += self._last - start

    def take(self) -> float:
        """Close the current period and give its speed.

        The speed comes from the loops timed in the period and at both
        of its ends (``BOUNDARY`` loops each; those at the end also open
        the next period).  It is 1.0 on the host the bounds were set on
        and 0.5 while the host runs the loop twice as slowly.
        """
        for _ in range(BOUNDARY):
            self.sample(force=True)
        speed = REF_S * len(self._times) / sum(self._times)
        self._times = self._times[-BOUNDARY:]
        return speed
