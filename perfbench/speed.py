"""The machine's speed, measured alongside the program, to normalise timings.

On a shared host the speed of one vCPU swings between regimes: a fixed
pure-Python loop that takes 2.5 ms in one second takes 3.8 ms in the
next, and a regime lasts from a second to minutes.  CPU time swings with
it as much as elapsed time does.  Two loop samples taken back to back
agree within about 3%, so the machine's speed at a moment can be read
off a short reference loop run at that moment.

Times are process CPU time (``time.process_time``), page faults and
other system time included, so that the time the vCPU is taken away
from the process, by the guest's scheduler or by the host where the
guest kernel accounts it as steal, counts neither in a call nor in a
loop sample.

:class:`Speedometer` runs :func:`reference_loop` just before and just
after each timed call, and, while a call runs, every
:data:`INTERVAL_S` seconds from a ``SIGALRM`` handler.  The samples taken
inside a call are spread evenly over its time, so their mean is the
call's time-weighted loop time.  The time the handler spends is taken out
of the call's time.  A call's *normalised* time is its time scaled to a
machine on which the loop takes :data:`REFERENCE_S`::

    normalised = (CPU time - handler CPU time) * REFERENCE_S / mean loop time

A program change that makes a call do more or less work moves the
normalised time as it moves the raw time; a neighbour that slows the
whole vCPU moves the loop too, and cancels out.
"""

from __future__ import annotations

import signal
import time
from typing import Callable, List, Tuple

#: Seconds between in-call samples.  With the loop at 0.25-0.4 ms this
#: costs 1-2% of a call's time, and that time is subtracted again.
INTERVAL_S = 0.02
#: The loop's time in the fast regime of the 2-vCPU machine the
#: benchmark was written on: normalised times read as seconds on it.
REFERENCE_S = 0.00025

CLOCK = time.process_time
_TABLE = dict.fromkeys(range(256), 0)


def reference_loop() -> int:
    """A fixed mix of the interpreter work the program does: dict reads
    and writes, calls, integer arithmetic.  Allocates nothing the cyclic
    collector tracks, so it never triggers a collection."""
    table = _TABLE
    total = 0
    for i in range(1500):
        table[i & 255] = i
        total += table[(i * 7) & 255]
        total = abs(total) % 1_000_003
    return total


def sample() -> float:
    started = CLOCK()
    reference_loop()
    return CLOCK() - started


class Speedometer:
    """Times calls with reference-loop samples around and inside them."""

    def __init__(self):
        self._samples: List[float] = []
        #: Time the in-call samples took during the last call.
        self.handler_s = 0.0

    def _on_alarm(self, _signum, _frame) -> None:
        entered = CLOCK()
        self._samples.append(sample())
        self.handler_s += CLOCK() - entered

    def time(self, call: Callable[[], object]) -> Tuple[object, float, float]:
        """Run ``call()``; returns ``(result, seconds, loop_s)``: its CPU
        time less the handler's, and the mean loop time over it."""
        self._samples = [sample()]
        self.handler_s = 0.0
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            started = CLOCK()
            result = call()
            spent = CLOCK() - started
            handler_s = self.handler_s
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.handler_s = handler_s
        seconds = spent - handler_s
        self._samples.append(sample())
        return result, seconds, sum(self._samples) / len(self._samples)


def normalised(seconds: float, loop_s: float) -> float:
    return seconds * REFERENCE_S / loop_s
