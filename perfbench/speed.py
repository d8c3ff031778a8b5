"""How fast this machine runs pure Python right now, from a fixed probe.

On a shared host the same code can run a third or more slower for
minutes at a time, when neighbours load the machine.  ``probe()`` times
a fixed piece of pure-Python work that uses no frobg2 code: exact
rational sums over growing integers and dictionary updates, the same
kinds of work frobg2's evaluators and symbolic builds do.  The timed
run interleaves probes with its calls, and ``factor()`` turns the
median probe time of the run into the factor that scales the run's
times to a machine on which one probe unit takes ``REFERENCE_UNIT_S``.
A change to frobg2 moves the scaled times exactly as it moves the raw
ones; a change in the host's speed moves the probe as well, and so
cancels.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# one probe unit's time on the machine baseline.json was measured on,
# at its usual speed
REFERENCE_UNIT_S = 0.1


def unit():
    total = Fraction(0)
    for k in range(1, 3000):
        total += Fraction(1, k * k + 1)
    counts = {}
    for i in range(200000):
        counts[i % 1000] = counts.get(i % 1000, 0) + i
    return total, counts


def probe(units):
    """The wall time of each of ``units`` runs of the probe unit."""
    times = []
    for _ in range(units):
        start = time.perf_counter()
        unit()
        times.append(time.perf_counter() - start)
    return times


def factor(times):
    """The factor that scales a run's times to the reference speed."""
    return REFERENCE_UNIT_S / statistics.median(times)
