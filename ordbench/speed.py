"""Machine-speed probe, for timings that do not move with a shared host's load.

On a shared virtual machine the same operation can take twice as long for
tens of seconds at a time, while other tenants load the host; a 36-second run
can fall wholly inside such a phase.  To keep that out of the end-to-end
figures, every timed operation, and every set-up process, is bracketed by a
fixed probe, which touches no ordlab code, and its time is scaled by the
machine's speed the probe saw around it:

    scaled = measured * REFERENCE_S / mean(probe before, probe after)

The probe does the kinds of work ordlab does (a dict with tuple keys, a sort
of Python floats, a numpy sort and sum), so that it slows down with the host
about as ordlab's operations do; a pure-Python arithmetic loop tracked them
less well.  ``REFERENCE_S`` is close to the fastest time the probe was seen
to take on a 2-vCPU x86-64 host.  Scaled times are in reference seconds:
what the operation would take on a machine on which the probe takes
``REFERENCE_S``.  The probe is the same for every version of ordlab, so a
change to ordlab moves scaled times as it moves the measured ones.  The
measured times are printed and stored beside them.
"""

import time

import numpy as np

READINGS = 3  # a probe is the fastest of this many back-to-back readings
REFERENCE_S = 0.5e-3
_ARRAY = np.arange(20_000.0)


def _work():
    table = {}
    for k in range(3_000):
        table[(k % 61, k)] = k * 0.5
    sorted(table.values(), reverse=True)
    float(np.sort(_ARRAY[::-1] * 1.0001).sum())


def probe():
    """Seconds the fixed work takes now: the fastest of ``READINGS`` readings."""
    best = None
    for _ in range(READINGS):
        start = time.perf_counter_ns()
        _work()
        elapsed = time.perf_counter_ns() - start
        if best is None or elapsed < best:
            best = elapsed
    return best / 1e9


def factor(before, after):
    """Multiplier taking a time measured between two probes to reference seconds."""
    return REFERENCE_S / (0.5 * (before + after))
