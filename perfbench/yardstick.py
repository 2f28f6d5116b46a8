"""A fixed piece of host work that tracks how fast this machine runs
Python right now.

On a shared virtual machine the speed of pure-Python code swings by a
quarter or more within seconds as neighbours come and go.  Timing this
fixed work next to each measurement and scaling the measurement by it
removes most of the swing: a rate ``r`` measured while the yardstick
took ``y`` seconds is reported as ``r * y / REF_S``, a latency ``t`` as
``t * REF_S / y`` -- the figure the same code would give while the
yardstick takes :data:`REF_S`.

The work mixes what the converter spends its time on: pure-Python
arithmetic and object churn (``fractions.Fraction``) and the host's own
``repr``/``float``/``%`` conversions, on 64 values that do not depend on
the workload seed.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

#: The yardstick time the adjusted figures are expressed at (seconds);
#: about its median on the reference host (see README.md).
REF_S = 700e-6

_VALUES = [random.Random("yardstick").uniform(-1e6, 1e6) for _ in range(64)]


def yardstick() -> float:
    """Seconds this call took to do the fixed work once."""
    start = time.perf_counter()
    for x in _VALUES:
        Fraction(x) * 3 + 1
        float(repr(x))
        "%.6e" % x
    return time.perf_counter() - start
