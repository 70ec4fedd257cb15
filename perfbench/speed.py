"""The machine's speed, read with a fixed reference kernel.

The benchmark shares a few cores of a host with other work, and that work
slows every process on it by up to half, in phases from milliseconds to
minutes.  A run therefore times a fixed pure-Python kernel, much like
mfinv's own inner loops (a product of two dense polynomials over Q, stored
as dicts from exponent tuples to `Fraction`), between its operations.  The
ratio of the operations' time to the kernel's time over the same run does
not depend on the phase the run fell in; times are reported as that ratio
times ``REF_S``, which makes them seconds on a machine where one kernel call
takes ``REF_S``.
"""
from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# about the kernel's typical time on the 2-core VM of the reference figures
# (Intel Xeon at 2.1 GHz, Python 3.11), so that times read close to wall
# times there; a fixed constant, it only sets the scale
REF_S = 0.0065

_FACTOR = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(6)}


def reference() -> dict:
    """The kernel: the square of a dense bivariate polynomial of 36 terms."""
    out = {}
    for (a, b), c in _FACTOR.items():
        for (d, e), f in _FACTOR.items():
            key = (a + d, b + e)
            out[key] = out.get(key, 0) + c * f
    return out


def timed_reference() -> float:
    t0 = perf_counter()
    reference()
    return perf_counter() - t0
