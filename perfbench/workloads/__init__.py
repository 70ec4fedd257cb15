"""The four workloads and what they share.

Each workload module has ``setup(seed, work, traced) -> Workload``.  Set-up
imports mfinv and builds every input from the seed; the operations then
run as a closed loop, one at a time.  Every operation carries a check that
compares its output with a value worked out apart from the operation (a
closed form, a dimension count, or an identity between two routes).  The
checks run after each pass, outside the timed region.
"""
from __future__ import annotations

import cmath
import importlib
import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

NAMES = ("sessions", "hom", "residue", "orbifold")


class Mismatch(Exception):
    """The operation returned, but its output is wrong."""


class Crash(Exception):
    """The program failed instead of answering (a traceback, say)."""


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]  # raises Mismatch or Crash


@dataclass
class Workload:
    ops: list
    peak_rss_of_children: bool = False
    # per pass, the {"counts", "spans"} of each traced child process
    collect_trace: Callable[[], list] = field(default=lambda: [])


def load(name: str):
    """The workload module of that name (one of NAMES)."""
    return importlib.import_module("workloads." + name)


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise Mismatch(message)


# --- closed forms shared by several workloads --------------------------------


def brieskorn_pham_gram(exponents) -> dict:
    """Nonzero entries of tr(x^a x^b) on the basis x^e, 0 <= e_i <= a_i - 2.

    For w = sum x_i^(a_i) the trace is 1/prod(a_i) on the socle monomial
    prod x_i^(a_i - 2) and 0 on every other basis monomial.
    """
    socle = tuple(a - 2 for a in exponents)
    value = Fraction(1)
    for a in exponents:
        value /= a
    return {"socle": socle, "value": value}


def invariant_monomial_dims(exponents, group_exps, order: int):
    """Orbifold Hochschild dimensions of sum x_i^(a_i) under a diagonal group.

    ``group_exps`` lists generators as exponent vectors k (x_i -> z^(k_i) x_i
    with z a primitive ``order``-th root of unity).  For each element g the
    sector algebra of the fixed variables has the Brieskorn-Pham basis, and a
    form x^e dx_F is invariant when sum over F of k_i (e_i + 1) is 0 mod
    ``order`` for every generator.  Returns the sorted (parity, dimension)
    list and the even and odd totals.
    """
    elements = {tuple([0] * len(exponents))}
    frontier = list(elements)
    while frontier:
        g = frontier.pop()
        for k in group_exps:
            h = tuple((a + b) % order for a, b in zip(g, k))
            if h not in elements:
                elements.add(h)
                frontier.append(h)
    sectors = []
    totals = [0, 0]
    for g in sorted(elements):
        fixed = [i for i, e in enumerate(g) if e == 0]
        dim = 0
        for es in itertools.product(*[range(exponents[i] - 1) for i in fixed]):
            if all(
                sum(k[i] * (e + 1) for i, e in zip(fixed, es)) % order == 0
                for k in group_exps
            ):
                dim += 1
        parity = len(fixed) % 2
        sectors.append((parity, dim))
        totals[parity] += dim
    return sorted(sectors), totals[0], totals[1]


def cyclotomic_value(coeffs, order: int) -> complex:
    """The complex number sum c_j zeta^j, zeta = exp(2 pi i / order)."""
    zeta = cmath.exp(2j * cmath.pi / order)
    return sum(complex(Fraction(c)) * zeta**j for j, c in enumerate(coeffs))


def close_to(a: complex, b: complex) -> bool:
    return abs(a - b) < 1e-9


def chi_pinned(n: int, i: int, d: int) -> int:
    """chi_G(E_i, E_i twisted by d) for x^n under Z/n, as in the test suite."""
    total = sum(1 for j in range(i) if (d + j) % n == 0)
    total -= sum(1 for j in range(1, i + 1) if (d - j) % n == 0)
    return total


def invariant_dims_pinned(n: int, i: int, d: int) -> tuple:
    m = min(i, n - i)
    d0 = sum(1 for j in range(m) if (d + j) % n == 0)
    d1 = sum(1 for j in range(1, m + 1) if (d - j) % n == 0)
    return d0, d1
