"""Exact scalar arithmetic: rationals and cyclotomic field elements.

Every number in this package is either a rational or an element of a single
cyclotomic field Q(zeta_m).  A computation session fixes one conductor m up
front; mixing conductors is an error rather than an embedding problem.

    >>> ctx = CyclotomicContext(4)
    >>> z = ctx.zeta()
    >>> print(z * z)
    -1
    >>> print((one(ctx) + z) * (one(ctx) - z))
    2

A rational Scalar wraps one Fraction:

    >>> print(rational(2, 4) + rational(1, 3))
    5/6

Scalars are the values the API hands out (residues, Gram entries, class
coordinates, characters, group elements) and the coefficients of
polynomials over Q(zeta).  A polynomial over Q stores its coefficients
bare, as an ``int`` or a non-integral ``Fraction`` (see `poly`), and wraps
one in a Scalar only when it leaves the polynomial.

Coordinates are always ``Fraction``s.  Phi_m is monic with integer
coefficients, so a product of two elements with integral coordinates (roots
of unity, action matrices, most characters) is convolved and reduced mod
Phi_m on plain ints, and each coordinate of the result is wrapped in
``Fraction`` once; any other product runs the same steps on Fractions.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

# Largest cyclotomic order m of a session's field, its group's field and
# its grading group's field, and the largest group order
# `equivariant.close_group` enumerates.
# Larger conductors only add cost: closing a group builds all m powers of
# zeta_m, which takes 0.5 s at m = 210, 2 s at m = 420 and 13 s at m = 840
# on a 2-core VM.
MAX_CONDUCTOR = 64


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[Fraction, ...]:
    """Coefficients of Phi_m, low degree first, monic.

    Computed by dividing x^m - 1 by Phi_d for every proper divisor d of m.
    """
    if m < 1:
        raise ValueError("conductor must be positive")
    # x^m - 1
    num = [Fraction(0)] * (m + 1)
    num[0] = Fraction(-1)
    num[m] = Fraction(1)
    for d in range(1, m):
        if m % d == 0:
            num = _polydiv_exact(num, list(cyclotomic_polynomial(d)))
    return tuple(num)


@lru_cache(maxsize=None)
def integer_cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Phi_m with ``int`` coefficients, for the integral product."""
    return tuple(int(c) for c in cyclotomic_polynomial(m))


def _polydiv_exact(num: list[Fraction], den: list[Fraction]) -> list[Fraction]:
    # exact division over Q, low degree first; remainder must vanish
    num = list(num)
    out = [Fraction(0)] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1] / den[-1]
        out[k] = c
        if c:
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
    if any(num):
        raise AssertionError("non-exact polynomial division")
    return out


class Frozen:
    """Base of the immutable value classes.

    Each subclass's ``__init__`` stores its fields once through
    ``object.__setattr__``; assigning or deleting an attribute afterwards
    raises AttributeError.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __setstate__(self, state):
        # copy and pickle restore the fields here rather than through
        # __setattr__; the state is __dict__, or (__dict__ or None, slots)
        for part in state if isinstance(state, tuple) else (state,):
            for name, value in (part or {}).items():
                object.__setattr__(self, name, value)


class CyclotomicContext(Frozen):
    """The field Q(zeta_m), presented as Q[x]/Phi_m(x)."""

    __slots__ = ("order",)

    def __init__(self, order: int):
        object.__setattr__(self, "order", order)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.order == other.order

    def __hash__(self):
        return hash(self.order)

    @property
    def degree(self) -> int:
        return len(self.minimal_polynomial) - 1

    @property
    def minimal_polynomial(self) -> tuple[Fraction, ...]:
        return cyclotomic_polynomial(self.order)

    def zeta(self, power: int = 1) -> "Scalar":
        """The root of unity zeta_m^power as a Scalar."""
        power %= self.order
        if self.degree == 1:
            # Phi_1 = x - 1 or Phi_2 = x + 1: zeta is rational
            root = -self.minimal_polynomial[0]
            return Scalar(self, (root**power,))
        coeffs = _reduce_mod_phi(
            [Fraction(0)] * power + [Fraction(1)], self.minimal_polynomial
        )
        return Scalar(self, tuple(coeffs))

    def from_rational(self, a: Fraction | int) -> "Scalar":
        coeffs = [Fraction(0)] * self.degree
        coeffs[0] = Fraction(a)
        return Scalar(self, tuple(coeffs))


def _reduce_mod_phi(coeffs: list, phi: tuple) -> list:
    """The remainder mod the monic phi, on Fractions or, with an integer
    phi, on ints; entries of degree d and above are read, not cleared."""
    d = len(phi) - 1
    coeffs = list(coeffs)
    for k in range(len(coeffs) - 1, d - 1, -1):
        c = coeffs[k]
        if c:
            # x^k -> x^(k-d) * (x^d - phi) since phi is monic
            for j in range(d):
                coeffs[k - d + j] -= c * phi[j]
    return coeffs[:d] + [Fraction(0)] * (d - len(coeffs))


def _convolve(xs, ys, zero) -> list:
    """The product of two coefficient sequences, low degree first."""
    prod = [zero] * (len(xs) + len(ys) - 1)
    for i, x in enumerate(xs):
        if x:
            for j, y in enumerate(ys):
                if y:
                    prod[i + j] += x * y
    return prod


class Scalar(Frozen):
    """An exact field element, as the API hands it out (module docstring).

    ``context`` is None for plain rationals, in which case ``coeffs`` has
    length one.  For cyclotomic elements ``coeffs`` lists the coordinates in
    the power basis 1, zeta, ..., zeta^(d-1), always fully reduced mod Phi_m,
    so equality is componentwise.
    """

    __slots__ = ("context", "coeffs")

    def __init__(self, context: CyclotomicContext | None, coeffs: tuple[Fraction, ...]):
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "coeffs", coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("scalar is not rational: %s" % (self,))
        return self.coeffs[0]

    def is_rational_integer(self) -> bool:
        return self.is_rational() and self.coeffs[0].denominator == 1

    def __eq__(self, other):
        """Equality across int, Fraction, and context-lifted rationals.

        Scalars in distinct cyclotomic fields compare equal only when both
        are rational; no cross-conductor embedding is attempted.
        """
        try:
            pair = _unify(self, other)
        except ValueError:
            # mixed conductors: only rational values can still agree
            if self.is_rational() and other.is_rational():
                return self.as_fraction() == other.as_fraction()
            return False
        if pair is NotImplemented:
            return NotImplemented
        a, b = pair
        return a.coeffs == b.coeffs

    def __hash__(self):
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.context.order, self.coeffs))

    def __add__(self, other):
        pair = _unify(self, other)
        if pair is NotImplemented:
            return NotImplemented
        a, b = pair
        return Scalar(a.context, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.context, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Scalar(self.context, tuple(a * other for a in self.coeffs))
        pair = _unify(self, other)
        if pair is NotImplemented:
            return NotImplemented
        a, b = pair
        if b.is_rational():
            f = b.coeffs[0]
            return Scalar(a.context, tuple(x * f for x in a.coeffs))
        order = a.context.order
        if all(c.denominator == 1 for c in a.coeffs + b.coeffs):
            # Phi_m is monic over Z: integral coordinates multiply and
            # reduce on ints, and only the result is wrapped in Fraction
            prod = _convolve(
                [x.numerator for x in a.coeffs], [y.numerator for y in b.coeffs], 0
            )
            reduced = _reduce_mod_phi(prod, integer_cyclotomic_polynomial(order))
            return Scalar(a.context, tuple(map(Fraction, reduced)))
        prod = _convolve(a.coeffs, b.coeffs, Fraction(0))
        reduced = _reduce_mod_phi(prod, cyclotomic_polynomial(order))
        return Scalar(a.context, tuple(reduced))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("scalar inverse of zero")
        if self.is_rational():
            return Scalar(self.context, (1 / self.coeffs[0],) + self.coeffs[1:])
        # extended gcd of the representative with Phi_m; Phi_m is irreducible
        # over Q so the gcd is a nonzero constant
        s = _xgcd_inverse(list(self.coeffs), list(self.context.minimal_polynomial))
        return Scalar(
            self.context,
            tuple(_reduce_mod_phi(s, self.context.minimal_polynomial)),
        )

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar(None, (Fraction(other),))
        return self * other.inverse() if other.__class__ is Scalar else NotImplemented

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        out = one(self.context)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __str__(self) -> str:
        if self.context is None or self.is_rational():
            return _fmt_fraction(self.coeffs[0])
        parts: list[str] = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(_fmt_fraction(c))
                continue
            mono = "z" if k == 1 else "z^%d" % k
            if c == 1:
                term = mono
            elif c == -1:
                term = "-" + mono
            else:
                term = "%s*%s" % (_fmt_fraction(c), mono)
            parts.append(term)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self) -> str:
        return "Scalar(%s)" % self


def _unify(a: Scalar, b) -> tuple[Scalar, Scalar]:
    if isinstance(b, (int, Fraction)):
        b = Scalar(None, (Fraction(b),))
    if not isinstance(b, Scalar):
        return NotImplemented  # type: ignore[return-value]
    if a.context is None and b.context is None:
        return a, b
    if a.context is None:
        return b.context.from_rational(a.coeffs[0]), b
    if b.context is None:
        return a, a.context.from_rational(b.coeffs[0])
    if a.context.order != b.context.order:
        raise ValueError(
            "mixed cyclotomic conductors %d and %d"
            % (a.context.order, b.context.order)
        )
    return a, b


def _fmt_fraction(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return "%d/%d" % (c.numerator, c.denominator)


def _xgcd_inverse(a: list[Fraction], phi: list[Fraction]) -> list[Fraction]:
    # returns s with s*a = 1 mod phi (phi irreducible, deg a < deg phi)
    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    def sub_scaled(p, q, c, shift):
        while len(p) < len(q) + shift:
            p.append(Fraction(0))
        for i, qi in enumerate(q):
            p[i + shift] -= c * qi
        return trim(p)

    r0, r1 = trim(list(phi)), trim(list(a))
    s0: list[Fraction] = []
    s1: list[Fraction] = [Fraction(1)]
    while len(r1) > 1:
        r = list(r0)
        s = list(s0)
        for k in range(len(r0) - len(r1), -1, -1):
            if len(r) < k + len(r1):
                continue
            c = r[k + len(r1) - 1] / r1[-1]
            if c:
                r = sub_scaled(r, r1, c, k)
                s = sub_scaled(s, s1, c, k)
        r0, r1 = r1, trim(r)
        s0, s1 = s1, s
        if not r1:
            raise ZeroDivisionError("element shares a factor with the modulus")
    c = r1[0]
    return [x / c for x in s1]


def rational(p: int | Fraction, q: int = 1) -> Scalar:
    return Scalar(None, (Fraction(p, q),))


def zero(ctx: CyclotomicContext | None = None) -> Scalar:
    return rational(0) if ctx is None else ctx.from_rational(0)


def one(ctx: CyclotomicContext | None = None) -> Scalar:
    return rational(1) if ctx is None else ctx.from_rational(1)


def scalar_to_json(s: Scalar):
    """Serialize for CLI output: "p/q" for rationals, {m, coeffs} otherwise."""
    if s.context is None or s.is_rational():
        return _fmt_fraction(s.coeffs[0])
    return {
        "m": s.context.order,
        "coeffs": [_fmt_fraction(c) for c in s.coeffs],
    }
