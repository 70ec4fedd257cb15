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

A rational Scalar wraps one rational:

    >>> print(rational(2, 4) + rational(1, 3))
    5/6

Scalars are the values the API hands out (residues, Gram entries, class
coordinates, characters, group elements) and the coefficients of
polynomials over Q(zeta).  A polynomial over Q stores its coefficients
bare (see `poly`) and wraps one in a Scalar only when it leaves the
polynomial.

Everywhere in the package a rational has one normal form, which `bare`
gives: an ``int``, or a ``Fraction`` when it is not integral.  The
coordinates of a Scalar are in that form too, so the integral coordinates
of roots of unity, action matrices and most characters are plain ints.

A sum or a product with an operand of the same field (the same context
object, or both None) skips the coercion `_unify`, which lifts a rational
into the other side's field; ints, Fractions and operands of another
context object still go through it.  A rational operand, bare or a
Scalar, changes one coordinate of a sum and scales the coordinates of a
product.  Phi_m is monic over Z, so the product of two non-rational
elements clears their denominators, convolves and reduces mod the ``int``
Phi_m on ints, and divides each coordinate once by the product of the
two denominators.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

# Largest cyclotomic order m of a session's field, its group's field and
# its grading group's field, and the largest group order
# `equivariant.close_group` enumerates.
# Larger conductors only add cost: closing a group builds all m powers of
# zeta_m, which takes 0.5 s at m = 210, 2 s at m = 420 and 13 s at m = 840
# on a 2-core VM.
MAX_CONDUCTOR = 64


def bare(c):
    """The rational c (an int or a Fraction) in normal form: an ``int``, or
    a ``Fraction`` when it is not integral."""
    return c if c.__class__ is int or c.denominator != 1 else c.numerator


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients of Phi_m, low degree first, monic, as ``int``s.

    Computed by dividing x^m - 1 by Phi_d for every proper divisor d of m.
    """
    if m < 1:
        raise ValueError("conductor must be positive")
    num = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            num = _polydiv_exact(num, cyclotomic_polynomial(d))
    return tuple(num)


def _polydiv_exact(num: list[int], den) -> list[int]:
    # exact division over Z by the monic den, low degree first; the whole
    # remainder must vanish, so a non-monic den raises as well
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = out[k] = num[k + len(den) - 1]
        if c:
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
    if any(num):
        raise AssertionError("non-exact polynomial division")
    return out


class Frozen:
    """Base of the immutable value classes.

    A subclass names its fields once, in ``__slots__``, and that order is
    the constructor's: ``Frozen.__init__`` stores its arguments in that
    order and raises ValueError on a wrong count, also under ``python -O``.
    A subclass that checks or derives its input first ends its own
    ``__init__`` with ``super().__init__``.  `Scalar` is the exception and
    stores its two fields itself: a residue or orbifold benchmark pass
    builds about 10,000 of them (the next class a few hundred), and the
    generic store takes about twice as long.  Assigning or deleting an
    attribute afterwards raises AttributeError.
    """

    __slots__ = ()

    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields, strict=True):
            object.__setattr__(self, name, value)

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
    def minimal_polynomial(self) -> tuple[int, ...]:
        return cyclotomic_polynomial(self.order)

    def zeta(self, power: int = 1) -> "Scalar":
        """The root of unity zeta_m^power as a Scalar."""
        power %= self.order
        coeffs = _reduce_mod_phi([0] * power + [1], self.minimal_polynomial)
        return Scalar(self, tuple(coeffs))

    def from_rational(self, a: Fraction | int) -> "Scalar":
        return Scalar(self, (bare(a),) + (0,) * (self.degree - 1))


def _reduce_mod_phi(coeffs: list, phi: tuple) -> list:
    """The remainder mod the monic integer phi, its coordinates in normal
    form (`bare`); entries of degree d and above are read, not cleared."""
    d = len(phi) - 1
    coeffs = list(coeffs)
    for k in range(len(coeffs) - 1, d - 1, -1):
        c = coeffs[k]
        if c:
            # x^k -> x^(k-d) * (x^d - phi) since phi is monic
            for j in range(d):
                coeffs[k - d + j] -= c * phi[j]
    return [bare(c) for c in coeffs[:d]] + [0] * (d - len(coeffs))


def _convolve(xs, ys) -> list:
    """The product of two coefficient sequences, low degree first."""
    prod = [0] * (len(xs) + len(ys) - 1)
    for i, x in enumerate(xs):
        if x:
            for j, y in enumerate(ys):
                if y:
                    prod[i + j] += x * y
    return prod


def _integral(xs) -> tuple:
    """(den, den * xs): the least common denominator of the rationals xs
    and the integral coordinates it makes of them."""
    den = lcm(*(x.denominator for x in xs))
    if den == 1:
        return 1, tuple(xs)
    return den, tuple(x.numerator * (den // x.denominator) for x in xs)


def _product(xs, ys, phi: tuple) -> tuple:
    """The coordinates of xs * ys mod the monic integer phi.  The
    denominators are cleared first, so that the convolution and the
    reduction run on ints, and each coordinate is divided once at the end."""
    dx, xs = _integral(xs)
    dy, ys = _integral(ys)
    coeffs = _reduce_mod_phi(_convolve(xs, ys), phi)
    den = dx * dy
    if den == 1:
        return tuple(coeffs)
    return tuple(bare(Fraction(c, den)) for c in coeffs)


class Scalar(Frozen):
    """An exact field element, as the API hands it out (module docstring).

    ``context`` is None for plain rationals, in which case ``coeffs`` has
    length one.  For cyclotomic elements ``coeffs`` lists the coordinates in
    the power basis 1, zeta, ..., zeta^(d-1), always fully reduced mod Phi_m,
    so equality is componentwise.  Each coordinate is a rational in normal
    form (`bare`); the constructor stores what it is given, and the
    arithmetic and the entry points hand it normal-form values.
    """

    __slots__ = ("context", "coeffs")

    def __init__(self, context: CyclotomicContext | None, coeffs: tuple):
        object.__setattr__(self, "context", context)
        object.__setattr__(self, "coeffs", coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_fraction(self) -> int | Fraction:
        """The value of a rational scalar, bare: an int or a Fraction."""
        if not self.is_rational():
            raise ValueError("scalar is not rational: %s" % (self,))
        return self.coeffs[0]

    def is_rational_integer(self) -> bool:
        return self.is_rational() and self.coeffs[0].__class__ is int

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
        if other.__class__ is not Scalar or other.context is not self.context:
            pair = _unify(self, other)
            if pair is NotImplemented:
                return NotImplemented
            self, other = pair
        x, y = self.coeffs, other.coeffs
        # a rational operand changes one coordinate of the other
        if not any(y[1:]):
            return Scalar(self.context, (bare(x[0] + y[0]),) + x[1:])
        if not any(x[1:]):
            return Scalar(self.context, (bare(x[0] + y[0]),) + y[1:])
        return Scalar(self.context, tuple(bare(a + b) for a, b in zip(x, y)))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.context, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        if other.__class__ is Scalar and other.context is self.context:
            x, y = self.coeffs, other.coeffs
        elif isinstance(other, (int, Fraction)):
            x, y = self.coeffs, (bare(other),)
        else:
            pair = _unify(self, other)
            if pair is NotImplemented:
                return NotImplemented
            self, other = pair
            x, y = self.coeffs, other.coeffs
        ctx = self.context
        if not any(y[1:]):
            if not any(x[1:]):
                return Scalar(ctx, (bare(x[0] * y[0]),) + x[1:])
        elif any(x[1:]):
            return Scalar(ctx, _product(x, y, ctx.minimal_polynomial))
        else:
            x, y = y, x  # the product commutes; scale by the rational side
        f = y[0]
        return Scalar(ctx, tuple(bare(a * f) for a in x))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("scalar inverse of zero")
        if self.is_rational():
            return Scalar(self.context, (bare(Fraction(1, self.coeffs[0])),) + self.coeffs[1:])
        # a = den * self has integral coordinates; c is the product of the
        # conjugates sigma_k(a), zeta -> zeta^k, over the units 1 < k < m,
        # so a * c is the norm N(a), a nonzero integer, and
        # 1/self = den * c / N(a)
        m, phi = self.context.order, self.context.minimal_polynomial
        den, coeffs = _integral(self.coeffs)
        a = Scalar(self.context, coeffs)
        c = one(self.context)
        for k in range(2, m):
            if gcd(k, m) == 1:
                spread = [0] * m
                for j, x in enumerate(a.coeffs):
                    spread[j * k % m] = x
                c = c * Scalar(self.context, tuple(_reduce_mod_phi(spread, phi)))
        return c * Fraction(den, (a * c).as_fraction())

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Scalar(None, (bare(other),))
        return self * other.inverse() if other.__class__ is Scalar else NotImplemented

    def __str__(self) -> str:
        if self.context is None or self.is_rational():
            return str(self.coeffs[0])
        parts: list[str] = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
                continue
            mono = "z" if k == 1 else "z^%d" % k
            if c == 1:
                term = mono
            elif c == -1:
                term = "-" + mono
            else:
                term = "%s*%s" % (c, mono)
            parts.append(term)
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self) -> str:
        return "Scalar(%s)" % self


def _unify(a: Scalar, b) -> tuple[Scalar, Scalar]:
    if isinstance(b, (int, Fraction)):
        b = Scalar(None, (bare(b),))
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


def rational(p: int | Fraction, q: int = 1) -> Scalar:
    return Scalar(None, (bare(Fraction(p, q)),))


def zero(ctx: CyclotomicContext | None = None) -> Scalar:
    return rational(0) if ctx is None else ctx.from_rational(0)


def one(ctx: CyclotomicContext | None = None) -> Scalar:
    return rational(1) if ctx is None else ctx.from_rational(1)


def scalar_to_json(s: Scalar):
    """Serialize for CLI output: "p/q" for rationals, {m, coeffs} otherwise."""
    if s.context is None or s.is_rational():
        return str(s.coeffs[0])
    return {
        "m": s.context.order,
        "coeffs": [str(c) for c in s.coeffs],
    }
