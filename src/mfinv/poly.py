"""Sparse multivariate polynomials over the exact scalars.

The ring is a fixed, ordered tuple of variable names.  A monomial is its
exponent word, one ``int`` with the exponent of variable i in bits 32i to
32i + 31 (Monagan-Pearce, CASC 2007); exponent tuples appear only at the
API (`PolyRing.monomial`, printing).  The top L + 1 bits of each field,
L = ceil(log2 n), are a guard that every stored word keeps clear, so a
monomial product is one addition with no carry between fields; a tuple
outside the layout, or a product that sets a guard bit, raises
ValueError.  The term order everywhere is grevlex in
the given variable order: the integer order of G(x) = x R mod 2^(32n), R
= sum_i 2^(32i), whose fields from the top are deg x, x_1 + ... +
x_(n-1), ..., x_1.  `WordLayout` holds these masks; `groebner` builds its
module keys on it.

``terms`` maps a word to a nonzero coefficient in one normal form per
field.  Over Q the coefficient is bare: an ``int``, or a ``Fraction`` when
it is not integral, the normal form `scalar.bare` gives.  Over Q(zeta) it
is a `Scalar` of the ring's context, whose coordinates have the same form.
The arithmetic is one loop for both fields, on +, * and truthiness only;
`PolyRing.coefficient` brings an incoming scalar to the normal form, and a
coefficient leaves as a `Scalar` (`constant_coeff`, `as_scalar`,
`PolyRing.scalar`), so that rational values at the API are Scalars as
before.

A small expression parser covers the CLI input grammar: `+ - * / ^`,
integer literals, parentheses, variable names, and (in a cyclotomic
session) the literal `z` for zeta_m.  Division is only by nonzero
constants.

    >>> R = PolyRing(("x", "y"))
    >>> w = R.parse("x^3 + x*y^2")
    >>> print(w.partial_derivative(1))
    2*x*y
    >>> print(R.parse("(x + y)^2 - x^2 - y^2"))
    2*x*y
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from operator import or_
import struct

from .scalar import CyclotomicContext, Frozen, Scalar, bare

Monomial = tuple  # exponent tuples, length = ring.n: the API form of a word

_B, _FIELD = 32, (1 << 32) - 1  # the bits of one exponent field
_OVERFLOW = "exponent above the limit 2^%d - 1 of the exponent words in %d variables"


class WordLayout:
    """The words of n variables: exponents below 2^limit, ``ones`` = R,
    ``high`` and ``guard`` the top bit and top L + 1 bits of each field,
    ``outside`` the bits no stored word has (guard, above, sign)."""

    def __init__(self, n: int):
        self.n, self.fmt = n, "<%dI" % n
        self.limit = _B - 1 - max(n - 1, 0).bit_length()
        self.ones = sum(1 << (_B * i) for i in range(n))
        self.high = self.ones << (_B - 1)
        self.guard = (_FIELD >> self.limit << self.limit) * self.ones
        self.width = _B * n
        self.xmask = (1 << self.width) - 1
        self.outside = self.guard | ~self.xmask

    def word(self, m: Monomial) -> int:
        if len(m) != self.n:
            raise ValueError("%d exponents for %d variables" % (len(m), self.n))
        if any(e >> self.limit for e in m):  # e < 0 too
            raise ValueError(_OVERFLOW % (self.limit, self.n))
        return int.from_bytes(struct.pack(self.fmt, *m), "little")

    def exponents(self, x: int) -> Monomial:
        return struct.unpack(self.fmt, x.to_bytes(4 * self.n, "little"))

    def check(self, words) -> None:
        if reduce(or_, words, 0) & self.outside:
            raise ValueError(_OVERFLOW % (self.limit, self.n))

    def grevlex(self, x: int) -> int:  # G(x)
        return x * self.ones & self.xmask

    def deg(self, x: int) -> int:  # also of a module key, whose low bits are x
        return (x * self.ones & self.xmask) >> (_B * max(self.n - 1, 0))


word_layout = cache(WordLayout)


class PolyRing(Frozen):
    """k[x_1, ..., x_n] with a fixed variable order and scalar context;
    ``layout`` is the `WordLayout` of its n variables."""

    __slots__ = ("names", "context", "layout")

    def __init__(self, names: tuple[str, ...], context: CyclotomicContext | None = None):
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        super().__init__(names, context, word_layout(len(names)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.names == other.names and self.context == other.context

    def __hash__(self):
        return hash((self.names, self.context))

    @property
    def n(self) -> int:
        return len(self.names)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, c) -> "Polynomial":
        c = self.coefficient(c)
        return Polynomial(self, {0: c} if c else {})

    def var(self, i: int) -> "Polynomial":
        if not 0 <= i < self.n:
            raise IndexError("variable index %d in a ring of %d variables" % (i, self.n))
        return Polynomial(self, {1 << (_B * i): self.coefficient(1)})

    def monomial(self, m: Monomial, c=1) -> "Polynomial":
        """c x^m for the exponent tuple m."""
        return self.from_terms({self.layout.word(m): c})

    def from_terms(self, terms: dict) -> "Polynomial":
        """The polynomial with these terms {word: scalar}; each value goes
        through `coefficient`, zero values are dropped, and a word outside
        the layout raises."""
        self.layout.check(terms)
        coefficient = self.coefficient
        return Polynomial(self, {m: coefficient(c) for m, c in terms.items() if c})

    def parse(self, text: str) -> "Polynomial":
        return _parse(self, text)

    def coefficient(self, c):
        """The scalar c (an int, a Fraction or a Scalar) as a term stores
        it; over Q a Scalar that is not rational raises."""
        if c.__class__ is Scalar:
            if c.context is not None and self.context is not None:
                return c
            if any(c.coeffs[1:]):
                raise ValueError("scalar %s is not rational" % c)
            c = c.coeffs[0]
        elif not isinstance(c, (int, Fraction)):
            raise TypeError("not a scalar: %r" % (c,))
        if self.context is not None:
            return self.context.from_rational(c)
        return bare(c)

    def scalar(self, c) -> Scalar:
        """The scalar c, or a coefficient of a term, as the Scalar the API
        hands out."""
        if c.__class__ is Scalar:
            return c
        if self.context is None:
            return Scalar(None, (bare(c),))
        return self.context.from_rational(c)


class Polynomial:
    """Immutable by convention; ``terms`` maps monomials to nonzero
    coefficients (module docstring)."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return not any(self.terms)  # the word of 1 is 0

    def constant_coeff(self) -> Scalar:
        return self.ring.scalar(self.terms.get(0, 0))

    def as_scalar(self) -> Scalar:
        if not self.is_constant():
            raise ValueError("polynomial is not constant: %s" % self)
        return self.constant_coeff()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            if other == 0:
                return self.is_zero()
            return NotImplemented
        return self.ring.names == other.ring.names and self.terms == other.terms

    __hash__ = None  # type: ignore[assignment]

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            if s is not None:
                c = s + c
                if not c:
                    del out[m]
                    continue
                if c.__class__ is Fraction and c.denominator == 1:
                    c = c.numerator  # a sum of Fractions can be integral
            out[m] = c
        return Polynomial(self.ring, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __mul__(self, other) -> "Polynomial":
        if other.__class__ is not Polynomial:
            if not isinstance(other, (int, Fraction, Scalar)):
                return NotImplemented
            other = self.ring.const(other)
        out = _normal(add_products({}, self.terms, other.terms))
        self.ring.layout.check(out)  # valid words add without a carry
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if not other.is_constant():
                raise ZeroDivisionError("division only by nonzero constants")
            other = other.as_scalar()
        return self * self.ring.scalar(other).inverse()

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative power")
        out = self.ring.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:  # a square past the last bit could leave the layout
                base = base * base
        return out

    def partial_derivative(self, i: int) -> "Polynomial":
        shift, one = _B * i, 1 << (_B * i)
        terms = {m - one: c * e for m, c in self.terms.items() if (e := m >> shift & _FIELD)}
        return Polynomial(self.ring, _normal(terms))

    def substitute(self, target: PolyRing, images: list["Polynomial"]) -> "Polynomial":
        """Ring map sending variable i to images[i] (all in ``target``)."""
        if len(images) != self.ring.n:
            raise ValueError("need one image per variable")
        out: dict = {}
        powers: list[dict] = [{} for _ in images]  # images[i] ** e by i, e
        exponents = self.ring.layout.exponents
        for m, c in self.terms.items():
            piece = target.const(c)
            for i, e in enumerate(exponents(m)):
                if e == 0:
                    continue
                q = powers[i].get(e)
                if q is None:
                    q = powers[i][e] = images[i] ** e
                piece = piece * q
            for mm, cc in piece.terms.items():
                s = out.get(mm)
                out[mm] = cc if s is None else s + cc
        return target.from_terms(out)

    def quasi_degree(self, weights: list[int]) -> int | None:
        """Common weighted degree of all terms, or None if inhomogeneous."""
        exponents = self.ring.layout.exponents
        degs = {sum(w * e for w, e in zip(weights, exponents(m))) for m in self.terms}
        if len(degs) > 1:
            return None
        return degs.pop() if degs else 0

    def map_ring(self, target: PolyRing) -> "Polynomial":
        """Reinterpret in a ring with the same variables (context upgrade)."""
        if target.names != self.ring.names:
            raise ValueError("variable mismatch")
        return target.from_terms(self.terms)

    def _coerce(self, other) -> "Polynomial":
        if other.__class__ is Polynomial:
            return other
        if isinstance(other, (int, Fraction, Scalar)):
            return self.ring.const(other)
        raise TypeError("cannot combine polynomial with %r" % (other,))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        lay = self.ring.layout
        for x in sorted(self.terms, key=lay.grevlex, reverse=True):
            c = self.terms[x]
            mono = "*".join(
                name if e == 1 else "%s^%d" % (name, e)
                for name, e in zip(self.ring.names, lay.exponents(x))
                if e > 0
            )
            cs = str(c)
            if "+" in cs or " " in cs or "-" in cs[1:]:
                cs = "(%s)" % cs
            if not mono:
                parts.append(cs)
            elif cs in ("1", "-1"):
                parts.append(cs[:-1] + mono)
            else:
                parts.append("%s*%s" % (cs, mono))
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self) -> str:
        return "Poly(%s)" % self


def add_products(out: dict, left: dict, right: dict) -> dict:
    """``out`` with each product of a term of ``left`` and a term of
    ``right`` added in: words add, coefficients multiply, and a sum that
    cancels stays for `_normal` to drop."""
    get = out.get
    right = right.items()
    for m1, c1 in left.items():
        for m2, c2 in right:
            m = m1 + m2
            s = get(m)
            out[m] = c1 * c2 if s is None else s + c1 * c2
    return out


def _normal(terms: dict) -> dict:
    """terms without zeros, an integral Fraction as an int (`scalar.bare`)."""
    return {m: c.numerator if c.__class__ is Fraction and c.denominator == 1 else c
            for m, c in terms.items() if c}


def difference_derivative(
    f: Polynomial, j: int, doubled: PolyRing
) -> Polynomial:
    """The j-th difference derivative, an element of the doubled ring.

    The doubled ring lists the original variables first and their primed
    partners second.  Variables before position j stay unsubstituted, those
    after j are replaced by their partners, and the quotient

        [f(x_1..x_{j-1}, y_j, .., y_n) - f(x_1..x_j, y_{j+1}, .., y_n)] / (y_j - x_j)

    is taken term by term: c*x^a goes to
    c * x_{<j}^{a_{<j}} * y_{>j}^{a_{>j}} * sum_{k < a_j} x_j^k y_j^(a_j-1-k).
    Two pairs (term, k) never give the same monomial, since a_j - 1 is the
    combined degree in x_j and y_j.  On words: the fields below j stay, the
    fields above j move up by n, and x_j^k y_j^(a_j-1-k) is added.
    """
    n = f.ring.n
    if doubled.n != 2 * n:
        raise ValueError("doubled ring must have 2n variables")
    shift, up = _B * j, _B * (n + j)
    low = (1 << shift) - 1
    out: dict = {}
    for m, c in f.terms.items():
        a = m >> shift & _FIELD
        rest = (m & low) + (m >> (shift + _B) << (up + _B))
        for k in range(a):
            out[rest + (k << shift) + ((a - 1 - k) << up)] = c
    doubled.layout.check(out)  # the doubled ring has narrower fields
    return Polynomial(doubled, out)


def doubled_ring(ring: PolyRing) -> PolyRing:
    """k[x, y]: the names of ``ring``, then each of them with "_y" appended.

    A partner name that is already taken gets one more "_" before the y
    until it is free, so ("x", "x_y") doubles to x, x_y, x__y, x_y_y.
    """
    taken = set(ring.names)
    partners = []
    for name in ring.names:
        suffix = "_y"
        while name + suffix in taken:
            suffix = "_" + suffix
        taken.add(name + suffix)
        partners.append(name + suffix)
    return PolyRing(ring.names + tuple(partners), ring.context)


def determinant(rows, one):
    """Determinant by Laplace expansion along the first row.

    Works over any commutative ring whose elements support `+`, `-` and `*`;
    `one` is the ring's multiplicative identity (the value of the empty
    determinant).  Intended for the small matrices that appear here: Hessians,
    residue cofactors, difference Jacobians.
    """
    n = len(rows)
    if n == 0:
        return one
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = None
    for j in range(n):
        minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
        term = rows[0][j] * determinant(minor, one)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    return total


# --- expression parser ------------------------------------------------------

_OPS = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def _tokenize(text: str) -> list[str]:
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(text[i:j])
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(text[i:j])
            i = j
        elif ch in "+-*/^()":
            out.append(ch)
            i += 1
        else:
            raise ValueError("bad character %r in %r" % (ch, text))
    return out


class _Parser:
    def __init__(self, ring: PolyRing, tokens: list[str]):
        self.ring = ring
        self.toks = tokens
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self):
        t = self.peek()
        self.pos += 1
        return t

    def parse_expr(self, min_prec: int) -> Polynomial:
        left = self.parse_atom()
        while True:
            op = self.peek()
            if op not in _OPS or _OPS[op] < min_prec:
                return left
            self.next()
            if op == "^":
                expo = self.next()
                if expo is None or not expo.isdigit():
                    raise ValueError("exponent must be a nonnegative integer")
                left = left ** int(expo)
                continue
            right = self.parse_expr(_OPS[op] + 1)
            if op == "+":
                left = left + right
            elif op == "-":
                left = left - right
            elif op == "*":
                left = left * right
            else:
                if not right.is_constant() or right.is_zero():
                    raise ValueError("division only by nonzero constants")
                left = left / right.as_scalar()
        return left

    def parse_atom(self) -> Polynomial:
        t = self.next()
        if t is None:
            raise ValueError("unexpected end of expression")
        if t == "(":
            inner = self.parse_expr(1)
            if self.next() != ")":
                raise ValueError("missing closing parenthesis")
            return inner
        if t == "-":
            return -self.parse_expr(3)
        if t == "+":
            return self.parse_expr(3)
        if t.isdigit():
            return self.ring.const(int(t))
        if t in self.ring.names:
            return self.ring.var(self.ring.names.index(t))
        if t == "z" and self.ring.context is not None:
            return self.ring.const(self.ring.context.zeta())
        raise ValueError("unknown name %r" % t)


def _parse(ring: PolyRing, text: str) -> Polynomial:
    p = _Parser(ring, _tokenize(text))
    result = p.parse_expr(1)
    if p.peek() is not None:
        raise ValueError("trailing input at %r" % p.peek())
    return result
