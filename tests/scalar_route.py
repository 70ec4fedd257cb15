"""The coercing route: Scalar sums and products through `_unify`.

`mfinv.scalar.Scalar` adds and multiplies an operand of its own field
directly: a rational inside the field touches one coordinate, and a
product of two non-rational elements clears the denominators, convolves
and reduces ints, and divides each coordinate once.  Before, every
operand went through `_unify`, which lifts a rational into the other
side's field, and a product convolved and reduced the coordinates as they
came, ints and Fractions mixed.  That route stays here as the reference
the direct paths are checked against.  Each function takes a Scalar first
and an int, a Fraction or a Scalar second, as the methods did.
"""
from fractions import Fraction

from mfinv.scalar import Scalar, _convolve, _reduce_mod_phi, _unify, bare


def add(self, other):
    pair = _unify(self, other)
    if pair is NotImplemented:
        return NotImplemented
    a, b = pair
    return Scalar(a.context, tuple(bare(x + y) for x, y in zip(a.coeffs, b.coeffs)))


def mul(self, other):
    if isinstance(other, (int, Fraction)):
        return Scalar(self.context, tuple(bare(a * other) for a in self.coeffs))
    pair = _unify(self, other)
    if pair is NotImplemented:
        return NotImplemented
    a, b = pair
    if a.is_rational():
        a, b = b, a  # the product commutes; scale by the rational side
    if b.is_rational():
        f = b.coeffs[0]
        return Scalar(a.context, tuple(bare(x * f) for x in a.coeffs))
    prod = _convolve(a.coeffs, b.coeffs)
    reduced = _reduce_mod_phi(prod, a.context.minimal_polynomial)
    return Scalar(a.context, tuple(reduced))

