"""The Euclid route: a cyclotomic inverse by the extended gcd with Phi_m.

`mfinv.scalar.Scalar.inverse` inverts a non-rational a in Q(zeta_m)
through its norm: the product c of the conjugates sigma_k(a) over the
units 1 < k < m makes a * c = N(a) rational, so 1/a = c / N(a).  Before,
it ran the extended Euclidean algorithm of the representative of a
against Phi_m over Fractions; Phi_m is irreducible over Q, so the gcd is a
nonzero constant and the Bezout cofactor of a is its inverse.  That route
stays here as the reference the norm inverse is checked against.
"""
from fractions import Fraction

from mfinv.scalar import Scalar, _reduce_mod_phi


def xgcd_inverse(a, phi) -> list[Fraction]:
    """s with s*a = 1 mod phi (phi irreducible, deg a < deg phi); it
    divides, so it works on Fractions of its inputs."""
    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    def sub_scaled(p, q, c, shift):
        while len(p) < len(q) + shift:
            p.append(0)
        for i, qi in enumerate(q):
            p[i + shift] -= c * qi
        return trim(p)

    r0, r1 = trim(list(map(Fraction, phi))), trim(list(map(Fraction, a)))
    s0: list = []
    s1: list = [1]
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


def inverse(a: Scalar) -> Scalar:
    """1/a for a non-rational cyclotomic a, by `xgcd_inverse`."""
    phi = a.context.minimal_polynomial
    return Scalar(a.context, tuple(_reduce_mod_phi(xgcd_inverse(a.coeffs, phi), phi)))
