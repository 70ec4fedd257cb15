"""The tuple route: polynomial terms keyed by exponent tuples.

Inside `mfinv` a monomial is one exponent word (`mfinv.poly.WordLayout`).
The tests read terms through `terms`, which unpacks them to {exponent
tuple: coefficient}, and build polynomials from tuples through
`polynomial`.  The other functions are the term-by-term definitions on
exponent tuples that the packed arithmetic replaced; they stay here as the
reference it is checked against.
"""
from itertools import product
from math import comb, prod


def terms(p) -> dict:
    """{exponent tuple: coefficient} of the polynomial p."""
    exponents = p.ring.layout.exponents
    return {exponents(x): c for x, c in p.terms.items()}


def polynomial(ring, terms: dict):
    """The polynomial of ``ring`` with these {exponent tuple: scalar} terms."""
    word = ring.layout.word
    return ring.from_terms({word(m): c for m, c in terms.items()})


def grevlex_key(m):
    """Sort key: larger key = larger monomial in grevlex."""
    return (sum(m), tuple(-e for e in reversed(m)))


def mul(a: dict, b: dict) -> dict:
    """The product of two tuple-keyed term dicts, zero sums kept."""
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out[m] + c1 * c2 if m in out else c1 * c2
    return out


def partial_derivative(a: dict, i: int) -> dict:
    return {m[:i] + (m[i] - 1,) + m[i + 1 :]: c * m[i] for m, c in a.items() if m[i]}


def difference_derivative(a: dict, j: int, n: int) -> dict:
    """The j-th difference derivative of the n-variable terms a, in the
    doubled ring (`mfinv.poly.difference_derivative`)."""
    gap = (0,) * (n - 1)  # x_{>j}, then y_{<j}
    out: dict = {}
    for m, c in a.items():
        for k in range(m[j]):
            out[m[:j] + (k,) + gap + (m[j] - 1 - k,) + m[j + 1 :]] = c
    return out


def shift(a: dict, n: int, s: int) -> dict:
    """The terms a of the doubled ring with z_j (slot n + j) replaced by
    z_j + s x_j: s = 1 is `mfinv.oracle._shift`, s = -1 maps the solver's
    (x, u) back to (x, y)."""
    out: dict = {}
    for m, c in a.items():
        x, z = m[:n], m[n:]
        for k in product(*(range(e + 1) for e in z)):
            f = s ** (sum(z) - sum(k)) * prod(map(comb, z, k))
            key = tuple(xj + e - kj for xj, e, kj in zip(x, z, k)) + k
            out[key] = out[key] + c * f if key in out else c * f
    return out
