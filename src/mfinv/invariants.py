"""Closed-form boundary-bulk invariants of a matrix factorization.

The Chern character of (E, delta) over w in n variables is the class of

    str(d_n delta . d_{n-1} delta ... d_1 delta)

in the Milnor algebra, highest index leftmost; the boundary-bulk map tau
composes a closed endomorphism on the right before taking the supertrace.
`supertrace(M, r0, R)` reads the diagonal of the product with the last
factor (d_1 delta for ch, alpha for tau) without forming the product.
The class is antisymmetric under permutations of the derivative indices;
`verify` checks this on every index order, and the tests compare tau with
the permutation-averaged formula.

The index pairing chi_hrr(E, F) = <ch E, ch F> computes the Euler
characteristic of the Hom complex without ever building it; cardy_rhs is
the same pairing on tau classes.
"""
from __future__ import annotations

from .mfcore import (
    MatFac,
    Matrix,
    MorphismCocycle,
    identity_matrix,
    mat_mul,
)
from .milnor import MilnorClass, MilnorRing, canonical_pairing
from .poly import Polynomial, _normal, add_products
from .scalar import Scalar


def supertrace(M: Matrix, r0: int, R: Matrix | None = None) -> Polynomial:
    """tr(even-even block) - tr(odd-odd block) of a full polynomial matrix
    split at r0; given a square R of the same size, of M R, from the term
    products of sum_k M[i][k] R[k][i] alone, with no entry of M R formed."""
    rows = (*M, *(M if R is None else R))
    if not M or len(rows) != 2 * len(M) or any(len(r) != len(M) for r in rows):
        raise ValueError("supertrace of an empty or non-square matrix")
    ring = M[0][0].ring
    out: dict = {}  # the terms of the signed diagonal entries, summed once
    for i, row in enumerate(M):
        if R is None:
            add_products(out, row[i].terms, {0: 1 if i < r0 else -1})
            continue
        for a, R_k in zip(row, R):
            b = R_k[i]  # a polynomial or a scalar
            if a.terms and b:
                b = b if i < r0 else -b
                right = b.terms if b.__class__ is Polynomial else {0: ring.coefficient(b)}
                add_products(out, a.terms, right)
    out = _normal(out)
    ring.layout.check(out)  # valid words add without a carry
    return Polynomial(ring, out)


def derivative_product(E: MatFac, indices) -> Matrix:
    """Product of the differentiated deltas, indices[0] leftmost; the
    identity for no index."""
    P = None
    for i in indices:
        P = E.partials[i] if P is None else mat_mul(P, E.partials[i], E.ring.zero())
    return identity_matrix(E.ring, E.rank) if P is None else P


def _check_potential(E: MatFac, A: MilnorRing) -> None:
    if E.w != A.w or E.ring.names != A.ring.names:
        raise ValueError("potential mismatch")


def check_endomorphism(E: MatFac, alpha: MorphismCocycle) -> None:
    """Raise unless alpha is a closed endomorphism of E (by value)."""
    if alpha.source != E or alpha.target != E:
        raise ValueError("morphism is not an endomorphism of E")
    if not alpha.is_closed():
        raise ValueError("morphism is not closed")


def chern(E: MatFac, A: MilnorRing) -> MilnorClass:
    """The Chern character ch(E) in A_w, parity n mod 2."""
    _check_potential(E, A)
    n = E.ring.n
    P = derivative_product(E, range(n - 1, 0, -1))
    return A.project(supertrace(P, E.r0, E.partials[0] if n else None), parity=n % 2)


def tau(E: MatFac, alpha: MorphismCocycle, A: MilnorRing) -> MilnorClass:
    """Boundary-bulk map on a closed endomorphism alpha of E."""
    _check_potential(E, A)
    check_endomorphism(E, alpha)
    n = E.ring.n
    P = derivative_product(E, range(n - 1, -1, -1))
    return A.project(supertrace(P, E.r0, alpha.matrix), parity=(n + alpha.parity) % 2)


def permutation_sign(perm) -> int:
    inversions = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return -1 if inversions % 2 else 1


def chi_hrr(E: MatFac, F: MatFac, A: MilnorRing) -> Scalar:
    """<ch E, ch F>: the index pairing computing the Euler characteristic."""
    if E.w != F.w:
        raise ValueError("potential mismatch")
    return canonical_pairing(chern(E, A), chern(F, A))


def cardy_rhs(
    E: MatFac,
    F: MatFac,
    alpha: MorphismCocycle,
    beta: MorphismCocycle,
    A: MilnorRing,
) -> Scalar:
    """<tau(E, alpha), tau(F, beta)>, the bulk side of the Cardy identity."""
    if E.w != F.w:
        raise ValueError("potential mismatch")
    return canonical_pairing(tau(E, alpha, A), tau(F, beta, A))
