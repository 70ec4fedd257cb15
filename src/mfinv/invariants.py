"""Closed-form boundary-bulk invariants of a matrix factorization.

The Chern character of (E, delta) over w in n variables is the class of

    str(d_n delta . d_{n-1} delta ... d_1 delta)

in the Milnor algebra, highest index leftmost; the boundary-bulk map tau
composes a closed endomorphism on the right before taking the supertrace.
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
from .poly import Polynomial
from .scalar import Scalar


def supertrace(M: Matrix, r0: int) -> Polynomial:
    """tr(even-even block) - tr(odd-odd block) for a full matrix split at r0."""
    if any(len(row) != len(M) for row in M):
        raise ValueError("supertrace of a non-square matrix")
    total = None
    for i in range(len(M)):
        term = M[i][i] if i < r0 else -M[i][i]
        total = term if total is None else total + term
    if total is None:
        raise ValueError("supertrace of an empty matrix")
    return total


def derivative_product(E: MatFac, indices) -> Matrix:
    """Product of the differentiated deltas, indices[0] leftmost."""
    P = identity_matrix(E.ring, E.rank)
    for i in indices:
        P = mat_mul(P, E.partials[i], E.ring.zero())
    return P


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
    P = derivative_product(E, range(n - 1, -1, -1))
    return A.project(supertrace(P, E.r0), parity=n % 2)


def tau(E: MatFac, alpha: MorphismCocycle, A: MilnorRing) -> MilnorClass:
    """Boundary-bulk map on a closed endomorphism alpha of E."""
    _check_potential(E, A)
    check_endomorphism(E, alpha)
    n = E.ring.n
    P = derivative_product(E, range(n - 1, -1, -1))
    M = mat_mul(P, alpha.matrix, E.ring.zero())
    return A.project(supertrace(M, E.r0), parity=(n + alpha.parity) % 2)


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
