"""Hom-complex cohomology and the categorical side of the Cardy identity.

Everything here is linear algebra over the polynomial ring itself: the
differential on Hom(E, F) is an R-linear matrix, and each parity's
cohomology is the finite-dimensional subquotient kernel/image.  Two
elimination runs compute both parities: one `module_kernel` run per
parity gives the cocycles of that parity and the coboundaries of the
other, and `subquotient_basis` reads a k-basis of each quotient off those
two bases' leads, with no further run.  For an isolated singularity
supported at the origin this computes the same dimensions as the
formal-local theory.

A caller that reads only the dimensions uses `hom_dimensions`.  When the
source is a Koszul factorization K(a; b) with one element per variable
and R/(a) finite, `koszul_hom_dimensions` reads them off F / aF by
Koszul reduction: two term-over-position bases of rank F.r0, with no
Hom differential, kernel or lift.  Every other source, and every caller
that needs a basis (`hom_cohomology`, the Cardy traces), takes the
elimination runs.

`cardy_lhs` evaluates the supertrace of f -> (-1)^(|a||b| + |a||f|) b f a
on that cohomology, the quantity the index pairing of tau classes must
reproduce; `cardy_supertrace` does the same on a basis already computed.
"""
from __future__ import annotations

from .groebner import (
    buchberger,
    module_gb,
    module_kernel,
    quotient_dimension,
    subquotient_basis,
    subquotient_coordinates,
)
from .mfcore import (
    MatFac,
    MorphismCocycle,
    hom_differential,
    koszul_operator,
    morphism_to_vector,
    vector_to_morphism,
)
from .scalar import Frozen, Scalar, zero as scalar_zero


class ParityCohomology(Frozen):
    """One parity's worth of cohomology of the Hom complex.

    ``kernel`` holds the cocycles, a submodule of the flattened Hom space,
    and ``image`` the coboundaries; ``basis`` is the `subquotient_basis`
    of the two, whose monic elements represent a k-basis of the classes.
    """

    __slots__ = ("parity", "kernel", "image", "basis")

    @property
    def dimension(self) -> int:
        return len(self.basis)


class CohomologyBasis(Frozen):
    __slots__ = ("source", "target", "even", "odd")

    def representative(self, parity: int, index: int) -> MorphismCocycle:
        """An explicit cocycle representing the index-th basis class."""
        co = self.even if parity == 0 else self.odd
        return vector_to_morphism(self.source, self.target, parity, co.basis.generators[index])

    def class_coordinates(self, f: MorphismCocycle) -> tuple[Scalar, ...]:
        """Coordinates of the class of a cocycle on the chosen basis."""
        if f.source != self.source or f.target != self.target:
            raise ValueError("morphism endpoints do not match the basis")
        co = self.even if f.parity == 0 else self.odd
        coords = subquotient_coordinates(morphism_to_vector(f), co.basis, co.image)
        if coords is None:
            raise ValueError("morphism is not a cocycle")
        return tuple(map(self.source.ring.scalar, coords))


def hom_cohomology(E: MatFac, F: MatFac):
    """Dimensions (h0, h1) of Hom cohomology plus an explicit basis."""
    if E.w != F.w:
        raise ValueError("potential mismatch")
    ring = E.ring
    d_even, d_odd = hom_differential(E, F)
    # each kernel run also yields the image of its map, which is the
    # other parity's coboundaries
    kernel_even, image_even = module_kernel(d_even, len(d_odd), ring)
    kernel_odd, image_odd = module_kernel(d_odd, len(d_even), ring)
    even = ParityCohomology(0, kernel_even, image_odd, subquotient_basis(kernel_even, image_odd))
    odd = ParityCohomology(1, kernel_odd, image_even, subquotient_basis(kernel_odd, image_even))
    basis = CohomologyBasis(E, F, even, odd)
    return even.dimension, odd.dimension, basis


def koszul_hom_dimensions(E: MatFac, F: MatFac):
    """(h0, h1) of Hom(E, F) by Koszul reduction, or None when E does not
    qualify: E = K(a; b) with n = ring.n elements and R/(a) finite.

    Then a is a regular sequence and Hom(E, F) is quasi-isomorphic to
    F / aF with the differential of F, up to a parity shift of n
    (Khovanov-Rozansky, math/0401268).  With r = rank F0 = rank F1 and
    mu = dim R/(a), that complex has dimension mu r in each parity, so
    each cohomology has the dimension of both cokernels together less
    mu r: h0 = h1 = dim F0/(im d1 + aF0) + dim F1/(im d0 + aF1) - mu r.
    """
    if E.w != F.w:
        raise ValueError("potential mismatch")
    ring, n = E.ring, E.ring.n
    if E.rank != 2**n or 2 * E.r0 != E.rank or F.r0 != F.r1:
        return None
    r0, delta = E.r0, E.delta
    # column {} of delta holds a_j in row {j}, and row {} holds b_j
    a = [delta[r0 + j][0] for j in range(n)]
    b = [delta[0][r0 + j] for j in range(n)]
    # a = 0 has an infinite quotient, and `buchberger` refuses it
    if koszul_operator(ring, n, a, b) != delta or all(f.is_zero() for f in a):
        return None
    mu = quotient_dimension(buchberger(a))
    if mu is None:
        return None
    r = F.r0
    # a_i e_j for each a_i and position j; the runs are faster with these
    # before the columns of the block
    aF = [{j: f} for f in a for j in range(r)]

    def cokernel(block) -> int:  # dim R^r / (the columns of block + aR^r)
        return quotient_dimension(module_gb([*aF, *zip(*block)], r, ring))

    h = cokernel(F.d1) + cokernel(F.d0) - mu * r
    return h, h


def hom_dimensions(E: MatFac, F: MatFac) -> tuple[int, int]:
    """(h0, h1) of Hom(E, F): by `koszul_hom_dimensions` when E qualifies,
    from `hom_cohomology` otherwise."""
    dims = koszul_hom_dimensions(E, F)
    return dims if dims is not None else hom_cohomology(E, F)[:2]


def euler(E: MatFac, F: MatFac) -> int:
    h0, h1 = hom_dimensions(E, F)
    return h0 - h1


def cardy_lhs(
    E: MatFac, F: MatFac, alpha: MorphismCocycle, beta: MorphismCocycle
) -> Scalar:
    """str_k of m_(alpha,beta) : f -> (-1)^(|a||b| + |a||f|) beta f alpha.

    The supertrace runs over the cohomology of Hom(E, F); its sign
    convention matches the index pairing.
    """
    _, _, basis = hom_cohomology(E, F)
    return cardy_supertrace(basis, alpha, beta)


def cardy_supertrace(
    basis: CohomologyBasis, alpha: MorphismCocycle, beta: MorphismCocycle
) -> Scalar:
    """`cardy_lhs` on an already computed basis of Hom(E, F) cohomology,
    so that a caller pairing many morphisms computes the basis once."""
    if not alpha.is_closed() or not beta.is_closed():
        raise ValueError("morphism is not closed")
    total = scalar_zero(basis.source.ring.context)
    if (alpha.parity + beta.parity) % 2:
        return total  # m maps each parity to the other one: zero diagonal
    for parity, co in ((0, basis.even), (1, basis.odd)):
        # the sign (-1)^(|a||b| + |a||f|) times the supertrace sign (-1)^|f|
        odd = (alpha.parity * beta.parity + alpha.parity * parity + parity) % 2
        for k in range(co.dimension):
            g = beta.compose(basis.representative(parity, k)).compose(alpha)
            c = basis.class_coordinates(g)[k]
            total = total - c if odd else total + c
    return total
