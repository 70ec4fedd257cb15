"""The lift route: Hom cohomology through a presentation of kernel/image.

`mfinv.homology.hom_cohomology` reads a k-basis of each parity's
subquotient K / I off the leads of the kernel and image bases that its two
`module_kernel` runs return.  Before, a third and fourth block-order run
per pair presented each K / I again: the lift basis of the kernel
generators k_i with the coboundaries as extra generators, whose tails are
the relations {c : sum_i c_i k_i in I}; the standard (generator index,
monomial) pairs of the relations indexed the basis, a class was
represented by monomial times kernel generator, and its coordinates were
the cofactors of one `lift` against that basis, which come reduced modulo
the relations.  That route stays here as the reference the subquotient
basis is checked against.  `lift_basis` takes no extra generators, so
`block_basis` builds the block-order basis of (k_i, e_i) and the
coboundaries (h_j, 0) from the engine's own pieces; `lift` and `split`
read it as they read a `lift_basis`, with <k, h> for <k> and the
relations for the syzygies.
"""
from itertools import product

from mfinv.groebner import (
    ModuleGB,
    _flat,
    _layout,
    lift,
    module_buchberger,
    module_kernel,
    split,
)
from mfinv.mfcore import hom_differential, morphism_to_vector, vector_to_morphism
from tuple_route import grevlex_key, terms


def lead(v):
    """(position, exponent tuple) of the lead term of the nonzero vector v
    under term-over-position grevlex, ties to the lower position."""
    return max(
        ((p, m) for p, f in enumerate(v) for m in terms(f)),
        key=lambda pm: (grevlex_key(pm[1]), -pm[0]),
    )


def standard_monomials(mgb):
    """Standard (position, exponent tuple) pairs of R^rank / <leads>, by
    position, then grevlex ascending; None when the quotient is infinite."""
    leads = [lead(g) for g in mgb.generators]
    out = []
    for p in range(mgb.rank):
        lp = [m for q, m in leads if q == p]
        bounds = []
        for i in range(mgb.ring.n):
            pure = [m[i] for m in lp if not any(e for j, e in enumerate(m) if j != i)]
            if not pure:
                return None
            bounds.append(min(pure))
        for m in product(*map(range, bounds)):
            if not any(all(a <= b for a, b in zip(l, m)) for l in lp):
                out.append((p, m))
    out.sort(key=lambda pm: (pm[0], grevlex_key(pm[1])))
    return out


def block_basis(gens, rank, ring, extra):
    """The block-order basis of the vectors (g_i, e_i) and (h_j, 0) in
    R^(rank + s), s = len(gens), for the tuples of polynomials g_i in
    ``gens`` and h_j in ``extra``, with block = rank."""
    lay = _layout(ring.n)
    scaled = enumerate(_flat(g, ring, rank, rank) for g in gens)
    vectors = [{**d, lay.base(rank + i, rank): ring.coefficient(D)} for i, (d, D) in scaled]
    s = len(vectors)
    vectors += [_flat(h, ring, rank, rank)[0] for h in extra]
    return ModuleGB(ring, rank + s, module_buchberger(vectors, rank + s, lay, rank))


def subquotient_presentation(kernel, image):
    """(lift basis, relation basis, standard pairs) of <kernel> / <image>,
    ``image`` a list of tuples of polynomials.  Raises when an image
    generator falls outside the kernel or the quotient is infinite."""
    basis = block_basis(kernel.generators, kernel.rank, kernel.ring, image)
    heads, relations = split(basis)
    if heads.generators != kernel.generators:
        raise ValueError("image generators outside the kernel submodule")
    std = standard_monomials(relations)
    if std is None:
        raise ValueError("subquotient is infinite-dimensional")
    return basis, relations, std


class LiftParity:
    """One parity on the lift route: the fields of the old `ParityCohomology`."""

    def __init__(self, kernel, image):
        self.kernel = kernel
        self.lifts, self.relations, self.standard = subquotient_presentation(
            kernel, list(image.generators)
        )
        self.dimension = len(self.standard)


class LiftRouteBasis:
    """`CohomologyBasis`'s interface on the lift route, so that
    `cardy_supertrace` runs on it unchanged."""

    def __init__(self, E, F):
        ring = E.ring
        d_even, d_odd = hom_differential(E, F)
        kernel_even, image_even = module_kernel(d_even, len(d_odd), ring)
        kernel_odd, image_odd = module_kernel(d_odd, len(d_even), ring)
        self.source, self.target = E, F
        self.even = LiftParity(kernel_even, image_odd)
        self.odd = LiftParity(kernel_odd, image_even)

    def representative(self, parity, index):
        """Monomial times kernel generator for the index-th standard pair."""
        co = self.even if parity == 0 else self.odd
        pos, mono = co.standard[index]
        monomial = self.source.ring.monomial(mono)
        vec = [monomial * p for p in co.kernel.generators[pos]]
        return vector_to_morphism(self.source, self.target, parity, vec)

    def class_coordinates(self, f):
        """The cofactors of one `lift`, read at the standard pairs."""
        co = self.even if f.parity == 0 else self.odd
        remainder, reduced = lift(morphism_to_vector(f), co.lifts)
        if any(c.terms for c in remainder):
            raise ValueError("morphism is not a cocycle")
        # everything in the reduced lift must be accounted for by the basis
        on_basis = sum(mono in terms(reduced[pos]) for pos, mono in co.standard)
        if sum(len(p.terms) for p in reduced) != on_basis:
            raise AssertionError("reduced coordinates leak outside the basis")
        scalar = self.source.ring.scalar
        return tuple(scalar(terms(reduced[pos]).get(mono, 0)) for pos, mono in co.standard)
