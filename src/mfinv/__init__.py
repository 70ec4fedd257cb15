"""Exact invariants of matrix factorizations of isolated hypersurface singularities.

Everything is computed over the rationals or a cyclotomic extension, with no
floating point anywhere. The modules layer bottom-up:

    scalar      exact field elements: rationals (int or Fraction) and Q(zeta_m)
    poly        multivariate polynomials, derivatives, doubled rings
    groebner    one Buchberger engine: submodules of R^r, ideals as rank 1
    milnor      Milnor algebras, residue traces, Gram pairings
    mfcore      matrix factorizations, morphism cocycles, Koszul models
    homology    Hom-complex cohomology, Euler characteristics, Cardy traces
    invariants  Chern characters, boundary-bulk maps, index pairings
    equivariant finite symmetry groups, orbifold sectors, equivariant indices
    oracle      diagonal-factorization cross-checks for the closed formulas
    cli         session files and the `mfinv` command

Import from the submodules directly; this package namespace stays empty.
"""
