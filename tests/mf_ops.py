"""Category operations the test batteries build their inputs with.

The tensor product, dual, parity shift and direct sum of factorizations,
the sum, scalar multiple and value equality of morphisms, and the equivariant twist, dual
and boundary-bulk map.  No command of `mfinv` calls them, so they live
here beside their callers; each checks its inputs as it did in the package.
`tau_equivariant` forms P . rho(g) . alpha over the fixed indices of g and
projects its supertrace into the sector algebra, where the package's
`chern_equivariant` stops at P . rho(g).
"""
from mfinv.equivariant import (
    DiagonalGroup,
    Element,
    _fixed_product,
    _morphism_action_full,
    restrict_to_sector,
    sector,
    validate_equivariant,
)
from mfinv.invariants import check_endomorphism, supertrace
from mfinv.mfcore import EquivariantMF, MatFac, MorphismCocycle, mat_map, mat_mul, mat_neg
from mfinv.milnor import MilnorClass
from matrix_route import dense, mat_add, transpose


def parity_of(E: MatFac, index: int) -> int:
    """The parity of basis element ``index`` of E (even summand first)."""
    return 0 if index < E.r0 else 1


def tensor(E: MatFac, F: MatFac) -> MatFac:
    """E (x) F over w_E + w_F, with the grading sign on the second factor."""
    if E.ring.names != F.ring.names:
        raise ValueError("ring mismatch")
    ring = E.ring
    NE, NF = E.rank, F.rank
    pairs = [(i, j) for i in range(NE) for j in range(NF)]
    evens = [p for p in pairs if (parity_of(E, p[0]) + parity_of(F, p[1])) % 2 == 0]
    odds = [p for p in pairs if (parity_of(E, p[0]) + parity_of(F, p[1])) % 2 == 1]
    ordered = evens + odds
    pos = {p: i for i, p in enumerate(ordered)}
    dE, dF = dense(E.delta, NE, ring.zero()), dense(F.delta, NF, ring.zero())
    size = NE * NF
    rows = [[ring.zero() for _ in range(size)] for _ in range(size)]
    for (i, j) in ordered:
        col = pos[(i, j)]
        for i2 in range(NE):
            p = dE[i2][i]
            if not p.is_zero():
                rows[pos[(i2, j)]][col] = rows[pos[(i2, j)]][col] + p
        sign = -1 if parity_of(E, i) else 1
        for j2 in range(NF):
            p = dF[j2][j]
            if not p.is_zero():
                q = p if sign > 0 else -p
                rows[pos[(i, j2)]][col] = rows[pos[(i, j2)]][col] + q
    out = MatFac(ring, E.w + F.w, rows, len(evens))
    out.validate()
    return out


def dual(E: MatFac) -> MatFac:
    """The dual factorization, of potential -w: delta transposed, with the
    columns of the odd summand negated."""
    r0 = E.r0
    delta = [{j: p if j < r0 else -p for j, p in row.items()} for row in transpose(E.delta, E.rank)]
    out = MatFac(E.ring, -E.w, delta, r0)
    out.validate()
    return out


def shift(E: MatFac) -> MatFac:
    """Parity shift: swap the summands and negate the differential."""
    return MatFac.from_blocks(E.ring, E.w, mat_neg(E.d1), mat_neg(E.d0))


def direct_sum(E: MatFac, F: MatFac) -> MatFac:
    if E.w != F.w:
        raise ValueError("potential mismatch")
    d0 = E.d0 + tuple({E.r0 + j: p for j, p in row.items()} for row in F.d0)
    d1 = E.d1 + tuple({E.r1 + j: p for j, p in row.items()} for row in F.d1)
    return MatFac.from_blocks(E.ring, E.w, d0, d1)


def add(f: MorphismCocycle, g: MorphismCocycle) -> MorphismCocycle:
    """f + g for two maps of one parity between the same factorizations."""
    if f.parity != g.parity:
        raise ValueError("cannot add maps of different parity")
    if f.source != g.source or f.target != g.target:
        raise ValueError("sum endpoints do not match")
    zero, cols = f.source.ring.zero(), f.source.rank
    M = mat_add(dense(f.matrix, cols, zero), dense(g.matrix, cols, zero))
    return MorphismCocycle(f.source, f.target, f.parity, M)


def scale(f: MorphismCocycle, c) -> MorphismCocycle:
    return MorphismCocycle(f.source, f.target, f.parity, mat_map(f.matrix, lambda e: e * c))


def same_morphism(f: MorphismCocycle, g: MorphismCocycle) -> bool:
    """f and g have the same ends, parity and matrix."""
    return (f.source, f.target, f.parity, f.matrix) == (g.source, g.target, g.parity, g.matrix)


def twist(E: EquivariantMF, characters) -> EquivariantMF:
    """Tensor by the character sending generator k to characters[k]."""
    chars = list(characters)
    if len(chars) != len(E.action):
        raise ValueError("one character value per generator is required")
    action = tuple(mat_map(rho, lambda e, chi=chi: e * chi) for rho, chi in zip(E.action, chars))
    return EquivariantMF(E.base, action)


def equivariant_dual(E: EquivariantMF, G: DiagonalGroup) -> EquivariantMF:
    """The dual factorization with the transpose-inverse action."""
    actions = validate_equivariant(E, G)
    new_action = tuple(transpose(actions[G.inverse(h)], E.base.rank) for h in G.generators)
    return EquivariantMF(dual(E.base), new_action)


def tau_equivariant(
    E: EquivariantMF, G: DiagonalGroup, g: Element, alpha: MorphismCocycle
) -> MilnorClass:
    """Equivariant boundary-bulk map on an invariant closed endomorphism."""
    G.index(g)  # an element outside G raises before any work
    actions = validate_equivariant(E, G)
    check_endomorphism(E.base, alpha)
    # h . alpha = alpha on the generators gives it on G (the argument of the
    # `mfinv.equivariant` docstring for rho and w)
    for h in G.generators:
        if _morphism_action_full(alpha, G, h, actions, actions) != alpha.matrix:
            raise ValueError("morphism is not invariant under the group")
    base = E.base
    sec = sector(base.w, g)
    zero = base.ring.zero()
    P = mat_mul(_fixed_product(base, sec), actions[g], zero, base.rank)
    M = mat_mul(P, alpha.matrix, zero, base.rank)
    s = restrict_to_sector(supertrace(base.ring, M, base.r0), sec)
    return sec.milnor.project(s, parity=(sec.n_fixed + alpha.parity) % 2)
