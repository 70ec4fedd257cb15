"""Independent verification paths built on the diagonal factorization.

The boundary-bulk values produced by the closed-form derivative product
can be recomputed from first principles: factor w(y) - w(x) through the
difference derivatives, solve the transgression system for the diagonal
kernel degree by degree, and read the top component at y = x.
Nothing on that route (`solve_D`, `oracle_tau`) calls the derivative-product
formula; the two routes stay disjoint so that their agreement is a real
check.  Only `chern_of_diagonal` applies the formula, to the diagonal
factorization itself, as one side of its own check.  The route reads only
the difference derivatives of w; the doubled Jacobian ideal is built by
`build_diagonal`, for the two checks that read it, and the Koszul diagonal
by `chern_of_diagonal`, its only reader.

The solver works in coordinates (x, u) with u_j = y_j - x_j, where the
contraction kappa to invert is plain multiplication by the u_j: it is the
Koszul differential of the sequence u over k[x, u].  That complex has the
splitting homotopy h.  It sends a term c x^a u^b at the subset S, whose
smallest u index i lies below every index of S, to c x^a u^(b - e_i) at
{i} + S, and every other term to 0; kappa h + h kappa is the identity minus
the u-free part of level 0.  Each level's right-hand side is a boundary, so
h of it solves the level.  What h leaves at T = {i} + S involves only u_k
with k >= i = min(T), and every such term is h of its product with u_i, so
the image of h is exactly the submodule on which the solution is unique:
h gives the unique normalized solution with no linear algebra.
Each level's right-hand side is one signed `mat_sum` of delta_x D_S,
D_S delta_y and diag(Delta_i) times the level below, and `_assert_system`
checks the residual of every level with one more.  `_shift` moves
delta at y and the difference derivatives into (x, u) by binomial
expansion; the solution stays there, and `oracle_tau` reads it at u = 0.
Both supertraces here read the diagonal of their last product, alpha or
the last partial, without forming it (`invariants.supertrace`).
"""
from __future__ import annotations

from itertools import combinations, product
from math import comb, prod

from .groebner import buchberger, normal_form
from .invariants import check_endomorphism, derivative_product, supertrace
from .mfcore import (
    MatFac,
    Matrix,
    MorphismCocycle,
    as_matrix,
    diagonal_matrix,
    identity_matrix,
    koszul,
    mat_map,
    mat_mul,
    mat_neg,
    mat_sum,
)
from .milnor import MilnorClass, MilnorRing, build_milnor, gram_matrix
from .poly import (_B, _FIELD, Polynomial, PolyRing, determinant, difference_derivative,
                   doubled_ring, word_layout)
from .scalar import Frozen


class DiagonalData(Frozen):
    """Everything the two diagonal checks read for one potential w.

    ``milnor`` is A_w, ``doubled`` the ring k[x, y], ``w_tilde`` is
    w(y) - w(x), ``differences`` are the difference derivatives of w,
    ``jacobian`` the basis of J_w(x) + J_w(y) and ``determinant``
    det(Delta_j(partial_i w)).
    """

    __slots__ = ("milnor", "doubled", "w_tilde", "differences", "jacobian", "determinant")


def _in_half(p: Polynomial, doubled: PolyRing, half: int) -> Polynomial:
    """p(x) for half 0 and p(y) for half 1 in k[x, y]: each word of p keeps
    its place or moves up by the width of x; `from_terms` checks it
    against the layout of the doubled ring."""
    shift = half * p.ring.layout.width
    return doubled.from_terms({m << shift: c for m, c in p.terms.items()})


def _differences(w: Polynomial):
    """(k[x, y], w(y) - w(x), the difference derivatives of w)."""
    n = w.ring.n
    doubled = doubled_ring(w.ring)
    w_tilde = _in_half(w, doubled, 1) - _in_half(w, doubled, 0)
    diffs = tuple(difference_derivative(w, j, doubled) for j in range(n))
    telescoped = doubled.zero()
    for j in range(n):
        telescoped = telescoped + diffs[j] * (doubled.var(n + j) - doubled.var(j))
    if telescoped != w_tilde:
        raise AssertionError("difference derivatives fail the telescoping identity")
    return doubled, w_tilde, diffs


def build_diagonal(A: MilnorRing) -> DiagonalData:
    """The diagonal of w = A.w for `chern_of_diagonal` and `inverse_form_check`.

    `build_milnor` has rejected a w that is not an isolated singularity at
    the origin, so J_w(x) + J_w(y) is the Jacobian ideal of w(y) - w(x).
    """
    w = A.w
    n = w.ring.n
    doubled, w_tilde, diffs = _differences(w)
    partials = [w.partial_derivative(i) for i in range(n)]
    gb = buchberger([_in_half(p, doubled, half) for half in (0, 1) for p in partials])
    rows = [[difference_derivative(p, j, doubled) for j in range(n)] for p in partials]
    return DiagonalData(A, doubled, w_tilde, diffs, gb, determinant(rows, doubled.one()))


class DTensor(Frozen):
    """Solution of the transgression system against the subset basis.

    ``solved`` maps each strictly increasing index subset to a rank x rank
    matrix over the doubled ring, rows of nonzero entries as every matrix
    of the package, in the solver's coordinates (x, u), u_j = y_j - x_j in
    the slot of y_j; the empty subset holds the identity.  `oracle_tau`
    reads the stored top component at u = 0, so no component is mapped
    back to (x, y).
    """

    __slots__ = ("doubled", "source", "solved")


# --- coordinate changes -----------------------------------------------------


def _shift(p: Polynomial, n: int, ring: PolyRing) -> Polynomial:
    """p with z_j (the slot n + j) replaced by z_j + x_j: it takes p(x, y)
    to (x, u) with y = x + u.  Each term x^a z^b expands binomially into
    the sum over k <= b of prod_j C(b_j, k_j) x^(a + b - k) z^k, on words
    a + b - k + k 2^(32n) for the halves a, b of the word; `from_terms`
    checks the sums a + b."""
    lay = word_layout(n)
    out: dict = {}
    for m, c in p.terms.items():
        b = lay.exponents(m >> lay.width)
        for k in product(*(range(e + 1) for e in b)):
            f = prod(map(comb, b, k))
            kw = lay.word(k)
            key = (m & lay.xmask) + (m >> lay.width) - kw + (kw << lay.width)
            out[key] = out[key] + c * f if key in out else c * f
    return ring.from_terms(out)


# --- the degree-by-degree solver --------------------------------------------


def _subset_insert(S: tuple, i: int):
    """(position, new subset) for inserting i into the sorted subset S."""
    pos = sum(1 for s in S if s < i)
    return pos, tuple(sorted(S + (i,)))


def _homotopy(M: Matrix, i: int, n: int, ring: PolyRing) -> Matrix:
    """The part of h(M) that lands on the subset (i,) + S when M sits at S.

    Each term c x^a u^b whose smallest u index is i goes to c x^a u^(b - e_i);
    every other term belongs to another subset or to no subset at all.
    """
    one = 1 << (_B * (n + i))
    below, field = one - (1 << (_B * n)), _FIELD * one  # u_0 .. u_(i-1), and u_i

    def part(terms: dict) -> dict:
        return {m - one: c for m, c in terms.items() if m & field and not m & below}

    # an entry with no such term is left out, not stored as an empty polynomial
    return tuple({j: Polynomial(ring, t) for j, p in row.items() if (t := part(p.terms))}
                 for row in M)


def solve_D(E: MatFac) -> DTensor:
    """The unique normalized solution of the transgression system for E."""
    ring, _w_tilde, diffs = _differences(E.w)
    n = E.ring.n
    rank = E.rank
    # in (x, u), with u_j in the slot of y_j, delta at x is the same words
    # and delta at y = x + u the words moved into the y half, then shifted
    delta = E.delta
    delta_x = mat_map(delta, lambda p: _in_half(p, ring, 0))
    delta_y = mat_map(delta, lambda p: _shift(_in_half(p, ring, 1), n, ring))
    diffs_u = tuple(_shift(d, n, ring) for d in diffs)
    zero = ring.zero()
    minus_delta_x = mat_neg(delta_x)
    # diag(-Delta_i) and diag(Delta_i), by the parity of the place of i in S
    wedge = [tuple(diagonal_matrix([e] * rank) for e in (-d, d)) for d in diffs_u]

    def level_rhs(S: tuple) -> Matrix:
        """What the contraction of the level above S must equal: minus the
        delta_tilde term and the wedge terms from the level below."""
        M = components[S]
        pairs = [(delta_x if len(S) % 2 else minus_delta_x, M), (M, delta_y)]
        pairs += [(wedge[i][idx % 2], components[S[:idx] + S[idx + 1 :]])
                  for idx, i in enumerate(S)]
        return mat_sum(pairs, zero, rank)

    # each subset T receives h(rhs) only from T[1:], through its u_T[0] terms
    components: dict = {(): identity_matrix(ring, rank)}
    rhs: dict = {}
    for j in range(n):
        for S in combinations(range(n), j):
            rhs[S] = level_rhs(S)
        for T in combinations(range(n), j + 1):
            components[T] = _homotopy(rhs[T[1:]], T[0], n, ring)
    top = tuple(range(n))
    rhs[top] = level_rhs(top)
    _assert_system(components, rhs, n, rank, ring)
    # components was filled level by level, in the order of combinations
    return DTensor(ring, E, tuple(components.items()))


def _assert_system(components, rhs, n, rank, uring):
    """Residual of every level of the transgression system must vanish.

    At each subset S the contraction of the level above must equal the
    right-hand side that `solve_D` formed from S and the level below; the
    top level has nothing above it, so its right-hand side must be zero.
    """
    zero = uring.zero()
    minus_one = diagonal_matrix([uring.const(-1)] * rank)
    us = [tuple(diagonal_matrix([e] * rank) for e in (u, -u))
          for u in (uring.var(n + i) for i in range(n))]
    for S, want in rhs.items():
        pairs = [(minus_one, want)]
        for i in range(n):
            if i not in S:
                pos, T = _subset_insert(S, i)
                pairs.append((us[i][pos % 2], components[T]))
        if any(mat_sum(pairs, zero, rank)):
            raise AssertionError("transgression system residual is nonzero at level %d"
                                 % len(S))


def oracle_tau(
    E: MatFac, alpha: MorphismCocycle, A: MilnorRing, *, dtensor: DTensor | None = None
) -> MilnorClass:
    """Boundary-bulk value recovered from the solved diagonal kernel."""
    check_endomorphism(E, alpha)
    if A.w != E.w:
        raise ValueError("potential mismatch")
    if dtensor is None:
        dtensor = solve_D(E)
    ring = E.ring
    n = ring.n
    # p(x, y - x) at y = x is p(x, 0): the u-free terms of the stored top,
    # the words below 2^(32 n)
    end = 1 << ring.layout.width
    top = mat_map(
        dict(dtensor.solved)[tuple(range(n))],
        lambda p: Polynomial(ring, {m: c for m, c in p.terms.items() if m < end}),
    )
    return A.project(supertrace(ring, top, E.r0, alpha.matrix), parity=(n + alpha.parity) % 2)


class DiagonalChern(Frozen):
    """Both evaluations of the diagonal's character, with their verdict.

    ``direct`` and ``determinant`` are normal forms over the doubled ring
    modulo J_w(x) + J_w(y), the Jacobian ideal of w(y) - w(x).
    """

    __slots__ = ("direct", "determinant", "agree")


def chern_of_diagonal(w: Polynomial, data: DiagonalData | None = None) -> DiagonalChern:
    """The character of the diagonal, by the 2n-variable formula and by
    the signed difference-Jacobian determinant, both reduced modulo the
    Jacobian ideal of w(y) - w(x).  ``data`` is `build_diagonal` of A_w
    when already built."""
    if data is None:
        data = build_diagonal(build_milnor(w))
    elif data.milnor.w != w:
        raise ValueError("diagonal data belongs to a different potential")
    n = w.ring.n
    doubled = data.doubled
    F = koszul(data.differences, [doubled.var(n + j) - doubled.var(j) for j in range(n)])
    P = derivative_product(F, range(2 * n - 1, 0, -1))
    direct = normal_form(supertrace(doubled, P, F.r0, F.partials[0]), data.jacobian)
    det = -data.determinant if (n * (n - 1) // 2) % 2 else data.determinant
    det = normal_form(det, data.jacobian)
    return DiagonalChern(direct, det, direct == det)


def inverse_form_check(w: Polynomial, data: DiagonalData | None = None) -> bool:
    """The reduced difference-Jacobian determinant inverts the trace form.

    Expands det(Delta_j(partial_i w)) over products of standard monomials
    in x and y and multiplies the coefficient matrix against the Gram
    matrix of the residue pairing; anything but the identity raises.
    ``data`` is `build_diagonal` of A_w when already built.
    """
    if data is None:
        data = build_diagonal(build_milnor(w))
    elif data.milnor.w != w:
        raise ValueError("diagonal data belongs to a different potential")
    A = data.milnor
    width = w.ring.layout.width
    reduced = normal_form(data.determinant, data.jacobian)
    # the coefficient matrix and the Gram matrix, of raw term coefficients
    coeffs: list[dict] = [dict() for _ in A.basis_words]
    index = {m: k for k, m in enumerate(A.basis_words)}
    for mono, c in reduced.terms.items():
        a = index.get(mono & ((1 << width) - 1))
        b = index.get(mono >> width)
        if a is None or b is None:
            raise AssertionError(
                "reduced determinant leaves the standard basis product"
            )
        coeffs[a][b] = c
    G = mat_map(as_matrix(gram_matrix(A), A.mu), A.ring.coefficient)
    if mat_mul(tuple(coeffs), G, 0, A.mu) != diagonal_matrix([1] * A.mu):
        raise AssertionError("coefficient matrix does not invert the Gram matrix")
    return True
