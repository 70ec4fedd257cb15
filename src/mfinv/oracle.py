"""Independent verification paths built on the diagonal factorization.

The boundary-bulk values produced by the closed-form derivative product
can be recomputed from first principles: factor w(y) - w(x) through the
difference derivatives, solve the transgression system for the diagonal
kernel degree by degree, and restrict the top component back to y = x.
Nothing on that route (`solve_D`, `oracle_tau`) calls the derivative-product
formula; the two routes stay disjoint so that their agreement is a real
check.  Only `chern_of_diagonal` applies the formula, to the diagonal
factorization itself, as one side of its own check.

The solver works in coordinates (x, u) with u_j = y_j - x_j, where the
contraction to invert is plain multiplication by the u_j.  Uniqueness
comes from the splitting of the Koszul complex along the submodule of
components that only involve u_k with k >= the smallest wedge index; the
solver's unknowns are restricted to that submodule, which makes each
degree a finite +-1 incidence system over the coefficient field.  Each
equation touches at most n unknowns, so the system is kept as sparse rows
{column: scalar} and solved by exact elimination over k that reduces every
row at its smallest column and back-substitutes; a column without a pivot
or an equation that reduces to 0 = b with b != 0 raises.
"""
from __future__ import annotations

from itertools import combinations

from .groebner import buchberger, normal_form
from .invariants import derivative_product, supertrace
from .mfcore import (
    MatFac,
    Matrix,
    MorphismCocycle,
    identity_matrix,
    koszul,
    mat_add,
    mat_equal,
    mat_mul,
    mat_neg,
    mat_sub,
    zero_matrix,
)
from .milnor import MilnorClass, MilnorRing, build_milnor, gram_matrix
from .poly import (
    Polynomial,
    PolyRing,
    _substitute,
    determinant,
    difference_derivative,
    doubled_ring,
)
from .scalar import Frozen, one as scalar_one, zero as scalar_zero


class DiagonalData(Frozen):
    """The stabilized diagonal of w over the doubled ring: ``w_tilde`` is
    w(y) - w(x), ``differences`` are the difference derivatives of w, and
    ``factorization`` is the Koszul factorization of w_tilde."""

    __slots__ = ("ring", "doubled", "w", "w_tilde", "differences", "factorization")

    def __init__(
        self,
        ring: PolyRing,
        doubled: PolyRing,
        w: Polynomial,
        w_tilde: Polynomial,
        differences: tuple[Polynomial, ...],
        factorization: MatFac,
    ):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "doubled", doubled)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "w_tilde", w_tilde)
        object.__setattr__(self, "differences", differences)
        object.__setattr__(self, "factorization", factorization)


def build_diagonal(w: Polynomial) -> DiagonalData:
    """Difference derivatives and the Koszul factorization of w(y) - w(x)."""
    ring = w.ring
    n = ring.n
    doubled = doubled_ring(ring)
    xs = [doubled.var(i) for i in range(n)]
    ys = [doubled.var(n + i) for i in range(n)]
    w_tilde = w.substitute(doubled, ys) - w.substitute(doubled, xs)
    diffs = tuple(difference_derivative(w, j, doubled) for j in range(n))
    telescoped = doubled.zero()
    for j in range(n):
        telescoped = telescoped + diffs[j] * (ys[j] - xs[j])
    if telescoped != w_tilde:
        raise AssertionError("difference derivatives fail the telescoping identity")
    fac = koszul(diffs, tuple(ys[j] - xs[j] for j in range(n)))
    return DiagonalData(ring, doubled, w, w_tilde, diffs, fac)


class DTensor(Frozen):
    """Solution of the transgression system against the subset basis.

    components maps each strictly increasing index subset to a full
    rank x rank matrix over the doubled ring; the empty subset holds the
    identity.
    """

    __slots__ = ("data", "source", "components")

    def __init__(
        self,
        data: DiagonalData,
        source: MatFac,
        components: tuple[tuple[tuple[int, ...], Matrix], ...],
    ):
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "components", components)

    def component(self, subset) -> Matrix:
        key = tuple(subset)
        for s, M in self.components:
            if s == key:
                return M
        raise KeyError("no component for subset %r" % (key,))

    def top(self) -> Matrix:
        return self.component(tuple(range(self.data.ring.n)))


# --- coordinate changes -----------------------------------------------------


def _u_ring(ring: PolyRing) -> PolyRing:
    return PolyRing(
        ring.names + tuple(nm + "_u" for nm in ring.names), ring.context
    )


def _ring_map(target: PolyRing, images: list):
    """p -> p(images) in ``target``, with one table of image powers for
    every polynomial it maps."""
    powers = [dict() for _ in images]
    return lambda p: _substitute(p, target, images, powers)


def _map_matrix(f, M: Matrix) -> Matrix:
    return tuple(tuple(f(p) for p in row) for row in M)


# --- the degree-by-degree solver --------------------------------------------


def _subset_insert(S: tuple, i: int):
    """(position, new subset) for inserting i into the sorted subset S."""
    pos = sum(1 for s in S if s < i)
    return pos, tuple(sorted(S + (i,)))


def _solve_contraction(eqs: dict, n: int, uring: PolyRing):
    """Solve delta_Delta(X) = rhs for X supported on the split complement.

    eqs maps (subset, monomial) to a Scalar coefficient of the right-hand
    side; monomials are over the (x, u) ring, with the u block at
    positions n..2n-1.  Unknowns are coefficients of (T, monomial') with
    every u index of monomial' at least min(T).  Returns a dict with the
    same key shape for the solution.
    """
    eq_keys = {k for k, v in eqs.items() if v != 0}
    for (S, m), v in eqs.items():
        if v != 0 and all(m[n + i] == 0 for i in range(n)):
            raise AssertionError(
                "right-hand side has a u-free term; not in the contraction image"
            )
    unknowns: set = set()
    frontier = set(eq_keys)
    all_eqs = set(eq_keys)
    while frontier:
        new_unknowns = set()
        for S, m in frontier:
            for i in range(n):
                if m[n + i] == 0 or i in S:
                    continue
                pos, T = _subset_insert(S, i)
                m2 = tuple(
                    e - 1 if k == n + i else e for k, e in enumerate(m)
                )
                if any(m2[n + k] > 0 and k < T[0] for k in range(n)):
                    continue
                if (T, m2) not in unknowns:
                    new_unknowns.add((T, m2))
        unknowns |= new_unknowns
        frontier = set()
        for T, m2 in new_unknowns:
            for idx, i in enumerate(T):
                m3 = tuple(
                    e + 1 if k == n + i else e for k, e in enumerate(m2)
                )
                key = (tuple(s for s in T if s != i), m3)
                if key not in all_eqs:
                    all_eqs.add(key)
                    frontier.add(key)
    if not unknowns:
        if eq_keys:
            raise AssertionError("contraction system has no admissible unknowns")
        return {}
    rows = sorted(all_eqs)
    cols = sorted(unknowns)
    col_index = {c: k for k, c in enumerate(cols)}
    one = scalar_one(uring.context)
    zero = scalar_zero(uring.context)
    sparse_rows = []
    for S, m in rows:
        row = {}
        for i in range(n):
            if m[n + i] == 0 or i in S:
                continue
            pos, T = _subset_insert(S, i)
            m2 = tuple(e - 1 if k == n + i else e for k, e in enumerate(m))
            c = col_index.get((T, m2))
            if c is not None:
                row[c] = one if pos % 2 == 0 else -one
        sparse_rows.append(row)
    solution = _sparse_solve(sparse_rows, [eqs.get(r, zero) for r in rows], len(cols))
    return {c: solution[k] for k, c in enumerate(cols) if not solution[k].is_zero()}


def _sparse_solve(rows: list[dict], rhs: list, ncols: int) -> list:
    """Exact elimination on sparse rows {column: Scalar} over k.

    Each row is reduced at its smallest column against the pivot rows found
    so far, so the pivot rows stay in echelon form; back substitution runs
    from the largest pivot column down.  The systems here have unique
    solutions: a column without a pivot or a row that reduces to 0 = b with
    b != 0 raises.
    """
    pivots: dict = {}  # column -> (row with coefficient 1 there, rhs)
    for row, b in zip(rows, rhs):
        row = dict(row)
        while row:
            c = min(row)
            if c not in pivots:
                break
            f = row[c]
            prow, pb = pivots[c]
            for k, a in prow.items():
                s = row.get(k)
                s = -(f * a) if s is None else s - f * a
                if s.is_zero():
                    row.pop(k, None)
                else:
                    row[k] = s
            b = b - f * pb
        if row:
            inv = row[c].inverse()
            pivots[c] = ({k: a * inv for k, a in row.items()}, b * inv)
        elif not b.is_zero():
            raise AssertionError("contraction system is inconsistent")
    if len(pivots) < ncols:
        raise AssertionError("contraction system is singular on a column")
    solution = [None] * ncols
    for c in sorted(pivots, reverse=True):
        prow, b = pivots[c]
        for k, a in prow.items():
            if k != c:
                b = b - a * solution[k]
        solution[c] = b
    return solution


def solve_D(E: MatFac, data: DiagonalData | None = None) -> DTensor:
    """The unique normalized solution of the transgression system for E."""
    if data is None:
        data = build_diagonal(E.w)
    elif data.w != E.w:
        raise ValueError("diagonal data belongs to a different potential")
    ring = data.ring
    n = ring.n
    rank = E.rank
    uring = _u_ring(ring)
    x_images = [uring.var(i) for i in range(n)]
    y_images = [uring.var(i) + uring.var(n + i) for i in range(n)]
    delta = E.full_delta()
    delta_x = _map_matrix(_ring_map(uring, x_images), delta)
    delta_y = _map_matrix(_ring_map(uring, y_images), delta)
    to_u = _ring_map(uring, x_images + y_images)
    diffs_u = tuple(to_u(d) for d in data.differences)

    def delta_tilde(M: Matrix, parity: int) -> Matrix:
        left = mat_mul(delta_x, M, uring.zero())
        right = mat_mul(M, delta_y, uring.zero())
        return mat_sub(left, right) if parity == 0 else mat_add(left, right)

    def level_rhs(S: tuple) -> Matrix:
        """What the contraction of the level above S must equal: minus the
        wedge terms from the level below and the delta_tilde term."""
        acc = zero_matrix(uring, rank, rank)
        for idx, i in enumerate(S):
            rest = tuple(s for s in S if s != i)
            term = tuple(
                tuple(diffs_u[i] * p for p in row) for row in components[rest]
            )
            acc = mat_add(acc, term if idx % 2 == 0 else mat_neg(term))
        dt = delta_tilde(components[S], len(S) % 2)
        acc = mat_add(acc, dt if len(S) % 2 == 0 else mat_neg(dt))
        return mat_neg(acc)

    components: dict = {(): identity_matrix(uring, rank)}
    rhs: dict = {}
    for j in range(n):
        level = {S: level_rhs(S) for S in combinations(range(n), j)}
        rhs.update(level)
        for r in range(rank):
            for s in range(rank):
                eqs: dict = {}
                for S, M in level.items():
                    for mono, c in M[r][s].terms.items():
                        eqs[(S, mono)] = c
                sol = _solve_contraction(eqs, n, uring)
                for (T, mono), c in sol.items():
                    if T not in components:
                        components[T] = [
                            [dict() for _ in range(rank)] for _ in range(rank)
                        ]
                    components[T][r][s][mono] = c
        for T in list(components):
            if len(T) == j + 1 and not isinstance(components[T], tuple):
                grid = components[T]
                components[T] = tuple(
                    tuple(uring.from_terms(grid[a][b]) for b in range(rank))
                    for a in range(rank)
                )
        for T in combinations(range(n), j + 1):
            if T not in components:
                components[T] = zero_matrix(uring, rank, rank)
    top = tuple(range(n))
    rhs[top] = level_rhs(top)
    _assert_system(components, rhs, n, rank, uring)
    doubled = data.doubled
    from_u = _ring_map(
        doubled,
        [doubled.var(i) for i in range(n)]
        + [doubled.var(n + i) - doubled.var(i) for i in range(n)],
    )
    packed = []
    for size in range(n + 1):
        for S in combinations(range(n), size):
            packed.append((S, _map_matrix(from_u, components[S])))
    return DTensor(data, E, tuple(packed))


def _assert_system(components, rhs, n, rank, uring):
    """Residual of every level of the transgression system must vanish.

    At each subset S the contraction of the level above must equal the
    right-hand side that `solve_D` formed from S and the level below; the
    top level has nothing above it, so its right-hand side must be zero.
    """
    us = [uring.var(n + i) for i in range(n)]
    for S, want in rhs.items():
        acc = mat_neg(want)
        for i in range(n):
            if i in S:
                continue
            pos, T = _subset_insert(S, i)
            term = tuple(tuple(us[i] * p for p in row) for row in components[T])
            acc = mat_add(acc, term if pos % 2 == 0 else mat_neg(term))
        for row in acc:
            for p in row:
                if not p.is_zero():
                    raise AssertionError(
                        "transgression system residual is nonzero at level %d"
                        % len(S)
                    )


def restriction_recursion_check(D: DTensor) -> bool:
    """The nested-subset components restrict to derivative factors in turn."""
    data = D.data
    ring = data.ring
    doubled = data.doubled
    n = ring.n
    E = D.source
    for j in range(1, n + 1):
        S = tuple(range(n - j, n))
        prev = tuple(range(n - j + 1, n))
        pivot = n - j
        images = [doubled.var(i) for i in range(2 * n)]
        images[n + pivot] = doubled.var(pivot)
        lhs = tuple(
            tuple(p.substitute(doubled, images) for p in row)
            for row in D.component(S)
        )
        mixed = [doubled.var(i) for i in range(n)]
        for k in range(pivot + 1, n):
            mixed[k] = doubled.var(n + k)
        part = tuple(
            tuple(p.substitute(doubled, mixed) for p in row)
            for row in E.partial_delta(pivot)
        )
        rhs = mat_mul(D.component(prev), part, doubled.zero())
        if not mat_equal(lhs, rhs):
            return False
    return True


def oracle_tau(
    E: MatFac,
    alpha: MorphismCocycle,
    A: MilnorRing,
    *,
    dtensor: DTensor | None = None,
) -> MilnorClass:
    """Boundary-bulk value recovered from the solved diagonal kernel."""
    if alpha.source.d0 != E.d0 or alpha.source.d1 != E.d1:
        raise ValueError("morphism is not an endomorphism of E")
    if alpha.target.d0 != E.d0 or alpha.target.d1 != E.d1:
        raise ValueError("morphism is not an endomorphism of E")
    if not alpha.is_closed():
        raise ValueError("morphism is not closed")
    if A.w != E.w:
        raise ValueError("potential mismatch")
    if dtensor is None:
        dtensor = solve_D(E)
    ring = dtensor.data.ring
    to_x = _ring_map(ring, [ring.var(i) for i in range(ring.n)] * 2)
    top = _map_matrix(to_x, dtensor.top())
    M = mat_mul(top, alpha.full_matrix(), ring.zero())
    parity = (ring.n + alpha.parity) % 2
    return A.project(supertrace(M, E.r0), parity=parity)


class DiagonalChern(Frozen):
    """Both evaluations of the diagonal's character, with their verdict.

    ``direct`` and ``determinant`` are normal forms over the doubled ring
    modulo J_w(x) + J_w(y), the Jacobian ideal of w(y) - w(x).
    """

    __slots__ = ("direct", "determinant", "agree")

    def __init__(self, direct: Polynomial, determinant: Polynomial, agree: bool):
        object.__setattr__(self, "direct", direct)
        object.__setattr__(self, "determinant", determinant)
        object.__setattr__(self, "agree", agree)


def _doubled_jacobian(w: Polynomial):
    """(A_w, the diagonal data, the basis of J_w(x) + J_w(y), and
    det(Delta_j(partial_i w))) for the two diagonal checks.

    `build_milnor` rejects a w that is not an isolated singularity at the
    origin; the doubled ideal is then the Jacobian ideal of w(y) - w(x).
    """
    A = build_milnor(w)
    data = build_diagonal(w)
    doubled = data.doubled
    n = w.ring.n
    partials = [w.partial_derivative(i) for i in range(n)]
    xs = [doubled.var(i) for i in range(n)]
    ys = [doubled.var(n + i) for i in range(n)]
    gb = buchberger(
        [p.substitute(doubled, xs) for p in partials]
        + [p.substitute(doubled, ys) for p in partials]
    )
    rows = [[difference_derivative(p, j, doubled) for j in range(n)] for p in partials]
    return A, data, gb, determinant(rows, doubled.one())


def chern_of_diagonal(w: Polynomial) -> DiagonalChern:
    """The character of the diagonal, by the 2n-variable formula and by
    the signed difference-Jacobian determinant, both reduced modulo the
    Jacobian ideal of w(y) - w(x)."""
    _A, data, gb, det = _doubled_jacobian(w)
    n = w.ring.n
    F = data.factorization
    P = derivative_product(F, range(2 * n - 1, -1, -1))
    direct = normal_form(supertrace(P, F.r0), gb)
    det = normal_form(-det if (n * (n - 1) // 2) % 2 else det, gb)
    return DiagonalChern(direct, det, direct == det)


def inverse_form_check(w: Polynomial) -> bool:
    """The reduced difference-Jacobian determinant inverts the trace form.

    Expands det(Delta_j(partial_i w)) over products of standard monomials
    in x and y and multiplies the coefficient matrix against the Gram
    matrix of the residue pairing; anything but the identity raises.
    """
    A, _data, gb, det = _doubled_jacobian(w)
    n = w.ring.n
    reduced = normal_form(det, gb)
    # the coefficient matrix and the Gram matrix as sparse rows, so that
    # their product only touches nonzero entries
    coeffs: list[dict] = [dict() for _ in A.basis]
    index = {m: k for k, m in enumerate(A.basis)}
    for mono, c in reduced.terms.items():
        a = index.get(mono[:n])
        b = index.get(mono[n:])
        if a is None or b is None:
            raise AssertionError(
                "reduced determinant leaves the standard basis product"
            )
        coeffs[a][b] = c
    G = [
        {j: g for j, g in enumerate(row) if not g.is_zero()}
        for row in gram_matrix(A)
    ]
    for i, row in enumerate(coeffs):
        acc: dict = {}
        for k, c in row.items():
            for j, g in G[k].items():
                acc[j] = acc[j] + c * g if j in acc else c * g
        acc = {j: v for j, v in acc.items() if not v.is_zero()}
        if acc.keys() != {i} or acc[i] != 1:
            raise AssertionError(
                "coefficient matrix does not invert the Gram matrix"
            )
    return True
