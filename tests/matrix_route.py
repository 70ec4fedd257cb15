"""The matrix route: dense matrices, one polynomial per product, one
matrix per summand.

The package stores every matrix as a tuple of rows, each a dict
{column: nonzero entry}, and reads a dense row only in
`mfinv.mfcore.as_matrix`.  The functions here work on dense matrices,
tuples of row tuples with their zeros, as the package did before: `dense`
fills the zeros of a package matrix back in, and `as_matrix` drops them
again.  They stay as the reference the sparse route is checked against.

`mat_mul` adds each product a*b to a running sum, and `solve_D` builds
every summand of a level as a whole matrix and adds them entry by entry,
the loops that `mfinv.mfcore.mat_sum` and `mfinv.oracle.solve_D` replaced.
`hom_differential` is the zero-filled Hom matrix per parity, which
`zero_filled` also makes from the sparse columns of
`mfinv.mfcore.hom_differential`.  `koszul_operator`, `partials`,
`morphism_to_vector` and `supertrace` are the zero-filled builders and
the whole-product trace.
"""
from itertools import combinations

from mfinv import mfcore
from mfinv.mfcore import _hom_positions, as_matrix, koszul_subsets
from mfinv.oracle import DTensor, _differences, _in_half, _shift, _subset_insert
from mfinv.poly import _B, _FIELD, Polynomial


def sparse(M):
    """The package form of a dense matrix with at least one row."""
    return as_matrix(M, len(M[0]))


def dense(M, cols: int, zero):
    """The package matrix M with its zeros: ``cols`` entries per row."""
    return tuple(tuple(row.get(j, zero) for j in range(cols)) for row in M)


def transpose(M, cols: int):
    """The transpose of the package matrix M of ``cols`` columns, as row dicts."""
    out = [{} for _ in range(cols)]
    for i, row in enumerate(M):
        for j, e in row.items():
            out[j][i] = e
    return tuple(out)


def identity_matrix(ring, n: int):
    zero, one = ring.zero(), ring.one()
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def mat_map(A, fn):
    return tuple(tuple(fn(a) for a in row) for row in A)


def mat_neg(A):
    return tuple(tuple(-a for a in row) for row in A)


def mat_add(A, B):
    return tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_sub(A, B):
    return tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_scale(A, c):
    return tuple(tuple(a * c for a in row) for row in A)


def mat_transpose(A):
    if not A:
        return ()
    return tuple(tuple(A[i][j] for i in range(len(A))) for j in range(len(A[0])))


def mat_mul(A, B, zero):
    """A B for polynomial, scalar or mixed entries; `zero` is the additive
    zero that empty sums start from."""
    if A and B and len(A[0]) != len(B):
        raise ValueError("matrix shapes do not compose")
    cols = len(B[0]) if B else 0
    out = []
    for row in A:
        # the nonzero entries of the row with the rows of B they pair with
        terms = [(B[k], a) for k, a in enumerate(row) if not a.is_zero()]
        new = []
        for j in range(cols):
            acc = zero
            for Bk, a in terms:
                b = Bk[j]
                if not b.is_zero():
                    acc = acc + a * b
            new.append(acc)
        out.append(tuple(new))
    return tuple(out)


def mat_sum(pairs, zero):
    """A_1 B_1 + ... + A_k B_k from the products above, added entry by entry."""
    products = [mat_mul(A, B, zero) for A, B in pairs]
    total = products[0]
    for P in products[1:]:
        total = mat_add(total, P)
    return total


def koszul_operator(ring, m: int, wedge, contract):
    """`mfinv.mfcore.koszul_operator` as a zero-filled grid, each signed
    coefficient added into its entry."""
    evens, odds = koszul_subsets(m)
    ordered = evens + odds
    pos = {s: i for i, s in enumerate(ordered)}
    rows = [[ring.zero() for _ in ordered] for _ in ordered]
    for col, s in enumerate(ordered):
        for j in range(m):
            sign = -1 if sum(1 for i in s if i < j) % 2 else 1
            if j not in s:
                t = pos[tuple(sorted(s + (j,)))]
                rows[t][col] = rows[t][col] + (wedge[j] if sign > 0 else -wedge[j])
            else:
                t = pos[tuple(i for i in s if i != j)]
                rows[t][col] = rows[t][col] + (contract[j] if sign > 0 else -contract[j])
    return tuple(map(tuple, rows))


def partials(E):
    """(d_0 delta, ..., d_{n-1} delta) with every entry differentiated."""
    delta = dense(E.delta, E.rank, E.ring.zero())
    return tuple(mat_map(delta, lambda p: p.partial_derivative(i)) for i in range(E.ring.n))


def morphism_to_vector(f):
    """Every Hom^p coordinate of f, zeros included, in `_hom_positions` order."""
    M = dense(f.matrix, f.source.rank, f.source.ring.zero())
    return tuple(M[t][s] for t, s in _hom_positions(f.source, f.target, f.parity))


def supertrace(M, r0: int, R=None):
    """str(M R) of dense polynomial matrices, from the whole product M R;
    R is a polynomial or scalar matrix, or None for M alone."""
    ring = M[0][0].ring
    P = M if R is None else mat_mul(M, R, ring.zero())
    total = ring.zero()
    for i, row in enumerate(P):
        total = total + row[i] if i < r0 else total - row[i]
    return total


def hom_differential(E, F):
    """Matrices of d on flattened Hom^0 and Hom^1, (d_even : Hom^0 ->
    Hom^1, d_odd : Hom^1 -> Hom^0), filled with zeros: column t of delta_F
    placed at column s, minus (-1)^p row s of delta_E placed at row t, for
    the unit map e_ts."""
    if E.w != F.w:
        raise ValueError("potential mismatch")
    zero = E.ring.zero()
    dE, dF = dense(E.delta, E.rank, zero), dense(F.delta, F.rank, zero)
    out = []
    for parity in (0, 1):
        at = {ts: r for r, ts in enumerate(_hom_positions(E, F, 1 - parity))}
        cols = _hom_positions(E, F, parity)
        rows = [[zero] * len(cols) for _ in at]
        for c, (t, s) in enumerate(cols):
            for t2, row in enumerate(dF):
                if not row[t].is_zero():
                    rows[at[t2, s]][c] = row[t]
            for s2, entry in enumerate(dE[s]):
                if not entry.is_zero():
                    rows[at[t, s2]][c] = entry if parity else -entry
        out.append(tuple(map(tuple, rows)))
    return out[0], out[1]


def zero_filled(E, F):
    """The two matrices whose columns are the sparse columns (d_even,
    d_odd) of `mfinv.mfcore.hom_differential(E, F)`; each map's rows are
    the other map's columns."""
    d_even, d_odd = mfcore.hom_differential(E, F)
    zero = E.ring.zero()
    return tuple(
        tuple(tuple(col.get(r, zero) for col in cols) for r in range(len(other)))
        for cols, other in ((d_even, d_odd), (d_odd, d_even))
    )


def differential(f):
    """d(f) = delta_F f - (-1)^|f| f delta_E from two whole products."""
    zero = f.source.ring.zero()
    M = dense(f.matrix, f.source.rank, zero)
    left = mat_mul(dense(f.target.delta, f.target.rank, zero), M, zero)
    right = mat_mul(M, dense(f.source.delta, f.source.rank, zero), zero)
    return mat_add(left, right) if f.parity else mat_sub(left, right)


def homotopy(M, i, n, ring):
    """`mfinv.oracle._homotopy` on a dense matrix: a polynomial, empty or
    not, for every entry."""
    one = 1 << (_B * (n + i))
    below, field = one - (1 << (_B * n)), _FIELD * one  # u_0 .. u_(i-1), and u_i

    def part(p):
        terms = p.terms.items()
        return Polynomial(ring, {m - one: c for m, c in terms if m & field and not m & below})

    return mat_map(M, part)


def level_rhs(S, components, delta_x, delta_y, diffs_u, ring):
    """What the contraction of the level above S must equal: minus the
    delta_tilde term and the wedge terms from the level below, which are
    added on the nonzero entries of that level only."""
    M = components[S]
    left = mat_mul(delta_x, M, ring.zero())
    right = mat_mul(M, delta_y, ring.zero())
    dt = mat_add(left, right) if len(S) % 2 else mat_sub(right, left)
    rows = [list(row) for row in dt]
    for idx, i in enumerate(S):
        d = diffs_u[i] if idx % 2 else -diffs_u[i]
        for r, row in enumerate(components[S[:idx] + S[idx + 1 :]]):
            for c, p in enumerate(row):
                if p.terms:
                    rows[r][c] = rows[r][c] + d * p
    return tuple(map(tuple, rows))


def assert_system(components, rhs, n, uring):
    """The residual of every level, as whole matrices, must vanish; the
    levels are package matrices, filled with zeros here."""
    us = [uring.var(n + i) for i in range(n)]
    zero = uring.zero()
    for S, want in rhs.items():
        acc = mat_neg(dense(want, len(want), zero))
        for i in range(n):
            if i in S:
                continue
            pos, T = _subset_insert(S, i)
            term = tuple(tuple(us[i] * p for p in row)
                         for row in dense(components[T], len(want), zero))
            acc = mat_add(acc, term if pos % 2 == 0 else mat_neg(term))
        for row in acc:
            for p in row:
                if not p.is_zero():
                    raise AssertionError(
                        "transgression system residual is nonzero at level %d" % len(S)
                    )


def solve_D(E):
    """`mfinv.oracle.solve_D` with the levels formed on this route, each
    component stored as the package stores it."""
    ring, _w_tilde, diffs = _differences(E.w)
    n = E.ring.n
    delta = dense(E.delta, E.rank, E.ring.zero())
    delta_x = mat_map(delta, lambda p: _in_half(p, ring, 0))
    delta_y = mat_map(delta, lambda p: _shift(_in_half(p, ring, 1), n, ring))
    diffs_u = tuple(_shift(d, n, ring) for d in diffs)
    components = {(): identity_matrix(ring, E.rank)}
    rhs = {}
    for j in range(n):
        for S in combinations(range(n), j):
            rhs[S] = level_rhs(S, components, delta_x, delta_y, diffs_u, ring)
        for T in combinations(range(n), j + 1):
            components[T] = homotopy(rhs[T[1:]], T[0], n, ring)
    top = tuple(range(n))
    rhs[top] = level_rhs(top, components, delta_x, delta_y, diffs_u, ring)
    levels = {S: as_matrix(M, E.rank) for S, M in components.items()}
    assert_system(levels, {S: as_matrix(M, E.rank) for S, M in rhs.items()}, n, ring)
    return DTensor(ring, E, tuple(levels.items()))
