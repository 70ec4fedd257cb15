"""The matrix route: one polynomial per product, one matrix per summand.

`mfinv.mfcore.mat_sum` gathers the term products of every entry of a sum
of matrix products in one dict, and `mfinv.oracle.solve_D` forms each
level of the transgression system, and checks its residual, with one
`mat_sum` each.  The functions here are the loops they replaced: `mat_mul`
adds each product a*b to a running sum, and `solve_D` builds every
summand of a level as a whole matrix and adds them entry by entry.  They
stay as the reference the fused route is checked against.

`mfinv.mfcore.hom_differential` emits each column of the Hom
differential as a dict of its nonzero entries.  `hom_differential` here
is the builder it replaced: a zero-filled matrix per parity, which
`zero_filled` also makes from the sparse columns.
"""
from itertools import combinations

from mfinv import mfcore
from mfinv.mfcore import _hom_positions, as_matrix, identity_matrix, mat_add, mat_map, mat_neg
from mfinv.oracle import DTensor, _differences, _homotopy, _in_half, _shift, _subset_insert


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


def hom_differential(E, F):
    """Matrices of d on flattened Hom^0 and Hom^1, (d_even : Hom^0 ->
    Hom^1, d_odd : Hom^1 -> Hom^0), filled with zeros: column t of delta_F
    placed at column s, minus (-1)^p row s of delta_E placed at row t, for
    the unit map e_ts."""
    if E.w != F.w:
        raise ValueError("potential mismatch")
    dE, dF = E.delta, F.delta
    zero = E.ring.zero()
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
        out.append(as_matrix(rows))
    return out[0], out[1]


def zero_filled(E, F):
    """The two matrices whose columns are the sparse columns (d_even,
    d_odd) of `mfinv.mfcore.hom_differential(E, F)`; each map's rows are
    the other map's columns."""
    d_even, d_odd = mfcore.hom_differential(E, F)
    zero = E.ring.zero()
    return tuple(
        as_matrix([[col.get(r, zero) for col in cols] for r in range(len(other))])
        for cols, other in ((d_even, d_odd), (d_odd, d_even))
    )


def mat_sub(A, B):
    return tuple(tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_sum(pairs, zero):
    """A_1 B_1 + ... + A_k B_k from the products above, added entry by entry."""
    products = [mat_mul(A, B, zero) for A, B in pairs]
    total = products[0]
    for P in products[1:]:
        total = mat_add(total, P)
    return total


def differential(f):
    """d(f) = delta_F f - (-1)^|f| f delta_E from two whole products."""
    zero = f.source.ring.zero()
    left = mat_mul(f.target.delta, f.matrix, zero)
    right = mat_mul(f.matrix, f.source.delta, zero)
    return mat_add(left, right) if f.parity else mat_sub(left, right)


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
    """The residual of every level, as whole matrices, must vanish."""
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
                        "transgression system residual is nonzero at level %d" % len(S)
                    )


def solve_D(E):
    """`mfinv.oracle.solve_D` with the levels formed on this route."""
    ring, _w_tilde, diffs = _differences(E.w)
    n = E.ring.n
    delta_x = mat_map(E.delta, lambda p: _in_half(p, ring, 0))
    delta_y = mat_map(E.delta, lambda p: _shift(_in_half(p, ring, 1), n, ring))
    diffs_u = tuple(_shift(d, n, ring) for d in diffs)
    components = {(): identity_matrix(ring, E.rank)}
    rhs = {}
    for j in range(n):
        for S in combinations(range(n), j):
            rhs[S] = level_rhs(S, components, delta_x, delta_y, diffs_u, ring)
        for T in combinations(range(n), j + 1):
            components[T] = _homotopy(rhs[T[1:]], T[0], n, ring)
    top = tuple(range(n))
    rhs[top] = level_rhs(top, components, delta_x, delta_y, diffs_u, ring)
    assert_system(components, rhs, n, ring)
    return DTensor(ring, E, tuple(components.items()))
