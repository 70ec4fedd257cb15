"""Every package matrix in its row form against the dense reference.

The package stores each matrix as a tuple of rows of nonzero entries
(`mfinv.mfcore.as_matrix`); `matrix_route` keeps the dense builders and
whole-matrix products it replaced.  Here both routes run on the Hom
batteries over Q and over Q(zeta_3) and must agree entry for entry, and
no stored entry may be zero: two matrices compare with ``==`` only
because each has one form.
"""
import random

from mfinv.equivariant import close_group, equivariant_stabilization
from mfinv.invariants import derivative_product, supertrace
from mfinv.mfcore import (
    MatFac,
    _hom_positions,
    as_matrix,
    hom_differential,
    koszul_operator,
    mat_sum,
    morphism_to_vector,
    vector_to_morphism,
)
from mfinv.oracle import solve_D
from mfinv.poly import PolyRing
from mfinv.scalar import CyclotomicContext
import matrix_route
from matrix_route import dense
from test_groebner import _hard_pairs, _hom_pairs, _sheared_pairs, _zeta3_pairs
from test_mfcore import _hom_differential_pairs


def _battery_pairs():
    return [
        *_hom_pairs(), *_sheared_pairs(), *_sheared_pairs(CyclotomicContext(3)),
        *_zeta3_pairs(), *_hard_pairs(), *_hom_differential_pairs(),
    ]


def _factorizations():
    """Each factorization of the batteries once."""
    out = []
    for pair in _battery_pairs():
        for E in pair:
            if E not in out:
                out.append(E)
    return out


def _random_entries(rng, ring, count):
    """Polynomials of up to two terms, half of them 0."""
    out = []
    for _ in range(count):
        p = ring.zero()
        if rng.random() < 0.5:
            for _ in range(rng.randint(1, 2)):
                exponents = tuple(rng.randint(0, 2) for _ in range(ring.n))
                p = p + ring.monomial(exponents, rng.choice((1, -2, 3)))
        out.append(p)
    return out


def _scalar_matrix(rng, ring, n):
    """A dense n x n matrix of Scalars of the ring's field, some of them 0."""
    values = [0, 0, 1, -1, 2]
    if ring.context is not None:
        values += [ring.context.zeta(), -ring.context.zeta(2)]
    return tuple(tuple(ring.scalar(rng.choice(values)) for _ in range(n)) for _ in range(n))


def _stored_zeros(M) -> int:
    return sum(1 for row in M for e in row.values() if not e)


def test_mat_sum_matches_the_dense_route_on_the_batteries():
    # delta delta, and the mixed products of a Scalar matrix with delta on
    # either side, as the equivariance check forms them
    rng = random.Random(36)
    facs = _factorizations()
    assert len(facs) > 60 and {E.ring.context is None for E in facs} == {True, False}
    for E in facs:
        zero, n = E.ring.zero(), E.rank
        delta = dense(E.delta, n, zero)
        S = _scalar_matrix(rng, E.ring, n)
        pairs = [(delta, delta), (S, delta), (delta, S)]
        got = mat_sum([(as_matrix(A, n), as_matrix(B, n)) for A, B in pairs], zero, n)
        assert got == as_matrix(matrix_route.mat_sum(pairs, zero), n)
        assert _stored_zeros(got) == 0


def test_partials_and_koszul_operators_match_the_dense_route():
    for E in _factorizations():
        want = matrix_route.partials(E)
        assert E.partials == tuple(as_matrix(M, E.rank) for M in want)
        # every battery delta is the Koszul operator of the a_j in its
        # column {} and the b_j in its row {}
        m, zero = E.rank.bit_length() - 1, E.ring.zero()
        a = [E.delta[E.r0 + j].get(0, zero) for j in range(m)]
        b = [E.delta[0].get(E.r0 + j, zero) for j in range(m)]
        reference = as_matrix(matrix_route.koszul_operator(E.ring, m, a, b), E.rank)
        assert koszul_operator(E.ring, m, a, b) == reference == E.delta


def test_from_blocks_of_the_dense_blocks_is_the_factorization():
    for E in _factorizations():
        zero = E.ring.zero()
        d0, d1 = dense(E.d0, E.r0, zero), dense(E.d1, E.r1, zero)
        assert MatFac.from_blocks(E.ring, E.w, d0, d1) == E
        assert MatFac.from_blocks(E.ring, E.w, E.d0, E.d1) == E
        assert MatFac(E.ring, E.w, dense(E.delta, E.rank, zero), E.r0) == E


def test_hom_coordinates_and_differential_match_the_dense_route():
    # a seeded vector of each parity on every pair: its morphism, back to
    # the vector, and its differential three ways: the sparse columns of
    # hom_differential, the dense columns, and two whole products
    rng = random.Random(37)
    for E, F in _battery_pairs():
        zero = E.ring.zero()
        columns = hom_differential(E, F)
        dense_maps = matrix_route.hom_differential(E, F)
        for parity in (0, 1):
            vec = _random_entries(rng, E.ring, len(_hom_positions(E, F, parity)))
            f = vector_to_morphism(E, F, parity, vec)
            assert matrix_route.morphism_to_vector(f) == tuple(vec)
            coords = morphism_to_vector(f)
            assert coords == {c: e for c, e in enumerate(vec) if e}
            df = f.differential()
            assert df.matrix == as_matrix(matrix_route.differential(f), E.rank)
            by_columns: dict = {}
            for c, e in coords.items():
                for r, entry in columns[parity][c].items():
                    by_columns[r] = by_columns.get(r, zero) + entry * e
            assert {r: p for r, p in by_columns.items() if p} == morphism_to_vector(df)
            D = dense_maps[parity]
            want = tuple(sum((D[r][c] * e for c, e in enumerate(vec)), zero)
                         for r in range(len(D)))
            assert matrix_route.morphism_to_vector(df) == want


def test_solve_D_levels_and_supertraces_match_the_dense_route():
    # the supertrace of the Chern product against a partial, a morphism
    # matrix and a Scalar matrix, and alone
    rng = random.Random(38)
    facs = _factorizations()
    for k, E in enumerate(facs):
        ring, n, zero = E.ring, E.ring.n, E.ring.zero()
        P = derivative_product(E, range(n - 1, 0, -1))
        vec = _random_entries(rng, ring, len(_hom_positions(E, E, k % 2)))
        f = vector_to_morphism(E, E, k % 2, vec)
        S = _scalar_matrix(rng, ring, E.rank)
        for R, full in ((E.partials[0], dense(E.partials[0], E.rank, zero)),
                        (f.matrix, dense(f.matrix, E.rank, zero)), (as_matrix(S, E.rank), S)):
            want = matrix_route.supertrace(dense(P, E.rank, zero), E.r0, full)
            assert supertrace(ring, P, E.r0, R) == want
        assert supertrace(ring, P, E.r0) == matrix_route.supertrace(dense(P, E.rank, zero), E.r0)
    # the oracle levels on the factorizations in one and two variables and
    # a sample of the rest, on which the dense route takes longer
    small = [E for E in facs if E.ring.n <= 2]
    for E in small + [E for E in facs if E.ring.n > 2][:3]:
        assert solve_D(E).solved == matrix_route.solve_D(E).solved
    assert {E.ring.context is None for E in small} == {True, False}


def test_no_matrix_stores_a_zero():
    # deltas, blocks, partials, their products, morphisms and their
    # differentials, Hom columns, oracle levels and group actions
    rng = random.Random(39)
    seen = 0
    for E, F in _battery_pairs()[::3]:
        matrices = [E.delta, E.d0, E.d1, *E.partials, derivative_product(E, range(E.ring.n))]
        for parity in (0, 1):
            vec = _random_entries(rng, E.ring, len(_hom_positions(E, F, parity)))
            f = vector_to_morphism(E, F, parity, vec)
            matrices += [f.matrix, f.differential().matrix, [morphism_to_vector(f)]]
        matrices += hom_differential(E, F)
        if E.ring.n == 2:
            matrices += [M for _S, M in solve_D(E).solved]
        for M in matrices:
            assert _stored_zeros(M) == 0
            seen += sum(map(len, M))
    ctx = CyclotomicContext(12)
    ring = PolyRing(("x", "y"), ctx)
    G = close_group(2, [(ctx.zeta(4), 1), (1, ctx.zeta(3))], ctx)
    K = equivariant_stabilization(ring.parse("x^3 + y^4"), G)
    for M in K.action:
        assert _stored_zeros(M) == 0 and len(M) == K.base.rank
    assert seen > 5000
