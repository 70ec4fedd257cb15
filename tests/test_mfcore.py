import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfinv.mfcore import (
    EquivariantMF,
    MatFac,
    MorphismCocycle,
    _hom_positions,
    clifford_generators,
    greedy_decomposition,
    identity_matrix,
    identity_morphism,
    koszul,
    koszul_operator,
    koszul_subsets,
    mat_map,
    mat_mul,
    mat_neg,
    mat_sum,
    morphism_to_vector,
    stabilized_residue_field,
    vector_to_morphism,
)
from mfinv.cli import load_session
from mfinv.poly import PolyRing
from mfinv.scalar import CyclotomicContext, zero as scalar_zero
from mf_ops import add, direct_sum, dual, same_morphism, scale, shift, tensor
import matrix_route
from matrix_route import dense, sparse

R1 = PolyRing(("x",))
R2 = PolyRing(("x", "y"))


def zero_matrix(ring, r: int, c: int):
    z = ring.zero()
    return tuple(tuple(z for _ in range(c)) for _ in range(r))


def zero_morphism(E, F, parity: int) -> MorphismCocycle:
    return MorphismCocycle(E, F, parity, zero_matrix(E.ring, F.rank, E.rank))


def k1(ring, a, b):
    return koszul([ring.parse(a)], [ring.parse(b)])


def test_koszul_rank_one():
    E = k1(R1, "x", "x^2")
    assert (E.r0, E.r1) == (1, 1)
    assert E.d0 == sparse(((R1.parse("x"),),))
    assert E.d1 == sparse(((R1.parse("x^2"),),))
    assert E.w == R1.parse("x^3")


def test_koszul_two_blocks():
    a = [R2.parse("x"), R2.parse("y^2")]
    b = [R2.parse("x^2"), R2.parse("y")]
    E = koszul(a, b)
    # evens (, {0,1}; odds {0}, {1}
    assert E.d0 == sparse((
        (a[0], -b[1]),
        (a[1], b[0]),
    ))
    assert E.d1 == sparse((
        (b[0], b[1]),
        (-a[1], a[0]),
    ))


def test_koszul_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        koszul([R1.parse("x")], [])


def test_validate_rejects_non_factorization():
    x = R1.parse("x")
    with pytest.raises(ValueError, match="not a factorization"):
        MatFac.from_blocks(R1, R1.parse("x^3"), ((x,),), ((x,),)).validate()


def test_delta_must_be_square_and_odd():
    x, y, z = R2.parse("x"), R2.parse("y"), R2.zero()
    with pytest.raises(ValueError, match="square"):
        MatFac(R2, x * y, ((z, y), (x, z), (z, z)), 1)
    with pytest.raises(ValueError, match="square"):
        MatFac(R2, x * y, ((z, y), (x,)), 1)
    with pytest.raises(ValueError, match="square"):
        MatFac(R2, x * y, ((z, y), (x, z)), 3)
    E = koszul([R2.parse("x"), R2.parse("y")], [R2.parse("x^2"), R2.parse("y^2")])
    # one nonzero entry in the E0 <- E0, then in the E1 <- E1 block
    for t, s in ((0, 1), (3, 2)):
        rows = [list(row) for row in dense(E.delta, E.rank, z)]
        rows[t][s] = x
        with pytest.raises(ValueError, match="not odd"):
            MatFac(R2, E.w, rows, E.r0)
    assert MatFac(R2, E.w, E.delta, E.r0) == E


def test_from_blocks_round_trips():
    d0 = ((R2.parse("x"), R2.parse("-y^2")), (R2.parse("y"), R2.parse("x^2")))
    d1 = ((R2.parse("x^2"), R2.parse("y^2")), (R2.parse("-y"), R2.parse("x")))
    E = MatFac.from_blocks(R2, R2.parse("x^3 + y^3"), d0, d1)
    E.validate()
    assert (E.r0, E.r1, E.d0, E.d1) == (2, 2, sparse(d0), sparse(d1))
    # unequal summands: r0 = 2, r1 = 1
    z = R2.zero()
    F = MatFac.from_blocks(R2, z, ((z, z),), ((z,), (z,)))
    assert (F.r0, F.r1, F.d0, F.d1) == (2, 1, ({},), ({}, {}))


def test_partials_are_computed_once():
    E = koszul([R2.parse("x"), R2.parse("y")], [R2.parse("x^2 + y"), R2.parse("x*y^2")])
    partials = E.partials
    assert len(partials) == 2
    for i, part in enumerate(partials):
        assert part == mat_map(E.delta, lambda p: p.partial_derivative(i))
    assert E.partials is partials


def test_koszul_subset_order():
    evens, odds = koszul_subsets(3)
    assert evens == [(), (0, 1), (0, 2), (1, 2)]
    assert odds == [(0,), (1,), (2,), (0, 1, 2)]


def test_wedge_contraction_identities():
    # i(e_j*) e_j^ + e_j^ i(e_j*) = id ; distinct indices anticommute
    one, zero = R2.one(), R2.zero()
    for j in range(2):
        wedge = [one if i == j else zero for i in range(2)]
        contract = [zero, zero]
        W = koszul_operator(R2, 2, wedge, contract)
        C = koszul_operator(R2, 2, [zero, zero], wedge)
        assert mat_sum([(W, C), (C, W)], zero, 4) == identity_matrix(R2, 4)
    W0 = koszul_operator(R2, 2, [one, zero], [zero, zero])
    C1 = koszul_operator(R2, 2, [zero, zero], [zero, one])
    assert mat_sum([(W0, C1), (C1, W0)], zero, 4) == sparse(zero_matrix(R2, 4, 4))


def test_tensor_of_rank_ones_validates():
    E = k1(R2, "x", "x^2")
    F = k1(R2, "y", "y^2 + x")
    T = tensor(E, F)
    assert T.w == R2.parse("x^3 + y^3 + x*y")
    assert (T.r0, T.r1) == (2, 2)
    # tensor against a koszul pair of the same data
    K = koszul([R2.parse("x"), R2.parse("y")], [R2.parse("x^2"), R2.parse("y^2 + x")])
    assert K.w == T.w


def test_dual_blocks():
    E = k1(R1, "x", "x^2")
    D = dual(E)
    assert D.w == -E.w
    assert D.d0 == sparse(((R1.parse("x^2"),),))
    assert D.d1 == sparse(((R1.parse("-x"),),))
    DD = dual(D)
    assert DD.w == E.w
    assert DD.d0 == sparse(((R1.parse("-x"),),))
    assert DD.d1 == sparse(((R1.parse("-x^2"),),))


def test_shift_involution():
    E = koszul([R2.parse("x"), R2.parse("y")], [R2.parse("x^2"), R2.parse("y^3")])
    S = shift(E)
    assert (S.r0, S.r1) == (E.r1, E.r0)
    S.validate()
    assert shift(S) == E


def test_direct_sum_validates():
    E = k1(R1, "x", "x^3")
    F = k1(R1, "x^2", "x^2")
    S = direct_sum(E, F)
    assert (S.r0, S.r1) == (2, 2)
    S.validate()
    with pytest.raises(ValueError, match="potential"):
        direct_sum(E, k1(R1, "x", "x^2"))


def test_identity_is_closed():
    E = k1(R1, "x", "x^2")
    assert identity_morphism(E).is_closed()
    assert identity_morphism(E).differential().is_zero()


def test_morphism_equality_compares_the_ends():
    # equal parity and matrix, but factorizations of different potentials
    E = k1(R2, "x", "x^2 + y^2")
    F = k1(R2, "x", "x^2")
    assert E.rank == F.rank and E.w != F.w
    assert not same_morphism(identity_morphism(E), identity_morphism(F))
    assert not same_morphism(zero_morphism(E, E, 1), zero_morphism(E, F, 1))
    assert not same_morphism(zero_morphism(E, E, 1), zero_morphism(F, E, 1))
    assert same_morphism(identity_morphism(E), identity_morphism(k1(R2, "x", "x^2 + y^2")))


def test_identity_coboundary_on_contractible():
    # on {1, w} the identity is d(h) for h with upper block 1
    E = koszul([R1.one()], [R1.parse("x^3")])
    h = MorphismCocycle.from_blocks(E, E, 1, (((R1.zero(),),), ((R1.one(),),)))
    assert same_morphism(h.differential(), identity_morphism(E))


def test_compose_parities():
    E = k1(R1, "x^2", "x^2")
    a = MorphismCocycle.from_blocks(E, E, 1, (((R1.one(),),), ((R1.parse("-1"),),)))
    sq = a.compose(a)
    assert sq.parity == 0
    assert same_morphism(sq, scale(identity_morphism(E), -1))


def test_morphism_vector_roundtrip():
    E = k1(R2, "x", "x^2 + y^2")
    F = koszul([R2.parse("x"), R2.parse("y")], [R2.parse("x^2"), R2.parse("y^2")])
    for parity in (0, 1):
        n = len(_hom_positions(E, F, parity))
        vec = [R2.monomial((i, 0)) for i in range(n)]
        f = vector_to_morphism(E, F, parity, vec)
        assert morphism_to_vector(f) == dict(enumerate(vec))


def _zero_fac(r0, r1):
    """A factorization of 0 of rank (r0, r1), so that every block of a
    morphism between two of them has its own shape."""
    return MatFac.from_blocks(R2, R2.zero(), zero_matrix(R2, r1, r0), zero_matrix(R2, r0, r1))


@pytest.mark.parametrize("parity", [0, 1])
def test_full_matrix_roundtrip_between_unequal_ranks(parity):
    E, F = _zero_fac(2, 1), _zero_fac(1, 3)
    z = zero_morphism(E, F, parity)
    n = len(_hom_positions(E, F, parity))
    vec = [R2.monomial((i, 1)) + R2.one() for i in range(n)]
    f = vector_to_morphism(E, F, parity, vec)
    M = f.matrix
    assert len(M) == F.rank and all(0 <= s < E.rank for row in M for s in row)
    assert same_morphism(MorphismCocycle(E, F, parity, M), f)
    assert same_morphism(MorphismCocycle(E, F, parity, z.matrix), z)


def test_morphism_constructor_checks_shape_and_parity():
    E, F = _zero_fac(2, 1), _zero_fac(1, 3)
    one = R2.one()
    with pytest.raises(ValueError, match="morphism block has the wrong shape"):
        MorphismCocycle(E, F, 0, zero_matrix(R2, F.rank, E.rank + 1))
    with pytest.raises(ValueError, match="morphism block has the wrong shape"):
        MorphismCocycle(E, F, 0, zero_matrix(R2, F.rank - 1, E.rank))
    for parity, (t, s) in ((0, (0, 2)), (0, (1, 0)), (1, (0, 0)), (1, (3, 2))):
        rows = [list(row) for row in zero_matrix(R2, F.rank, E.rank)]
        rows[t][s] = one
        with pytest.raises(ValueError, match="not parity-homogeneous of parity %d" % parity):
            MorphismCocycle(E, F, parity, rows)
        # the same entry is allowed in the other parity
        assert not MorphismCocycle(E, F, 1 - parity, rows).is_zero()
    with pytest.raises(ValueError, match="morphism block has the wrong shape"):
        MorphismCocycle.from_blocks(E, F, 0, (zero_matrix(R2, 1, 2), zero_matrix(R2, 3, 2)))


@pytest.mark.parametrize("parity", [0, 1])
def test_hom_coordinates_are_the_blocks_row_major(parity):
    # the order the Hom kernels are computed in: the block on E0 first,
    # each block row by row
    E, F = _zero_fac(2, 1), _zero_fac(1, 3)
    if parity == 0:
        shapes = ((F.r0, E.r0), (F.r1, E.r1))
    else:
        shapes = ((F.r1, E.r0), (F.r0, E.r1))
    counter = iter(range(1, 100))
    B0, B1 = (
        tuple(tuple(R2.parse(str(next(counter))) for _ in range(c)) for _ in range(r))
        for r, c in shapes
    )
    f = MorphismCocycle.from_blocks(E, F, parity, (B0, B1))
    want = tuple(e for blk in (B0, B1) for row in blk for e in row)
    assert morphism_to_vector(f) == dict(enumerate(want))
    assert same_morphism(vector_to_morphism(E, F, parity, want), f)


def test_vector_to_morphism_rejects_a_wrong_length():
    E, F = _zero_fac(2, 1), _zero_fac(1, 3)
    for parity in (0, 1):
        n = len(_hom_positions(E, F, parity))
        for k in (n - 1, n + 1):
            with pytest.raises(ValueError, match="coordinates"):
                vector_to_morphism(E, F, parity, [R2.one()] * k)


def test_hom_differential_squares_to_zero():
    E = k1(R1, "x", "x^3")
    F = k1(R1, "x^2", "x^2")
    d_even, d_odd = matrix_route.zero_filled(E, F)
    z0 = matrix_route.mat_mul(d_odd, d_even, R1.zero())
    z1 = matrix_route.mat_mul(d_even, d_odd, R1.zero())
    assert all(e.is_zero() for row in z0 for e in row)
    assert all(e.is_zero() for row in z1 for e in row)


def _hom_differential_by_units(E, F):
    """The reference route: d applied to each unit morphism, as columns."""
    d_even, d_odd = matrix_route.zero_filled(E, F)
    n0, n1 = len(d_odd), len(d_even)
    out = []
    for parity, n_in, n_out in ((0, n0, n1), (1, n1, n0)):
        cols = []
        for k in range(n_in):
            unit = [E.ring.zero()] * n_in
            unit[k] = E.ring.one()
            f = vector_to_morphism(E, F, parity, unit)
            cols.append(matrix_route.morphism_to_vector(f.differential()))
        out.append(tuple(tuple(col[r] for col in cols) for r in range(n_out)))
    return tuple(out)


def _hom_differential_pairs():
    """Fixture-session pairs, and sheared Koszul pairs with their unsheared
    originals over the potentials of the Hom benchmark battery."""
    root = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "sessions"
    for name in ("d4", "x6"):
        session = load_session(str(root / ("%s.json" % name)))
        facs = list(session.factorizations.values())
        for E in facs:
            for F in facs:
                yield E, F
    battery = (
        (("x", "y"), ["x", "y"], ["x^2", "y^2"]),
        (("x", "y"), ["x", "y"], ["x^3", "y^3"]),
        (("x", "y"), ["x", "y"], ["x*y", "y^2"]),
        (("x", "y"), ["x^2", "y^2"], ["x^2", "y^3"]),
        (("x", "y", "z"), ["x", "y + z"], ["x^2", "y^2 - y*z + z^2"]),
    )
    for names, a_txt, b_txt in battery:
        ring = PolyRing(names)
        a = [ring.parse(t) for t in a_txt]
        b = [ring.parse(t) for t in b_txt]
        p = ring.var(ring.n - 1)
        sheared = koszul([a[0], a[1] + p * a[0]], [b[0] - p * b[1], b[1]])
        E = koszul(a, b)
        yield E, sheared
        yield sheared, E
        yield E, E
    x = R2.var(0)
    yield k1(R2, "x", "x^2 + y^2"), koszul([x, R2.var(1)], [x**2, x * R2.var(1)])


def test_hom_differential_matches_morphism_route():
    E = k1(R1, "x", "x^3")
    d_even, _ = matrix_route.zero_filled(E, E)
    f = vector_to_morphism(E, E, 0, [R1.parse("x"), R1.zero()])
    direct = matrix_route.morphism_to_vector(f.differential())
    via_matrix = tuple(
        sum((d_even[r][c] * v for c, v in enumerate(matrix_route.morphism_to_vector(f))),
            R1.zero())
        for r in range(len(d_even))
    )
    assert direct == via_matrix
    shapes = set()
    for E, F in _hom_differential_pairs():
        assert matrix_route.zero_filled(E, F) == _hom_differential_by_units(E, F)
        shapes.add((E.r0, E.r1, F.r0, F.r1))
    # E != F of different shapes are among the pairs
    assert any(s[:2] != s[2:] for s in shapes)


def test_greedy_decomposition():
    assert greedy_decomposition(R1.parse("x^3")) == [R1.parse("x^2")]
    ws = greedy_decomposition(R2.parse("x^3 + x*y^2"))
    assert ws == [R2.parse("x^2 + y^2"), R2.zero()]
    ws = greedy_decomposition(R2.parse("x^2*y + y^3"))
    assert ws == [R2.parse("x*y"), R2.parse("y^2")]
    with pytest.raises(ValueError, match="constant"):
        greedy_decomposition(R2.parse("x + 1"))


def test_stabilized_residue_field():
    kst = stabilized_residue_field(R1.parse("x^4"))
    assert kst.d0 == sparse(((R1.parse("x^3"),),))
    assert kst.d1 == sparse(((R1.parse("x"),),))
    kst2 = stabilized_residue_field(R2.parse("x^3 + x*y^2"))
    kst2.validate()
    assert kst2.w == R2.parse("x^3 + x*y^2")


def test_clifford_generators_closed():
    for text, ring in (("x^3 + x*y^2", R2), ("x^2*y + y^4", R2), ("x^4", R1)):
        kst, alphas = clifford_generators(ring.parse(text))
        assert len(alphas) == ring.n
        for a in alphas:
            assert a.parity == 1
            assert a.is_closed()


def test_clifford_rejects_linear_part():
    with pytest.raises(ValueError, match="linear"):
        clifford_generators(R2.parse("x + y^2"))


def test_clifford_anticommutators():
    w = R2.parse("x^3 + x*y^2")
    kst, alphas = clifford_generators(w)
    ws = greedy_decomposition(w)
    wij = [greedy_decomposition(wj) for wj in ws]  # wij[j][i]
    for i in range(2):
        for j in range(2):
            anti = add(alphas[i].compose(alphas[j]), alphas[j].compose(alphas[i]))
            c = -(wij[i][j] + wij[j][i])
            expect = MorphismCocycle.from_blocks(
                kst, kst, 0,
                (
                    tuple(tuple(c if a == b else R2.zero() for b in range(kst.r0)) for a in range(kst.r0)),
                    tuple(tuple(c if a == b else R2.zero() for b in range(kst.r1)) for a in range(kst.r1)),
                ),
            )
            assert same_morphism(anti, expect)


def test_clifford_supercommutative_cube():
    # no quadratic part: every anticommutator is exactly a coboundary
    w = R2.parse("x^3 + y^3")
    kst, alphas = clifford_generators(w)
    ws = greedy_decomposition(w)
    wij = [greedy_decomposition(wj) for wj in ws]
    for i in range(2):
        for j in range(2):
            anti = add(alphas[i].compose(alphas[j]), alphas[j].compose(alphas[i]))
            f = wij[i][j] + wij[j][i]
            if f.is_zero():
                assert anti.is_zero()
                continue
            fs = greedy_decomposition(f)
            T = koszul_operator(R2, 2, fs, [R2.zero(), R2.zero()])
            h = MorphismCocycle(kst, kst, 1, T)
            assert same_morphism(scale(h.differential(), -1), anti)


def test_equivariant_container_checks():
    E = k1(R1, "x", "x^2")
    good = (
        ((R1.one(), R1.zero()), (R1.zero(), R1.one())),
    )
    EquivariantMF(E, tuple(good))
    bad_parity = (
        ((R1.zero(), R1.one()), (R1.one(), R1.zero())),
    )
    with pytest.raises(ValueError, match="parity"):
        EquivariantMF(E, tuple(bad_parity))
    with pytest.raises(ValueError, match="size"):
        EquivariantMF(E, (((R1.one(),),),))


@settings(max_examples=15, deadline=None)
@given(
    e=st.lists(st.integers(min_value=0, max_value=2), min_size=4, max_size=4),
    c=st.lists(st.integers(min_value=-3, max_value=3), min_size=4, max_size=4),
)
def test_random_koszul_validates(e, c):
    a = [R2.monomial((e[0], e[1])) * c[0], R2.monomial((e[2], 0)) * c[1]]
    b = [R2.monomial((0, e[3])) * c[2], R2.monomial((1, 1)) * c[3]]
    E = koszul(a, b)
    E.validate()
    dual(E).validate()
    shift(E).validate()
    tensor(E, E).validate()


def test_closedness_is_computed_once_per_morphism(monkeypatch):
    import copy
    import pickle

    from mfinv.invariants import check_endomorphism

    calls = []
    real = MorphismCocycle.differential

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(MorphismCocycle, "differential", counted)
    E = k1(R2, "x", "x^2 + y^2")
    f = identity_morphism(E)
    one, zero = ((R2.one(),),), ((R2.zero(),),)
    g = MorphismCocycle.from_blocks(E, E, 0, (one, zero))  # diag(1, 0) is not closed
    assert f.closed is None and g.closed is None
    assert f.is_closed() and f.is_closed()
    assert not g.is_closed() and not g.is_closed()
    for _ in range(2):
        with pytest.raises(ValueError, match="not closed"):
            check_endomorphism(E, g)
    assert [id(c) for c in calls] == [id(f), id(g)]
    for h in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert h.closed is False and not h.is_closed()
    assert len(calls) == 2
    with pytest.raises(AttributeError):
        f.closed = False


def test_verify_checks_each_morphism_closed_once(monkeypatch, capsys):
    from mfinv.cli import main

    calls = []
    real = MorphismCocycle.differential

    def counted(self):
        calls.append(self)  # held, so that no two calls share an id
        return real(self)

    monkeypatch.setattr(MorphismCocycle, "differential", counted)
    root = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "sessions"
    for name in ("d4", "x6"):
        calls.clear()
        assert main(["--input", str(root / (name + ".json")), "verify", "--check"]) == 0
        assert calls and len({id(f) for f in calls}) == len(calls)
    capsys.readouterr()


# --- sums of products against the matrix route ------------------------------

Z3 = PolyRing(("x", "y"), CyclotomicContext(3))


def _random_scalar(rng, ring):
    """0 about half the time, else a small rational, over Q(zeta_3) with a
    zeta part."""
    if rng.random() < 0.5:
        return 0
    c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
    return c + rng.randint(-2, 2) * ring.context.zeta() if ring.context else c


def _random_matrix(rng, ring, rows, cols):
    """Polynomials of up to three terms of degree at most 2 per variable,
    half of the entries 0."""
    def entry():
        p = ring.zero()
        if rng.random() < 0.5:
            for _ in range(rng.randint(1, 3)):
                exponents = tuple(rng.randint(0, 2) for _ in range(ring.n))
                p = p + ring.monomial(exponents, _random_scalar(rng, ring) or 1)
        return p

    return tuple(tuple(entry() for _ in range(cols)) for _ in range(rows))


def _random_pairs(rng, ring):
    rows, cols = rng.randint(1, 4), rng.randint(1, 4)
    return [
        (_random_matrix(rng, ring, rows, k), _random_matrix(rng, ring, k, cols))
        for k in (rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
    ]


def _in_normal_form(M) -> bool:
    # no stored zero entry, no zero coefficient, and no integral Fraction
    return all(p and all(c and not (c.__class__ is Fraction and c.denominator == 1)
                         for c in p.terms.values())
               for row in M for p in row.values())


def _sparse_pairs(pairs):
    return [(sparse(A), sparse(B)) for A, B in pairs]


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("ring", [R2, Z3], ids=["Q", "Q(zeta3)"])
def test_mat_sum_matches_the_matrix_route(ring, seed):
    rng = random.Random(seed)
    dense_pairs = _random_pairs(rng, ring)
    pairs = _sparse_pairs(dense_pairs)
    zero = ring.zero()
    cols = len(dense_pairs[0][1][0])
    got = mat_sum(pairs, zero, cols)
    assert got == sparse(matrix_route.mat_sum(dense_pairs, zero)) and _in_normal_form(got)
    A, B = pairs[0]
    assert mat_mul(A, B, zero, cols) == sparse(matrix_route.mat_mul(*dense_pairs[0], zero))
    # a summand and its negative cancel in every entry; what is left is
    # the rest, and an entry with nothing left is not stored
    cancelled = mat_sum([(A, B), (mat_neg(A), B)] + pairs[1:], zero, cols)
    if len(pairs) > 1:
        assert cancelled == sparse(matrix_route.mat_sum(dense_pairs[1:], zero))
        assert _in_normal_form(cancelled)
    else:
        assert len(cancelled) == len(A) and not any(cancelled)


def test_mat_sum_cancels_fractions_to_integers():
    x = R2.var(0)
    half = ({0: x * Fraction(1, 2)},)
    one = ({0: R2.one()},)
    got = mat_sum([(half, one), (one, half), (one, ({0: R2.const(Fraction(1, 3))},))], R2.zero(), 1)
    assert got == ({0: x + Fraction(1, 3)},)
    assert got[0][0].terms[1] == 1 and got[0][0].terms[1].__class__ is int


@pytest.mark.parametrize("seed", range(6))
def test_mat_sum_of_scalar_matrices_matches_the_matrix_route(seed):
    # group actions: scalar times polynomial and back (as the equivariance
    # check and the action on morphisms use them), and scalar times scalar
    rng = random.Random(100 + seed)
    ring = Z3
    n = rng.randint(1, 4)
    rho = tuple(tuple(ring.scalar(_random_scalar(rng, ring)) for _ in range(n)) for _ in range(n))
    sigma = tuple(tuple(ring.scalar(_random_scalar(rng, ring)) for _ in range(n)) for _ in range(n))
    M = _random_matrix(rng, ring, n, n)
    zero = ring.zero()
    for A, B in ((rho, M), (M, rho), (rho, rho)):
        assert mat_mul(sparse(A), sparse(B), zero, n) == sparse(matrix_route.mat_mul(A, B, zero))
    pairs = [(rho, M), (M, rho)]
    assert mat_sum(_sparse_pairs(pairs), zero, n) == sparse(matrix_route.mat_sum(pairs, zero))
    szero = scalar_zero(ring.context)
    for A, B in ((rho, sigma), (sigma, rho)):
        assert mat_mul(sparse(A), sparse(B), szero, n) == sparse(matrix_route.mat_mul(A, B, szero))
    pairs = [(rho, sigma), (sigma, rho)]
    assert mat_sum(_sparse_pairs(pairs), szero, n) == sparse(matrix_route.mat_sum(pairs, szero))


def test_mat_sum_rejects_mismatched_shapes():
    # a row records its stored columns, not its width, so the caller names
    # the column count of the B_i: a stored column of A_i outside the rows
    # of B_i, or of B_i outside that count, raises
    zero, one = R2.zero(), R2.one()
    M = {(r, c): tuple(tuple(one for _ in range(c)) for _ in range(r))
         for r in (1, 2, 3) for c in (1, 2, 3)}
    for pairs, cols in (
        ([(M[2, 3], M[2, 2])], 2),  # the inner sizes differ
        ([(M[2, 2], M[2, 3]), (M[2, 2], M[2, 2])], 2),  # results of two shapes
        ([(M[2, 2], M[2, 3]), (M[3, 2], M[2, 3])], 3),
        ([(M[2, 2], M[2, 3]), (M[2, 3], M[2, 3])], 3),
    ):
        with pytest.raises(ValueError, match="shapes do not compose"):
            mat_sum(_sparse_pairs(pairs), zero, cols)
    I2 = sparse(M[2, 2])
    for A, B in ((({0: one}, {-1: one}), I2), (I2, ({0: one}, {-1: one}))):  # negative columns
        with pytest.raises(ValueError, match="shapes do not compose"):
            mat_mul(A, B, zero, 2)
    for zero_ in (zero, scalar_zero()):
        with pytest.raises(ValueError, match="shapes do not compose"):
            mat_mul(sparse(M[1, 2]), sparse(M[1, 2]), zero_, 2)
        with pytest.raises(ValueError, match="shapes do not compose"):
            mat_mul(I2, I2, zero_, 1)  # B wider than the column count
        with pytest.raises(ValueError, match="shapes do not compose"):
            matrix_route.mat_mul(M[1, 2], M[1, 2], zero_)


@pytest.mark.parametrize("seed", range(6))
def test_differential_matches_the_matrix_route(seed):
    rng = random.Random(200 + seed)
    ring = (R2, Z3)[seed % 2]
    x, y = ring.var(0), ring.var(1)
    E = koszul([x, y], [x ** 2 + y, y ** 2])
    F = koszul([x + y, y], [x ** 2, x + y ** 2 - x ** 2])  # the same w
    K = koszul([x + y], [x ** 2 - x * y + y ** 2 + y])  # rank 2, another w
    assert E.w == F.w
    for source, target in ((E, E), (E, F), (F, E), (K, K)):
        for parity in (0, 1):
            count = len(_hom_positions(source, target, parity))
            entries = _random_matrix(rng, ring, 1, count)[0]
            f = vector_to_morphism(source, target, parity, entries)
            assert f.differential().matrix == sparse(matrix_route.differential(f))


def test_a_cancelled_overflow_still_raises():
    # x^(2^29) y times itself sets a guard bit of the x field; the
    # negated copy cancels that word, and the sum must raise all the same
    E = 1 << R2.layout.limit
    half = ({0: R2.monomial((E // 2, 1))},)
    for pairs in ([(half, half)], [(half, half), (mat_neg(half), half)]):
        with pytest.raises(ValueError, match="exponent above the limit"):
            mat_sum(pairs, R2.zero(), 1)


def test_a_cancelled_overflow_raises_under_optimize():
    # the layout check is an explicit raise, not a bare assert
    import os
    import subprocess
    import sys

    import mfinv

    src = str(pathlib.Path(mfinv.__file__).resolve().parent.parent)
    code = (
        "from mfinv.mfcore import mat_neg, mat_sum\n"
        "from mfinv.poly import PolyRing\n"
        "R = PolyRing(('x', 'y'))\n"
        "half = ({0: R.monomial((1 << R.layout.limit - 1, 1))},)\n"
        "try:\n"
        "    mat_sum([(half, half), (mat_neg(half), half)], R.zero(), 1)\n"
        "except ValueError as exc:\n"
        "    print('raised:', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, check=True
    )
    message = "raised: exponent above the limit 2^30 - 1 of the exponent words in 2 variables"
    assert out.stdout.splitlines() == [message]
