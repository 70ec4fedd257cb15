import pathlib
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfinv import groebner, mfcore
from mfinv.groebner import (
    buchberger,
    lift,
    lift_basis,
    module_gb,
    module_kernel,
    module_normal_form,
    normal_form,
    quotient_basis,
    split,
    subquotient_basis,
)
from mfinv.cli import _endomorphisms, load_session
from mfinv.homology import cardy_supertrace, euler, hom_cohomology, koszul_hom_dimensions
from mfinv.invariants import chi_hrr
from mfinv.milnor import build_milnor
from mfinv.mfcore import identity_morphism, koszul, vector_to_morphism
from mfinv.poly import PolyRing, Polynomial
from mfinv.scalar import CyclotomicContext, Scalar
from lift_route import (
    LiftRouteBasis,
    block_basis,
    lead,
    standard_monomials,
    subquotient_presentation,
)
from matrix_route import hom_differential
from test_mfcore import _hom_differential_pairs
from tuple_route import grevlex_key, polynomial, terms

R2 = PolyRing(("x", "y"))
R1 = PolyRing(("x",))


def _gb(ring, *texts):
    return buchberger([ring.parse(t) for t in texts])


def syzygies(gens, rank: int, ring):
    """The reduced term-over-position basis of {c in R^s : sum_i c_i *
    gens_i = 0}, in `module_buchberger`'s order: the tails of the lift
    basis of ``gens``."""
    return split(lift_basis(gens, rank, ring))[1].generators


def _cofactors(f, gens):
    """(r, cofactors) of f against the ideal generators ``gens``."""
    (r,), cof = lift((f,), lift_basis([(g,) for g in gens], 1, f.ring))
    return r, cof


def test_buchberger_d4_jacobian():
    gb = _gb(R2, "3*x^2 + y^2", "2*x*y")
    leads = {max(terms(g), key=grevlex_key) for g, in gb.generators}
    assert leads == {(2, 0), (1, 1), (0, 3)}
    # reduced: monic leads, no cross-divisibility
    for g, in gb.generators:
        assert terms(g)[max(terms(g), key=grevlex_key)] == 1


def test_buchberger_trivial_cases():
    gb = _gb(R1, "x")
    assert [str(g) for g, in gb.generators] == ["x"]
    gb2 = _gb(R1, "x^2", "x^3")
    assert [str(g) for g, in gb2.generators] == ["x^2"]


def test_normal_form_congruences_d4():
    gb = _gb(R2, "3*x^2 + y^2", "2*x*y")
    # y^2 = -3x^2 in the quotient: both sides share a normal form
    assert normal_form(R2.parse("y^2 + 3*x^2"), gb).is_zero()
    assert normal_form(R2.parse("y^2"), gb) == normal_form(R2.parse("-3*x^2"), gb)
    assert normal_form(R2.parse("3*x^2 + y^2"), gb).is_zero()
    assert normal_form(R2.one(), gb) == R2.one()
    # x^3 and y^3 both die (socle dimensions work out)
    assert normal_form(R2.parse("x^3"), gb).is_zero()
    assert normal_form(R2.parse("y^3"), gb).is_zero()


def test_quotient_basis_d4_dimension():
    gb = _gb(R2, "3*x^2 + y^2", "2*x*y")
    words = quotient_basis(gb)
    assert words is not None
    basis = [R2.layout.exponents(x) for x in words]
    assert len(basis) == 4
    assert (0, 0) in basis and (1, 0) in basis and (0, 1) in basis


def test_quotient_basis_one_variable():
    gb = _gb(R1, "x^5")
    assert [R1.layout.exponents(x) for x in quotient_basis(gb)] == [(0,), (1,), (2,), (3,), (4,)]


def test_quotient_basis_infinite():
    Rxy = PolyRing(("x", "y"))
    gb = _gb(Rxy, "x")
    assert quotient_basis(gb) is None


def test_cofactors_identity():
    gens = [R2.parse("3*x^2 + y^2"), R2.parse("2*x*y")]
    f = R2.parse("x^4 + x*y^3 - 2*y^2")
    r, cof = _cofactors(f, gens)
    recon = r
    for a, g in zip(cof, gens):
        recon = recon + a * g
    assert recon == f
    assert r == normal_form(f, buchberger(gens))


def test_cofactors_for_member():
    gens = [R2.parse("3*x^2 + y^2"), R2.parse("2*x*y")]
    f = R2.parse("x^2*y")  # = x/2 * (2xy) hence in the ideal
    r, cof = _cofactors(f, gens)
    assert r.is_zero()
    recon = R2.zero()
    for a, g in zip(cof, gens):
        recon = recon + a * g
    assert recon == f


def test_gb_independent_of_generator_order():
    a, b = R2.parse("3*x^2 + y^2"), R2.parse("2*x*y")
    g1 = buchberger([a, b])
    g2 = buchberger([b, a])
    assert [str(g) for g, in g1.generators] == [str(g) for g, in g2.generators]


def test_module_kernel_koszul_syzygy():
    cols = [(R2.var(0),), (R2.var(1),)]  # the columns of the row (x  y)
    ker, _image = module_kernel(cols, 1, R2)
    assert len(ker.generators) == 1
    v = ker.generators[0]
    # the Koszul syzygy (y, -x) up to sign/scaling
    assert (R2.var(0) * v[0] + R2.var(1) * v[1]).is_zero()
    assert not v[0].is_zero() and not v[1].is_zero()


def test_module_kernel_identity_is_zero():
    cols = [(R2.one(), R2.zero()), (R2.zero(), R2.one())]
    ker, _image = module_kernel(cols, 2, R2)
    assert len(ker.generators) == 0


def test_module_lift_roundtrip():
    gens = [
        (R2.var(0), R2.zero()),
        (R2.zero(), R2.var(1)),
    ]
    basis = lift_basis(gens, 2, R2)
    v = (R2.parse("x^2 + x*y"), R2.parse("y^3"))
    rem, coords = lift(v, basis)
    assert all(c.is_zero() for c in rem)
    recon = [R2.zero(), R2.zero()]
    for c, g in zip(coords, gens):
        recon = [r + c * gc for r, gc in zip(recon, g)]
    assert tuple(recon) == v
    # a non-member keeps its normal form as the remainder
    assert lift((R2.one(), R2.zero()), basis) == ((R2.one(), R2.zero()), (R2.zero(), R2.zero()))


def test_lift_basis_and_module_gb_reject_a_generator_outside_the_rank():
    x, y = R2.var(0), R2.var(1)
    # the second components would be read as cofactor positions
    for gens in ([(x, y + 1), (y, x)], [(x,), ()]):
        bad = next(g for g in gens if len(g) != 1)
        with pytest.raises(ValueError, match="vector of length %d in a module of rank 1" % len(bad)):
            lift_basis(gens, 1, R2)
        with pytest.raises(ValueError, match="vector of length %d" % len(bad)):
            module_gb(gens, 1, R2)
    for col in ({0: x, 2: y}, {-1: x}):
        bad = next(p for p in col if p not in (0, 1))
        for build in (lift_basis, module_gb, module_kernel):
            with pytest.raises(ValueError, match="position %d outside a module of rank 2" % bad):
                build([{0: y}, col], 2, R2)
    # a dict keyed in range(rank) is the tuple it abbreviates
    cols = [{1: x}, {0: y, 1: x + y}, {}]
    tuples = [(R2.zero(), x), (y, x + y), (R2.zero(), R2.zero())]
    assert lift_basis(cols, 2, R2).generators == lift_basis(tuples, 2, R2).generators
    assert module_gb(cols, 2, R2).generators == module_gb(tuples, 2, R2).generators


def test_lift_and_normal_form_reject_a_vector_of_the_wrong_length():
    x, y = R2.var(0), R2.var(1)
    basis = lift_basis([(x,)], 1, R2)
    mgb = module_gb([(x, y)], 2, R2)
    # a long vector would run into the cofactor slots of the lift basis
    for v in ((x, y, x), (x, y), ()):
        with pytest.raises(ValueError, match="vector of length %d" % len(v)):
            lift(v, basis)
    for v in ((x,), (x, y, x)):
        with pytest.raises(ValueError, match="vector of length %d" % len(v)):
            module_normal_form(v, mgb)
    assert lift((x * y,), basis) == ((R2.zero(),), (y,))


def test_module_normal_form_kills_members():
    gens = [(R2.var(0), R2.var(1))]
    mgb = module_gb(gens, 2, R2)
    v = (R2.parse("x^2"), R2.parse("x*y"))
    assert all(c.is_zero() for c in module_normal_form(v, mgb))


def test_subquotient_point():
    # kernel = R^1, image = (x, y): quotient is k
    ker = module_gb([(R2.one(),)], 1, R2)
    dim = len(subquotient_basis(ker, module_gb([(R2.var(0),), (R2.var(1),)], 1, R2)))
    assert dim == 1


def test_subquotient_equal_modules_is_zero():
    ker = module_gb([(R2.var(0),), (R2.var(1),)], 1, R2)
    dim = len(subquotient_basis(ker, module_gb([(R2.var(0),), (R2.var(1),)], 1, R2)))
    assert dim == 0


def test_subquotient_image_outside_kernel():
    ker = module_gb([(R2.var(0),)], 1, R2)
    x, y = R2.var(0), R2.var(1)
    # alone, and last after several generators inside the kernel
    for image in ([(R2.one(),)], [(x**2,), (x * y,), (x,), (x + y,)]):
        with pytest.raises(ValueError, match="^image generators outside the kernel submodule$"):
            subquotient_basis(ker, module_gb(image, 1, R2))


def test_subquotient_one_variable_chain():
    # kernel = (x^i) inside R^1, image = (x^n): quotient k[x]/(x^(n-i)) shifted
    R = R1
    for i, n in ((1, 3), (2, 5)):
        ker = module_gb([(R.var(0) ** i,)], 1, R)
        dim = len(subquotient_basis(ker, module_gb([(R.var(0) ** n,)], 1, R)))
        assert dim == n - i


def test_syzygies_of_regular_sequence():
    syz = syzygies([(R2.var(0),), (R2.var(1),)], 1, R2)
    # all syzygies of (x, y) are multiples of (y, -x)
    for s in syz:
        assert (s[0] * R2.var(0) + s[1] * R2.var(1)).is_zero()
    assert syz


def test_standard_terms_positions():
    # started at 1 in each position: the standard terms of the module, in
    # ascending term-over-position order, each with the start dividing it
    mgb = module_gb([(R1.var(0) ** 2, R1.zero()), (R1.zero(), R1.var(0) ** 3)], 2, R1)
    lay = groebner._layout(1)
    ones = [lay.base(p, 0) for p in range(2)]
    std = groebner._standard_terms(ones, mgb._divisors)
    assert [_term(lay, k) for k in std] == [(1, (0,)), (0, (0,)), (1, (1,)), (0, (1,)), (1, (2,))]
    assert [ones.index(s) for s in std.values()] == [1, 0, 1, 0, 1]


_coef = st.integers(min_value=-4, max_value=4)


def _rand_polys(draw_count=3):
    expo = st.tuples(
        st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)
    )
    def build(pairs):
        out = R2.zero()
        for (a, b), c in pairs:
            out = out + R2.monomial((a, b), R2.scalar(c))
        return out
    return st.lists(st.tuples(expo, _coef), min_size=0, max_size=4).map(build)


@settings(max_examples=25, deadline=None)
@given(f=_rand_polys(), g=_rand_polys(), h=_rand_polys())
def test_nf_properties_random(f, g, h):
    gb = _gb(R2, "3*x^2 + y^2", "2*x*y")
    a = normal_form(f, gb)
    assert normal_form(a, gb) == a
    assert normal_form(f + g, gb) == normal_form(a + normal_form(g, gb), gb)
    member = f * R2.parse("3*x^2 + y^2") + g * R2.parse("2*x*y")
    assert normal_form(member, gb).is_zero()


@settings(max_examples=20, deadline=None)
@given(f=_rand_polys())
def test_cofactor_identity_random(f):
    gens = [R2.parse("3*x^2 + y^2"), R2.parse("2*x*y")]
    r, cof = _cofactors(f, gens)
    recon = r
    for a, g in zip(cof, gens):
        recon = recon + a * g
    assert recon == f


# --- the tuple-of-polynomials division, kept as the reference ----------------


# exponent-tuple arithmetic, the reference for the engine's packed keys
def monomial_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def monomial_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def monomial_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _ref_lead(v, block):
    positions = [p for p, c in enumerate(v) if c.terms]
    if positions[0] < block:
        positions = [p for p in positions if p < block]
    leads = [(p, max(terms(v[p]), key=grevlex_key)) for p in positions]
    return max(leads, key=lambda pm: (grevlex_key(pm[1]), -pm[0]))


def _ref_divide(v, gens, ring, block=0):
    """Full division of v by ``gens``, the first dividing lead in order;
    returns (remainder, quotients)."""
    basis = []
    for g in gens:
        p, m = _ref_lead(g, block)
        basis.append((g, (p, m, ring.scalar(terms(g[p])[m]).inverse())))
    quots = [{} for _ in basis]
    rem = [{} for _ in v]
    work = list(v)
    while any(c.terms for c in work):
        p, m = _ref_lead(work, block)
        c = terms(work[p])[m]
        for i, (w, (wp, wm, winv)) in enumerate(basis):
            if wp == p and monomial_divides(wm, m):
                t = monomial_div(m, wm)
                coeff = c * winv
                quots[i][t] = coeff
                factor = ring.monomial(t, -coeff)
                work = [a + factor * b if b.terms else a for a, b in zip(work, w)]
                break
        else:
            rem[p][m] = c
            rest = dict(work[p].terms)
            del rest[ring.layout.word(m)]
            work[p] = Polynomial(ring, rest)
    return (
        tuple(polynomial(ring, d) for d in rem),
        [polynomial(ring, q) for q in quots],
    )


def _hom_pairs():
    root = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "sessions"
    for name in ("d4", "x6"):
        session = load_session(str(root / ("%s.json" % name)))
        facs = list(session.factorizations.values())
        for E in facs:
            for F in facs:
                yield E, F
    R3 = PolyRing(("x", "y", "z"))
    x, y, z = R3.var(0), R3.var(1), R3.var(2)
    # rank-4 Koszul factorizations of the Fermat cubic x^3 + y^3 + z^3
    E = koszul([x, y + z], [x**2, y**2 - y * z + z**2])
    F = koszul([y, x + z], [y**2, x**2 - x * z + z**2])
    yield E, E
    yield E, F


def _check_reduced_basis(mgb):
    ring = mgb.ring
    gens = mgb.generators
    leads = [_ref_lead(g, 0) for g in gens]
    for g, (p, m) in zip(gens, leads):
        assert terms(g[p])[m] == 1
        for q, c in enumerate(g):
            for t in terms(c):
                assert not any(
                    lp == q and monomial_divides(lm, t) and (lp, lm) != (p, m)
                    for lp, lm in leads
                )
    # every S-vector reduces to zero under the reference division
    for i, (gi, (pi, mi)) in enumerate(zip(gens, leads)):
        for gj, (pj, mj) in zip(gens[i + 1:], leads[i + 1:]):
            if pi != pj:
                continue
            lcm = monomial_lcm(mi, mj)
            fi = ring.monomial(monomial_div(lcm, mi))
            fj = ring.monomial(monomial_div(lcm, mj))
            s = tuple(fi * a - fj * b for a, b in zip(gi, gj))
            rem, _ = _ref_divide(s, gens, ring)
            assert all(c.is_zero() for c in rem)


def _check_division(mgb, vectors):
    # `lift` against the generators: the reference remainder, and the
    # reference quotients reduced modulo the generators' syzygies
    basis = lift_basis(mgb.generators, mgb.rank, mgb.ring)
    heads, syz = split(basis)
    assert heads.generators == mgb.generators
    for v in vectors:
        rem, quots = _ref_divide(v, mgb.generators, mgb.ring)
        assert module_normal_form(v, mgb) == rem
        assert lift(v, basis) == (rem, module_normal_form(quots, syz))


def _check_hom_modules(E, F):
    """Check the syzygies, the kernel and relation bases and division by
    them on both Hom differentials of (E, F); returns the bases checked."""
    checked = 0
    ring = E.ring
    d_even, d_odd = hom_differential(E, F)
    n0, n1 = len(d_odd), len(d_even)
    for d_out, n_in, n_out, d_in, n_prev in (
        (d_even, n0, n1, d_odd, n1),
        (d_odd, n1, n0, d_even, n0),
    ):
        cols = [tuple(d_out[r][c] for r in range(n_out)) for c in range(n_in)]
        for syz in syzygies(cols, n_out, ring):
            for r in range(n_out):
                total = ring.zero()
                for c, col in zip(syz, cols):
                    total = total + c * col[r]
                assert total.is_zero()
        kernel, _image = module_kernel(cols, n_out, ring)
        image = [tuple(d_in[r][c] for r in range(n_in)) for c in range(n_prev)]
        _lifts, relations, _ = subquotient_presentation(kernel, image)
        for mgb in (kernel, relations):
            if not mgb.generators:
                continue
            _check_reduced_basis(mgb)
            # members (the image, or the relations themselves) and
            # unit vectors times low-degree monomials, mostly outside
            members = image if mgb is kernel else list(mgb.generators)
            probes = [
                tuple(ring.var(k % ring.n) * c for c in v) for k, v in enumerate(members)
            ]
            for pos in range(mgb.rank):
                for mono in ((0,) * ring.n, (1,) + (0,) * (ring.n - 1), (0,) * (ring.n - 1) + (2,)):
                    unit = [ring.zero()] * mgb.rank
                    unit[pos] = ring.monomial(mono)
                    probes.append(tuple(unit))
            _check_division(mgb, probes)
            checked += 1
    return checked


def test_module_engine_matches_reference_division_on_hom_differentials():
    assert sum(_check_hom_modules(E, F) for E, F in _hom_pairs()) >= 20


def _hard_pairs():
    """Koszul pairs of x^3 + y^3 with non-unit leads and non-integral
    coefficients: leads 2, 3 and 6 and the coefficients 1/2 and -2/3 over
    Q, zeta and 2 zeta + 1 over Q(zeta_3)."""
    E = koszul([R2.parse("2*x"), R2.parse("3*y")], [R2.parse("x^2/2"), R2.parse("y^2/3")])
    # the shear (a_1, b_0) <- (a_1 + p a_0, b_0 - p b_1) with p = -2/3 y
    G = koszul(
        [R2.parse("6*x"), R2.parse("y - 4*x*y")], [R2.parse("x^2/6 + 2/3*y^3"), R2.parse("y^2")]
    )
    ring = PolyRing(("x", "y"), CyclotomicContext(3))
    H = koszul(
        [ring.parse("z*x"), ring.parse("(2*z+1)*y")],
        [ring.parse("z^2*x^2"), ring.parse("-(2*z+1)/3*y^2")],
    )
    K = koszul(
        [ring.parse("(2*z+1)*(x+z*y)")], [ring.parse("-(2*z+1)/3*(x+y)*(x+z^2*y)")]
    )
    assert E.w == G.w == R2.parse("x^3 + y^3") and H.w == K.w == ring.parse("x^3 + y^3")
    return [(E, G), (G, E), (G, G), (H, K), (K, H)]


def test_module_engine_matches_reference_division_on_hard_coefficients():
    assert sum(_check_hom_modules(E, F) for E, F in _hard_pairs()) >= 16


_hard_coef = st.sampled_from(
    [Fraction(2), Fraction(-3), Fraction(1, 2), Fraction(-2, 3), Fraction(6), Fraction(7, 4)]
)


def _hard_polys(max_terms=3):
    expo = st.tuples(
        st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2)
    )
    def build(pairs):
        return polynomial(R2, dict(pairs))
    return st.lists(st.tuples(expo, _hard_coef), min_size=0, max_size=max_terms).map(build)


@settings(max_examples=15, deadline=None)
@given(
    gens=st.lists(st.tuples(_hard_polys(), _hard_polys()), min_size=1, max_size=3),
    probes=st.lists(st.tuples(_hard_polys(4), _hard_polys(4)), min_size=1, max_size=3),
)
def test_module_engine_matches_reference_division_random(gens, probes):
    mgb = module_gb(gens, 2, R2)
    if mgb.generators:
        _check_reduced_basis(mgb)
        _check_division(mgb, probes)


def test_divisor_entries_are_primitive_over_q_and_monic_over_q_zeta(monkeypatch):
    # every entry the engine inserts, in its own loops and in the bases
    # it hands out: over Q primitive with a positive int lead, over
    # Q(zeta) monic with the lead stored as the int 1
    add = groebner._Divisors.add
    seen = {None: 0, 3: 0}
    field = [None]

    def check(entry):
        # the lead is the packed key of the lead term
        d, _p, lead, lc, rest = entry
        assert type(lc) is int and len(rest) == len(d) - 1
        if field[0] is None:
            assert all(type(a) is int for a in d.values())
            assert lc > 0 and d[lead] == lc and gcd(*d.values()) == 1
        else:
            assert lc == 1 and d[lead] == 1
            assert all(type(a) is Scalar for a in d.values())
        seen[field[0]] += 1

    def checked_add(self, d, lead):
        add(self, d, lead)
        check(self.entries[-1])

    monkeypatch.setattr(groebner._Divisors, "add", checked_add)
    split_entries = basis_entries = 0
    for E, F in _hard_pairs():
        field[0] = E.ring.context and E.ring.context.order
        _h0, _h1, basis = hom_cohomology(E, F)
        ref = LiftRouteBasis(E, F)
        # the bases `split`, `lift_basis` and `subquotient_basis` hand out,
        # entry by entry: heads over Q have their content removed, tails,
        # the lift bases of the kernel generators with the coboundaries
        # and of the columns, and the subquotient bases come out stored
        d_even, _d_odd = hom_differential(E, F)
        cols = [tuple(row[c] for row in d_even) for c in range(len(d_even[0]))]
        for lifts in (ref.even.lifts, ref.odd.lifts, lift_basis(cols, len(d_even), E.ring)):
            for mgb in (lifts, *split(lifts)):
                for entry in mgb._divisors.entries:
                    check(entry)
                    split_entries += mgb is not lifts
        for co in (basis.even, basis.odd):
            for mgb in (co.kernel, co.image, co.basis):
                for entry in mgb._divisors.entries:
                    check(entry)
                    basis_entries += 1
    assert seen[None] > 200 and seen[3] > 50 and split_entries > 100 and basis_entries > 100


def test_lift_scales_back_to_the_exact_field_result():
    # leads 2x and 3y, and a vector with fractional coefficients: the
    # remainder and the cofactors come out of one division each by D * M
    gens = [
        (R2.parse("2*x + y/2"), R2.parse("x/3")),
        (R2.parse("-2/3"), R2.parse("3*y + 1")),
    ]
    v = (R2.parse("x/2 + 1/3"), R2.parse("y/5"))
    mgb = module_gb(gens, 2, R2)
    rem, _quots = _ref_divide(v, mgb.generators, R2)
    assert module_normal_form(v, mgb) == rem
    basis = lift_basis(gens, 2, R2)
    ref, _quots = _ref_divide(v + (R2.zero(),) * 2, basis.generators, R2, block=2)
    r, cof = lift(v, basis)
    assert r == rem == ref[:2]
    assert cof == tuple(-a for a in ref[2:])
    # v = r + sum_i a_i g_i exactly, with non-integral r and a
    assert v == tuple(r[k] + cof[0] * gens[0][k] + cof[1] * gens[1][k] for k in range(2))
    assert r == (R2.parse("-1/8*y + 17/45"), R2.parse("-1/12*x - 1/15"))
    assert cof == (R2.parse("1/4"), R2.parse("1/15"))


def test_cofactors_match_reference_division():
    R3 = PolyRing(("x", "y", "z"))
    for ring, text in ((R2, "x^3 + x*y^2"), (R2, "x^2*y + y^4"), (R3, "x^3 + y^3 + z^3")):
        w = ring.parse(text)
        basis = lift_basis([(w.partial_derivative(i),) for i in range(ring.n)], 1, ring)
        for f in (ring.parse("x^5 + 2*x*y^3 - y + 1"), ring.var(0) ** 4 * ring.var(1)):
            v = (f,) + (ring.zero(),) * ring.n
            rem, _ = _ref_divide(v, basis.generators, ring, block=1)
            (r,), cof = lift((f,), basis)
            assert r == rem[0]
            assert cof == tuple(-a for a in rem[1:])


def _sheared_pairs(context=None):
    """The sheared Koszul pairs and Kuenneth pairs of the benchmark's `hom`
    workload, with every shear coefficient and in both orders, over Q or
    over the cyclotomic field ``context``."""
    battery = (
        ("x^3 + y^3", ("x", "y"), ["x", "y"], ["x^2", "y^2"]),
        ("x^4 + y^4", ("x", "y"), ["x", "y"], ["x^3", "y^3"]),
        ("x^3 + y^4", ("x", "y"), ["x", "y"], ["x^2", "y^3"]),
        ("x^2*y + y^3", ("x", "y"), ["x", "y"], ["x*y", "y^2"]),
        ("x^2*y + y^4", ("x", "y"), ["x", "y"], ["x*y", "y^3"]),
        ("x^3 + x*y^2", ("x", "y"), ["x"], ["x^2 + y^2"]),
        ("x^3 + y^3 + z^3", ("x", "y", "z"), ["x", "y + z"], ["x^2", "y^2 - y*z + z^2"]),
    )

    def shear(ring, a, b, c):
        # (a_1, b_0) <- (a_1 + p a_0, b_0 - p b_1), p = c x_n: an isomorphic
        # factorization of the same potential
        a, b = list(a), list(b)
        if len(a) > 1:
            p = ring.var(ring.n - 1) * c
            a[1], b[0] = a[1] + p * a[0], b[0] - p * b[1]
        return a, b

    for text, names, a_txt, b_txt in battery:
        ring = PolyRing(names, context)
        a, b = [ring.parse(t) for t in a_txt], [ring.parse(t) for t in b_txt]
        for c in ((-2, -1, 1, 2) if len(a) > 1 else (1,)):
            E, F = koszul(*shear(ring, a, b, c)), koszul(*shear(ring, a, b, -c))
            yield from ((E, F), (F, E))
    ring = PolyRing(("x", "y"), context)
    x, y = ring.var(0), ring.var(1)
    for i, j, k, l in ((1, 2, 2, 2), (2, 3, 3, 1)):
        E = koszul([x**i, y**j], [x ** (4 - i), y ** (5 - j)])
        for c in (-2, -1, 1, 2):
            F = koszul(*shear(ring, [x**k, y**l], [x ** (4 - k), y ** (5 - l)], c))
            yield from ((E, F), (F, E))


def test_koszul_reduction_agrees_with_groebner_on_the_batteries():
    # every ordered pair of the batteries; the Groebner route is the
    # reference, and enough sources qualify that a qualification refusing
    # everything fails here
    pairs = [
        *_hom_pairs(),
        *_sheared_pairs(),
        *_sheared_pairs(CyclotomicContext(3)),
        *_zeta3_pairs(),
        *_hard_pairs(),
    ]
    qualifying = 0
    for E, F in pairs:
        dims = koszul_hom_dimensions(E, F)
        if dims is not None:
            assert dims == hom_cohomology(E, F)[:2]
            qualifying += 1
    assert len(pairs) == 155 and qualifying >= 120


def test_module_kernel_is_the_rebuilt_syzygy_basis():
    # the reference route: a second Buchberger run on the syzygies
    R3 = PolyRing(("x", "y", "z"))
    x, y, z = R3.var(0), R3.var(1), R3.var(2)
    kst = koszul([x, y, z], [x**2, y**2, z**2])  # rank 8 over the Fermat cubic
    pairs = [*_sheared_pairs(), *_zeta3_pairs(), (kst, kst)]
    checked = 0
    for E, F in pairs:
        ring = E.ring
        d_even, d_odd = hom_differential(E, F)
        n0, n1 = len(d_odd), len(d_even)
        for d_out, n_in, n_out in ((d_even, n0, n1), (d_odd, n1, n0)):
            cols = [tuple(d_out[r][c] for r in range(n_out)) for c in range(n_in)]
            kernel, _image = module_kernel(cols, n_out, ring)
            reference = module_gb(syzygies(cols, n_out, ring), n_in, ring)
            assert kernel.rank == reference.rank == n_in
            assert kernel.generators == reference.generators
            checked += 1
    assert checked == 2 * len(pairs) >= 140


def _ref_subquotient(kernel, image):
    """The relation basis and standard monomials by the lift route: each
    image generator lifted against the kernel basis, then one more basis
    of those lifts and the syzygies of the kernel generators."""
    relations = []
    for g in image:
        if all(c.is_zero() for c in g):
            continue
        rem, quots = _ref_divide(g, kernel.generators, kernel.ring)
        if any(c.terms for c in rem):
            raise ValueError("image generators outside the kernel submodule")
        relations.append(tuple(quots))
    relations.extend(syzygies(list(kernel.generators), kernel.rank, kernel.ring))
    relations = [r for r in relations if not all(c.is_zero() for c in r)]
    rel_gb = module_gb(relations, len(kernel.generators), kernel.ring)
    return rel_gb, standard_monomials(rel_gb)


def _ref_subquotient_basis(kernel, image):
    """The subquotient basis from tuples: the terms (p, m) that a kernel
    lead divides and no image lead divides, in ascending term order, and
    for each the reference remainder of t g modulo the image, g the first
    kernel generator whose lead divides m = t lead(g), made monic."""
    ring, n = kernel.ring, kernel.ring.n
    image_leads = [lead(h) for h in image.generators]
    found = {}
    for g in kernel.generators:
        p, m = lead(g)
        box = []
        for i in range(n):
            # along x_i the multiples of m leave the standard terms at the
            # first image lead whose other exponents m covers
            covering = [
                l[i]
                for q, l in image_leads
                if q == p and all(l[j] <= m[j] for j in range(n) if j != i)
            ]
            box.append(range(max(min(covering) - m[i], 0)))
        for t in product(*box):
            tm = monomial_mul(m, t)
            if (p, tm) not in found and not any(
                q == p and monomial_divides(l, tm) for q, l in image_leads
            ):
                found[p, tm] = (t, g)
    order = sorted(found, key=lambda pm: (grevlex_key(pm[1]), -pm[0]))
    basis = []
    for p, m in order:
        t, g = found[p, m]
        rem, _quots = _ref_divide(tuple(ring.monomial(t) * c for c in g), image.generators, ring)
        inverse = ring.scalar(terms(rem[p])[m]).inverse()
        basis.append(tuple(c * ring.const(inverse) for c in rem))
    return order, basis


def test_hom_cohomology_matches_the_lift_route():
    # the reference: the kernel as the syzygies of the columns, the image
    # as the basis of the other map's columns, the subquotient basis from
    # their generators by `_ref_subquotient_basis`, and its dimension by
    # `_ref_subquotient` on the raw columns of the other map
    pairs = [*_hom_pairs(), *_sheared_pairs(), *_zeta3_pairs()]
    checked = 0
    for E, F in pairs:
        ring = E.ring
        d_even, d_odd = hom_differential(E, F)
        n0, n1 = len(d_odd), len(d_even)
        _h0, _h1, basis = hom_cohomology(E, F)
        for co, d_out, n_in, n_out, d_in, n_prev in (
            (basis.even, d_even, n0, n1, d_odd, n1),
            (basis.odd, d_odd, n1, n0, d_even, n0),
        ):
            cols = [tuple(d_out[r][c] for r in range(n_out)) for c in range(n_in)]
            kernel = module_gb(syzygies(cols, n_out, ring), n_in, ring)
            image = [tuple(d_in[r][c] for r in range(n_in)) for c in range(n_prev)]
            _relations, standard = _ref_subquotient(kernel, image)
            leads, elements = _ref_subquotient_basis(kernel, module_gb(image, n_in, ring))
            assert co.kernel.generators == kernel.generators
            assert co.image.generators == module_gb(image, n_in, ring).generators
            assert [lead(b) for b in co.basis.generators] == leads
            assert co.basis.generators == tuple(elements)
            assert len(co.basis) == len(standard)
            checked += 1
    assert checked == 2 * len(pairs) >= 140


def test_class_coordinates_match_the_two_step_route():
    # the reference: lift against the kernel generators by `_ref_divide`,
    # then reduce the quotients modulo the relations; those coordinates are
    # on the lift route's basis, so they go to the subquotient basis
    # through the coordinates of the lift route's representatives
    pairs = [*_hom_pairs(), *_sheared_pairs(), *_zeta3_pairs()]
    checked = nonzero = 0
    for E, F in pairs:
        ring = E.ring
        d_even, d_odd = hom_differential(E, F)
        _h0, _h1, basis = hom_cohomology(E, F)
        ref = LiftRouteBasis(E, F)
        for parity, co, old, d_in, n_in, n_prev in (
            (0, basis.even, ref.even, d_odd, len(d_odd), len(d_even)),
            (1, basis.odd, ref.odd, d_even, len(d_even), len(d_odd)),
        ):
            gens = co.kernel.generators
            dim = co.dimension
            change = [basis.class_coordinates(ref.representative(parity, k)) for k in range(dim)]
            # cocycles: kernel generators, their multiples, a sum, and
            # coboundaries, whose class is zero
            probes = list(gens)
            probes += [tuple(ring.var(k % ring.n) * c for c in g) for k, g in enumerate(gens)]
            if gens:
                probes.append(tuple(map(sum, zip(*gens), [ring.zero()] * n_in)))
            probes += [tuple(d_in[r][c] for r in range(n_in)) for c in range(n_prev)]
            for v in probes:
                rem, quots = _ref_divide(v, gens, ring)
                assert all(c.is_zero() for c in rem)
                reduced = module_normal_form(quots, old.relations)
                on_old = [ring.scalar(terms(reduced[pos]).get(mono, 0))
                          for pos, mono in old.standard]
                expected = tuple(
                    sum((a * row[j] for a, row in zip(on_old, change)), ring.scalar(0))
                    for j in range(dim)
                )
                f = vector_to_morphism(E, F, parity, list(v))
                assert basis.class_coordinates(f) == expected
                checked += 1
                nonzero += any(expected)
    assert checked >= 1000 and nonzero >= 100


def _fixture_pairs():
    """(E, F, alphas, betas) for every ordered pair of factorizations of the
    four fixture sessions: the identity and the closed named endomorphisms
    of each end, which `verify`'s Cardy check runs on."""
    root = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "sessions"
    for name in ("d4", "cyclic3", "x6", "x4_graded"):
        session = load_session(str(root / ("%s.json" % name)))
        for a, E in session.factorizations.items():
            for b, F in session.factorizations.items():
                alphas = _endomorphisms(session, a)
                betas = _endomorphisms(session, b)
                yield E, F, alphas, betas


def _agreement_battery():
    """The fixture pairs, then `_hom_pairs`, `_zeta3_pairs` and the sheared
    `hom` workload battery over Q and over Q(zeta_3), with the identities."""
    yield from _fixture_pairs()
    sheared = [*_sheared_pairs(), *_sheared_pairs(CyclotomicContext(3))]
    for E, F in [*_hom_pairs(), *_zeta3_pairs(), *sheared]:
        yield E, F, [identity_morphism(E)], [identity_morphism(F)]


def _invertible(rows) -> bool:
    """Whether the square matrix of Scalars ``rows`` is invertible, by
    Gaussian elimination."""
    rows = [list(r) for r in rows]
    for c in range(len(rows)):
        pivot = next((r for r in range(c, len(rows)) if not rows[r][c].is_zero()), None)
        if pivot is None:
            return False
        rows[c], rows[pivot] = rows[pivot], rows[c]
        for r in range(c + 1, len(rows)):
            f = rows[r][c] / rows[c][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return True


def _check_against_the_lift_route(E, F, alphas, betas) -> int:
    """Assert that the subquotient basis of Hom(E, F) agrees with the lift
    route (`lift_route`); returns h0 + h1."""
    h0, h1, basis = hom_cohomology(E, F)
    ref = LiftRouteBasis(E, F)
    assert (h0, h1) == (ref.even.dimension, ref.odd.dimension)
    for alpha in alphas:
        for beta in betas:
            assert cardy_supertrace(basis, alpha, beta) == cardy_supertrace(ref, alpha, beta)
    zero, one = E.ring.scalar(0), E.ring.scalar(1)
    d_even, d_odd = hom_differential(E, F)
    for parity, dim, d_in in ((0, h0, d_odd), (1, h1, d_even)):
        # each representative is closed, with coordinates the unit vector
        for k in range(dim):
            f = basis.representative(parity, k)
            assert f.is_closed()
            assert basis.class_coordinates(f) == tuple(one if j == k else zero for j in range(dim))
        # the lift route's representatives are another basis of the classes
        old = [basis.class_coordinates(ref.representative(parity, k)) for k in range(dim)]
        assert _invertible(old)
        # coboundaries, the columns of the map into this parity, are 0
        for c in range(len(d_in[0]) if d_in else 0):
            f = vector_to_morphism(E, F, parity, [row[c] for row in d_in])
            assert basis.class_coordinates(f) == (zero,) * dim
    return h0 + h1


def test_subquotient_basis_agrees_with_the_lift_route():
    fields = {None: 0, 3: 0}
    total = 0
    for E, F, alphas, betas in _agreement_battery():
        total += _check_against_the_lift_route(E, F, alphas, betas)
        fields[E.ring.context and E.ring.context.order] += 1
    assert fields == {None: 95, 3: 70} and total == 675


def test_dropping_a_basis_term_fails_the_agreement(monkeypatch):
    # a pair over each field with classes in both parities
    pairs = [list(_hom_pairs())[-1], _zeta3_pairs()[1]]
    for E, F in pairs:
        _check_against_the_lift_route(E, F, [identity_morphism(E)], [identity_morphism(F)])
    standard = groebner._standard_terms

    def dropped(starts, divs):
        terms = standard(starts, divs)
        if terms:
            terms.popitem()
        return terms

    monkeypatch.setattr(groebner, "_standard_terms", dropped)
    for E, F in pairs:
        with pytest.raises(AssertionError):
            _check_against_the_lift_route(E, F, [identity_morphism(E)], [identity_morphism(F)])


def test_module_kernel_image_is_the_column_basis():
    for E, F in [*_hom_pairs(), *_zeta3_pairs()]:
        ring = E.ring
        d_even, d_odd = hom_differential(E, F)
        n0, n1 = len(d_odd), len(d_even)
        for d, n_in, n_out in zip((d_even, d_odd), (n0, n1), (n1, n0)):
            cols = [tuple(d[r][c] for r in range(n_out)) for c in range(n_in)]
            _kernel, image = module_kernel(cols, n_out, ring)
            assert image.rank == n_out
            assert image.generators == module_gb(cols, n_out, ring).generators


def test_hom_differential_columns_hold_the_nonzero_entries_of_the_dense_route():
    # each sparse column holds exactly the zero-filled reference column's
    # nonzero entries, at the same rows, and stores no zero
    pairs = [
        *_hom_pairs(), *_sheared_pairs(), *_sheared_pairs(CyclotomicContext(3)),
        *_zeta3_pairs(), *_hard_pairs(), *_hom_differential_pairs(),
    ]
    entries = 0
    for E, F in pairs:
        sparse, dense = mfcore.hom_differential(E, F), hom_differential(E, F)
        for cols, matrix, n_out in zip(sparse, dense, map(len, sparse[::-1])):
            assert len(matrix) == n_out and all(len(row) == len(cols) for row in matrix)
            for c, col in enumerate(cols):
                assert col == {r: row[c] for r, row in enumerate(matrix) if not row[c].is_zero()}
                assert not any(e.is_zero() for e in col.values())
                entries += len(col)
    assert len(pairs) > 150 and entries > 2000


def _flat_route_bases(ring, cols, n_out):
    """The bases the flat route builds from the columns ``cols`` in
    R^n_out: kernel and image of `module_kernel`; heads and tails of the
    lift basis of the image generators with those of the first column as
    extra; and the relations of the lift route's presentation of the
    kernel over m^2 times itself, m the maximal ideal at the origin."""
    n_in = len(cols)
    kernel, image = module_kernel(cols, n_out, ring)
    extra = module_gb(cols[:1], n_out, ring).generators
    bases = [kernel, image, *split(block_basis(image.generators, n_out, ring, extra))]
    if kernel.generators:
        xs = [ring.var(i) for i in range(ring.n)]
        m2 = [a * b for i, a in enumerate(xs) for b in xs[i:]]
        inner = [tuple(t * c for c in k) for t in m2 for k in kernel.generators]
        inner = module_gb(inner, n_in, ring).generators
        bases.append(subquotient_presentation(kernel, list(inner))[1])
    return bases


def _assert_rebuilt(mgb):
    # the flat bases against `module_gb` run on their polynomial tuples:
    # the same monic generators and the same stored entries and leads
    ref = module_gb(mgb.generators, mgb.rank, mgb.ring)
    assert mgb.generators == ref.generators
    assert [e[:4] for e in mgb._divisors.entries] == [e[:4] for e in ref._divisors.entries]
    return len(ref.generators)


def test_flat_bases_equal_the_bases_rebuilt_from_polynomials():
    checked = {None: 0, 3: 0}
    for E, F in [*_hard_pairs(), *_zeta3_pairs(), *list(_sheared_pairs())[::7]]:
        ctx = E.ring.context and E.ring.context.order
        _h0, _h1, basis = hom_cohomology(E, F)
        ref = LiftRouteBasis(E, F)
        for co, old in ((basis.even, ref.even), (basis.odd, ref.odd)):
            bases = (co.kernel, co.image, old.relations, *split(old.lifts))
            checked[ctx] += sum(map(_assert_rebuilt, bases))
        for d in hom_differential(E, F):
            cols = [tuple(row[c] for row in d) for c in range(len(d[0]))]
            checked[ctx] += sum(map(_assert_rebuilt, _flat_route_bases(E.ring, cols, len(d))))
    assert checked[None] > 500 and checked[3] > 100


_RQZ = PolyRing(("x", "y"), CyclotomicContext(3))
_zeta = _RQZ.context.zeta()
_field_coefs = {
    R2: [2, -3, Fraction(1, 2), Fraction(-2, 3), 6],
    _RQZ: [_RQZ.scalar(2), _RQZ.scalar(Fraction(-1, 2)), _zeta, _zeta * 2 + 1, -_zeta * _zeta],
}


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_flat_bases_equal_the_rebuilt_bases_on_random_modules(data):
    ring = data.draw(st.sampled_from([R2, _RQZ]))
    expo = st.tuples(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2))
    poly = st.lists(st.tuples(expo, st.sampled_from(_field_coefs[ring])), max_size=3).map(
        lambda pairs: polynomial(ring, dict(pairs))
    )
    cols = data.draw(st.lists(st.tuples(poly, poly), min_size=1, max_size=3))
    for mgb in _flat_route_bases(ring, cols, 2):
        _assert_rebuilt(mgb)


def test_euler_builds_no_polynomial_tuples(monkeypatch):
    # the two runs of `hom_cohomology` hand their bases on flat, and
    # nothing in `euler` asks for a basis's generators
    E, F = list(_hom_pairs())[-1]  # the rank-4 Koszul pair of the Fermat cubic
    chi = chi_hrr(E, F, build_milnor(E.w))
    unflat = groebner._unflat
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return unflat(*args, **kwargs)

    monkeypatch.setattr(groebner, "_unflat", counting)
    assert euler(E, F) == chi and not calls


def test_hom_cohomology_makes_two_runs_and_no_lift(monkeypatch):
    import mfinv.groebner
    import mfinv.homology

    E, F = list(_hom_pairs())[-1]  # the rank-4 Koszul pair of the Fermat cubic
    calls = {"module_buchberger": 0, "lift": 0}

    def counting(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(mfinv.groebner, "module_buchberger")
    counting(mfinv.groebner, "lift")
    # `homology` holds no name of its own for `lift` that could bypass the count
    assert not hasattr(mfinv.homology, "lift")
    h0, h1, _basis = hom_cohomology(E, F)
    assert h0 + h1 > 0
    assert calls == {"module_buchberger": 2, "lift": 0}


# --- the engine boundary: raw field elements inside, Scalars outside ---------


def _zeta3_pairs():
    """Koszul pairs of x^3 + y^3 = (x + y)(x + z y)(x + z^2 y) over Q(zeta_3)."""
    ring = PolyRing(("x", "y"), CyclotomicContext(3))
    x, y = ring.var(0), ring.var(1)
    lines = [ring.parse(t) for t in ("x + y", "x + z*y", "x + z^2*y")]
    E = koszul([lines[1]], [lines[0] * lines[2]])
    F = koszul([lines[0]], [lines[1] * lines[2]])
    G = koszul([x, y], [x**2, y**2])
    assert E.w == F.w == G.w == ring.parse("x^3 + y^3")
    return [(E, F), (E, G), (F, F)]


def _assert_ring_scalars(polys, ring):
    # the coefficients as the ring stores them: over Q an int, or a
    # Fraction that is not integral; over Q(zeta) a Scalar of the context
    # whose coordinates are such rationals
    def is_bare(c):
        return type(c) is int or (type(c) is Fraction and c.denominator != 1)

    count = 0
    for f in polys:
        assert f.ring == ring
        for c in f.terms.values():
            if ring.context is None:
                assert is_bare(c)
            else:
                assert type(c) is Scalar and c.context == ring.context
                assert all(is_bare(a) for a in c.coeffs)
            count += 1
    return count


def test_engine_returns_scalars_of_the_ring():
    counts = {None: 0, 3: 0}
    for E, F in [*_hom_pairs(), *_zeta3_pairs()]:
        ring = E.ring
        ctx = ring.context and ring.context.order

        def check(*elements):
            counts[ctx] += _assert_ring_scalars([c for v in elements for c in v], ring)

        d_even, d_odd = hom_differential(E, F)
        n0, n1 = len(d_odd), len(d_even)
        cols = [tuple(d_even[r][c] for r in range(n1)) for c in range(n0)]
        image = [tuple(d_odd[r][c] for r in range(n0)) for c in range(n1)]
        check(*module_gb(cols, n1, ring).generators)
        check(*syzygies(cols, n1, ring))
        kernel, _image = module_kernel(cols, n1, ring)
        check(*kernel.generators)
        lifts, relations, _std = subquotient_presentation(kernel, image)
        check(*relations.generators)
        _h0, _h1, basis = hom_cohomology(E, F)
        check(*basis.even.basis.generators, *basis.odd.basis.generators)
        unit = tuple(ring.var(0) if p == 0 else ring.zero() for p in range(n0))
        check(*(module_normal_form(v, kernel) for v in [unit, *image]))
        for v in image:
            rem, cof = lift(v, lifts)
            assert all(c.is_zero() for c in rem)
            check(rem, cof)
        partials = [E.w.partial_derivative(i) for i in range(ring.n)]
        f = ring.var(0) ** 4 * ring.var(ring.n - 1) - ring.var(0) + 1
        check((normal_form(f, buchberger(partials)),))
        r, cof = _cofactors(f, partials)
        check((r,), cof)
    # both fields were exercised
    assert counts[None] > 500 and counts[3] > 50


# --- packed term keys against exponent tuples -------------------------------


def _tuple_key(p, m, block):
    """The order key of the term (p, m) on exponent tuples: the smaller key
    is the larger term."""
    return (p >= block, -sum(m), m[::-1], p)


def _ring(n):
    return PolyRing(tuple("v%d" % i for i in range(n)))


def _pack(lay, p, m, block):
    """The key of the term (p, m) under ``block``, as `_flat` makes it."""
    ring = _ring(lay.n)
    (k,) = groebner._flat((ring.zero(),) * p + (ring.monomial(m),), ring, block, p + 1)[0]
    return k


def _term(lay, k):
    """(position, exponent tuple) of the key k, read back by `_unflat`."""
    v = groebner._unflat({k: 1}, 7, _ring(lay.n))
    ((p, m),) = [(p, m) for p, f in enumerate(v) for m in terms(f)]
    return p, m


def _exponents(lay, n):
    # small exponents, and ones whose sum still fits the packed field
    big = st.integers(min_value=0, max_value=(1 << (lay.limit - 1)) - 1)
    return st.tuples(*[st.one_of(st.integers(min_value=0, max_value=4), big)] * n)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=5))
def test_packed_keys_sort_in_the_tuple_order(data, n):
    lay = groebner._layout(n)
    block = data.draw(st.integers(min_value=0, max_value=4))
    position = st.integers(min_value=0, max_value=6)
    terms = data.draw(
        st.lists(st.tuples(position, _exponents(lay, n)), min_size=1, max_size=30, unique=True)
    )
    keys = [_pack(lay, p, m, block) for p, m in terms]
    assert [_term(lay, k) for k in keys] == terms
    order = sorted(range(len(terms)), key=keys.__getitem__)
    assert order == sorted(range(len(terms)), key=lambda i: _tuple_key(*terms[i], block))


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=5))
def test_packed_arithmetic_matches_the_tuple_helpers(data, n):
    lay = groebner._layout(n)
    a, b, c = (data.draw(_exponents(lay, n)) for _ in range(3))
    p = data.draw(st.integers(min_value=0, max_value=6))
    block = data.draw(st.integers(min_value=0, max_value=6))
    one = _pack(lay, 0, (0,) * n, 1)

    def constant(t):  # the product by t is the addition of this int
        return _pack(lay, 0, t, 1) - one

    ka, kb = _pack(lay, p, a, block), _pack(lay, p, b, block)
    assert ka + constant(b) == _pack(lay, p, monomial_mul(a, b), block)
    assert lay.lcm(ka, kb) == _pack(lay, p, monomial_lcm(a, b), block)
    assert lay.deg(ka) == sum(a)
    for u, v in ((a, b), (b, a), (a, monomial_mul(a, c))):
        ku, kv = _pack(lay, p, u, block), _pack(lay, p, v, block)
        assert lay.divides(ku, kv) == monomial_divides(u, v)
        assert lay.divides(ku & lay.xmask, kv & lay.xmask) == monomial_divides(u, v)
        if monomial_divides(u, v):
            assert kv - ku == constant(monomial_div(v, u))


def test_exponent_past_the_packed_field_raises_under_optimize():
    # the guard must not be a bare assert, which python -O strips: an
    # input exponent past the field, which the polynomial layer rejects,
    # and an S-vector x * x^(E-1) built from inputs inside it (the pair of
    # x^(E-2) y^3 + x^(E-1) and x^(E-1))
    import os
    import subprocess
    import sys

    import mfinv

    src = str(pathlib.Path(mfinv.__file__).resolve().parent.parent)
    code = (
        "from mfinv.groebner import _layout, buchberger\n"
        "from mfinv.poly import PolyRing\n"
        "R = PolyRing(('x', 'y'))\n"
        "E = 1 << _layout(2).limit\n"
        "top = R.monomial((E - 1, 0))\n"
        "cases = [lambda: [R.monomial((E, 0))],\n"
        "         lambda: [R.monomial((E - 2, 3)) + top, top]]\n"
        "for gens in cases:\n"
        "    try:\n"
        "        buchberger(gens())\n"
        "    except ValueError as exc:\n"
        "        print('raised:', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, check=True
    )
    message = "raised: exponent above the limit 2^30 - 1 of the exponent words in 2 variables"
    assert out.stdout.splitlines() == [message] * 2
