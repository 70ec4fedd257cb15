from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfinv.equivariant import graded_chi, graded_to_equivariant
from mfinv.mfcore import koszul
from mfinv.poly import PolyRing, difference_derivative, doubled_ring
from mfinv.scalar import CyclotomicContext, Scalar, rational
from test_groebner import monomial_mul
import tuple_route
from tuple_route import grevlex_key, polynomial, terms


R2 = PolyRing(("x", "y"))
R1 = PolyRing(("x",))


def test_parse_basics():
    w = R2.parse("x^3 + x*y^2")
    assert max(sum(m) for m in terms(w)) == 3
    assert terms(w)[(3, 0)] == rational(1)
    assert terms(w)[(1, 2)] == rational(1)
    assert len(w.terms) == 2


def test_parse_rational_literals_and_unary():
    f = R1.parse("1/2*x - 3")
    assert terms(f)[(1,)] == rational(1, 2)
    assert terms(f)[(0,)] == rational(-3)
    assert R1.parse("-x^2") == -(R1.var(0) ** 2)
    assert R1.parse("x/2") == R1.var(0) * rational(1, 2)


def test_parse_errors():
    with pytest.raises(ValueError):
        R1.parse("q + 1")
    with pytest.raises(ValueError):
        R1.parse("x +")
    with pytest.raises(ValueError):
        R1.parse("x / y")
    with pytest.raises(ValueError):
        R1.parse("x ^ y")
    with pytest.raises(ValueError):
        R1.parse("(x")


def test_zeta_literal_needs_context():
    ctx = CyclotomicContext(4)
    Rz = PolyRing(("x",), ctx)
    f = Rz.parse("z^2*x")
    assert terms(f)[(1,)] == ctx.from_rational(-1)
    with pytest.raises(ValueError):
        R1.parse("z*x")


def test_grevlex_order():
    # degree first; among equal degrees the last nonzero difference decides
    assert grevlex_key((2, 0)) > grevlex_key((1, 1)) > grevlex_key((0, 2))
    assert grevlex_key((1, 0, 0)) > grevlex_key((0, 1, 0)) > grevlex_key((0, 0, 1))
    f = R2.parse("y^2 + x*y + x^2")
    assert R2.layout.exponents(max(f.terms, key=R2.layout.grevlex)) == (2, 0)


def test_arith_and_pow():
    x, y = R2.var(0), R2.var(1)
    assert (x + y) ** 2 - x * x - y * y == 2 * x * y
    assert (x + y) * (x - y) == x**2 - y**2
    assert (x - x).is_zero()
    # the largest exponent of the layout: no square past the last bit
    top = (1 << R2.layout.limit) - 1
    assert y ** top == R2.monomial((0, top))
    assert (x * y) ** top == R2.monomial((top, top))


def test_partial_derivative():
    w = R2.parse("x^3 + x*y^2")
    assert w.partial_derivative(0) == R2.parse("3*x^2 + y^2")
    assert w.partial_derivative(1) == R2.parse("2*x*y")
    assert R2.one().partial_derivative(0).is_zero()


def test_substitute():
    w = R2.parse("x^2 + y")
    img = w.substitute(R2, [R2.var(1), R2.var(0)])
    assert img == R2.parse("y^2 + x")
    z = w.substitute(R2, [R2.zero(), R2.var(1)])
    assert z == R2.var(1)


def test_difference_derivative_examples():
    D1 = doubled_ring(R1)
    f = R1.parse("x^2")
    assert difference_derivative(f, 0, D1) == D1.parse("x + x_y")
    D2 = doubled_ring(R2)
    g = R2.parse("x*y")
    # first slot: [y1*y2 - x1*y2]/(y1 - x1) = y2
    assert difference_derivative(g, 0, D2) == D2.parse("y_y")
    assert difference_derivative(g, 1, D2) == D2.parse("x")


def test_doubled_ring_avoids_taken_names():
    assert doubled_ring(R2).names == ("x", "y", "x_y", "y_y")
    D = doubled_ring(PolyRing(("x", "x_y")))
    assert D.names == ("x", "x_y", "x__y", "x_y_y")
    D = doubled_ring(PolyRing(("x", "x_", "x_y")))
    assert len(set(D.names)) == 6 and D.names[:3] == ("x", "x_", "x_y")


def test_difference_derivative_telescopes_and_restricts():
    D2 = doubled_ring(R2)
    w = R2.parse("x^3 + x*y^2 + y^4")
    xs = [D2.var(0), D2.var(1)]
    ys = [D2.var(2), D2.var(3)]
    total = D2.zero()
    for j in range(2):
        total = total + (ys[j] - xs[j]) * difference_derivative(w, j, D2)
    assert total == w.substitute(D2, ys) - w.substitute(D2, xs)
    # restriction to the diagonal gives the partial derivative
    for j in range(2):
        dj = difference_derivative(w, j, D2).substitute(R2, [R2.var(0), R2.var(1), R2.var(0), R2.var(1)])
        assert dj == w.partial_derivative(j)


def test_quasi_degree():
    w = R2.parse("x^3 + x*y^2")
    assert w.quasi_degree([1, 1]) == 3
    assert w.quasi_degree([2, 1]) is None
    assert R2.parse("x^2*y").quasi_degree([1, 2]) == 4
    assert R2.zero().quasi_degree([1, 1]) == 0


def test_print_deterministic_and_roundtrip():
    w = R2.parse("y^2*x + x^3 - 2*y + 1/2")
    s = str(w)
    assert s == "x^3 + x*y^2 - 2*y + 1/2"
    assert R2.parse(s) == w
    assert str(R2.zero()) == "0"
    assert str(-R2.one()) == "-1"


def test_print_cyclotomic_coeffs_parseable():
    ctx = CyclotomicContext(3)
    Rz = PolyRing(("x",), ctx)
    f = Rz.parse("(1 + z)*x^2 - z*x + 2")
    assert Rz.parse(str(f)) == f


_small_ints = st.integers(min_value=-6, max_value=6)


def _polys(ring, max_terms=5, max_deg=4):
    def build(pairs):
        terms = {}
        for expos, num in pairs:
            c = ring.scalar(num)
            if not c.is_zero():
                terms[tuple(expos)] = terms.get(tuple(expos), ring.scalar(0)) + c
        return polynomial(ring, {m: c for m, c in terms.items() if not c.is_zero()})

    expo = st.tuples(*[st.integers(min_value=0, max_value=max_deg) for _ in range(ring.n)])
    return st.lists(st.tuples(expo, _small_ints), max_size=max_terms).map(build)


@settings(max_examples=60)
@given(f=_polys(R2), g=_polys(R2), h=_polys(R2))
def test_ring_axioms(f, g, h):
    assert (f + g) * h == f * h + g * h
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)


@settings(max_examples=40)
@given(f=_polys(R2), g=_polys(R2))
def test_derivative_is_leibniz(f, g):
    for i in range(2):
        lhs = (f * g).partial_derivative(i)
        rhs = f.partial_derivative(i) * g + f * g.partial_derivative(i)
        assert lhs == rhs


R3 = PolyRing(("x", "y", "w"))
Q3 = PolyRing(("x", "y"), CyclotomicContext(3))


def _over_q_zeta3(pair):
    f, g = pair
    return f + g * Q3.const(Q3.context.zeta())


@settings(max_examples=60)
@given(
    f=st.one_of(
        _polys(R2, max_terms=4, max_deg=3),
        _polys(R3, max_terms=4, max_deg=3),
        st.tuples(_polys(Q3, 3, 3), _polys(Q3, 3, 3)).map(_over_q_zeta3),
    )
)
def test_difference_derivative_telescope_property(f):
    n = f.ring.n
    D = doubled_ring(f.ring)
    xs = [D.var(i) for i in range(n)]
    ys = [D.var(n + i) for i in range(n)]
    total = D.zero()
    for j in range(n):
        step = (ys[j] - xs[j]) * difference_derivative(f, j, D)
        # slot j alone moves from y to x: x before it, y after it
        upper = f.substitute(D, xs[:j] + ys[j:])
        lower = f.substitute(D, xs[: j + 1] + ys[j + 1 :])
        assert step == upper - lower
        total = total + step
    assert total == f.substitute(D, ys) - f.substitute(D, xs)


@settings(max_examples=40)
@given(f=_polys(R2, max_terms=4, max_deg=3))
def test_print_parse_roundtrip_property(f):
    assert R2.parse(str(f)) == f


# --- the Scalar-coefficient kernel, kept as the reference ---------------------
#
# The two loops below sum and multiply terms that are all Scalars, as the
# package did before rationals were stored bare.  They run on the terms
# wrapped into Scalars, so the bare kernel is checked against them over Q
# and over Q(zeta).


def _scalar_terms(f):
    return {m: f.ring.scalar(c) for m, c in terms(f).items()}


def _ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, c in b.items():
        s = out.get(m)
        s = c if s is None else s + c
        if s.is_zero():
            out.pop(m, None)
        else:
            out[m] = s
    return out


def _ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = monomial_mul(m1, m2)
            c = c1 * c2
            s = out.get(m)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(m, None)
            else:
                out[m] = s
    return out


def _ref_scale(a: dict, c: Scalar) -> dict:
    return {} if c.is_zero() else {m: x * c for m, x in a.items()}


def _assert_normal_form(f):
    """No zero coefficient; over Q an int or a Fraction that is not
    integral, over Q(zeta) a Scalar of the ring's context whose
    coordinates are such rationals."""
    for c in f.terms.values():
        assert c
        if f.ring.context is None:
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1)
        else:
            assert type(c) is Scalar and c.context == f.ring.context
            assert all(
                type(a) is int or (type(a) is Fraction and a.denominator != 1)
                for a in c.coeffs
            )


Z12 = PolyRing(("x", "y"), CyclotomicContext(12))
_half = Fraction(1, 2)
# over Q: integral and non-integral values, each with its negative so that
# sums cancel, and halves and thirds whose sums and products are integral
_COEFFS = {
    R2: [1, -1, 2, -3, _half, -_half, Fraction(3, 2), Fraction(-2, 3), Fraction(1, 3)],
}
for _ring in (Q3, Z12):
    _z = _ring.context.zeta()
    _COEFFS[_ring] = [
        1, -1, _half, -_half, _ring.scalar(_half), _z, -_z, _z * 2 + 1, _z * _z * _half,
        -(_z * _z * _half), _ring.context.zeta(_ring.context.order - 1),
    ]


def _coefficient_polys(ring):
    def build(pairs):
        # summed by the reference, so that repeated monomials cancel or add up
        total: dict = {}
        for m, c in pairs:
            total = _ref_add(total, {m: ring.scalar(c)})
        return polynomial(ring, total)

    expo = st.tuples(st.integers(min_value=0, max_value=2), st.integers(min_value=0, max_value=2))
    return st.lists(st.tuples(expo, st.sampled_from(_COEFFS[ring])), max_size=5).map(build)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_bare_kernel_matches_the_scalar_kernel(data):
    ring = data.draw(st.sampled_from([R2, Q3, Z12]))
    f = data.draw(_coefficient_polys(ring))
    g = data.draw(_coefficient_polys(ring))
    c = data.draw(st.sampled_from(_COEFFS[ring] + [0]))
    F, G = _scalar_terms(f), _scalar_terms(g)
    results = {
        "+": (f + g, _ref_add(F, G)),
        "-": (f - g, _ref_add(F, {m: -x for m, x in G.items()})),
        "neg": (-f, {m: -x for m, x in F.items()}),
        "*": (f * g, _ref_mul(F, G)),
        "c*": (c * f, _ref_scale(F, ring.scalar(c))),
        "*c": (f * c, _ref_scale(F, ring.scalar(c))),
        "+c": (f + c, _ref_add(F, {(0, 0): ring.scalar(c)} if c else {})),
    }
    for op, (got, want) in results.items():
        _assert_normal_form(got)
        assert _scalar_terms(got) == want, op


def test_normal_form_of_every_constructor_and_operation():
    # sums and products of halves that come out integral, and cancellation
    h = R2.parse("x/2 + y/2")
    for f in (
        h + h, h * 2, 2 * h, h * h * 4, h - h, R2.parse("x/2") * R2.parse("2*y"),
        (h * h).partial_derivative(0), R2.parse("x^2/2").partial_derivative(0),
        h / Fraction(1, 2), R2.const(Fraction(4, 2)), R2.monomial((1, 1), rational(3, 3)),
        polynomial(R2, {(1, 0): Fraction(2, 2), (0, 1): 0, (0, 0): rational(1, 2)}),
        h.substitute(R2, [R2.var(1) * 2, R2.var(0) * 2]), h ** 3 * 8, R2.var(0),
        R2.parse("x + y/2") * R2.parse("x - y/2"),
    ):
        _assert_normal_form(f)
    assert all(type(c) is int for c in (h + h).terms.values())
    assert (h - h).terms == {}
    assert terms(R2.parse("x + y/2") * R2.parse("x - y/2")) == {(2, 0): 1, (0, 2): Fraction(-1, 4)}
    for ring in (Q3, Z12):
        z = ring.context.zeta()
        for f in (
            ring.parse("(1 + z)*x^2 - z*x + 2"), ring.var(0) * z, ring.const(1), ring.const(rational(1, 2)),
            ring.monomial((1, 0)), polynomial(ring, {(1, 1): 3, (0, 0): z}), R2.parse("x/2 + 3").map_ring(ring),
            (ring.var(0) * z + 1) ** 3, ring.parse("x^3 + z*x*y").partial_derivative(0),
            ring.parse("x + z*y") * ring.parse("x - z*y"),
        ):
            _assert_normal_form(f)


def test_coefficients_leave_as_scalars():
    f = R2.parse("x/2 + 3")
    half, naught = (R2.scalar(terms(f).get(m, 0)) for m in ((1, 0), (0, 1)))
    for c in (half, naught, f.constant_coeff(), R2.const(4).as_scalar()):
        assert type(c) is Scalar and c.context is None
    assert half == rational(1, 2) and naught == 0
    z = Q3.context.zeta()
    g = Q3.var(0) * z
    assert terms(g)[(1, 0)] == z and type(g.constant_coeff()) is Scalar


def test_division_by_a_constant():
    f = R2.parse("x + 3*y")
    expected = R2.parse("x/2 + 3/2*y")
    for c in (2, Fraction(2), rational(2), R2.const(2)):
        assert f / c == expected
    assert f.terms and terms(f / R2.const(2)) == {(1, 0): Fraction(1, 2), (0, 1): Fraction(3, 2)}
    g = Q3.parse("z*x")
    assert g / Q3.const(Q3.context.zeta()) == Q3.var(0)
    for bad in (R2.var(0), R2.zero(), 0):
        with pytest.raises(ZeroDivisionError):
            f / bad


def test_irrational_scalar_in_a_rational_ring_raises():
    z = CyclotomicContext(3).zeta()
    for make in (
        lambda: R2.const(z),
        lambda: R2.var(0) * z,
        lambda: R2.var(0) + z,
        lambda: R2.monomial((1, 0), z),
        lambda: polynomial(R2, {(1, 0): z}),
        lambda: Q3.parse("z*x").map_ring(R2),
    ):
        with pytest.raises(ValueError, match="not rational"):
            make()
    # a rational Scalar of a cyclotomic field is unwrapped
    assert terms(R2.const(CyclotomicContext(3).from_rational(Fraction(3, 2)))) == {(0, 0): Fraction(3, 2)}


def test_graded_chi_over_q_keeps_the_rings_apart():
    # the grading roots live in Q(zeta_(2 ell)); the rational factorization
    # is moved there, so no rational polynomial meets a cyclotomic scalar
    R = PolyRing(("x",))
    x = R.var(0)
    w = x ** 4
    S = graded_to_equivariant(w, (1,))
    E = koszul([x], [x ** 3])
    assert graded_chi(S, E, ((0,), (1,)), E, ((0,), (1,))) == 1


# --- exponent words against the tuple route -----------------------------------

_NAMES = ("a", "b", "c", "d", "e", "f")


def _route_ring(data):
    """A ring of 1-6 variables over Q or Q(zeta_3): a plain ring, or the
    doubled ring of one in 1-3 variables."""
    context = data.draw(st.sampled_from([None, CyclotomicContext(3)]))
    if data.draw(st.booleans()):
        return doubled_ring(PolyRing(_NAMES[: data.draw(st.integers(1, 3))], context))
    return PolyRing(_NAMES[: data.draw(st.integers(1, 6))], context)


def _route_poly(data, ring, limit):
    """Small exponents and ones whose pairwise sums still fit below 2^limit."""
    small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    if ring.context is None:
        coef = small
    else:
        zeta = ring.context.zeta()
        coef = st.tuples(small, small).map(lambda ab: ring.scalar(ab[0]) + zeta * ab[1])
    big = st.integers(min_value=0, max_value=(1 << (limit - 1)) - 1)
    expo = st.tuples(*[st.one_of(st.integers(min_value=0, max_value=3), big)] * ring.n)
    return polynomial(ring, data.draw(st.dictionaries(expo, coef, max_size=5)))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_word_arithmetic_matches_the_tuple_route(data):
    ring = _route_ring(data)
    f, g = (_route_poly(data, ring, ring.layout.limit) for _ in range(2))
    assert f * g == polynomial(ring, tuple_route.mul(terms(f), terms(g)))
    for i in range(ring.n):
        want = tuple_route.partial_derivative(terms(f), i)
        assert f.partial_derivative(i) == polynomial(ring, want)
    # the printed order is grevlex on exponent tuples
    order = sorted(terms(f), key=grevlex_key, reverse=True)
    words = sorted(f.terms, key=ring.layout.grevlex, reverse=True)
    assert [ring.layout.exponents(x) for x in words] == order


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_difference_derivative_matches_the_tuple_route(data):
    n = data.draw(st.integers(min_value=1, max_value=3))
    context = data.draw(st.sampled_from([None, CyclotomicContext(3)]))
    ring = PolyRing(_NAMES[:n], context)
    doubled = doubled_ring(ring)
    # exponents of the doubled ring's narrower fields; a_j - 1 terms per
    # term, so the big exponents stay off the differenced slot j
    f = _route_poly(data, ring, doubled.layout.limit)
    for j in range(n):
        f_j = polynomial(ring, {m: c for m, c in terms(f).items() if m[j] <= 3})
        want = polynomial(doubled, tuple_route.difference_derivative(terms(f_j), j, n))
        assert difference_derivative(f_j, j, doubled) == want


def test_words_and_tuples_convert_both_ways():
    for n in range(7):
        lay = PolyRing(_NAMES[:n]).layout
        top = (1 << lay.limit) - 1
        for m in ((0,) * n, tuple(range(n)), (top,) * n):
            assert lay.exponents(lay.word(m)) == m
        if n:
            for bad in ((top + 1,) + (0,) * (n - 1), (-1,) + (0,) * (n - 1), (0,) * (n + 1)):
                with pytest.raises(ValueError):
                    lay.word(bad)
    # a borrowed (negative) or wide int is outside the layout too
    for bad in (-1, 1 << R2.layout.width):
        with pytest.raises(ValueError):
            R2.from_terms({bad: 1})


def test_exponent_past_the_word_field_raises_under_optimize():
    # the guard must not be a bare assert, which python -O strips: where a
    # tuple becomes a word, after a product and a power whose exponents
    # pass 2^30 - 1 in two variables, and in the solver's binomial shift
    import os
    import pathlib
    import subprocess
    import sys

    import mfinv

    src = str(pathlib.Path(mfinv.__file__).resolve().parent.parent)
    code = (
        "from mfinv.oracle import _shift\n"
        "from mfinv.poly import PolyRing\n"
        "R = PolyRing(('x', 'y'))\n"
        "E = 1 << R.layout.limit\n"
        "half = R.monomial((E // 2, 1))\n"
        "cases = [lambda: R.monomial((E, 0)), lambda: R.layout.word((0, E)),\n"
        "         lambda: half * half, lambda: R.var(1) ** E,\n"
        "         lambda: R.monomial((E - 1, 0)) * (R.var(0) + R.var(1)),\n"
        "         lambda: _shift(R.monomial((E - 1, 1)), 1, R)]\n"
        "for make in cases:\n"
        "    try:\n"
        "        make()\n"
        "    except ValueError as exc:\n"
        "        print('raised:', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, check=True
    )
    message = "raised: exponent above the limit 2^30 - 1 of the exponent words in 2 variables"
    assert out.stdout.splitlines() == [message] * 6
