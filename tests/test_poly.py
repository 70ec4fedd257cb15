import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfinv.poly import (
    PolyRing,
    difference_derivative,
    doubled_ring,
    grevlex_key,
)
from mfinv.scalar import CyclotomicContext, rational


R2 = PolyRing(("x", "y"))
R1 = PolyRing(("x",))


def test_parse_basics():
    w = R2.parse("x^3 + x*y^2")
    assert max(sum(m) for m in w.terms) == 3
    assert w.coeff_of((3, 0)) == rational(1)
    assert w.coeff_of((1, 2)) == rational(1)
    assert len(w.terms) == 2


def test_parse_rational_literals_and_unary():
    f = R1.parse("1/2*x - 3")
    assert f.coeff_of((1,)) == rational(1, 2)
    assert f.coeff_of((0,)) == rational(-3)
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
    assert f.coeff_of((1,)) == ctx.from_rational(-1)
    with pytest.raises(ValueError):
        R1.parse("z*x")


def test_grevlex_order():
    # degree first; among equal degrees the last nonzero difference decides
    assert grevlex_key((2, 0)) > grevlex_key((1, 1)) > grevlex_key((0, 2))
    assert grevlex_key((1, 0, 0)) > grevlex_key((0, 1, 0)) > grevlex_key((0, 0, 1))
    f = R2.parse("y^2 + x*y + x^2")
    assert f.leading_monomial() == (2, 0)


def test_arith_and_pow():
    x, y = R2.var(0), R2.var(1)
    assert (x + y) ** 2 - x * x - y * y == 2 * x * y
    assert (x + y) * (x - y) == x**2 - y**2
    assert (x - x).is_zero()


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
        return ring.from_terms({m: c for m, c in terms.items() if not c.is_zero()})

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
