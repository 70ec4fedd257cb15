import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_route
from euclid_route import inverse as euclid_inverse
from mfinv.scalar import (
    MAX_CONDUCTOR,
    CyclotomicContext,
    Scalar,
    _convolve,
    _reduce_mod_phi,
    bare,
    cyclotomic_polynomial,
    one,
    rational,
    scalar_to_json,
    zero,
)


def _phi(m):
    return list(cyclotomic_polynomial(m))


def test_cyclotomic_polynomials_small():
    assert _phi(1) == [-1, 1]
    assert _phi(2) == [1, 1]
    assert _phi(3) == [1, 1, 1]
    assert _phi(4) == [1, 0, 1]
    assert _phi(6) == [1, -1, 1]
    assert _phi(12) == [1, 0, -1, 0, 1]


def test_phi_degree_is_euler_totient():
    # phi(m) via direct count
    for m in range(1, 30):
        tot = sum(1 for k in range(1, m + 1) if _gcd(k, m) == 1)
        assert len(_phi(m)) - 1 == tot


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def test_rational_arithmetic():
    a = rational(1, 2)
    b = rational(1, 3)
    assert (a + b).as_fraction() == Fraction(5, 6)
    assert (a * b).as_fraction() == Fraction(1, 6)
    assert (a - b).as_fraction() == Fraction(1, 6)
    assert (a / b).as_fraction() == Fraction(3, 2)
    assert rational(2, 4) == rational(1, 2)


def test_zeta4_squares_to_minus_one():
    ctx = CyclotomicContext(4)
    z = ctx.zeta()
    assert z * z == ctx.from_rational(-1)


def test_zeta3_sum_reduction():
    ctx = CyclotomicContext(3)
    z = ctx.zeta()
    assert z + z * z == ctx.from_rational(-1)


def test_invert_one_minus_zeta3():
    ctx = CyclotomicContext(3)
    z = ctx.zeta()
    inv = (one(ctx) - z).inverse()
    # (1 - zeta3)^(-1) = (2 + zeta3)/3
    assert inv == (ctx.from_rational(2) + z) / 3
    assert (one(ctx) - z) * inv == one(ctx)


def test_zeta_order_and_primitivity():
    for m in (3, 4, 5, 6, 8, 12):
        ctx = CyclotomicContext(m)
        z = ctx.zeta()
        power = z
        for _d in range(1, m):
            assert power != one(ctx)
            power = power * z
        assert power == one(ctx)


def test_root_of_unity_sum_vanishes():
    for m in (2, 3, 5, 6, 12):
        ctx = CyclotomicContext(m)
        total = zero(ctx)
        for j in range(m):
            total = total + ctx.zeta(j)
        assert total.is_zero()


def test_mixed_conductors_rejected():
    a = CyclotomicContext(3).zeta()
    b = CyclotomicContext(4).zeta()
    with pytest.raises(ValueError):
        a + b


def test_rational_lifts_into_cyclotomic():
    ctx = CyclotomicContext(5)
    assert rational(1, 2) + ctx.zeta(0) == ctx.from_rational(Fraction(3, 2))
    assert ctx.zeta() * rational(2) == ctx.zeta() + ctx.zeta()


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        zero().inverse()
    with pytest.raises(ZeroDivisionError):
        zero(CyclotomicContext(4)).inverse()


def test_norm_inverse_matches_the_euclid_route():
    rng = random.Random(30)
    for m in range(3, MAX_CONDUCTOR + 1):
        ctx = CyclotomicContext(m)
        d = ctx.degree
        elements = [Scalar(ctx, tuple(rng.randint(-3, 3) for _ in range(d)))]
        elements += [one(ctx) - ctx.zeta(k) for k in (1, rng.randrange(2, m))]
        # the reference's Fractions grow fast, so these have three terms
        fractions = [0] * d
        for j in rng.sample(range(d), min(d, 3)):
            fractions[j] = bare(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        elements.append(Scalar(ctx, tuple(fractions)))
        for a in elements:
            if a.is_zero():
                continue
            inv = a.inverse()
            want = euclid_inverse(a) if not a.is_rational() else Fraction(1, a.as_fraction())
            assert inv == want and a * inv == 1, (m, a)
        with pytest.raises(ZeroDivisionError):
            zero(ctx).inverse()


def test_str_and_json_forms():
    assert str(rational(-3, 6)) == "-1/2"
    ctx = CyclotomicContext(6)
    s = ctx.zeta() * 2 - one(ctx)
    assert str(s) == "-1 + 2*z"
    assert scalar_to_json(rational(7)) == "7"
    assert scalar_to_json(s) == {"m": 6, "coeffs": ["-1", "2"]}
    assert scalar_to_json(ctx.from_rational(Fraction(1, 3))) == "1/3"


_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def _is_bare(c) -> bool:
    """The normal form of a rational: an int, or a non-integral Fraction."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def _cyclo_scalars(ctx):
    return st.lists(
        _fractions, min_size=ctx.degree, max_size=ctx.degree
    ).map(lambda cs: Scalar(ctx, tuple(map(bare, cs))))


@given(a=_fractions, b=_fractions, c=_fractions)
def test_rational_field_axioms(a, b, c):
    sa, sb, sc = rational(a), rational(b), rational(c)
    assert (sa + sb) + sc == sa + (sb + sc)
    assert sa * (sb + sc) == sa * sb + sa * sc
    assert sa * sb == sb * sa
    if not sa.is_zero():
        assert sa * sa.inverse() == one()


@settings(max_examples=40)
@given(data=st.data())
def test_cyclotomic_field_axioms(data):
    ctx = CyclotomicContext(data.draw(st.sampled_from([3, 4, 5, 6, 8])))
    sa = data.draw(_cyclo_scalars(ctx))
    sb = data.draw(_cyclo_scalars(ctx))
    sc = data.draw(_cyclo_scalars(ctx))
    assert (sa * sb) * sc == sa * (sb * sc)
    assert sa * (sb + sc) == sa * sb + sa * sc
    assert sa - sa == zero(ctx)
    if not sa.is_zero():
        assert sa * sa.inverse() == one(ctx)


# --- rational scalars: int, Fraction and Scalar operands in either order


_operands = st.one_of(_fractions.map(rational), _fractions, st.integers(-50, 50))


def _value(x) -> Fraction:
    return Fraction(x.coeffs[0]) if isinstance(x, Scalar) else Fraction(x)


def _is_rational_scalar(s) -> bool:
    return (
        type(s) is Scalar and s.context is None
        and len(s.coeffs) == 1 and _is_bare(s.coeffs[0])
    )


def _sub(x, y):
    """x - y; a Scalar has no reflected operators, so a rational x on the
    left adds -y."""
    return x - y if type(x) is Scalar else -y + x


def _div(x, y):
    """x / y; a rational x on the left multiplies the inverse of y."""
    return x / y if type(x) is Scalar else y.inverse() * x


def _assert_matches_the_route(x, y):
    """x + y, x - y and x * y on the direct paths equal the coercing route
    (`scalar_route`): the same field, the same coordinates in normal form,
    and equal hashes for equal values; x == y holds exactly when the
    route's x - y is zero.  One of x and y is a Scalar; + and * commute,
    so the route takes the Scalar first."""
    s, o = (x, y) if type(x) is Scalar else (y, x)
    minus = scalar_route.add(x, -y) if type(x) is Scalar else scalar_route.add(-y, x)
    for got, want in ((x + y, scalar_route.add(s, o)), (_sub(x, y), minus),
                      (x * y, scalar_route.mul(s, o))):
        assert type(got) is Scalar and got.context is want.context
        assert got.coeffs == want.coeffs and all(_is_bare(c) for c in got.coeffs)
        assert got == want and hash(got) == hash(want)
        if got.is_rational():
            assert got == got.coeffs[0] and hash(got) == hash(got.coeffs[0])
    same = not any(minus.coeffs)
    assert (x == y) is same and (y == x) is same and (x != y) is not same
    if same:
        assert hash(x) == hash(y)


# the small conductors and the largest: 60 = 3 * 4 * 5, the prime 61 (of
# the largest degree, 60) and MAX_CONDUCTOR = 64
_conductors = st.sampled_from((1, 2, 3, 4, 5, 12, 60, 61, MAX_CONDUCTOR))


def _field_operands(ctx):
    """A cyclotomic element of ctx with int coordinates, or with Fraction
    (and some int) coordinates."""
    d = ctx.degree
    return st.one_of(
        st.lists(st.integers(-10**6, 10**6), min_size=d, max_size=d),
        _rational_list(_fractions.map(bare), d),
    ).map(lambda cs: Scalar(ctx, tuple(cs)))


def _rational_list(elements, d):
    """d coordinates drawn from elements: all of them up to d = 12, and at
    most 12 nonzero ones at drawn positions above, which keeps the Fraction
    routes of the largest conductors within the deadline."""
    if d <= 12:
        return st.lists(elements, min_size=d, max_size=d)
    return st.dictionaries(st.integers(0, d - 1), elements, max_size=12).map(
        lambda at: [at.get(i, 0) for i in range(d)]
    )


@given(a=_fractions, b=_operands)
def test_rational_fast_path_matches_fraction(a, b):
    sa, fb = rational(a), _value(b)
    for x, y, fx, fy in ((sa, b, a, fb), (b, sa, fb, a)):
        cases = [(x + y, fx + fy), (_sub(x, y), fx - fy), (x * y, fx * fy)]
        if fy:
            cases.append((_div(x, y), fx / fy))
        for got, want in cases:
            assert _is_rational_scalar(got) and got.coeffs[0] == want
            assert got == want and hash(got) == hash(want)
    assert _is_rational_scalar(-sa) and (-sa).coeffs[0] == -a
    assert sa.is_zero() == (a == 0) and bool(sa) == bool(a)
    assert (sa == b) == (a == fb) and (b == sa) == (a == fb)
    assert hash(sa) == hash(a)


@given(a=_operands, b=_operands, c=_operands)
def test_rational_fast_path_field_axioms(a, b, c):
    sa = rational(_value(a))
    fb, fc = _value(b), _value(c)
    laws = [
        ((sa + b) + c, sa + (b + c)),
        ((sa * b) * c, sa * (b * c)),
        (sa * (b + c), sa * b + sa * c),
        ((b + c) * sa, b * sa + c * sa),
        (sa + b, b + sa),
        (sa * b, b * sa),
        (sa - b, -_sub(b, sa)),
        (sa + (-sa), 0),
    ]
    if sa:
        laws.append((sa * _div(1, sa), 1))
    if fb:
        laws.append(((sa / b) * b, sa))
    if fc:
        laws.append((sa / c, sa * (1 / Fraction(fc))))
    for lhs, rhs in laws:
        assert _is_rational_scalar(lhs)
        assert lhs == rhs


@settings(max_examples=40)
@given(data=st.data(), a=_fractions, b=_fractions, m=_conductors)
def test_rational_mixed_with_cyclotomic_is_lifted(data, a, b, m):
    ctx = CyclotomicContext(m)
    sa, lb = rational(a), ctx.from_rational(b)
    # every operand kind against every other, in both orders: an int, a
    # Fraction, a rational Scalar with and without the field, and
    # elements of the field with int and with Fraction coordinates
    operands = [a.numerator, a, sa, lb, data.draw(_field_operands(ctx)),
                data.draw(_field_operands(ctx))]
    for x in operands:
        for y in operands:
            if type(x) is Scalar or type(y) is Scalar:
                _assert_matches_the_route(x, y)
    cases = [
        (sa + lb, a + b), (lb + sa, a + b),
        (sa - lb, a - b), (lb - sa, b - a),
        (sa * lb, a * b), (lb * sa, a * b),
        (-lb, -b),
    ]
    if b:
        cases.append((sa / lb, a / b))
    if a:
        cases.append((lb / sa, b / a))
    for got, want in cases:
        assert got.context == ctx
        assert got.coeffs == ctx.from_rational(want).coeffs
        assert got == want and hash(got) == hash(want)
    assert lb.is_zero() == (b == 0) and (sa == lb) == (a == b)


@lru_cache(maxsize=None)
def _fraction_phi(m):
    """Phi_m over Fractions: x^m - 1 divided by Phi_d for each proper
    divisor d of m, with a division by the lead coefficient per step;
    kept per m, so that the large conductors stay cheap."""
    num = [Fraction(-1)] + [Fraction(0)] * (m - 1) + [Fraction(1)]
    for d in range(1, m):
        if m % d:
            continue
        den = _fraction_phi(d)
        out = [Fraction(0)] * (len(num) - len(den) + 1)
        for k in range(len(out) - 1, -1, -1):
            c = out[k] = num[k + len(den) - 1] / den[-1]
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
        assert not any(num)
        num = out
    return tuple(num)


def test_integer_cyclotomic_polynomial_is_phi():
    for m in range(1, 40):
        phi = cyclotomic_polynomial(m)
        assert all(type(c) is int for c in phi)
        assert phi == tuple(_fraction_phi(m))
        assert phi[-1] == 1


def _fraction_product(a, b, m):
    """The schoolbook product over Fractions, reduced mod Phi_m."""
    phi = _fraction_phi(m)
    d = len(phi) - 1
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += Fraction(x) * Fraction(y)
    for k in range(len(prod) - 1, d - 1, -1):
        for j in range(d):
            prod[k - d + j] -= prod[k] * phi[j]
    return tuple(prod[:d])


def _coordinates(d):
    """Coordinates in normal form: all integral, all drawn from Fractions
    (integral ones become ints), or a mix of large ints and Fractions."""
    big = st.integers(-10**6, 10**6)
    return st.one_of(
        st.lists(big, min_size=d, max_size=d),
        _rational_list(_fractions.map(bare), d),
        _rational_list(st.one_of(big, _fractions.map(bare)), d),
    )


@settings(max_examples=200)
@given(data=st.data(), m=_conductors)
def test_integer_product_matches_fraction_convolution(data, m):
    ctx = CyclotomicContext(m)
    a = tuple(data.draw(_coordinates(ctx.degree)))
    b = tuple(data.draw(_coordinates(ctx.degree)))
    got = Scalar(ctx, a) * Scalar(ctx, b)
    assert got.context is ctx
    assert got.coeffs == _fraction_product(a, b, m)
    assert all(_is_bare(c) for c in got.coeffs)
    _assert_matches_the_route(Scalar(ctx, a), Scalar(ctx, b))


@settings(max_examples=100)
@given(data=st.data(), m=st.integers(3, 12))
def test_rational_factor_on_either_side_matches_the_convolution(data, m):
    # a rational operand scales the other's coordinates on either side;
    # the convolution reduced mod Phi_m is the route it replaces
    ctx = CyclotomicContext(m)
    q = data.draw(_fractions.map(bare))
    r = (q,) + (0,) * (ctx.degree - 1)
    b = tuple(data.draw(_coordinates(ctx.degree)))
    want = tuple(_reduce_mod_phi(_convolve(r, b), ctx.minimal_polynomial))
    assert want == _fraction_product(r, b, m)
    sr, sb = Scalar(ctx, r), Scalar(ctx, b)
    for got in (sr * sb, sb * sr, rational(q) * sb, sb * rational(q), q * sb, sb * q):
        assert got.context is ctx and got.coeffs == want
        assert all(_is_bare(c) for c in got.coeffs)


def _assert_normal(s, ctx):
    assert type(s) is Scalar and s.context is ctx and len(s.coeffs) == ctx.degree
    assert all(_is_bare(c) for c in s.coeffs), s.coeffs


# without 61: each of its inversions of a dense element takes about 0.05 s
@settings(max_examples=150)
@given(
    data=st.data(),
    m=st.sampled_from((1, 2, 3, 4, 5, 12, 60, MAX_CONDUCTOR)),
    q=_fractions.filter(bool),
    j=st.integers(0, 23),
    k=st.integers(0, 23),
)
def test_every_operation_returns_normal_coordinates(data, m, q, j, k):
    ctx = CyclotomicContext(m)
    a = data.draw(_coordinates(ctx.degree).map(lambda cs: Scalar(ctx, tuple(cs))))
    b = data.draw(_coordinates(ctx.degree).map(lambda cs: Scalar(ctx, tuple(cs))))
    zj, zk = ctx.zeta(j), ctx.zeta(k)
    # q*zeta^j times (1/q)*zeta^k cancels to the integral zeta^(j+k), as
    # (1/2 zeta) * (2 zeta^2) does; so do x - x and (a*q) / q
    x, y = zj * q, zk * (1 / q)
    half_z, two_z2 = ctx.zeta() * Fraction(1, 2), ctx.zeta(2) * 2
    values = [
        zj, zk, ctx.from_rational(q), ctx.from_rational(Fraction(4, 2)),
        ctx.from_rational(q * 2), x, y, x * y, y * x, x + x, x - x,
        half_z * two_z2, a + b, a - b, -a, a * b, b * a, a * q, q * a,
        a * (1 / q), (a * q) / q, a / q, x / y, zj / zk, a + q, _sub(q, a),
        ctx.from_rational(q) * a,
    ]
    assert x * y == ctx.zeta(j + k) and (a * q) / q == a
    assert half_z * two_z2 == ctx.zeta(3)
    if a:
        inv = a.inverse()
        values += [inv, a * inv, _div(1, a), b / a]
        assert a * inv == one(ctx)
    for v in values:
        _assert_normal(v, ctx)
    # the drawn element and one with Fraction coordinates against every
    # operand kind, in both orders
    for u in (a, x):
        for v in (a, b, q, q.numerator, rational(q), ctx.from_rational(q), x):
            _assert_matches_the_route(u, v)
            _assert_matches_the_route(v, u)
    r = rational(q) * rational(1 / q)
    assert r.coeffs == (1,) and type(r.coeffs[0]) is int
    assert rational(4, 2).coeffs == (2,) and type(rational(Fraction(4, 2)).coeffs[0]) is int
    assert rational(q).inverse().coeffs == (bare(1 / q),)


def test_non_exact_division_raises_under_optimize():
    # the gate must not be a bare assert, which python -O strips
    import os
    import pathlib
    import subprocess
    import sys

    import mfinv

    src = str(pathlib.Path(mfinv.__file__).resolve().parent.parent)
    code = (
        "from mfinv.scalar import _polydiv_exact\n"
        "try:\n"
        "    _polydiv_exact([1, 0, 1], [1, 1])\n"
        "except AssertionError as exc:\n"
        "    print('raised:', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "raised: non-exact polynomial division"
