from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfinv.groebner import lift_basis, normal_form, quotient_basis, split
from mfinv.milnor import (
    MilnorClass,
    _cofactor_determinant,
    _nilpotency_exponent,
    _trace_poly,
    build_milnor,
    canonical_pairing,
    gram_matrix,
    hessian_class,
    residue_trace,
)
from mfinv.poly import PolyRing
from mfinv.scalar import CyclotomicContext, rational
from tuple_route import grevlex_key, terms

R1 = PolyRing(("x",))
R2 = PolyRing(("x", "y"))
R3 = PolyRing(("x", "y", "z"))

# potentials exercised throughout: name -> (ring, text, mu)
BATTERY = [
    (R1, "x^3", 2),
    (R1, "x^4", 3),
    (R1, "x^6", 5),
    (R2, "x^2 + y^2", 1),
    (R2, "x^3 + y^3", 4),
    (R2, "x^3 + x*y^2", 4),
    (R2, "x^4 + y^4", 9),
    (R2, "x^3 + y^4", 6),
    (R2, "x^2*y + y^3", 4),
    (R2, "x^2*y + y^4", 5),
    (R3, "x^3 + y^3 + z^3", 8),
]


def _build(ring, text):
    return build_milnor(ring.parse(text))


def _cofactor_det(A, exponent):
    """det(a) for x_i^exponent = sum_j a_ij dw/dx_j."""
    partials = [A.w.partial_derivative(i) for i in range(A.ring.n)]
    lifts = lift_basis([(p,) for p in partials], 1, A.ring)
    return _cofactor_determinant(lifts, partials, exponent)


def test_one_variable_power():
    for n in (2, 3, 4, 6):
        A = _build(R1, "x^%d" % n)
        assert A.mu == n - 1
        assert A.basis == tuple((i,) for i in range(n - 1))
        assert residue_trace(A.project(R1.var(0) ** (n - 2))) == rational(1, n)


def test_d4_ring():
    A = _build(R2, "x^3 + x*y^2")
    assert A.mu == 4
    assert len(A.basis) == 4
    assert (0, 0) in A.basis and (1, 0) in A.basis and (0, 1) in A.basis
    assert residue_trace(A.project(R2.parse("x^2"))) == rational(1, 6)
    assert residue_trace(A.project(R2.parse("y^2"))) == rational(-1, 2)
    assert residue_trace(A.project(R2.parse("-4*y^2"))) == rational(2)


def test_morse_point():
    A = _build(R2, "x^2 + y^2")
    assert A.mu == 1
    assert A.basis == ((0, 0),)
    assert gram_matrix(A) == [[rational(1, 4)]]


def test_build_errors():
    with pytest.raises(ValueError, match="isolated"):
        _build(R2, "x^2")
    with pytest.raises(ValueError, match="not local"):
        _build(R1, "x^3 - 3*x")
    # critical at the origin and at (2/3, 0): x is not nilpotent
    with pytest.raises(ValueError, match="not local"):
        _build(R2, "x^2 - x^3 + y^2")
    # critical at (+-1, 0) only
    with pytest.raises(ValueError, match="not local"):
        _build(R2, "x^3 - 3*x + x*y^2")
    with pytest.raises(ValueError, match="origin"):
        _build(R1, "x^2 + 1")


def test_hessian_trace_is_milnor_number():
    for ring, text, mu in BATTERY:
        A = _build(ring, text)
        assert A.mu == mu
        assert residue_trace(hessian_class(A)) == rational(mu)


def test_gram_x_squared():
    A = _build(R1, "x^2")
    assert gram_matrix(A) == [[rational(1, 2)]]


def _rank(matrix) -> int:
    """Rank by exact Gaussian elimination over the scalars."""
    rows = [list(row) for row in matrix]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if not rows[r][c].is_zero()), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = rows[rank][c].inverse()
        for r in range(rank + 1, len(rows)):
            f = rows[r][c] * inv
            if not f.is_zero():
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def test_gram_symmetric_invertible():
    for ring, text, _ in BATTERY:
        A = _build(ring, text)
        G = gram_matrix(A)
        for i in range(A.mu):
            for j in range(A.mu):
                assert G[i][j] == G[j][i]
        assert _rank(G) == A.mu
        if A.mu > 1:
            # the rank sees a repeated row
            assert _rank(G[:-1] + G[:1]) == A.mu - 1


def test_canonical_pairing_values():
    # one variable: <n x^(i-1), n x^(i-1)> = n at i = n/2
    for n in (2, 4, 6):
        A = _build(R1, "x^%d" % n)
        f = A.project(R1.parse("%d*x^%d" % (n, n // 2 - 1)))
        assert canonical_pairing(f, f) == rational(n)
    A = _build(R2, "x^3 + x*y^2")
    f = A.project(R2.parse("2*y"))
    assert canonical_pairing(f, f) == rational(2)
    assert canonical_pairing(A.project(R2.zero()), f) == rational(0)


def test_pairing_ring_mismatch():
    A = _build(R1, "x^3")
    B = _build(R1, "x^4")
    with pytest.raises(ValueError, match="mismatch"):
        canonical_pairing(A.project(R1.one()), B.project(R1.one()))


def test_trace_kills_jacobian_ideal():
    A = _build(R2, "x^3 + x*y^2")
    h = R2.parse("x^2 - 3*y + 1")
    for j in range(2):
        perturbed = h + R2.parse("x*y - 2") * A.w.partial_derivative(j)
        assert residue_trace(A.project(perturbed)) == residue_trace(A.project(h))
    # raw polynomial vs normal form agree as well
    f = A.project(h)
    raw = residue_trace(f)
    assert raw == residue_trace(A.project(f.value))


def test_trace_independent_of_exponent():
    for ring, text, _ in BATTERY[:6]:
        A = _build(ring, text)
        f = A.project(ring.monomial(A.basis[-1]))
        N = A.nilpotency
        det_up = _cofactor_det(A, N + 1)
        assert residue_trace(f) == _trace_poly(A, f.value, N + 1, det_up)


# the battery plus the high-mu potentials of the benchmark and one ring
# over Q(zeta_5), whose cofactor determinant has cyclotomic coefficients
REFERENCE_BATTERY = [(ring, text) for ring, text, _ in BATTERY] + [
    (R1, "x^60"),
    (R2, "x^9 + y^8"),
    (R2, "x^3*y + y^7"),
    (PolyRing(("x", "y"), CyclotomicContext(5)), "x^4 + z*x^2*y^2 + y^4"),
]


def _linear_nilpotency(ring, gb, mu):
    """The smallest N with every x_i^N in the ideal, by the linear search
    from N = 1 that `_nilpotency_exponent` replaces: up to mu + 1 normal
    forms per variable."""
    best = 0
    for i in range(ring.n):
        x = ring.var(i)
        p = x
        k = 1
        while not normal_form(p, gb).is_zero():
            p = p * x
            k += 1
            if k > mu + 1:
                raise ValueError("singular locus not local")
        best = max(best, k)
    return best


@pytest.mark.parametrize("ring,text", REFERENCE_BATTERY)
def test_nilpotency_from_the_leads_matches_the_linear_search(ring, text):
    A = _build(ring, text)
    assert A.nilpotency == _linear_nilpotency(ring, A.jacobian_gb, A.mu)
    assert A.nilpotency == _nilpotency_exponent(ring, A.jacobian_gb, A.basis)


@pytest.mark.parametrize("ring,text", [
    (R1, "x^3 - 3*x"), (R2, "x^2 - x^3 + y^2"), (R2, "x^3 - 3*x + x*y^2"),
])
def test_nonlocal_quotient_is_rejected_by_both_searches(ring, text):
    # the rejections of test_build_errors: the quotient is finite, but a
    # variable is not nilpotent in it
    w = ring.parse(text)
    partials = [w.partial_derivative(i) for i in range(ring.n)]
    gb = split(lift_basis([(p,) for p in partials], 1, ring))[0]
    basis = tuple(map(ring.layout.exponents, quotient_basis(gb)))
    with pytest.raises(ValueError, match="not local"):
        _nilpotency_exponent(ring, gb, basis)
    with pytest.raises(ValueError, match="not local"):
        _linear_nilpotency(ring, gb, len(basis))
    with pytest.raises(ValueError, match="not local"):
        build_milnor(w)


def _reference_trace(p, exponent, det):
    """The trace by the product route: [x^(N-1)] (p * det(a))."""
    return (p * det).coeff_of((exponent - 1,) * p.ring.n)


@pytest.mark.parametrize("ring,text", REFERENCE_BATTERY)
def test_coefficient_lookup_matches_product_route(ring, text):
    A = _build(ring, text)
    n = ring.n
    N = A.nilpotency
    det = A.residue_cofactor_det
    det_up = _cofactor_det(A, N + 1)
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    basis = [ring.monomial(m) for m in A.basis]
    assert gram_matrix(A) == [
        [_reference_trace(a * b, N, det) for b in basis] for a in basis
    ]
    mixed = ring.zero()
    for k, b in enumerate(basis):
        mixed = mixed + b * (k + 1)
    classes = [hessian_class(A), A.project(mixed), A.project(mixed * mixed)]
    classes += [A.project(b) for b in basis[:4] + basis[-4:]]
    for f in classes:
        assert residue_trace(f) == _reference_trace(f.value, N, det)
        assert _trace_poly(A, f.value, N + 1, det_up) == _reference_trace(f.value, N + 1, det_up)
        for g in classes[:3]:
            want = _reference_trace(f.value * g.value, N, det) * sign
            assert canonical_pairing(f, g) == want


def _tuple_trace(A, p):
    """tr(p) by lookups of the exponent tuples N-1-m in det(a); a tuple
    with a negative entry is never a key, so such a term adds nothing."""
    det = terms(A.residue_cofactor_det)
    top = A.nilpotency - 1
    total = rational(0)
    for m, c in terms(p).items():
        d = det.get(tuple(top - e for e in m))
        if d is not None:
            total = total + A.ring.scalar(c) * A.ring.scalar(d)
    return total


@pytest.mark.parametrize("ring,text", REFERENCE_BATTERY)
def test_trace_of_exponents_past_the_nilpotency_matches_the_tuple_route(ring, text):
    # unreduced representatives with an exponent above N-1 in each slot:
    # the word N-1-m borrows (into the guard bits of a lower field, or
    # below 0 from the top one) and must miss, as the tuple lookup does
    A = _build(ring, text)
    N, n = A.nilpotency, ring.n
    basis = [ring.monomial(m) for m in A.basis]
    for i in range(n):
        for over in (1, 2, N + 1000):
            # the other slots at 0 absorb the borrow; at N-1 they pass it on
            for other in (0, N - 1):
                m = [other] * n
                m[i] = N - 1 + over
                p = ring.monomial(tuple(m), 3) + basis[-1] + basis[0] * 2
                for q in (p, p * basis[-1]):
                    got = residue_trace(MilnorClass(A, q, n % 2))
                    assert got == _tuple_trace(A, q)
                    assert got == residue_trace(A.project(q))


def test_milnor_basis_is_exponent_tuples():
    for ring, text, mu in BATTERY:
        A = _build(ring, text)
        assert type(A.basis) is tuple and len(A.basis) == mu
        assert all(type(m) is tuple and len(m) == ring.n for m in A.basis)
        assert all(type(e) is int for m in A.basis for e in m)
        assert list(A.basis) == sorted(A.basis, key=grevlex_key)
        assert A.basis_words == tuple(map(ring.layout.word, A.basis))


def test_three_variable_cusp_sum():
    A = _build(R3, "x^3 + y^3 + z^3")
    assert A.mu == 8
    h = hessian_class(A)
    # Hess = 216 xyz, det(a) = 1/27, coefficient picks 216/27 = 8
    assert residue_trace(h) == rational(8)
    assert canonical_pairing(A.project(R3.parse("6*x*y*z")), A.project(R3.one())) == rational(
        -6 * Fraction(1, 27) * 1
    )


def test_class_arithmetic():
    A = _build(R1, "x^4")
    f = A.project(R1.parse("x + 1"))
    g = A.project(R1.parse("x^2 - x"))
    assert (f + g).value == A.project(R1.parse("x^2 + 1")).value
    assert (f - f).is_zero()
    assert (-f).value == A.project(R1.parse("-x - 1")).value
    assert f.scale(3).value == A.project(R1.parse("3*x + 3")).value
    assert f.parity == 1  # one variable


def test_coordinates():
    A = _build(R2, "x^3 + x*y^2")
    coords = A.coordinates(R2.parse("5 + 2*x - y"))
    # basis is grevlex ascending starting at 1, x, y
    assert coords[0] == rational(5)
    nonzero = [c for c in coords if not c.is_zero()]
    assert len(nonzero) == 3


def test_zero_variable_ring():
    R0 = PolyRing(())
    A = build_milnor(R0.zero())
    assert A.mu == 1
    assert A.basis == ((),)
    assert residue_trace(A.project(R0.const(7))) == rational(7)
    assert gram_matrix(A) == [[rational(1)]]


@settings(max_examples=20, deadline=None)
@given(
    c=st.lists(st.integers(min_value=-5, max_value=5), min_size=4, max_size=4),
)
def test_trace_linear(c):
    A = _build(R2, "x^3 + x*y^2")
    f = R2.parse("x^2") * c[0] + R2.parse("y^2") * c[1] + R2.parse("x*y") * c[2] + R2.one() * c[3]
    expected = rational(c[0], 6) + rational(-c[1], 2)
    got = residue_trace(A.project(f))
    assert got == expected


def _dropping_a_cofactor_term(lift, dropped):
    """`milnor.lift` with one term removed from the first nonzero cofactor
    it returns."""

    def dropping(v, basis):
        rem, cof = lift(v, basis)
        for k, a in enumerate(cof):
            if a.terms and not dropped:
                m = next(iter(a.terms))
                dropped.append(m)
                smaller = a.ring.from_terms({t: c for t, c in a.terms.items() if t != m})
                return rem, cof[:k] + (smaller,) + cof[k + 1:]
        return rem, cof

    return dropping


def test_cofactor_gate_rejects_a_dropped_term(monkeypatch):
    import mfinv.milnor as milnor

    dropped = []
    monkeypatch.setattr(milnor, "lift", _dropping_a_cofactor_term(milnor.lift, dropped))
    with pytest.raises(AssertionError, match="^cofactor identity failed$"):
        build_milnor(R2.parse("x^3 + x*y^2"))
    assert len(dropped) == 1


def test_cofactor_gate_raises_under_optimize():
    # the gate is an explicit raise, not a bare assert, so python -O keeps it
    import os
    import pathlib
    import subprocess
    import sys

    import mfinv

    src = str(pathlib.Path(mfinv.__file__).resolve().parent.parent)
    tests = str(pathlib.Path(__file__).resolve().parent)
    code = (
        "import mfinv.milnor as milnor\n"
        "from test_milnor import R2, _dropping_a_cofactor_term\n"
        "dropped = []\n"
        "milnor.lift = _dropping_a_cofactor_term(milnor.lift, dropped)\n"
        "try:\n"
        "    milnor.build_milnor(R2.parse('x^3 + x*y^2'))\n"
        "except AssertionError as exc:\n"
        "    print('raised:', exc, len(dropped))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, tests)))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.splitlines() == ["raised: cofactor identity failed 1"]
