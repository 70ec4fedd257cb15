from fractions import Fraction
from itertools import permutations
from math import factorial
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfinv.invariants import (
    _check_potential,
    check_endomorphism,
    chern,
    chi_hrr,
    cardy_rhs,
    derivative_product,
    permutation_sign,
    supertrace,
    tau,
)
from mfinv.cli import load_session
from mfinv.homology import hom_cohomology
from mfinv.mfcore import (
    MatFac,
    MorphismCocycle,
    identity_matrix,
    identity_morphism,
    koszul,
    mat_mul,
    stabilized_residue_field,
    vector_to_morphism,
)
from mfinv.milnor import MilnorClass, MilnorRing, build_milnor
from mfinv.poly import PolyRing
from mfinv.scalar import CyclotomicContext, rational
from mf_ops import add, direct_sum, shift

R1 = PolyRing(("x",))
R2 = PolyRing(("x", "y"))
R3 = PolyRing(("x", "y", "z"))


def k1(ring, a, b):
    return koszul([ring.parse(a)], [ring.parse(b)])


def d4_pair():
    E = k1(R2, "x", "x^2 + y^2")
    A = build_milnor(R2.parse("x^3 + x*y^2"))
    return E, A


def xn_data(n, i):
    E = koszul([R1.parse("x^%d" % i)], [R1.parse("x^%d" % (n - i))])
    A = build_milnor(R1.parse("x^%d" % n))
    return E, A


def odd_generator(E, n, i):
    """The standard odd endomorphism of {x^i, x^(n-i)} with square -x^(n ...)."""
    if 2 * i >= n:
        b10 = ((R1.parse("x^%d" % (2 * i - n)),),)
        b01 = ((R1.parse("-1"),),)
    else:
        b10 = ((R1.one(),),)
        b01 = ((R1.parse("-x^%d" % (n - 2 * i)),),)
    return MorphismCocycle.from_blocks(E, E, 1, (b10, b01))


def test_supertrace_basics():
    E = k1(R2, "x", "x^2 + y^2")
    assert supertrace(identity_matrix(R2, 4), 2).is_zero()
    assert supertrace(identity_matrix(R2, 4), 3) == R2.parse("2")
    assert supertrace(E.delta, E.r0).is_zero()


def test_chern_in_zero_variables_is_the_rank_difference():
    # over k, ch(E) = str(id) = r0 - r1: no partial closes the product
    R0 = PolyRing(())
    z = R0.zero()
    E = MatFac(R0, z, ((z,) * 3,) * 3, 2)
    c = chern(E, build_milnor(z))
    assert c.value == R0.one() and c.parity == 0


def test_chern_d4():
    E, A = d4_pair()
    c = chern(E, A)
    assert c.value == R2.parse("2*y")
    assert c.parity == 0


def test_chern_odd_dimension_vanishes():
    E, A = xn_data(4, 2)
    assert chern(E, A).is_zero()
    F = koszul([R3.parse("x"), R3.parse("y"), R3.parse("z")],
               [R3.parse("x"), R3.parse("y"), R3.parse("z")])
    B = build_milnor(R3.parse("x^2 + y^2 + z^2"))
    assert chern(F, B).is_zero()


def test_chern_contractible_vanishes():
    A = build_milnor(R2.parse("x^3 + x*y^2"))
    E = koszul([R2.one()], [A.w])
    assert chern(E, A).is_zero()


def test_chern_potential_mismatch():
    E, _ = d4_pair()
    B = build_milnor(R2.parse("x^3 + y^3"))
    with pytest.raises(ValueError, match="mismatch"):
        chern(E, B)


def test_tau_of_identity_is_chern():
    E, A = d4_pair()
    assert tau(E, identity_morphism(E), A) == chern(E, A)


def test_tau_xn_generators():
    for n in (2, 4, 6):
        A = build_milnor(R1.parse("x^%d" % n))
        for i in range(n // 2, n):
            E = koszul([R1.parse("x^%d" % i)], [R1.parse("x^%d" % (n - i))])
            t = tau(E, odd_generator(E, n, i), A)
            assert t.value == A.project(R1.parse("%d*x^%d" % (n, i - 1))).value
            assert t.parity == 0  # (1 + 1) mod 2


def test_tau_rejects_non_closed():
    E, A = d4_pair()
    f = vector_to_morphism(E, E, 0, [R2.parse("x"), R2.zero()])
    with pytest.raises(ValueError, match="closed"):
        tau(E, f, A)


def chern_antisymmetrized(E: MatFac, alpha: MorphismCocycle, A: MilnorRing) -> MilnorClass:
    """tau through the permutation-averaged formula; must agree with tau.

    (-1)^(n choose 2) / n! times the signed sum over all index orders of
    str(d_s(1) delta ... d_s(n) delta . alpha).
    """
    _check_potential(E, A)
    check_endomorphism(E, alpha)
    ring = E.ring
    n = ring.n
    total = ring.zero()
    for perm in permutations(range(n)):
        sign = permutation_sign(perm)
        M = mat_mul(derivative_product(E, perm), alpha.matrix, ring.zero())
        s = supertrace(M, E.r0)
        total = total + (s if sign > 0 else -s)
    scale = Fraction(1, factorial(n))
    if (n * (n - 1) // 2) % 2:
        scale = -scale
    return A.project(total * scale, parity=(n + alpha.parity) % 2)


def test_endomorphism_checks_compare_whole_factorizations():
    # F shares d0 with E but not d1 or w: comparing d0 alone let its
    # identity pass as an endomorphism of E
    E, A = d4_pair()
    x = R2.parse("x")
    F = MatFac.from_blocks(R2, R2.parse("x^3"), ((x,),), ((R2.parse("x^2"),),))
    assert F.d0 == E.d0 and F != E
    foreign = identity_morphism(F)
    for check in (tau, chern_antisymmetrized):
        with pytest.raises(ValueError, match="not an endomorphism"):
            check(E, foreign, A)
    with pytest.raises(ValueError, match="endpoints do not match"):
        identity_morphism(E).compose(foreign)
    with pytest.raises(ValueError, match="endpoints do not match"):
        add(identity_morphism(E), foreign)


def test_tau_kills_coboundaries():
    E, A = d4_pair()
    for vec in ([R2.parse("x"), R2.parse("y + 1")], [R2.parse("x*y"), R2.parse("-3")]):
        h = vector_to_morphism(E, E, 1, vec)
        db = h.differential()
        assert db.is_closed()
        assert tau(E, db, A).is_zero()


def test_permutation_antisymmetry():
    E, A = d4_pair()
    base = chern(E, A)
    for perm in permutations(range(2)):
        P = derivative_product(E, perm)
        got = A.project(supertrace(P, E.r0))
        sign = _sign_to_descending(perm)
        assert got.value == base.scale(sign).value


def _sign_to_descending(perm):
    target = sorted(perm, reverse=True)
    seq = list(perm)
    sign = 1
    for i, t in enumerate(target):
        j = seq.index(t)
        if j != i:
            seq[i], seq[j] = seq[j], seq[i]
            sign = -sign
    return sign


def test_permutation_sign_to_descending_order():
    # the sign of reordering a permutation to descending order, which the
    # verify command's permutation check uses, is sign(perm) (-1)^C(n, 2)
    for n in range(1, 6):
        for perm in permutations(range(n)):
            want = _sign_to_descending(perm)
            assert permutation_sign(perm) * (-1) ** (n * (n - 1) // 2) == want


def test_antisymmetrized_equals_tau():
    E, A = d4_pair()
    assert chern_antisymmetrized(E, identity_morphism(E), A) == chern(E, A)
    n, i = 4, 3
    E2, A2 = xn_data(n, i)
    g = odd_generator(E2, n, i)
    assert chern_antisymmetrized(E2, g, A2) == tau(E2, g, A2)


def test_chern_additive_over_direct_sum():
    A = build_milnor(R2.parse("x^3 + x*y^2"))
    E = k1(R2, "x", "x^2 + y^2")
    F = koszul([R2.one()], [A.w])
    S = direct_sum(E, F)
    total, e, f = chern(S, A), chern(E, A), chern(F, A)
    assert total.value == e.value + f.value and total.parity == e.parity


def test_chern_shift_sign():
    E, A = d4_pair()
    assert chern(shift(E), A).value == chern(E, A).scale(-1).value
    E1, A1 = xn_data(3, 1)
    assert chern(shift(E1), A1).is_zero() and chern(E1, A1).is_zero()


def test_chern_basis_independent():
    # conjugate by a constant invertible parity-preserving matrix
    E = koszul([R2.parse("x"), R2.parse("y")], [R2.parse("x^3"), R2.parse("y")])
    A = build_milnor(E.w)
    # U acts on E0 = span(e_(), e_(01)): mix the two even basis vectors
    U0 = ((R2.parse("1"), R2.parse("2")), (R2.zero(), R2.parse("1")))
    U0inv = ((R2.parse("1"), R2.parse("-2")), (R2.zero(), R2.parse("1")))
    d0 = mat_mul(E.d0, U0inv, R2.zero())
    d1 = mat_mul(U0, E.d1, R2.zero())
    E2 = MatFac.from_blocks(R2, E.w, d0, d1)
    E2.validate()
    assert chern(E2, A) == chern(E, A)
    # unipotent polynomial conjugation on the odd summand
    V1 = ((R2.one(), R2.parse("x*y")), (R2.zero(), R2.one()))
    V1inv = ((R2.one(), R2.parse("-x*y")), (R2.zero(), R2.one()))
    d0b = mat_mul(V1, E.d0, R2.zero())
    d1b = mat_mul(E.d1, V1inv, R2.zero())
    E3 = MatFac.from_blocks(R2, E.w, d0b, d1b)
    E3.validate()
    assert chern(E3, A) == chern(E, A)


def test_chi_hrr_d4():
    E, A = d4_pair()
    assert chi_hrr(E, E, A) == rational(2)


def test_chi_hrr_odd_vanishes():
    E, A = xn_data(6, 2)
    F = koszul([R1.parse("x^3")], [R1.parse("x^3")])
    assert chi_hrr(E, F, A) == rational(0)


def test_chi_hrr_contractible():
    E, A = d4_pair()
    F = koszul([R2.one()], [A.w])
    assert chi_hrr(E, F, A) == rational(0)


def test_cardy_rhs_xn_middle():
    for n in (2, 4, 6):
        i = n // 2
        E, A = xn_data(n, i)
        a = odd_generator(E, n, i)
        assert cardy_rhs(E, E, a, a, A) == rational(n)


def test_cardy_rhs_distinct_odd_classes_vanish():
    n = 6
    A = build_milnor(R1.parse("x^6"))
    for i, j in ((4, 5), (3, 5), (3, 4)):
        Ei = koszul([R1.parse("x^%d" % i)], [R1.parse("x^%d" % (n - i))])
        Ej = koszul([R1.parse("x^%d" % j)], [R1.parse("x^%d" % (n - j))])
        assert cardy_rhs(Ei, Ej, odd_generator(Ei, n, i), odd_generator(Ej, n, j), A) == rational(0)


def test_cardy_rhs_identity_reduces_to_chi():
    E, A = d4_pair()
    assert cardy_rhs(E, E, identity_morphism(E), identity_morphism(E), A) == chi_hrr(E, E, A)


@settings(max_examples=10, deadline=None)
@given(
    f=st.integers(min_value=-3, max_value=3),
    g=st.integers(min_value=-2, max_value=2),
)
def test_random_conjugation_invariance(f, g):
    E = koszul([R2.parse("x"), R2.parse("y")], [R2.parse("x^3"), R2.parse("y")])
    A = build_milnor(E.w)
    shear = R2.parse("x") * f + R2.parse("y^2") * g
    V = ((R2.one(), shear), (R2.zero(), R2.one()))
    Vinv = ((R2.one(), -shear), (R2.zero(), R2.one()))
    E2 = MatFac.from_blocks(R2, E.w, mat_mul(V, E.d0, R2.zero()), mat_mul(E.d1, Vinv, R2.zero()))
    E2.validate()
    assert chern(E2, A) == chern(E, A)


# --- the diagonal-only supertrace against the full product -------------------


def _product_supertrace(M, r0, R):
    """The full-product route: form M R, then read its diagonal."""
    return supertrace(mat_mul(M, R, M[0][0].ring.zero()), r0)


def _chern_factorizations():
    """k^st and a sheared Koszul pair over Q and over Q(zeta_3)."""
    ctx = CyclotomicContext(3)
    for context in (None, ctx):
        ring = PolyRing(("x", "y", "v"), context)
        c = ring.const(ctx.zeta() if context else Fraction(3, 2))
        x, y, v = (ring.var(i) for i in range(3))
        yield stabilized_residue_field(x ** 3 + c * x * y ** 2 + v ** 4)
        yield koszul([x + c * y, v], [x ** 2 + y ** 2, c * v ** 3 - y])


def test_diagonal_supertrace_matches_the_product_on_chern_partials():
    # polynomial times polynomial: every ordered pair of partials, and each
    # leading derivative product against the partial that closes it
    for E in _chern_factorizations():
        n = E.ring.n
        for Di in E.partials:
            for Dj in E.partials:
                assert supertrace(Di, E.r0, Dj) == _product_supertrace(Di, E.r0, Dj)
        P = derivative_product(E, range(n - 1, 0, -1))
        for r0 in (0, E.r0, E.rank):
            assert supertrace(P, r0, E.partials[0]) == _product_supertrace(P, r0, E.partials[0])
        full = supertrace(derivative_product(E, range(n - 1, -1, -1)), E.r0)
        assert supertrace(P, E.r0, E.partials[0]) == full


def test_diagonal_supertrace_matches_the_product_on_endomorphisms():
    # polynomial times a morphism matrix: tau's product on every closed
    # endomorphism of the d4 and x6 sessions and every Hom representative
    root = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "sessions"
    for name in ("d4", "x6"):
        session = load_session(str(root / (name + ".json")))
        A = session.milnor
        for E in session.factorizations.values():
            h0, h1, basis = hom_cohomology(E, E)
            alphas = [identity_morphism(E)] + [
                basis.representative(parity, k) for parity, dim in ((0, h0), (1, h1))
                for k in range(dim)
            ] + [f for f in session.morphisms.values() if f.source == E and f.target == E]
            P = derivative_product(E, range(E.ring.n - 1, -1, -1))
            for alpha in alphas:
                M = alpha.matrix
                assert supertrace(P, E.r0, M) == _product_supertrace(P, E.r0, M)
                want = A.project(_product_supertrace(P, E.r0, M),
                                 parity=(E.ring.n + alpha.parity) % 2)
                assert tau(E, alpha, A) == want


def test_derivative_product_starts_from_its_first_partial():
    E, _ = d4_pair()
    assert derivative_product(E, []) == identity_matrix(R2, E.rank)
    assert derivative_product(E, [1]) is E.partials[1]
    assert derivative_product(E, (1, 0)) == mat_mul(E.partials[1], E.partials[0], R2.zero())


def test_supertrace_rejects_empty_and_non_square_input_under_python_O():
    # explicit raises, not asserts, so python -O keeps them
    import os
    import subprocess
    import sys

    import mfinv

    src = str(pathlib.Path(mfinv.__file__).resolve().parent.parent)
    code = (
        "from mfinv.invariants import supertrace\n"
        "from mfinv.mfcore import identity_matrix\n"
        "from mfinv.poly import PolyRing\n"
        "R = PolyRing(('x',))\n"
        "I2, I3, x = identity_matrix(R, 2), identity_matrix(R, 3), R.var(0)\n"
        "cases = [((), 0), ((), 0, I2), (((x, x),), 0), (I2[:1], 0, I2), (I2, 1, I3),\n"
        "         (I2, 1, I3[:2]), (I2, 1, ((x,), (x,))), (I2, 1, ())]\n"
        "for args in cases:\n"
        "    try:\n"
        "        supertrace(*args)\n"
        "        print('returned')\n"
        "    except ValueError as exc:\n"
        "        print('raised:', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    for flags in ([], ["-O"]):
        out = subprocess.run(
            [sys.executable, *flags, "-c", code], capture_output=True, text=True, env=env,
            check=True,
        )
        assert out.stdout.splitlines() == ["raised: supertrace of an empty or non-square matrix"] * 8
