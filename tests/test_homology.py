import os
import pathlib
import subprocess
import sys

import pytest

import mfinv

from mfinv.groebner import module_gb, module_kernel, subquotient_basis
from mfinv.homology import (
    CohomologyBasis,
    ParityCohomology,
    cardy_lhs,
    euler,
    hom_cohomology,
)
from mfinv.invariants import cardy_rhs, chi_hrr
from mfinv.mfcore import (
    MorphismCocycle,
    identity_matrix,
    identity_morphism,
    koszul,
    shift,
    vector_to_morphism,
)
from mfinv.milnor import build_milnor
from mfinv.poly import PolyRing
from mfinv.scalar import rational
from test_mfcore import zero_morphism

R1 = PolyRing(("x",))
R2 = PolyRing(("x", "y"))


def xn_fac(n, i):
    return koszul([R1.parse("x^%d" % i)], [R1.parse("x^%d" % (n - i))])


def odd_generator(E, n, i):
    if 2 * i >= n:
        blocks = (((R1.parse("x^%d" % (2 * i - n)),),), ((R1.parse("-1"),),))
    else:
        blocks = (((R1.one(),),), ((R1.parse("-x^%d" % (n - 2 * i)),),))
    return MorphismCocycle.from_blocks(E, E, 1, blocks)


def test_hom_dimensions_xn():
    for n in (2, 3, 4, 6):
        for i in range(1, n):
            E = xn_fac(n, i)
            h0, h1, _ = hom_cohomology(E, E)
            assert (h0, h1) == (min(i, n - i), min(i, n - i))


def test_hom_dimensions_d4():
    E = koszul([R2.parse("x")], [R2.parse("x^2 + y^2")])
    h0, h1, _ = hom_cohomology(E, E)
    assert (h0, h1) == (2, 0)
    assert euler(E, E) == 2


def test_hom_contractible():
    w = R1.parse("x^5")
    E = koszul([R1.one()], [w])
    h0, h1, _ = hom_cohomology(E, E)
    assert (h0, h1) == (0, 0)
    F = xn_fac(5, 2)
    assert euler(E, F) == 0
    assert euler(F, E) == 0


def test_hom_coprime_koszul_vanishes():
    # {a, b} with gcd(a, b) = 1: cohomology is R/(a, b) in even parity only
    E = koszul([R1.parse("x - 1")], [R1.parse("x^2 + x + 1")])
    # shift potential so it is not local at 0; use a pair over x^n instead
    E = xn_fac(4, 1)
    h0, h1, _ = hom_cohomology(E, E)
    assert (h0, h1) == (1, 1)


def test_hom_mixed_pair():
    # Hom between distinct factorizations of x^4
    E, F = xn_fac(4, 1), xn_fac(4, 2)
    h0, h1, _ = hom_cohomology(E, F)
    assert h0 == h1  # one-variable: chi must vanish
    A = build_milnor(R1.parse("x^4"))
    assert euler(E, F) == chi_hrr(E, F, A) == 0


def test_shift_swaps_parities():
    E = koszul([R2.parse("x")], [R2.parse("x^2 + y^2")])
    h0, h1, _ = hom_cohomology(E, shift(E))
    assert (h0, h1) == (0, 2)


def test_representatives_are_closed():
    E = xn_fac(6, 4)
    h0, h1, basis = hom_cohomology(E, E)
    for parity, count in ((0, h0), (1, h1)):
        for k in range(count):
            f = basis.representative(parity, k)
            assert f.is_closed()
            coords = basis.class_coordinates(f)
            assert [c.is_zero() for c in coords].count(False) == 1
            assert not coords[k].is_zero()


def test_class_coordinates_kill_coboundaries():
    E = xn_fac(4, 2)
    _, _, basis = hom_cohomology(E, E)
    h = vector_to_morphism(E, E, 1, [R1.parse("x"), R1.parse("x^2 - 2")])
    db = h.differential()
    coords = basis.class_coordinates(db)
    assert all(c.is_zero() for c in coords)


def test_class_coordinates_reject_a_morphism_of_other_ends():
    # E and G factor the same potential x^3 + x y^2 the other way round
    E = koszul([R2.parse("x")], [R2.parse("x^2 + y^2")])
    G = koszul([R2.parse("x^2 + y^2")], [R2.parse("x")])
    basis = hom_cohomology(E, E)[2]
    with pytest.raises(ValueError, match="endpoints do not match"):
        basis.class_coordinates(identity_morphism(G))
    assert basis.class_coordinates(identity_morphism(E)) == (1, 0)


@pytest.mark.parametrize("nonzero", [False, True])
def test_empty_kernel(nonzero):
    # the kernel of an injective map of R^2, taken as the cocycles of the
    # two-dimensional even Hom space of xn_fac(2, 1): only 0 lies in it
    E = xn_fac(2, 1)
    kernel, _image = module_kernel(identity_matrix(R1, 2), 2, 2, R1)
    assert kernel.generators == ()
    image = module_gb([(R1.parse("x") if nonzero else R1.zero(), R1.zero())], 2, R1)
    f = identity_morphism(E) if nonzero else zero_morphism(E, E, 0)
    if nonzero:
        with pytest.raises(ValueError, match="outside the kernel"):
            subquotient_basis(kernel, image)
        image = module_gb([], 2, R1)
    basis = subquotient_basis(kernel, image)
    assert (len(basis), basis.generators) == (0, ())
    co = ParityCohomology(0, kernel, image, basis)
    basis = CohomologyBasis(E, E, co, co)
    if nonzero:
        with pytest.raises(ValueError, match="not a cocycle"):
            basis.class_coordinates(f)
    else:
        assert basis.class_coordinates(f) == ()


def test_cardy_lhs_identity_is_euler():
    E = koszul([R2.parse("x")], [R2.parse("x^2 + y^2")])
    got = cardy_lhs(E, E, identity_morphism(E), identity_morphism(E))
    assert got == rational(2)


def test_cardy_lhs_middle_generator():
    for n in (2, 4, 6):
        i = n // 2
        E = xn_fac(n, i)
        a = odd_generator(E, n, i)
        assert cardy_lhs(E, E, a, a) == rational(n)


def test_cardy_lhs_nilpotent_cross_terms():
    n = 6
    for i, j in ((3, 4), (4, 5), (3, 5)):
        Ei, Ej = xn_fac(n, i), xn_fac(n, j)
        a = odd_generator(Ei, n, i)
        b = odd_generator(Ej, n, j)
        assert cardy_lhs(Ei, Ej, a, b) == rational(0)


def test_cardy_identity_small_battery():
    A1 = build_milnor(R1.parse("x^4"))
    E = xn_fac(4, 2)
    a = odd_generator(E, 4, 2)
    assert cardy_lhs(E, E, a, a) == cardy_rhs(E, E, a, a, A1)
    A2 = build_milnor(R2.parse("x^3 + x*y^2"))
    D = koszul([R2.parse("x")], [R2.parse("x^2 + y^2")])
    i = identity_morphism(D)
    assert cardy_lhs(D, D, i, i) == cardy_rhs(D, D, i, i, A2)


def test_cardy_rejects_non_closed():
    E = xn_fac(4, 2)
    bad = vector_to_morphism(E, E, 0, [R1.parse("x"), R1.zero()])
    with pytest.raises(ValueError, match="closed"):
        cardy_lhs(E, E, bad, bad)


def test_hom_potential_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        hom_cohomology(xn_fac(4, 1), xn_fac(6, 1))


def test_euler_matches_chi_on_pairs():
    A = build_milnor(R2.parse("x^3 + y^3"))
    E = koszul([R2.parse("x"), R2.parse("y")], [R2.parse("x^2"), R2.parse("y^2")])
    F = koszul([R2.parse("x^2"), R2.parse("y")], [R2.parse("x"), R2.parse("y^2")])
    assert euler(E, E) == chi_hrr(E, E, A)
    assert euler(E, F) == chi_hrr(E, F, A)
    assert euler(F, F) == chi_hrr(F, F, A)


def test_refusals_raise_under_optimize():
    # each refusal of the subquotient route is a raise, not an assert that
    # python -O strips: an image generator outside the kernel, an infinite
    # quotient, and the class coordinates of a morphism that is not closed
    code = (
        "from mfinv.groebner import module_gb, subquotient_basis\n"
        "from mfinv.homology import hom_cohomology\n"
        "from mfinv.mfcore import koszul, vector_to_morphism\n"
        "from mfinv.poly import PolyRing\n"
        "R = PolyRing(('x', 'y'))\n"
        "x, one = R.var(0), R.one()\n"
        "E = koszul([x], [x**2 + R.var(1)**2])\n"
        "basis = hom_cohomology(E, E)[2]\n"
        "cases = [lambda: subquotient_basis(module_gb([(x,)], 1, R), module_gb([(one,)], 1, R)),\n"
        "         lambda: subquotient_basis(module_gb([(one,)], 1, R), module_gb([(x,)], 1, R)),\n"
        "         lambda: basis.class_coordinates(vector_to_morphism(E, E, 0, [x, 0 * x]))]\n"
        "for case in cases:\n"
        "    try:\n"
        "        case()\n"
        "    except ValueError as exc:\n"
        "        print('raised:', exc)\n"
    )
    src = str(pathlib.Path(mfinv.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.splitlines() == [
        "raised: image generators outside the kernel submodule",
        "raised: subquotient is infinite-dimensional",
        "raised: morphism is not a cocycle",
    ]
