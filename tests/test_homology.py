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
    hom_dimensions,
    koszul_hom_dimensions,
)
from mfinv.invariants import cardy_rhs, chi_hrr
from mfinv.mfcore import (
    MatFac,
    MorphismCocycle,
    identity_matrix,
    identity_morphism,
    koszul,
    vector_to_morphism,
)
from mfinv.milnor import build_milnor
from mfinv.poly import PolyRing
from mfinv.scalar import rational
from mf_ops import shift
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
    kernel, _image = module_kernel(identity_matrix(R1, 2), 2, R1)
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


# --- Koszul reduction --------------------------------------------------------

R3 = PolyRing(("x", "y", "z"))
FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "sessions"


def _refused_sources():
    """(source, target) pairs whose source `koszul_hom_dimensions` refuses."""
    x, y = R2.var(0), R2.var(1)
    # d4's E: one element in two variables
    d4 = koszul([x], [x**2 + y**2])
    # the 3-variable pair of the Fermat cubic with two elements
    a, b = ["x", "y + z"], ["x^2", "y^2 - y*z + z^2"]
    cubic = koszul([R3.parse(t) for t in a], [R3.parse(t) for t in b])
    # two elements in two variables, but R/(x, x y) = R/(x) is infinite
    line = koszul([x, x * y], [x**2, y**2])
    # rank 4 over x^3 + y^3 and isomorphic to K(x, y; x^2, y^2), but with
    # the sign of the basis vector e_0 e_1 flipped: delta is not Koszul
    E = koszul([x, y], [x**2, y**2])
    sign = [1, -1, 1, 1]
    delta = tuple(
        tuple(e * (sign[i] * sign[j]) for j, e in enumerate(row)) for i, row in enumerate(E.delta)
    )
    flipped = MatFac(R2, E.w, delta, 2)
    flipped.validate()
    assert flipped.delta != E.delta
    return [(d4, d4), (cubic, cubic), (line, line), (flipped, E)]


def test_koszul_hom_dimensions_refuses_and_hom_dimensions_falls_back():
    for E, F in _refused_sources():
        assert koszul_hom_dimensions(E, F) is None
        h0, h1, _ = hom_cohomology(E, F)
        assert hom_dimensions(E, F) == (h0, h1)
        assert euler(E, F) == h0 - h1


def test_koszul_hom_dimensions_matches_groebner_in_one_variable():
    # every ordered pair of K(x^i; x^(m - i)) for x^6 and x^7 over Q and
    # x^5 over Q(zeta_5); each such Hom has min(i, j, m - i, m - j) classes
    # in each parity
    from mfinv.scalar import CyclotomicContext

    count = 0
    for m, ring in ((6, R1), (7, R1), (5, PolyRing(("x",), CyclotomicContext(5)))):
        x = ring.var(0)
        facs = [koszul([x**i], [x ** (m - i)]) for i in range(1, m)]
        for i, E in enumerate(facs, 1):
            for j, F in enumerate(facs, 1):
                h = min(i, j, m - i, m - j)
                assert koszul_hom_dimensions(E, F) == hom_cohomology(E, F)[:2] == (h, h)
                count += 1
    assert count == 25 + 36 + 16


def test_koszul_hom_potential_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        koszul_hom_dimensions(xn_fac(4, 1), xn_fac(6, 1))


class _KernelReached(Exception):
    pass


def test_dimensions_of_a_qualifying_source_never_reach_module_kernel(monkeypatch, capsys):
    import mfinv.homology
    from mfinv.cli import load_session, main

    def refused(*args):
        raise _KernelReached

    monkeypatch.setattr(mfinv.homology, "module_kernel", refused)
    path = str(FIXTURES / "d4.json")
    facs = load_session(path).factorizations
    # d4's F = K(x, y; x^2, x y) qualifies; E = K(x; x^2 + y^2) does not
    for b in ("E", "F"):
        euler(facs["F"], facs[b])
        assert main(["--input", path, "hom", "F", b]) == 0
        with pytest.raises(_KernelReached):
            euler(facs["E"], facs[b])
        with pytest.raises(_KernelReached):
            main(["--input", path, "hom", "E", b])
    assert capsys.readouterr().out == "h0: 1\nh1: 1\nh0: 2\nh1: 2\n"


def test_koszul_refusal_under_optimize():
    # the qualification is explicit branches, not asserts that python -O strips
    code = (
        "from mfinv.homology import koszul_hom_dimensions\n"
        "from mfinv.mfcore import koszul\n"
        "from mfinv.poly import PolyRing\n"
        "R = PolyRing(('x', 'y'))\n"
        "x, y = R.var(0), R.var(1)\n"
        "E = koszul([x], [x**2 + y**2])\n"
        "L = koszul([x, x * y], [x**2, y**2])\n"
        "K = koszul([x, y], [x**2, y**2])\n"
        "print(*(koszul_hom_dimensions(G, G) for G in (E, L, K)))\n"
    )
    src = str(pathlib.Path(mfinv.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout == "None None (2, 2)\n"
