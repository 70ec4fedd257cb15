"""`hom`: Hom cohomology, Euler numbers and Cardy traces through the library.

Module Groebner bases do most of the work here.  The pass holds seeded
sheared Koszul pairs over the 2-variable battery and one rank-4 pair over
the 3-variable Fermat cubic, and Koszul tensor products of 1-variable
factorizations, whose Hom dimensions follow from Kuenneth.  Every
operation takes well under a second, so that a run repeats each one many
times.
"""
from __future__ import annotations

import random

from . import Op, Workload, expect

# (potential, variables, Koszul a, Koszul b) for the sheared pairs
BATTERY = (
    ("x^3 + y^3", ("x", "y"), ["x", "y"], ["x^2", "y^2"]),
    ("x^4 + y^4", ("x", "y"), ["x", "y"], ["x^3", "y^3"]),
    ("x^3 + y^4", ("x", "y"), ["x", "y"], ["x^2", "y^3"]),
    ("x^2*y + y^3", ("x", "y"), ["x", "y"], ["x*y", "y^2"]),
    ("x^2*y + y^4", ("x", "y"), ["x", "y"], ["x*y", "y^3"]),
    ("x^3 + x*y^2", ("x", "y"), ["x"], ["x^2 + y^2"]),
    ("x^3 + y^3 + z^3", ("x", "y", "z"), ["x", "y + z"], ["x^2", "y^2 - y*z + z^2"]),
)
KUENNETH_EXPONENTS = (4, 5)  # w = x^4 + y^5
KUENNETH_SLOPES = ((1, 2, 2, 2), (2, 3, 3, 1))  # (i, j | k, l)


SHEAR_COEFFS = (-2, -1, 1, 2)


def shear(ring, a, b, c):
    """(a_1, b_0) <- (a_1 + p a_0, b_0 - p b_1) with p = c x_n: the same
    potential and an isomorphic factorization.  The shape is fixed and only
    the coefficient c comes from the seed, so that every seed does about
    the same amount of work."""
    a, b = list(a), list(b)
    if len(a) < 2:
        return a, b
    p = ring.var(ring.n - 1) * c
    a[1] = a[1] + p * a[0]
    b[0] = b[0] - p * b[1]
    return a, b


def setup(seed: int, work, traced: bool) -> Workload:
    # timed calls go through the module objects, so that the wrappers a
    # traced run installs on them see every call
    import mfinv.homology as homology
    from mfinv.invariants import cardy_rhs, chi_hrr
    from mfinv.milnor import build_milnor
    from mfinv.mfcore import identity_morphism, koszul
    from mfinv.poly import PolyRing

    rng = random.Random(seed)
    ops = []

    # sheared pairs: h0 - h1, euler and the Cardy trace against the index
    # pairing of the characters
    for text, names, a_txt, b_txt in BATTERY:
        R = PolyRing(names)
        w = R.parse(text)
        A = build_milnor(w)
        a0 = [R.parse(t) for t in a_txt]
        b0 = [R.parse(t) for t in b_txt]
        # opposite coefficients: E and F always differ, and Hom between
        # equal factorizations is cheaper than between distinct ones
        c = rng.choice(SHEAR_COEFFS)
        E = koszul(*shear(R, a0, b0, c))
        F = koszul(*shear(R, a0, b0, -c))
        idE, idF = identity_morphism(E), identity_morphism(F)

        def check_hom(out, E=E, F=F, A=A, text=text):
            h0, h1 = out[0], out[1]
            chi = chi_hrr(E, F, A)
            expect(chi == h0 - h1, "%s: h0 - h1 = %d, chi_hrr = %s" % (text, h0 - h1, chi))

        def check_euler(out, E=E, F=F, A=A, text=text):
            chi = chi_hrr(E, F, A)
            expect(chi == out, "%s: euler %d, chi_hrr %s" % (text, out, chi))

        def check_cardy(out, E=E, F=F, A=A, text=text, idE=idE, idF=idF):
            rhs = cardy_rhs(E, F, idE, idF, A)
            expect(out == rhs, "%s: cardy lhs %s, rhs %s" % (text, out, rhs))

        ops.append(Op("hom " + text, lambda E=E, F=F: homology.hom_cohomology(E, F), check_hom))
        ops.append(Op("euler " + text, lambda E=E, F=F: homology.euler(E, F), check_euler))
        ops.append(Op(
            "cardy " + text,
            lambda E=E, F=F, idE=idE, idF=idF: homology.cardy_lhs(E, F, idE, idF),
            check_cardy,
        ))

    # Kuenneth: K(x^i; x^(p-i)) (x) K(y^j; y^(q-j)) against another such
    # product; each 1-variable factor contributes (m, m) with
    # m = min(i, k, p - i, p - k), and the super tensor product gives
    # (2 m1 m2, 2 m1 m2).  A sheared copy of F is isomorphic to it.
    p, q = KUENNETH_EXPONENTS
    R2 = PolyRing(("x", "y"))
    x, y = R2.var(0), R2.var(1)
    for i, j, k, l in KUENNETH_SLOPES:
        E = koszul([x**i, y**j], [x ** (p - i), y ** (q - j)])
        F = koszul(*shear(R2, [x**k, y**l], [x ** (p - k), y ** (q - l)],
                             rng.choice(SHEAR_COEFFS)))
        m1 = min(i, k, p - i, p - k)
        m2 = min(j, l, q - j, q - l)

        def check_kuenneth(out, want=(2 * m1 * m2, 2 * m1 * m2), label=(i, j, k, l)):
            expect(tuple(out[:2]) == want, "Kuenneth %s: %s, want %s" % (label, out[:2], want))

        ops.append(Op(
            "hom kuenneth x^%d+y^%d (%d,%d | %d,%d)" % (p, q, i, j, k, l),
            lambda E=E, F=F: homology.hom_cohomology(E, F),
            check_kuenneth,
        ))
    return Workload(ops)
