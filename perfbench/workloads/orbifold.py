"""`orbifold`: equivariant invariants over the cyclotomic fields Q(zeta_m).

The only workload where `scalar` runs in cyclotomic mode and `equivariant`
does real work.  For Z/m acting on x^m (m = 5, 7, 12) it runs the
equivariant index, the invariant Hom dimensions and the equivariant Chern
character on pinned factorizations K(x^i; x^(m-i)), twisted by a seeded
character; for Z/3 x Z/4 acting on x^3 + y^4 it runs the equivariant
stabilization, its sector characters and the orbifold Hochschild
dimensions.
"""
from __future__ import annotations

import cmath
import random

from . import (
    Op,
    Workload,
    chi_pinned,
    close_to,
    cyclotomic_value,
    expect,
    invariant_dims_pinned,
    invariant_monomial_dims,
)

ORDERS = (5, 7, 12)
PRODUCT = ("x^3 + y^4", (3, 4), 12, ((4, 0), (0, 3)))  # w, exponents, m, generators


def _slopes(m: int):
    """The slopes i of the pinned factorizations: the ends and the middle,
    fixed so that every seed does the same amount of work."""
    return (1, m // 2, m - 1)


def setup(seed: int, work, traced: bool) -> Workload:
    # timed calls go through the module object, so that the wrappers a
    # traced run installs on it see every call
    import mfinv.equivariant as equivariant
    from mfinv.equivariant import close_group
    from mfinv.mfcore import EquivariantMF, koszul
    from mfinv.poly import PolyRing
    from mfinv.scalar import CyclotomicContext, one, zero

    rng = random.Random(seed)
    ops = []
    for m in ORDERS:
        ctx = CyclotomicContext(m)
        ring = PolyRing(("x",), ctx)
        G = close_group(1, [(ctx.zeta(),)], ctx)
        x = ring.var(0)

        def pinned(i, a, ctx=ctx, x=x, m=m):
            E = koszul([x**i], [x ** (m - i)])
            rho = ((ctx.zeta(a + i), zero(ctx)), (zero(ctx), ctx.zeta(a)))
            return EquivariantMF(E, (rho,))

        for i in _slopes(m):
            a = rng.randrange(m)
            E0, EG = pinned(i, 0), pinned(i, a)
            # the twist a is seeded, so it stays out of the operation's name
            label = "m=%d i=%d" % (m, i)
            want_chi = chi_pinned(m, i, a)
            want_dims = invariant_dims_pinned(m, i, a)

            def check_chi(out, want=want_chi, label=label):
                expect(out == want, "chi_equivariant %s: %s, want %d" % (label, out, want))

            def check_dims(out, want=want_dims, label=label, chi=want_chi):
                expect(tuple(out) == want, "invariant dims %s: %s, want %s" % (label, out, want))
                expect(out[0] - out[1] == chi, "invariant dims %s: d0 - d1 = %d, chi %d"
                       % (label, out[0] - out[1], chi))

            # ch(E_G)_g for g = zeta^k: zero at the identity, otherwise the
            # constant zeta^(a k) (zeta^(k i) - 1)
            def check_chern(out, G=G, m=m, i=i, a=a, label=label):
                expect(len(out) == m, "chern %s: %d sectors" % (label, len(out)))
                for g, cls in zip(G.elements, out):
                    k = round(cmath.phase(cyclotomic_value(g[0].coeffs, m)) * m / (2 * cmath.pi)) % m
                    if k == 0:
                        expect(cls.value.is_zero(), "chern %s: identity sector %s" % (label, cls.value))
                        continue
                    expect(cls.value.is_constant(), "chern %s: g=z^%d not constant" % (label, k))
                    z = cmath.exp(2j * cmath.pi / m)
                    want = z ** (a * k) * (z ** (k * i) - 1)
                    got = cyclotomic_value(cls.value.constant_coeff().coeffs, m)
                    expect(close_to(got, want), "chern %s: g=z^%d gives %s" % (label, k, got))

            ops.append(Op("chi_equivariant " + label,
                          lambda E0=E0, EG=EG, G=G: equivariant.chi_equivariant(E0, EG, G),
                          check_chi))
            ops.append(Op("invariant_hom_dimensions " + label,
                          lambda E0=E0, EG=EG, G=G: equivariant.invariant_hom_dimensions(E0, EG, G),
                          check_dims))
            ops.append(Op("chern_equivariant " + label,
                          lambda EG=EG, G=G: [equivariant.chern_equivariant(EG, G, g)
                                              for g in G.elements],
                          check_chern))

    # Z/3 x Z/4 on x^3 + y^4 over Q(zeta_12)
    text, exponents, m, gens = PRODUCT
    ctx = CyclotomicContext(m)
    ring = PolyRing(("x", "y"), ctx)
    w = ring.parse(text)
    G = close_group(2, [tuple(ctx.zeta(k) if k else one(ctx) for k in g) for g in gens], ctx)
    want_hh = invariant_monomial_dims(exponents, gens, m)
    box = {}

    def run_stabilization():
        box["K"] = equivariant.equivariant_stabilization(w, G)
        return box["K"]

    def check_stabilization(K):
        expect(K.base.rank == 4 and len(K.action) == len(gens),
               "stabilization: rank %d, %d action matrices" % (K.base.rank, len(K.action)))

    # k^st sector classes: det(1 - g) on the moving directions when g fixes
    # no variable, zero otherwise
    def check_kst(cls, g):
        vals = [cyclotomic_value(lam.coeffs, m) for lam in g]
        if any(close_to(v, 1) for v in vals):
            expect(cls.value.is_zero(), "k^st class at %s: %s, want 0" % (g, cls.value))
            return
        want = 1
        for v in vals:
            want *= 1 - v
        got = cyclotomic_value(cls.value.constant_coeff().coeffs, m)
        expect(cls.value.is_constant() and close_to(got, want),
               "k^st class at %s: %s, want det(1 - g) = %s" % (g, got, want))

    # one sector class per operation, for the first element of G that fixes
    # x only, y only, and neither (a class takes about 0.1 s; the whole
    # sweep over the 12 elements would be one long operation)
    def fixed(g):
        return tuple(close_to(cyclotomic_value(lam.coeffs, m), 1) for lam in g)

    samples = {}
    for g in G.elements:
        samples.setdefault(fixed(g), g)

    def check_hh(out, want=want_hh):
        sectors, even, odd = out
        got = (sorted((p, d) for _g, p, d in sectors), even, odd)
        expect(got == want, "orbifold HH: %s, want %s" % (got, want))

    ops.append(Op("equivariant_stabilization " + text, run_stabilization, check_stabilization))
    for key, label in (((True, False), "fixing x"), ((False, True), "fixing y"),
                       ((False, False), "fixing nothing")):
        g = samples[key]
        ops.append(Op("chern_equivariant k^st %s, g %s" % (text, label),
                      lambda g=g: equivariant.chern_equivariant(box["K"], G, g),
                      lambda cls, g=g: check_kst(cls, g)))
    ops.append(Op("orbifold_hh_dimensions " + text,
                  lambda: equivariant.orbifold_hh_dimensions(w, G), check_hh))
    return Workload(ops)
