"""`residue`: Milnor algebras, residue pairings and the diagonal oracle.

High-mu rational potentials load `milnor`, `invariants`, `oracle` and
rational `scalar` arithmetic; nothing here calls a module Groebner basis,
so a Hom optimisation should leave this workload unchanged.  The seed
shears the Koszul data of the stabilized residue field k^st.
"""
from __future__ import annotations

import random
from fractions import Fraction

from . import Op, Workload, brieskorn_pham_gram, expect
from .hom import SHEAR_COEFFS, shear

# (potential, variables, Brieskorn-Pham exponents or None, weights q_i);
# mu is 59, 56, 60 and 15, and every operation stays within about a third
# of a second, so that a run repeats each one several times
POTENTIALS = (
    ("x^60", ("x",), (60,), None),
    ("x^9 + y^8", ("x", "y"), (9, 8), None),
    ("x^4 + y^5 + z^6", ("x", "y", "z"), (4, 5, 6), None),
    ("x^3*y + y^7", ("x", "y"), None, (Fraction(2, 7), Fraction(1, 7))),
)
# the diagonal oracle where it stays that short; inverse_form_check
# multiplies mu x mu matrices, so it gets smaller mu
ORACLE = ("x^9 + y^8", "x^3*y + y^7")
DIAGONAL = (
    ("x^9 + y^8", ("x", "y")),
    ("x^3*y + y^5 + z^3", ("x", "y", "z")),
    ("x^4 + y^5 + z^6", ("x", "y", "z")),
    ("x^3 + y^3 + z^3", ("x", "y", "z")),
)
INVERSE_FORM = (
    ("x^6 + y^5", ("x", "y")),
    ("x^4 + y^4 + z^4", ("x", "y", "z")),
    ("x^4 + y^5 + z^3", ("x", "y", "z")),
    ("x^3*y + y^5 + z^3", ("x", "y", "z")),
)


def milnor_number(exponents, weights) -> int:
    """prod(a_i - 1), or prod(1/q_i - 1) (Milnor-Orlik)."""
    if exponents is not None:
        mu = 1
        for a in exponents:
            mu *= a - 1
        return mu
    mu = Fraction(1)
    for q in weights:
        mu *= 1 / q - 1
    return int(mu)


def setup(seed: int, work, traced: bool) -> Workload:
    # timed calls go through the module objects, so that the wrappers a
    # traced run installs on them see every call
    import mfinv.invariants as invariants
    import mfinv.milnor as milnor
    import mfinv.oracle as oracle
    from mfinv.milnor import build_milnor, hessian_class
    from mfinv.mfcore import (
        clifford_generators,
        greedy_decomposition,
        identity_morphism,
        koszul,
    )
    from mfinv.poly import PolyRing

    rng = random.Random(seed)
    ops = []
    for text, names, exponents, weights in POTENTIALS:
        R = PolyRing(names)
        w = R.parse(text)
        n = R.n
        mu = milnor_number(exponents, weights)
        # build once in set-up so that the other operations have a ring;
        # the timed build_milnor below rebuilds it from scratch
        A = build_milnor(w)
        a0 = greedy_decomposition(w)
        b0 = [R.var(i) for i in range(n)]
        kst = koszul(*shear(R, a0, b0, rng.choice(SHEAR_COEFFS)))
        kst_plain, alphas = clifford_generators(w)
        top = alphas[0]
        for alpha in alphas[1:]:
            top = top.compose(alpha)
        hess = hessian_class(A)
        target = hess.scale(Fraction((-1) ** n, mu))

        # The Milnor ring with its Hessian trace, and the k^st classes: each
        # call takes a few milliseconds, and alone they would fill the lower
        # half of the operations, putting op_p50_s in the gap above them.
        def run_milnor(w=w, kst=kst, plain=kst_plain, top=top, A=A):
            ring = milnor.build_milnor(w)
            trace = milnor.residue_trace(milnor.hessian_class(ring))
            return ring, trace, invariants.chern(kst, A), invariants.tau(plain, top, A)

        def check_zero(out, text=text):
            expect(out.is_zero(), "%s: class %s, want 0" % (text, out))

        def check_top(out, target=target, text=text):
            expect(out.value == target.value,
                   "%s: tau(top) = %s, want %s" % (text, out, target))

        def check_milnor(out, mu=mu, text=text, check_zero=check_zero, check_top=check_top):
            ring, trace, ch, t = out
            expect(ring.mu == mu, "%s: mu %d, want %d" % (text, ring.mu, mu))
            expect(trace == mu, "%s: tr(Hessian) %s, want %d" % (text, trace, mu))
            check_zero(ch)
            check_top(t)

        ops.append(Op("milnor, hessian trace, k^st classes " + text, run_milnor, check_milnor))

        def check_gram(G, A=A, mu=mu, exponents=exponents, weights=weights, text=text):
            expect(len(G) == mu, "%s: gram has %d rows" % (text, len(G)))
            if exponents is not None:
                form = brieskorn_pham_gram(exponents)
                for r, ma in enumerate(A.basis):
                    for c, mb in enumerate(A.basis):
                        on = tuple(p + q for p, q in zip(ma, mb)) == form["socle"]
                        want = form["value"] if on else 0
                        expect(G[r][c] == want, "%s: gram[%d][%d] = %s, want %s"
                               % (text, r, c, G[r][c], want))
            else:
                # the trace is weighted-homogeneous of degree
                # sum(1 - 2 q_i): off that degree every entry vanishes
                socle = sum(1 - 2 * q for q in weights)
                for r, ma in enumerate(A.basis):
                    for c, mb in enumerate(A.basis):
                        deg = sum(q * (p + s) for q, p, s in zip(weights, ma, mb))
                        expect(G[r][c] == G[c][r], "%s: gram not symmetric" % text)
                        if deg != socle:
                            expect(G[r][c] == 0, "%s: gram[%d][%d] off the socle degree"
                                   % (text, r, c))

        ops.append(Op("gram_matrix " + text, lambda A=A: milnor.gram_matrix(A), check_gram))

        if text in ORACLE:
            ops.append(Op(
                "oracle_tau k^st id " + text,
                lambda kst=kst, ident=identity_morphism(kst), A=A: oracle.oracle_tau(kst, ident, A),
                check_zero,
            ))
            ops.append(Op(
                "oracle_tau k^st top " + text,
                lambda kst=kst_plain, top=top, A=A: oracle.oracle_tau(kst, top, A),
                check_top,
            ))

    for text, names in DIAGONAL:
        w = PolyRing(names).parse(text)

        def check_diag(out, text=text):
            expect(out.agree, "%s: diagonal character %s vs determinant %s"
                   % (text, out.direct, out.determinant))

        ops.append(Op("chern_of_diagonal " + text, lambda w=w: oracle.chern_of_diagonal(w),
                      check_diag))

    for text, names in INVERSE_FORM:
        w = PolyRing(names).parse(text)

        def check_true(out, text=text):
            expect(out is True, "%s: inverse_form_check returned %r" % (text, out))

        ops.append(Op("inverse_form_check " + text, lambda w=w: oracle.inverse_form_check(w),
                      check_true))
    return Workload(ops)
