"""Diagonal symmetry: sectors, equivariant characters, orbifold sums."""
import copy
import pickle
import random
from fractions import Fraction
from itertools import combinations

import pytest

from mfinv.equivariant import (
    _fixed_product,
    _restrict,
    c_weight,
    check_invariance,
    chern_equivariant,
    chi_equivariant,
    close_group,
    equivariant_actions,
    equivariant_stabilization,
    graded_chi,
    graded_exponents,
    graded_to_equivariant,
    invariant_hom_dimensions,
    orbifold_hh_dimensions,
    restrict_to_sector,
    sector,
    sectors,
    substitute_action,
    validate_equivariant,
)
from mfinv.homology import hom_cohomology
from mfinv.invariants import chi_hrr, supertrace
from mfinv.mfcore import (
    EquivariantMF,
    MorphismCocycle,
    identity_morphism,
    koszul,
    mat_map,
    mat_mul,
)
from mfinv.milnor import build_milnor
from mfinv.poly import PolyRing
from mfinv.scalar import CyclotomicContext, one, rational, zero
from mf_ops import equivariant_dual, tau_equivariant, twist
from tuple_route import polynomial, terms
import matrix_route


def cyclic_ring(n):
    ctx = CyclotomicContext(n)
    return PolyRing(("x",), ctx), ctx


def power_mf(ring, i, n):
    x = ring.var(0)
    return koszul([x ** i], [x ** (n - i)])


def pinned_equivariant(ring, ctx, i, n, a=0):
    """rho_a (x) E_i for x^n with the cyclic group of order n."""
    E = power_mf(ring, i, n)
    z = ctx.zeta
    zz = zero(ctx)
    rho = ((z(a + i), zz), (zz, z(a)))
    return EquivariantMF(E, (rho,))


def graded_element(S, m: int) -> tuple:
    """The diagonal tuple through which [m] of the grading group S scales
    the variables."""
    return tuple(S.roots[(m * a) % S.order] for a in S.weights)


def cyclic_group(ring, ctx, n):
    return close_group(1, [(ctx.zeta(),)], ctx)


def test_close_group_cyclic():
    ring, ctx = cyclic_ring(4)
    G = cyclic_group(ring, ctx, 4)
    assert G.order == 4
    assert G.elements[0] == (one(ctx),)
    g = (ctx.zeta(),)
    assert G.inverse(g) == (ctx.zeta(3),)
    with pytest.raises(ValueError, match="not in the enumerated group"):
        G.index((ctx.zeta() + one(ctx),))


def test_close_group_klein():
    m1 = -one()
    p1 = one()
    G = close_group(2, [(m1, p1), (p1, m1)])
    assert G.order == 4
    assert (m1, m1) in G.elements


def test_close_group_rejects_non_roots():
    with pytest.raises(ValueError, match="root of unity"):
        close_group(1, [(rational(2),)])
    ring, ctx = cyclic_ring(4)
    with pytest.raises(ValueError, match="root of unity"):
        close_group(1, [(ctx.zeta() + one(ctx),)], ctx)


def test_close_group_bound():
    # Z/16 x Z/16 has 256 elements, above MAX_CONDUCTOR
    ctx = CyclotomicContext(16)
    with pytest.raises(ValueError, match="exceeds the bound 64"):
        close_group(2, [(ctx.zeta(), one(ctx)), (one(ctx), ctx.zeta())], ctx)


def test_invariance_check():
    R = PolyRing(("x", "y"))
    w = R.parse("x^3 + x*y^2")
    G = close_group(2, [(one(), -one())])
    check_invariance(w, G)
    H = close_group(2, [(-one(), one())])
    with pytest.raises(ValueError, match="not invariant"):
        check_invariance(w, H)


def test_sector_fixed_locus():
    R = PolyRing(("x", "y"))
    w = R.parse("x^3 + x*y^2")
    g = (one(), -one())
    sec = sector(w, g)
    assert sec.fixed_indices == (0,)
    assert sec.milnor.mu == 2
    assert str(sec.w_g) == "x^3"
    idsec = sector(w, (one(), one()))
    assert idsec.milnor.mu == 4


def test_sector_no_fixed_variables():
    ring, ctx = cyclic_ring(3)
    w = ring.var(0) ** 3
    sec = sector(w, (ctx.zeta(),))
    assert sec.fixed_indices == ()
    assert sec.milnor.mu == 1
    assert sec.milnor.basis == ((),)


def test_action_extension_and_relations():
    ring, ctx = cyclic_ring(4)
    E = pinned_equivariant(ring, ctx, 1, 4)
    G = cyclic_group(ring, ctx, 4)
    actions = equivariant_actions(E, G)
    assert len(actions) == 4
    z = ctx.zeta
    assert actions[(z(1),)][0][0] == z(1)
    assert actions[(z(3),)][0][0] == z(3)
    assert validate_equivariant(E, G) == actions


def test_action_relation_violation():
    ctx = CyclotomicContext(4)
    ring = PolyRing(("x",), ctx)
    E = power_mf(ring, 1, 2)
    # order-2 group, but the action matrix has order 4
    G = close_group(1, [(-one(ctx),)], ctx)
    zz = zero(ctx)
    bad = EquivariantMF(E, (((ctx.zeta(), zz), (zz, one(ctx))),))
    with pytest.raises(ValueError, match="group relations"):
        equivariant_actions(bad, G)


def test_validate_rejects_wrong_action():
    ring, ctx = cyclic_ring(4)
    E = power_mf(ring, 1, 4)
    z = ctx.zeta
    zz = zero(ctx)
    # swapped diagonal does not intertwine delta
    bad = EquivariantMF(E, (((z(0), zz), (zz, z(1))),))
    G = cyclic_group(ring, ctx, 4)
    with pytest.raises(ValueError, match="not equivariant"):
        validate_equivariant(bad, G)


def test_pinned_characters_match_closed_form():
    for n in (3, 4, 5):
        ring, ctx = cyclic_ring(n)
        G = cyclic_group(ring, ctx, n)
        z = ctx.zeta
        for i in range(1, n):
            for a in range(n):
                E = pinned_equivariant(ring, ctx, i, n, a)
                for m in range(n):
                    g = (z(m),)
                    got = chern_equivariant(E, G, g)
                    want = z(a * m) * (z(m * i) - one(ctx))
                    assert got.value == got.ring.ring.const(want)


def test_c_weight_values():
    # each factor against (1 - lambda)^(-1) by the field inversion: every
    # power of zeta_m for m <= 24, primitive or not, and one seeded power
    # per m up to 64
    rng = random.Random(31)
    for m in range(1, 65):
        ctx = CyclotomicContext(m)
        roots = tuple(map(ctx.zeta, range(m)))
        assert c_weight((0,), roots) == one(ctx) == c_weight((m,), roots)
        for k in range(1, m) if m <= 24 else [rng.randrange(1, m)]:
            got = c_weight((k,), roots)
            assert got.context is ctx and got == _product_of_inverses([roots[k]]), (m, k)
            assert all(type(c) is int or c.denominator != 1 for c in got.coeffs)
    # two variables, one fixed coordinate or none, over all of Q(zeta_12)
    # and over its 4th roots of unity
    ctx = CyclotomicContext(12)
    for roots in (tuple(map(ctx.zeta, range(12))), tuple(ctx.zeta(3 * j) for j in range(4))):
        for k in ((5, 0), (0, 3), (2, 0), (3, 1)):
            got = c_weight(k, roots)
            assert got.context is ctx
            assert got == _product_of_inverses([roots[e % len(roots)] for e in k]), (roots, k)
    # the rational group {+-1}: the factor of -1 is 1/2
    roots = (rational(1), rational(-1))
    for k, want in (((0,), 1), ((1,), Fraction(1, 2)), ((0, 1), Fraction(1, 2)),
                    ((1, 1), Fraction(1, 4))):
        got = c_weight(k, roots)
        assert got.context is None and got.coeffs == (want,)
        assert got == _product_of_inverses([roots[e] for e in k])


def _product_of_inverses(g):
    total = rational(1)
    for lam in g:
        if lam != 1:
            total = total * (-lam + 1).inverse()
    return total


def chi_closed_form(n, i, d):
    """sum_(j=0..i-1) [d = -j] - sum_(j=1..i) [d = j] modulo n."""
    total = 0
    for j in range(i):
        if (d + j) % n == 0:
            total += 1
    for j in range(1, i + 1):
        if (d - j) % n == 0:
            total -= 1
    return total


def test_chi_equivariant_cyclic_battery():
    for n in (3, 4, 5):
        ring, ctx = cyclic_ring(n)
        G = cyclic_group(ring, ctx, n)
        for i in range(1, n):
            E = pinned_equivariant(ring, ctx, i, n, 0)
            for a in range(n):
                F = twist(E, [ctx.zeta(a)])
                got = chi_equivariant(E, F, G)
                assert got == chi_closed_form(n, i, a)


def test_invariant_hom_dimensions_cyclic():
    for n in (3, 4):
        ring, ctx = cyclic_ring(n)
        G = cyclic_group(ring, ctx, n)
        for i in range(1, n):
            m = min(i, n - i)
            E = pinned_equivariant(ring, ctx, i, n, 0)
            for a in range(n):
                F = twist(E, [ctx.zeta(a)])
                h0, h1 = invariant_hom_dimensions(E, F, G)
                want0 = sum(1 for j in range(m) if (a + j) % n == 0)
                want1 = sum(1 for j in range(1, m + 1) if (a - j) % n == 0)
                assert (h0, h1) == (want0, want1)
                assert (h0, h1) == _ref_invariant_hom_dimensions(E, F, G)
                assert h0 - h1 == chi_equivariant(E, F, G)


def test_invariant_dimensions_literal_small_twists():
    # for i <= n/2 the invariant parts are spanned by characters
    # 0..i-1 (even) and -1..-i (odd)
    n = 4
    ring, ctx = cyclic_ring(n)
    G = cyclic_group(ring, ctx, n)
    for i in (1, 2):
        E = pinned_equivariant(ring, ctx, i, n, 0)
        for a in range(n):
            F = twist(E, [ctx.zeta(a)])
            h0, h1 = invariant_hom_dimensions(E, F, G)
            assert h0 == sum(1 for j in range(i) if (a + j) % n == 0)
            assert h1 == sum(1 for j in range(1, i + 1) if (a - j) % n == 0)


def test_tau_equivariant_identity_is_chern():
    ring, ctx = cyclic_ring(4)
    G = cyclic_group(ring, ctx, 4)
    E = pinned_equivariant(ring, ctx, 2, 4)
    alpha = identity_morphism(E.base)
    for m in range(4):
        g = (ctx.zeta(m),)
        a = tau_equivariant(E, G, g, alpha)
        b = chern_equivariant(E, G, g)
        assert a.value == b.value and a.parity == b.parity


def test_tau_equivariant_rejects_another_factorization():
    ring, ctx = cyclic_ring(4)
    G = cyclic_group(ring, ctx, 4)
    E = pinned_equivariant(ring, ctx, 2, 4)
    other = power_mf(ring, 1, 4)
    with pytest.raises(ValueError, match="not an endomorphism"):
        tau_equivariant(E, G, (ctx.zeta(),), identity_morphism(other))


def test_tau_equivariant_rejects_non_invariant():
    ring, ctx = cyclic_ring(4)
    G = cyclic_group(ring, ctx, 4)
    E = pinned_equivariant(ring, ctx, 2, 4)
    x = ring.var(0)
    # multiplication by x is closed but not invariant (character 1)
    f = MorphismCocycle.from_blocks(
        E.base,
        E.base,
        0,
        (((x,),), ((x,),)),
    )
    assert f.is_closed()
    with pytest.raises(ValueError, match="not invariant"):
        tau_equivariant(E, G, (ctx.zeta(),), f)


def test_trivial_group_reduces_to_plain_chi():
    R = PolyRing(("x", "y"))
    w = R.parse("x^3 + x*y^2")
    E = koszul([R.var(0)], [R.parse("x^2 + y^2")])
    F = koszul([R.parse("x^2 + y^2")], [R.var(0)])
    G = close_group(2, [(one(), one())])
    assert G.order == 1
    EE = EquivariantMF(E, (_identity_action(E),))
    FF = EquivariantMF(F, (_identity_action(F),))
    A = build_milnor(w)
    assert chi_equivariant(EE, FF, G) == chi_hrr(E, F, A)


def _identity_action(E):
    o = one()
    z = zero()
    return tuple(
        tuple(o if i == j else z for j in range(E.rank)) for i in range(E.rank)
    )


def test_equivariant_dual_inverts_characters():
    for n in (3, 4):
        ring, ctx = cyclic_ring(n)
        G = cyclic_group(ring, ctx, n)
        for i in range(1, n):
            for a in (0, 1):
                E = pinned_equivariant(ring, ctx, i, n, a)
                D = equivariant_dual(E, G)
                validate_equivariant(D, G)
                for m in range(n):
                    g = (ctx.zeta(m),)
                    lhs = chern_equivariant(D, G, g)
                    rhs = chern_equivariant(E, G, G.inverse(g))
                    assert lhs.value == rhs.value
                    assert lhs.parity == rhs.parity


def test_equivariant_dual_rejects_a_non_equivariant_action():
    # K(x; x^2) over x^3 with rho = diag(1, zeta): the relations of Z/3
    # hold, but rho does not intertwine delta
    ring, ctx = cyclic_ring(3)
    G = cyclic_group(ring, ctx, 3)
    bad = EquivariantMF(power_mf(ring, 1, 3), (((one(ctx), zero(ctx)), (zero(ctx), ctx.zeta())),))
    with pytest.raises(ValueError, match="not equivariant"):
        equivariant_dual(bad, G)


def moving_determinant(G, g):
    """det(id - g) on the full variable space (used when nothing is fixed)."""
    total = one(G.context)
    for lam in g:
        total = total * (one(G.context) - lam)
    return total


def test_equivariant_stabilization_characters():
    # one variable: ch_g(k^st) = det(id - g) off the identity, 0 at it
    for n in (3, 4):
        ring, ctx = cyclic_ring(n)
        G = cyclic_group(ring, ctx, n)
        w = ring.var(0) ** n
        K = equivariant_stabilization(w, G)
        validate_equivariant(K, G)
        for m in range(n):
            g = (ctx.zeta(m),)
            cls = chern_equivariant(K, G, g)
            if m == 0:
                assert cls.is_zero()
            else:
                want = moving_determinant(G, g)
                assert cls.value == cls.ring.ring.const(want)


def test_equivariant_stabilization_two_variables():
    # the involution y -> -y fixes x, so its character vanishes
    R = PolyRing(("x", "y"))
    w = R.parse("x^3 + x*y^2")
    G = close_group(2, [(one(), -one())])
    K = equivariant_stabilization(w, G)
    validate_equivariant(K, G)
    g = (one(), -one())
    cls = chern_equivariant(K, G, g)
    assert cls.is_zero()
    ident = chern_equivariant(K, G, G.elements[0])
    assert ident.is_zero()


def test_orbifold_dimensions_cyclic_powers():
    for n in (3, 4, 5):
        ring, ctx = cyclic_ring(n)
        G = cyclic_group(ring, ctx, n)
        w = ring.var(0) ** n
        sectors, even, odd = orbifold_hh_dimensions(w, G)
        assert len(sectors) == n
        for g, parity, dim in sectors:
            if g == G.elements[0]:
                assert parity == 1 and dim == 0
            else:
                assert parity == 0 and dim == 1
        assert (even, odd) == (n - 1, 0)


def test_orbifold_dimensions_involution():
    R = PolyRing(("x", "y"))
    w = R.parse("x^3 + x*y^2")
    G = close_group(2, [(one(), -one())])
    sectors, even, odd = orbifold_hh_dimensions(w, G)
    assert len(sectors) == 2
    by_parity = {parity: dim for _, parity, dim in sectors}
    assert even == 1 and odd == 2


def test_orbifold_requires_invariance():
    R = PolyRing(("x", "y"))
    w = R.parse("x^3 + y^3")
    G = close_group(2, [(one(), -one())])
    with pytest.raises(ValueError, match="not invariant"):
        orbifold_hh_dimensions(w, G)


def test_graded_structure_even_degree():
    R = PolyRing(("x",))
    w = R.parse("x^4")
    S = graded_to_equivariant(w, (1,))
    assert not S.doubled
    assert S.ell == 2 and S.order == 4
    assert S.ring.context.order == 4


def test_graded_structure_doubles_odd_degree():
    R = PolyRing(("x",))
    w = R.parse("x^3")
    S = graded_to_equivariant(w, (1,))
    assert S.doubled
    assert S.weights == (2,)
    assert S.ell == 3 and S.order == 6


def test_graded_rejects_inhomogeneous():
    R = PolyRing(("x", "y"))
    w = R.parse("x^3 + y^2 + x*y^2")
    with pytest.raises(ValueError, match="quasi-homogeneous"):
        graded_to_equivariant(w, (2, 3))


@pytest.mark.parametrize("weights", [(1.5,), (Fraction(3, 2),), ("1",), (float("nan"),)])
def test_graded_rejects_non_integral_weights(weights):
    w = PolyRing(("x",)).parse("x^4")
    with pytest.raises(ValueError, match="weights must be integers"):
        graded_to_equivariant(w, weights)


def test_graded_accepts_integral_weight_types():
    w = PolyRing(("x",)).parse("x^4")
    for weights in ((2.0,), (Fraction(4, 2),)):
        S = graded_to_equivariant(w, weights)
        assert S.weights == (2,) and S.order == 8


def test_graded_chi_power_diagonal():
    # chi(E_i, E_i) = 1 for every slope of x^n, even and odd n
    for n in (3, 4):
        R = PolyRing(("x",))
        w = R.parse("x^%d" % n)
        S = graded_to_equivariant(w, (1,))
        x = S.ring.var(0)
        for i in range(1, n):
            E = koszul([x ** i], [x ** (n - i)])
            deg = ((0,), (S.ell - i * S.weights[0],))
            assert graded_chi(S, E, deg, E, deg) == 1


def test_graded_chi_rejects_bad_degrees():
    R = PolyRing(("x",))
    w = R.parse("x^4")
    S = graded_to_equivariant(w, (1,))
    x = S.ring.var(0)
    E = koszul([x], [x ** 3])
    with pytest.raises(ValueError, match="incompatible"):
        graded_chi(S, E, ((0,), (5,)), E, ((0,), (1,)))


def test_graded_chi_distinct_slopes_integral():
    R = PolyRing(("x",))
    w = R.parse("x^4")
    S = graded_to_equivariant(w, (1,))
    x = S.ring.var(0)
    E = koszul([x], [x ** 3])
    F = koszul([x ** 2], [x ** 2])
    val = graded_chi(S, E, ((0,), (1,)), F, ((0,), (0,)))
    assert val.is_rational_integer()


def test_graded_chi_equals_chi_equivariant_on_faithful_grading():
    # for x^4 with weight 1, [m] -> zeta_4^m is injective, so the abstract
    # grading group is the enumerated cyclic group and the two sums agree
    R = PolyRing(("x",))
    S = graded_to_equivariant(R.parse("x^4"), (1,))
    ctx = S.ring.context
    G = close_group(1, [graded_element(S, 1)], ctx)
    assert G.order == S.order
    x = S.ring.var(0)
    graded = []
    for i in range(1, 4):
        E = koszul([x**i], [x ** (4 - i)])
        for shift_by in (0, 1, 3):
            deg = ((shift_by,), (shift_by + S.ell - i,))
            exps = graded_exponents(S, E, *deg)
            rho = tuple(
                tuple(S.roots[e] if r == c else zero(ctx) for c in range(len(exps)))
                for r, e in enumerate(exps)
            )
            graded.append((E, deg, EquivariantMF(E, (rho,))))
    values = set()
    for E, degE, EG in graded:
        for F, degF, FG in graded:
            want = chi_equivariant(EG, FG, G)
            assert graded_chi(S, E, degE, F, degF) == want
            values.add(int(want.as_fraction()))
    assert len(values) > 1


def test_twist_requires_matching_generators():
    ring, ctx = cyclic_ring(3)
    E = pinned_equivariant(ring, ctx, 1, 3)
    with pytest.raises(ValueError, match="per generator"):
        twist(E, [ctx.zeta(), ctx.zeta()])


def test_chi_equivariant_potential_mismatch():
    ring, ctx = cyclic_ring(4)
    G = cyclic_group(ring, ctx, 4)
    E = pinned_equivariant(ring, ctx, 1, 4)
    x = ring.var(0)
    other = koszul([x], [x])
    zz = zero(ctx)
    OF = EquivariantMF(other, (((one(ctx), zz), (zz, one(ctx))),))
    with pytest.raises(ValueError, match="potential mismatch"):
        chi_equivariant(E, OF, G)


# --- the scalar-tuple routes, kept as references for the exponent tables ----


def _ref_close_group(n, generators, context=None):
    """Closure by frontiers of scalar tuples; (elements, generator words)."""
    gens = [tuple(g) for g in generators]
    identity = tuple(one(context) for _ in range(n))
    elements, words = [identity], [()]
    seen = {identity}
    frontier = [(identity, ())]
    while frontier:
        nxt = []
        for g, gw in frontier:
            for k, h in enumerate(gens):
                prod = tuple(a * b for a, b in zip(g, h))
                if prod not in seen:
                    seen.add(prod)
                    elements.append(prod)
                    words.append(gw + (k,))
                    nxt.append((prod, gw + (k,)))
        frontier = nxt
    return elements, words


def _ref_inverse(g):
    return tuple(x.inverse() for x in g)


def _ref_substitute(p, g):
    """p(g x) by raising each eigenvalue to each exponent."""
    ring = p.ring
    out = {}
    for m, c in terms(p).items():
        factor = c
        for i, e in enumerate(m):
            if e:
                for _ in range(e):
                    factor = factor * g[i]
        out[m] = out.get(m, ring.scalar(0)) + factor
    return polynomial(ring, out)


def _ref_actions(E, generators, elements, words, context):
    """rho(g) along each element's generator word, then every product
    rho(g) rho(h_k) checked against rho(g h_k)."""
    zz = zero(context)
    rank = E.base.rank
    ident = tuple(tuple(one(context) if i == j else zz for j in range(rank)) for i in range(rank))
    action = [matrix_route.dense(A, rank, zz) for A in E.action]
    rho = {}
    for g, word in zip(elements, words):
        M = ident
        for k in word:
            M = matrix_route.mat_mul(M, action[k], zz)
        rho[g] = M
    for g in elements:
        for k, h in enumerate(generators):
            prod = tuple(a * b for a, b in zip(g, h))
            if matrix_route.mat_mul(rho[g], action[k], zz) != rho[prod]:
                raise ValueError("action does not respect the group relations")
    return rho


def _exact(v):
    """A scalar, tuple or polynomial as plain data, contexts included; a
    coefficient over Q is a bare int or Fraction, kept with its type."""
    if isinstance(v, tuple):
        return tuple(_exact(x) for x in v)
    if hasattr(v, "terms"):
        return tuple(sorted((m, _exact(c)) for m, c in v.terms.items()))
    if isinstance(v, (int, Fraction)):
        return (type(v), v)
    return (v.context, v.coeffs)


def _reference_battery():
    """(label, ring, generators, context) for the groups the tables must
    reproduce: Q with one and two variables, Z/m for m = 1..12, Z/3 x Z/4
    over Q(zeta_12) and the grading group of x^4."""
    R1, R2 = PolyRing(("x",)), PolyRing(("x", "y"))
    yield "Z/2 over Q", R1, [(-one(),)], None
    yield "Klein over Q", R2, [(-one(), one()), (one(), -one())], None
    yield "trivial over Q", R2, [(one(), one())], None
    for m in range(1, 13):
        ctx = CyclotomicContext(m)
        yield "Z/%d" % m, PolyRing(("x",), ctx), [(ctx.zeta(),)], ctx
        yield "Z/%d on two variables" % m, PolyRing(("x", "y"), ctx), [
            (ctx.zeta(), ctx.zeta(m - 1))
        ], ctx
    ctx = CyclotomicContext(12)
    yield "Z/3 x Z/4", PolyRing(("x", "y"), ctx), [
        (ctx.zeta(4), one(ctx)),
        (one(ctx), ctx.zeta(3)),
    ], ctx
    S = graded_to_equivariant(PolyRing(("x",)).parse("x^4"), (1,))
    yield "grading of x^4", S.ring, [graded_element(S, 1)], S.ring.context


def test_closure_and_inverses_match_scalar_reference():
    for label, ring, gens, ctx in _reference_battery():
        G = close_group(ring.n, gens, ctx)
        elements, _ = _ref_close_group(ring.n, gens, ctx)
        assert [_exact(g) for g in G.elements] == [_exact(g) for g in elements], label
        for g, k in zip(G.elements, G.exponents):
            assert G.index(g) == elements.index(g)
            assert _exact(tuple(G.roots[e] for e in k)) == _exact(g)
            assert _exact(G.inverse(g)) == _exact(_ref_inverse(g)), label


def test_substitution_matches_power_reference():
    texts = {1: "x^5 + 2*x^3 - x + 7", 2: "x^3*y + 2*x*y^2 - y^4 + x*y^7 + 3"}
    for label, ring, gens, ctx in _reference_battery():
        G = close_group(ring.n, gens, ctx)
        p = ring.parse(texts[ring.n] + (" + z*x^2" if ctx else ""))
        for g, k in zip(G.elements, G.exponents):
            got = substitute_action(p, k, G.roots)
            assert _exact(got) == _exact(_ref_substitute(p, g)), (label, g)


def test_action_tables_match_word_product_reference():
    for label, ring, gens, ctx in _reference_battery():
        G = close_group(ring.n, gens, ctx)
        elements, words = _ref_close_group(ring.n, gens, ctx)
        w = sum((ring.var(i) ** (2 * len(G.roots)) for i in range(ring.n)), ring.zero())
        K = equivariant_stabilization(w, G)
        # twisting each generator by zeta_m keeps a representation when the
        # generators have order m, and breaks the relations of Z/3 x Z/4
        twisted = twist(K, [G.roots[1 % len(G.roots)]] * len(gens))
        for E in (K, twisted):
            try:
                want = _ref_actions(E, gens, elements, words, ctx)
            except ValueError:
                with pytest.raises(ValueError, match="group relations"):
                    equivariant_actions(E, G)
                continue
            got = equivariant_actions(E, G)
            assert list(got) == list(want)
            rank, zz = E.base.rank, zero(ctx)
            assert [_exact(matrix_route.dense(M, rank, zz)) for M in got.values()] == [
                _exact(M) for M in want.values()
            ], label


def test_graded_elements_match_power_reference():
    for n, weights in ((4, (1,)), (3, (1,)), (6, (2,))):
        S = graded_to_equivariant(PolyRing(("x",)).parse("x^%d" % n), weights)
        ctx = S.ring.context
        step = ctx.order // S.order  # zeta_(2 ell) = zeta_m^step
        for m in range(-S.order, 2 * S.order):
            want = tuple(ctx.zeta(step * ((m * a) % S.order)) for a in S.weights)
            assert _exact(graded_element(S, m)) == _exact(want)


# --- group-wide checks: every element against the generators ----------------


def _ref_validate_all(E, G):
    """rho(g) delta(g x) = delta(x) rho(g) checked on every element."""
    actions = equivariant_actions(E, G)
    delta = E.base.delta
    zz, n = E.base.ring.zero(), len(delta)
    for g in G.elements:
        moved = mat_map(delta, lambda p, g=g: _ref_substitute(p, g))
        if mat_mul(actions[g], moved, zz, n) != mat_mul(delta, actions[g], zz, n):
            raise ValueError(
                "factorization is not equivariant under (%s)"
                % ", ".join(str(x) for x in g)
            )
    return actions


def _ref_morphism_invariance_all(E, G, alpha):
    """The checks of tau_equivariant, with h . alpha = alpha on every element."""
    actions = _ref_validate_all(E, G)
    if not alpha.is_closed():
        raise ValueError("morphism is not closed")
    M = alpha.matrix
    zz, rank = E.base.ring.zero(), E.base.rank
    for h in G.elements:
        moved = mat_map(M, lambda p, h=h: _ref_substitute(p, h))
        acted = mat_mul(actions[h], mat_mul(moved, actions[_ref_inverse(h)], zz, rank), zz, rank)
        if acted != M:
            raise ValueError("morphism is not invariant under the group")


def _ref_check_invariance_all(w, G):
    for g in G.elements:
        if _ref_substitute(w, g) != w:
            raise ValueError(
                "potential is not invariant under (%s)" % ", ".join(str(x) for x in g)
            )


def _outcome(fn, *args):
    """("ok", value) or the raised exception's (type, message)."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


def _same_outcome(route, reference, *args):
    got, want = _outcome(route, *args), _outcome(reference, *args)
    if got[0] == "ok" or want[0] == "ok":
        assert got[0] == want[0] == "ok", (got, want)
    else:
        assert got == want
    return got


def _product_group():
    """Z/3 x Z/4 on x, y over Q(zeta_12), and x^3 + y^4."""
    ctx = CyclotomicContext(12)
    ring = PolyRing(("x", "y"), ctx)
    G = close_group(2, [(ctx.zeta(4), one(ctx)), (one(ctx), ctx.zeta(3))], ctx)
    return ring, ctx, G, ring.parse("x^3 + y^4")


def _scalar_identity(E, ctx):
    return tuple(
        tuple(one(ctx) if i == j else zero(ctx) for j in range(E.rank))
        for i in range(E.rank)
    )


def test_generator_checks_match_all_elements_on_the_battery():
    for label, ring, gens, ctx in _reference_battery():
        G = close_group(ring.n, gens, ctx)
        w = sum((ring.var(i) ** (2 * len(G.roots)) for i in range(ring.n)), ring.zero())
        K = equivariant_stabilization(w, G)
        twisted = twist(K, [G.roots[1 % len(G.roots)]] * len(gens))
        plain = EquivariantMF(K.base, (_scalar_identity(K.base, ctx),) * len(gens))
        for E in (K, twisted, plain):
            got = _same_outcome(validate_equivariant, _ref_validate_all, E, G)
            if got[0] == "ok":
                assert got[1] == validate_equivariant(E, G), label
        x = ring.var(0)
        for alpha in (identity_morphism(K.base), _scaled_identity(K.base, x)):
            _same_outcome(
                lambda E, G, a: tau_equivariant(E, G, G.elements[0], a),
                _ref_morphism_invariance_all, K, G, alpha,
            )
        for p in (w, w + x, w + x ** 2, w + x ** len(G.roots)):
            _same_outcome(check_invariance, _ref_check_invariance_all, p, G)


def _scaled_identity(E, p):
    """Multiplication by the polynomial p, a closed even endomorphism."""
    blocks = tuple(
        tuple(tuple(p if i == j else E.ring.zero() for j in range(r)) for i in range(r))
        for r in (E.r0, E.r1)
    )
    return MorphismCocycle.from_blocks(E, E, 0, blocks)


def test_delta_equivariant_under_the_first_generator_only():
    ring, ctx, G, w = _product_group()
    K = equivariant_stabilization(w, G)
    ident = _scalar_identity(K.base, ctx)
    # the second generator acting trivially still respects the relations
    # but no longer intertwines the y-part of delta, and vice versa
    for action in ((K.action[0], ident), (ident, K.action[1])):
        E = EquivariantMF(K.base, action)
        equivariant_actions(E, G)
        kind, message = _same_outcome(validate_equivariant, _ref_validate_all, E, G)
        assert kind is ValueError and "not equivariant" in message
        bad = G.generators[0 if action[0] is ident else 1]
        assert message.endswith("(%s)" % ", ".join(str(x) for x in bad))


def test_action_breaking_a_relation_rejected_by_both_routes():
    ring, ctx, G, w = _product_group()
    K = equivariant_stabilization(w, G)
    broken = twist(K, [ctx.zeta(1), one(ctx)])
    assert _same_outcome(validate_equivariant, _ref_validate_all, broken, G) == (
        ValueError, "action does not respect the group relations"
    )


def test_morphism_invariant_under_one_generator_only():
    ring, ctx, G, w = _product_group()
    K = equivariant_stabilization(w, G)
    x, y = ring.var(0), ring.var(1)
    # x is moved by the first generator only, y by the second only
    for p, ok in ((x, False), (y, False), (x * y, False), (y ** 4, True), (x ** 3, True)):
        alpha = _scaled_identity(K.base, p)
        assert alpha.is_closed()
        got = _same_outcome(
            lambda E, G, a: tau_equivariant(E, G, G.elements[0], a),
            _ref_morphism_invariance_all, K, G, alpha,
        )
        assert (got[0] == "ok") == ok
        if not ok:
            assert got == (ValueError, "morphism is not invariant under the group")


def test_potential_invariant_under_one_generator_only():
    ring, ctx, G, _w = _product_group()
    for text, bad in (("x^3 + y^3", 1), ("x^4 + y^4", 0), ("x^2 + y^2", 0)):
        p = ring.parse(text)
        kind, message = _same_outcome(check_invariance, _ref_check_invariance_all, p, G)
        assert kind is ValueError
        assert message == "potential is not invariant under (%s)" % ", ".join(
            str(x) for x in G.generators[bad]
        )
    _same_outcome(check_invariance, _ref_check_invariance_all, ring.parse("x^3 + y^4"), G)


def test_validation_runs_one_commutation_check_per_generator(monkeypatch):
    import mfinv.equivariant as equivariant

    calls = []
    real = equivariant._commutes

    def counted(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(equivariant, "_commutes", counted)
    ring, ctx, G, w = _product_group()
    K = equivariant_stabilization(w, G)
    validate_equivariant(K, G)
    assert G.order == 12
    assert calls == [G.exponent(h) for h in G.generators]
    calls.clear()
    ring, ctx = cyclic_ring(12)
    validate_equivariant(pinned_equivariant(ring, ctx, 5, 12, 7), cyclic_group(ring, ctx, 12))
    assert len(calls) == 1


def test_equivariance_gate_raises_under_optimize():
    # the generator-only check is a raise, not an assert that -O strips
    import os
    import pathlib
    import subprocess
    import sys

    import mfinv

    src = str(pathlib.Path(mfinv.__file__).resolve().parent.parent)
    code = (
        "from mfinv.equivariant import close_group, validate_equivariant\n"
        "from mfinv.mfcore import EquivariantMF, koszul\n"
        "from mfinv.poly import PolyRing\n"
        "from mfinv.scalar import CyclotomicContext, one, zero\n"
        "ctx = CyclotomicContext(4)\n"
        "x = PolyRing(('x',), ctx).var(0)\n"
        "z = zero(ctx)\n"
        "E = EquivariantMF(koszul([x], [x**3]), (((one(ctx), z), (z, ctx.zeta())),))\n"
        "G = close_group(1, [(ctx.zeta(),)], ctx)\n"
        "try:\n"
        "    validate_equivariant(E, G)\n"
        "except ValueError as exc:\n"
        "    print('raised:', exc)\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "raised: factorization is not equivariant under (z)"


# --- one piece of work per sweep: the checked table, shared sectors and ------
# --- Hom^G from the generators, against the per-element routes ---------------


def _ref_invariant_hom_dimensions(E, F, G):
    """The per-element sweep: every element of G acts on every
    representative, and the averaging projector is the mean of the |G|
    class-coordinate matrices."""
    actions_E = equivariant_actions(E, G)
    actions_F = equivariant_actions(F, G)
    h0, h1, basis = hom_cohomology(E.base, F.base)
    zz = E.base.ring.zero()
    dims = []
    for parity, count in ((0, h0), (1, h1)):
        if count == 0:
            dims.append(0)
            continue
        reps = [basis.representative(parity, k) for k in range(count)]
        avg = None
        for g in G.elements:
            cols = []
            for f in reps:
                moved = mat_map(f.matrix, lambda p, g=g: _ref_substitute(p, g))
                inner = mat_mul(moved, actions_E[_ref_inverse(g)], zz, E.base.rank)
                acted = mat_mul(actions_F[g], inner, zz, E.base.rank)
                cols.append(basis.class_coordinates(MorphismCocycle(E.base, F.base, parity, acted)))
            Mg = matrix_route.mat_transpose(cols)
            avg = Mg if avg is None else matrix_route.mat_add(avg, Mg)
        P = matrix_route.mat_scale(avg, rational(1, G.order))
        assert matrix_route.mat_mul(P, P, zero(G.context)) == P
        trace = rational(0)
        for i in range(count):
            trace = trace + P[i][i]
        assert trace.is_rational_integer()
        dims.append(int(trace.as_fraction()))
    return tuple(dims)


def test_invariant_hom_matches_the_per_element_sweep_on_two_generators():
    # k^st of x^3 + y^4 under Z/3 x Z/4 and two character twists of it
    ring, ctx, G, w = _product_group()
    K = equivariant_stabilization(w, G)
    twists = [K, twist(K, [ctx.zeta(4), one(ctx)]), twist(K, [one(ctx), ctx.zeta(3)])]
    seen = set()
    for F in twists:
        got = invariant_hom_dimensions(K, F, G)
        assert got == _ref_invariant_hom_dimensions(K, F, G)
        seen.add(got)
    assert len(seen) > 1


def test_invariant_hom_computes_class_coordinates_for_the_generators_only(monkeypatch):
    import mfinv.equivariant as equivariant

    acted = []
    real = equivariant._class_action

    def counted(basis, reps, G, h, *tables):
        acted.append(h)
        return real(basis, reps, G, h, *tables)

    monkeypatch.setattr(equivariant, "_class_action", counted)
    ring, ctx, G, w = _product_group()
    K = equivariant_stabilization(w, G)
    h0, h1, _basis = hom_cohomology(K.base, K.base)
    invariant_hom_dimensions(K, K, G)
    assert G.order == 12
    assert acted == list(G.generators) * ((h0 > 0) + (h1 > 0))


def test_corrupted_generator_matrix_fails_the_relation_check(monkeypatch):
    import mfinv.equivariant as equivariant

    real = equivariant._class_action

    def corrupted(basis, reps, G, h, *tables):
        M = real(basis, reps, G, h, *tables)
        return mat_map(M, lambda c: c * rational(2)) if h == G.generators[-1] else M

    ring, ctx, G, w = _product_group()
    K = equivariant_stabilization(w, G)
    assert invariant_hom_dimensions(K, K, G) == _ref_invariant_hom_dimensions(K, K, G)
    monkeypatch.setattr(equivariant, "_class_action", corrupted)
    with pytest.raises(AssertionError, match="group relations"):
        invariant_hom_dimensions(K, K, G)


def test_validated_table_is_kept_for_its_group(monkeypatch):
    import mfinv.equivariant as equivariant

    calls = []
    real = equivariant._commutes

    def counted(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(equivariant, "_commutes", counted)
    ring, ctx = cyclic_ring(4)
    G = cyclic_group(ring, ctx, 4)
    E = pinned_equivariant(ring, ctx, 1, 4)
    table = validate_equivariant(E, G)
    assert E.checked[0] is G and E.checked[1] == table
    for g in G.elements:
        chern_equivariant(E, G, g)
    chi_equivariant(E, E, G)
    invariant_hom_dimensions(E, E, G)
    equivariant_dual(E, G)
    assert validate_equivariant(E, G) == table
    assert len(calls) == 1
    with pytest.raises(TypeError):
        table[G.elements[0]] = None
    # an equal group that is another object is checked again
    H = cyclic_group(ring, ctx, 4)
    assert validate_equivariant(E, H) == table
    assert len(calls) == 2 and E.checked[0] is H
    # a copy carries its own group, so it is checked again against G
    for twin in (copy.deepcopy(E), pickle.loads(pickle.dumps(E))):
        assert twin.checked[0] is not G
        assert validate_equivariant(twin, G) == table
    assert len(calls) == 4


def test_non_equivariant_action_raises_on_every_call():
    ring, ctx = cyclic_ring(4)
    E = power_mf(ring, 1, 4)
    z, zz = ctx.zeta, zero(ctx)
    bad = EquivariantMF(E, (((z(0), zz), (zz, z(1))),))
    G = cyclic_group(ring, ctx, 4)
    for _ in range(2):
        with pytest.raises(ValueError, match="not equivariant"):
            validate_equivariant(bad, G)
        with pytest.raises(ValueError, match="not equivariant"):
            chern_equivariant(bad, G, G.elements[0])
        assert bad.checked is None


def test_another_group_is_validated_again():
    ring, ctx = cyclic_ring(4)
    G = cyclic_group(ring, ctx, 4)
    E = pinned_equivariant(ring, ctx, 1, 4)
    validate_equivariant(E, G)
    # one action matrix, but this group has two generators
    two = close_group(1, [(ctx.zeta(),), (ctx.zeta(2),)], ctx)
    for _ in range(2):
        with pytest.raises(ValueError, match="one action matrix per group generator"):
            validate_equivariant(E, two)
        with pytest.raises(ValueError, match="one action matrix per group generator"):
            chi_equivariant(E, E, two)
    assert E.checked[0] is G


def test_element_outside_the_group_raises_before_any_sector(monkeypatch):
    import mfinv.equivariant as equivariant

    def no_sector(*args):
        raise AssertionError("a sector was built")

    monkeypatch.setattr(equivariant, "sector", no_sector)
    ring, ctx = cyclic_ring(4)
    # Z/2 inside the 4th roots of unity, acting trivially on K(x^2; x^2)
    G = close_group(1, [(ctx.zeta(2),)], ctx)
    E = EquivariantMF(power_mf(ring, 2, 4), (_scalar_identity(power_mf(ring, 2, 4), ctx),))
    validate_equivariant(E, G)
    alpha = identity_morphism(E.base)
    for g in ((ctx.zeta(),), (one(ctx), one(ctx)), ctx.zeta(2)):
        with pytest.raises(ValueError, match="element is not in the enumerated group"):
            chern_equivariant(E, G, g)
        with pytest.raises(ValueError, match="element is not in the enumerated group"):
            tau_equivariant(E, G, g, alpha)


def test_diagonal_group_is_frozen():
    ring, ctx = cyclic_ring(4)
    G = cyclic_group(ring, ctx, 4)
    for name in ("elements", "products", "generators", "roots", "_index"):
        with pytest.raises(AttributeError):
            setattr(G, name, ())
        with pytest.raises(AttributeError):
            delattr(G, name)
    assert G.order == 4


def test_sweeps_build_one_sector_per_fixed_set(monkeypatch):
    import mfinv.equivariant as equivariant

    built, products = [], []
    real_milnor, real_product = equivariant.build_milnor, equivariant.derivative_product

    def milnor(w):
        built.append(w.ring.names)
        return real_milnor(w)

    def product(E, indices):
        products.append(tuple(indices))
        return real_product(E, indices)

    monkeypatch.setattr(equivariant, "build_milnor", milnor)
    monkeypatch.setattr(equivariant, "derivative_product", product)
    ring, ctx, G, w = _product_group()
    # fixed sets: both (the identity), x (3 elements), y (2) and none (6)
    secs = sectors(w, G.elements)
    assert len(secs) == 12 and len({id(sec) for sec in secs}) == 4
    for g, sec in zip(G.elements, secs):
        assert sec.fixed_indices == sector(w, g).fixed_indices
    built.clear()
    want = orbifold_hh_dimensions(w, G)
    assert len(built) == 4
    K = equivariant_stabilization(w, G)
    built.clear()
    chi_equivariant(K, K, G)
    assert len(built) == 4 and len(products) == 8
    assert sorted(set(products)) == [(), (0,), (1,), (1, 0)]
    monkeypatch.undo()
    assert orbifold_hh_dimensions(w, G) == want


# --- sector characters from the diagonal, sectors by word masks ---------------


def _fixed_images(n, fixed, sub_ring):
    """Images of x_0..x_(n-1) when the moving variables are set to zero:
    the ring map by which sectors restricted before they masked words."""
    at = {i: k for k, i in enumerate(fixed)}
    return [sub_ring.var(at[i]) if i in at else sub_ring.zero() for i in range(n)]


def _random_polynomial(rng, ring, context):
    """Up to eight terms with exponents below 4, one near the limit, and
    int, Fraction or (over a cyclotomic field) zeta-power coefficients."""
    n = ring.n
    top = (1 << ring.layout.limit) - 1
    out = {}
    for _ in range(rng.randrange(9)):
        e = [rng.randrange(4) for _ in range(n)]
        if rng.random() < 0.1:
            e[rng.randrange(n)] = top
        c = rng.choice([rng.randint(-5, 5), Fraction(rng.randint(-5, 5), rng.randint(1, 4))])
        if context is not None and rng.random() < 0.5:
            c = context.zeta(rng.randrange(context.order)) * c
        out[ring.layout.word(tuple(e))] = c
    return ring.from_terms(out)


def test_word_mask_restriction_matches_substitution():
    rng = random.Random(33)
    for context in (None, CyclotomicContext(12)):
        for n in (1, 2, 3):
            ring = PolyRing(("x", "y", "v")[:n], context)
            for _ in range(25):
                p = _random_polynomial(rng, ring, context)
                for size in range(n + 1):
                    for fixed in combinations(range(n), size):
                        sub = PolyRing(tuple(ring.names[i] for i in fixed), context)
                        got = _restrict(p, fixed, sub)
                        want = p.substitute(sub, _fixed_images(n, fixed, sub))
                        assert got.ring == sub and _exact(got) == _exact(want)


def test_sectors_match_the_substitution_route():
    # w_g and every restriction into the sector ring, on all four sectors of
    # Z/3 x Z/4 and on the sectors of the cyclic groups over Q(zeta_m)
    rng = random.Random(34)
    _, _, G, w = _product_group()
    cases = [(w, G.elements)]
    for m in (2, 3, 5):
        cring, cctx = cyclic_ring(m)
        cases.append((cring.var(0) ** m, cyclic_group(cring, cctx, m).elements))
    for w, elements in cases:
        for sec in sectors(w, elements):
            images = _fixed_images(w.ring.n, sec.fixed_indices, sec.milnor.ring)
            assert _exact(sec.w_g) == _exact(w.substitute(sec.milnor.ring, images))
            for _ in range(5):
                p = _random_polynomial(rng, w.ring, w.ring.context)
                want = p.substitute(sec.milnor.ring, images)
                assert _exact(restrict_to_sector(p, sec)) == _exact(want)


def _substitution_character(E, G, g):
    """chern_equivariant by the full-product route: P rho(g) multiplied
    out, its supertrace, and the restriction by substitution."""
    base = E.base
    sec = sector(base.w, g)
    M = mat_mul(_fixed_product(base, sec), validate_equivariant(E, G)[g], base.ring.zero(),
                base.rank)
    images = _fixed_images(base.ring.n, sec.fixed_indices, sec.milnor.ring)
    s = supertrace(base.ring, M, base.r0).substitute(sec.milnor.ring, images)
    return sec.milnor.project(s, parity=sec.n_fixed % 2)


def _equivariant_battery():
    """(E, G): k^st and a twist of it under Z/3 x Z/4, and the pinned
    power factorizations of x^n under Z/n."""
    ring, ctx, G, w = _product_group()
    K = equivariant_stabilization(w, G)
    yield K, G
    yield twist(K, [ctx.zeta(4), ctx.zeta(3)]), G
    for n, i in ((3, 1), (4, 2), (5, 2)):
        pring, pctx = cyclic_ring(n)
        yield pinned_equivariant(pring, pctx, i, n, a=1), cyclic_group(pring, pctx, n)


def test_diagonal_supertrace_matches_the_product_on_sector_actions():
    # polynomial times scalar: the fixed product against rho(g) for every
    # element, and against a dense scalar matrix, which reads off-diagonal
    rng = random.Random(35)
    for E, G in _equivariant_battery():
        base, actions = E.base, validate_equivariant(E, G)
        ctx = G.context
        full = matrix_route.sparse(tuple(
            tuple(ctx.zeta(rng.randrange(ctx.order)) * rng.randint(-2, 2) for _ in range(base.rank))
            for _ in range(base.rank)
        ))
        for g, sec in zip(G.elements, sectors(base.w, G.elements)):
            P = _fixed_product(base, sec)
            for R in (actions[g], full):
                want = matrix_route.supertrace(matrix_route.dense(P, base.rank, base.ring.zero()),
                                               base.r0, matrix_route.dense(R, base.rank, zero(ctx)))
                assert supertrace(base.ring, P, base.r0, R) == want
            assert chern_equivariant(E, G, g) == _substitution_character(E, G, g)
