"""Diagonal symmetry: sectors, equivariant characters, orbifold sums."""
from fractions import Fraction

import pytest

from mfinv.equivariant import (
    c_weight,
    check_invariance,
    chern_equivariant,
    chi_equivariant,
    close_group,
    equivariant_actions,
    equivariant_dual,
    equivariant_stabilization,
    graded_chi,
    graded_exponents,
    graded_to_equivariant,
    invariant_hom_dimensions,
    moving_determinant,
    orbifold_hh_dimensions,
    sector,
    substitute_action,
    tau_equivariant,
    twist,
    validate_equivariant,
)
from mfinv.invariants import chi_hrr
from mfinv.mfcore import (
    EquivariantMF,
    MorphismCocycle,
    identity_morphism,
    koszul,
    mat_mul,
)
from mfinv.milnor import build_milnor
from mfinv.poly import PolyRing
from mfinv.scalar import CyclotomicContext, one, rational, zero


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


def cyclic_group(ring, ctx, n):
    return close_group(1, [(ctx.zeta(),)], ctx)


def test_close_group_cyclic():
    ring, ctx = cyclic_ring(4)
    G = cyclic_group(ring, ctx, 4)
    assert G.order == 4
    assert G.identity == (one(ctx),)
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
    ring, ctx = cyclic_ring(12)
    with pytest.raises(ValueError, match="exceeds the bound"):
        close_group(1, [(ctx.zeta(),)], ctx, bound=5)


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
                    cls = chern_equivariant(E, G, g)
                    got = cls.as_milnor()
                    want = z(a * m) * (z(m * i) - one(ctx))
                    assert got.value == got.ring.ring.const(want)


def test_c_weight_values():
    ring, ctx = cyclic_ring(5)
    z = ctx.zeta
    for m in range(1, 5):
        assert c_weight((z(m),), ctx) == (one(ctx) - z(m)).inverse()
    assert c_weight((one(ctx),), ctx) == one(ctx)


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


def test_tau_equivariant_rejects_non_invariant():
    ring, ctx = cyclic_ring(4)
    G = cyclic_group(ring, ctx, 4)
    E = pinned_equivariant(ring, ctx, 2, 4)
    x = ring.var(0)
    # multiplication by x is closed but not invariant (character 1)
    f = MorphismCocycle(
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
                assert cls.value == cls.sector.milnor.ring.const(want)


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
    ident = chern_equivariant(K, G, G.identity)
    assert ident.is_zero()


def test_orbifold_dimensions_cyclic_powers():
    for n in (3, 4, 5):
        ring, ctx = cyclic_ring(n)
        G = cyclic_group(ring, ctx, n)
        w = ring.var(0) ** n
        sectors, even, odd = orbifold_hh_dimensions(w, G)
        assert len(sectors) == n
        for g, parity, dim in sectors:
            if g == G.identity:
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
    G = close_group(1, [S.element(1)], ctx)
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
    for m, c in p.terms.items():
        factor = c
        for i, e in enumerate(m):
            if e:
                factor = factor * g[i] ** e
        out[m] = out.get(m, ring.scalar(0)) + factor
    return ring.from_terms(out)


def _ref_actions(E, generators, elements, words, context):
    """rho(g) along each element's generator word, then every product
    rho(g) rho(h_k) checked against rho(g h_k)."""
    zz = zero(context)
    ident = tuple(
        tuple(one(context) if i == j else zz for j in range(E.base.rank))
        for i in range(E.base.rank)
    )
    rho = {}
    for g, word in zip(elements, words):
        M = ident
        for k in word:
            M = mat_mul(M, E.action[k], zz)
        rho[g] = M
    for g in elements:
        for k, h in enumerate(generators):
            prod = tuple(a * b for a, b in zip(g, h))
            if mat_mul(rho[g], E.action[k], zz) != rho[prod]:
                raise ValueError("action does not respect the group relations")
    return rho


def _exact(v):
    """A scalar, tuple or polynomial as plain data, contexts included."""
    if isinstance(v, tuple):
        return tuple(_exact(x) for x in v)
    if hasattr(v, "terms"):
        return tuple(sorted((m, _exact(c)) for m, c in v.terms.items()))
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
    yield "grading of x^4", S.ring, [S.element(1)], S.ring.context


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
            assert [_exact(M) for M in got.values()] == [
                _exact(M) for M in want.values()
            ], label


def test_graded_elements_match_power_reference():
    for n, weights in ((4, (1,)), (3, (1,)), (6, (2,))):
        S = graded_to_equivariant(PolyRing(("x",)).parse("x^%d" % n), weights)
        ctx = S.ring.context
        zeta = ctx.zeta(ctx.order // S.order)
        for m in range(-S.order, 2 * S.order):
            want = tuple(zeta ** ((m * a) % S.order) for a in S.weights)
            assert _exact(S.element(m)) == _exact(want)
