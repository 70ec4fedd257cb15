"""End-to-end acceptance run: one test (and one pass line) per criterion.

Everything here is exact equality; the helpers regenerate their random
inputs from fixed seeds so the run is reproducible byte for byte.
"""
import json
import random
from fractions import Fraction

from mfinv.cli import main as cli_main
from mfinv.equivariant import (
    c_weight,
    chern_equivariant,
    chi_equivariant,
    close_group,
    equivariant_stabilization,
    invariant_hom_dimensions,
)
from mfinv.groebner import buchberger, lift, lift_basis, normal_form, split
from mfinv.homology import cardy_lhs, euler, hom_cohomology
from mfinv.invariants import (
    cardy_rhs,
    chern,
    chi_hrr,
    derivative_product,
    supertrace,
    tau,
)
from mfinv.mfcore import (
    _hom_positions,
    EquivariantMF,
    MorphismCocycle,
    clifford_generators,
    greedy_decomposition,
    identity_morphism,
    koszul,
    vector_to_morphism,
)
from mfinv.milnor import (
    build_milnor,
    gram_matrix,
    hessian_class,
    residue_trace,
)
from mfinv.oracle import (
    build_diagonal,
    chern_of_diagonal,
    inverse_form_check,
    oracle_tau,
    solve_D,
)
from mfinv.poly import PolyRing
from mfinv.scalar import CyclotomicContext, one, rational, zero
from mf_ops import add, direct_sum, dual, equivariant_dual, same_morphism, shift, tensor
from test_equivariant import moving_determinant
from test_milnor import exact_rank

R1 = PolyRing(("x",))
R2 = PolyRing(("x", "y"))
R3 = PolyRing(("x", "y", "z"))


def xn_fac(n, i):
    return koszul([R1.parse("x^%d" % i)], [R1.parse("x^%d" % (n - i))])


def odd_generator(E, n, i):
    if 2 * i >= n:
        b10 = ((R1.parse("x^%d" % (2 * i - n)),),)
        b01 = ((R1.parse("-1"),),)
    else:
        b10 = ((R1.one(),),)
        b01 = ((R1.parse("-x^%d" % (n - 2 * i)),),)
    return MorphismCocycle.from_blocks(E, E, 1, (b10, b01))


# the residue-normalization battery, each potential with one Koszul
# factorization for the runs that need a module; all isolated
def _battery():
    rows = [
        ("x^4", R1, ["x^2"], ["x^2"]),
        ("x^2 + y^2", R2, ["x", "y"], ["x", "y"]),
        ("x^3 + y^3", R2, ["x", "y"], ["x^2", "y^2"]),
        ("x^3 + x*y^2", R2, ["x"], ["x^2 + y^2"]),
        ("x^4 + y^4", R2, ["x", "y"], ["x^3", "y^3"]),
        ("x^3 + y^4", R2, ["x", "y"], ["x^2", "y^3"]),
        ("x^2*y + y^3", R2, ["x", "y"], ["x*y", "y^2"]),
        ("x^2*y + y^4", R2, ["x", "y"], ["x*y", "y^3"]),
        ("x^2*y + y^5", R2, ["x", "y"], ["x*y", "y^4"]),
        ("x^3 + y^3 + z^3", R3, ["x", "y", "z"], ["x^2", "y^2", "z^2"]),
    ]
    triples = []
    by_text = {}
    for text, ring, a, b in rows:
        aa = [ring.parse(t) for t in a]
        bb = [ring.parse(t) for t in b]
        triples.append((ring.parse(text), aa, bb))
        by_text[text] = (aa, bb)
    return triples, by_text


BATTERY, BATTERY_FACS = _battery()


def random_monomial(rng, ring, max_degree=1):
    exps = [0] * ring.n
    for _ in range(rng.randint(0, max_degree)):
        exps[rng.randrange(ring.n)] += 1
    c = rng.choice([-2, -1, 1, 2])
    return ring.monomial(tuple(exps)) * rational(c)


def sheared_koszul(rng, a, b, shears=2):
    """A Koszul factorization of the same potential with mixed data."""
    a, b = list(a), list(b)
    m = len(a)
    for _ in range(rng.randint(0, shears)):
        i = rng.randrange(m)
        j = rng.randrange(m)
        if i == j:
            continue
        p = random_monomial(rng, a[0].ring)
        # (a_j, b_i) <- (a_j + p a_i, b_i - p b_j) keeps sum a_k b_k fixed
        a[j] = a[j] + p * a[i]
        b[i] = b[i] - p * b[j]
    order = list(range(m))
    rng.shuffle(order)
    return koszul([a[k] for k in order], [b[k] for k in order])


def report(num, label):
    print("criterion %d (%s): pass" % (num, label))


def test_criterion_01_d4_example():
    w = R2.parse("x^3 + x*y^2")
    A = build_milnor(w)
    E = koszul([R2.parse("x")], [R2.parse("x^2 + y^2")])
    h0, h1, _ = hom_cohomology(E, E)
    assert (h0, h1) == (2, 0)
    c = chern(E, A)
    assert c.value == R2.parse("2*y") and c.parity == 0
    assert chi_hrr(E, E, A) == rational(2)
    assert euler(E, E) == 2
    report(1, "D4 example")


def test_criterion_02_power_potentials():
    for n in (2, 4, 6):
        A = build_milnor(R1.parse("x^%d" % n))
        for i in range(1, n):
            E = xn_fac(n, i)
            h0, h1, _ = hom_cohomology(E, E)
            assert h0 == h1 == min(i, n - i)
            alpha = odd_generator(E, n, i)
            t = tau(E, alpha, A)
            expected = A.project(
                R1.parse("%d*x^%d" % (n, max(i, n - i) - 1)), parity=t.parity
            )
            assert t == expected
            if 2 * i >= n:
                assert t.value == A.project(R1.parse("%d*x^%d" % (n, i - 1))).value
        half = n // 2
        E = xn_fac(n, half)
        alpha = odd_generator(E, n, half)
        lhs = cardy_lhs(E, E, alpha, alpha)
        rhs = cardy_rhs(E, E, alpha, alpha, A)
        assert lhs == rhs == rational(n)
        for i in range(1, n):
            for j in range(1, n):
                if i == j:
                    continue
                Ei, Ej = xn_fac(n, i), xn_fac(n, j)
                ai = odd_generator(Ei, n, i)
                bj = odd_generator(Ej, n, j)
                assert cardy_lhs(Ei, Ej, ai, bj) == rational(0)
                assert cardy_rhs(Ei, Ej, ai, bj, A) == rational(0)
    report(2, "x^n homs, boundary-bulk and Cardy values")


def test_criterion_03_hessian_trace_battery():
    assert len(BATTERY) >= 8
    for w, _a, _b in BATTERY:
        A = build_milnor(w)
        assert residue_trace(hessian_class(A)) == rational(A.mu)
    report(3, "tr(Hessian) = mu on %d potentials" % len(BATTERY))


def test_tracked_groebner_basis_on_battery():
    # the cofactor-carrying basis has the plain basis as its ideal part, and
    # its cofactors satisfy f = sum_j a_j g_j + r on every battery potential
    rng = random.Random(3)
    for w, _a, _b in BATTERY:
        ring = w.ring
        gens = [w.partial_derivative(i) for i in range(ring.n)]
        plain = buchberger(gens)
        lifts = lift_basis([(g,) for g in gens], 1, ring)
        assert split(lifts)[0].generators == plain.generators
        N = build_milnor(w).nilpotency
        probes = [ring.var(i) ** N for i in range(ring.n)]
        probes.append(w + sum((random_monomial(rng, ring, 4) for _ in range(6)), ring.zero()))
        for f in probes:
            (r,), cof = lift((f,), lifts)
            recon = r
            for a, g in zip(cof, gens):
                recon = recon + a * g
            assert recon == f
            assert r == normal_form(f, plain)


def test_criterion_04_hrr_randomized():
    rng = random.Random(404)
    bases = {
        "x^2 + y^2": BATTERY_FACS["x^2 + y^2"],
        "x^3 + y^3": BATTERY_FACS["x^3 + y^3"],
        "x^4 + y^4": BATTERY_FACS["x^4 + y^4"],
        "x^3 + y^4": BATTERY_FACS["x^3 + y^4"],
        "x^2*y + y^3": BATTERY_FACS["x^2*y + y^3"],
    }
    checked = 0
    for text, (a, b) in bases.items():
        w = a[0].ring.parse(text)
        A = build_milnor(w)
        for _ in range(5):
            E = sheared_koszul(rng, a, b)
            F = sheared_koszul(rng, a, b)
            assert E.w == w and F.w == w
            assert chi_hrr(E, F, A) == euler(E, F)
            checked += 1
    assert checked >= 20
    # both sides vanish with an odd number of variables
    A1 = build_milnor(R1.parse("x^4"))
    for i in (1, 2):
        for j in (1, 2, 3):
            E, F = xn_fac(4, i), xn_fac(4, j)
            assert chi_hrr(E, F, A1) == rational(0)
            assert euler(E, F) == 0
    w3 = R3.parse("x^3 + y^3 + z^3")
    A3 = build_milnor(w3)
    a3, b3 = BATTERY_FACS["x^3 + y^3 + z^3"]
    E3 = koszul(a3, b3)
    F3 = sheared_koszul(random.Random(405), a3, b3)
    assert chi_hrr(E3, F3, A3) == rational(0)
    assert euler(E3, F3) == 0
    report(4, "HRR on %d randomized pairs plus odd-n vanishing" % checked)


def test_criterion_05_oracle_equivalence():
    for w, a, b in BATTERY:
        E = koszul(a, b)
        A = build_milnor(w)
        D = solve_D(E)
        assert oracle_tau(E, identity_morphism(E), A, dtensor=D) == chern(E, A)
        h0, h1, basis = hom_cohomology(E, E)
        for parity, dim in ((0, h0), (1, h1)):
            for k in range(dim):
                f = basis.representative(parity, k)
                assert oracle_tau(E, f, A, dtensor=D) == tau(E, f, A)
        assert chern_of_diagonal(w).agree
        assert inverse_form_check(w)
    report(5, "oracle vs closed form on %d potentials" % len(BATTERY))


def test_criterion_06_permutation_invariance():
    from itertools import permutations

    rng = random.Random(606)
    cases = [
        ("x^3 + y^3", BATTERY_FACS["x^3 + y^3"]),
        ("x^4 + y^4", BATTERY_FACS["x^4 + y^4"]),
        (
            "x^3 + y^3 + z^3",
            (
                [R3.parse("x"), R3.parse("y + z")],
                [R3.parse("x^2"), R3.parse("y^2 - y*z + z^2")],
            ),
        ),
    ]
    for text, (a, b) in cases:
        ring = a[0].ring
        w = ring.parse(text)
        A = build_milnor(w)
        n = ring.n
        for _ in range(3):
            E = sheared_koszul(rng, a, b)
            assert E.rank == 4
            base = chern(E, A)
            for perm in permutations(range(n)):
                got = A.project(supertrace(ring, derivative_product(E, perm), E.r0))
                sign = _sign_to_descending(perm)
                assert got.value == base.scale(sign).value
    report(6, "chern under all derivative orders, n = 2 and 3")


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


def test_criterion_07_stabilization_suite():
    for w, _a, _b in BATTERY:
        ring = w.ring
        A = build_milnor(w)
        kst, alphas = clifford_generators(w)
        n = ring.n
        # Clifford relations: alpha_i alpha_j + alpha_j alpha_i = -(w_ij + w_ji)
        ws = greedy_decomposition(w)
        wij = [greedy_decomposition(wj) for wj in ws]
        for i in range(n):
            for j in range(n):
                anti = add(alphas[i].compose(alphas[j]), alphas[j].compose(alphas[i]))
                c = -(wij[i][j] + wij[j][i])
                expect = MorphismCocycle.from_blocks(
                    kst,
                    kst,
                    0,
                    (
                        tuple(
                            tuple(c if p == q else ring.zero() for q in range(kst.r0))
                            for p in range(kst.r0)
                        ),
                        tuple(
                            tuple(c if p == q else ring.zero() for q in range(kst.r1))
                            for p in range(kst.r1)
                        ),
                    ),
                )
                assert same_morphism(anti, expect)
        # top product hits the Hessian class over mu, with the parity sign
        prod = alphas[0]
        for k in range(1, n):
            prod = prod.compose(alphas[k])
        t = tau(kst, prod, A)
        scale = Fraction((-1) ** n, A.mu)
        assert t.value == hessian_class(A).scale(scale).value
        assert chern(kst, A).is_zero()
    report(7, "Clifford relations, Hessian image, vanishing character")


def _cyclic_setup(n):
    ctx = CyclotomicContext(n)
    ring = PolyRing(("x",), ctx)
    G = close_group(1, [(ctx.zeta(),)], ctx)
    return ring, ctx, G


def _pinned(ring, ctx, i, n, a=0):
    E = koszul([ring.var(0) ** i], [ring.var(0) ** (n - i)])
    rho = ((ctx.zeta(a + i), zero(ctx)), (zero(ctx), ctx.zeta(a)))
    return EquivariantMF(E, (rho,))


def _chi_closed_form(n, i, d):
    total = 0
    for j in range(i):
        if (d + j) % n == 0:
            total += 1
    for j in range(1, i + 1):
        if (d - j) % n == 0:
            total -= 1
    return total


def test_criterion_08_cyclic_orbifold():
    for n in (3, 4, 5):
        ring, ctx, G = _cyclic_setup(n)
        for i in range(1, n):
            for a in range(n):
                EG = _pinned(ring, ctx, i, n, a)
                for m in range(n):
                    g = (ctx.zeta(m),)
                    cls = chern_equivariant(EG, G, g)
                    expected = ctx.zeta(a * m) * (ctx.zeta(m * i) - one(ctx))
                    if m == 0:
                        assert cls.value.is_zero()
                    else:
                        assert cls.value.is_constant()
                        assert cls.value.constant_coeff() == expected
                    if m != 0:
                        cw = c_weight(G.exponent(g), G.roots)
                        assert cw * (one(ctx) - ctx.zeta(m)) == one(ctx)
                E0 = _pinned(ring, ctx, i, n, 0)
                value = chi_equivariant(E0, EG, G)
                assert value == rational(_chi_closed_form(n, i, a))
                d0, d1 = invariant_hom_dimensions(E0, EG, G)
                minv = min(i, n - i)
                assert d0 == sum(1 for j in range(minv) if (a + j) % n == 0)
                assert d1 == sum(1 for j in range(1, minv + 1) if (a - j) % n == 0)
                if 2 * i <= n:
                    # the literal small-i decomposition
                    assert d0 == sum(1 for j in range(i) if (a + j) % n == 0)
                    assert d1 == sum(1 for j in range(1, i + 1) if (a - j) % n == 0)
    report(8, "cyclic orbifold characters, weights, index, invariants")


def test_criterion_09_equivariant_stabilization():
    for n in (3, 4, 5):
        ring, ctx, G = _cyclic_setup(n)
        w = ring.var(0) ** n
        K = equivariant_stabilization(w, G)
        for m in range(n):
            g = (ctx.zeta(m),)
            cls = chern_equivariant(K, G, g)
            if m == 0:
                assert cls.value.is_zero()
            else:
                assert cls.value.is_constant()
                assert cls.value.constant_coeff() == moving_determinant(G, g)
                assert cls.value.constant_coeff() == one(ctx) - ctx.zeta(m)
    ctx2 = CyclotomicContext(2)
    ring2 = PolyRing(("x", "y"), ctx2)
    w = ring2.parse("x^3 + x*y^2")
    G2 = close_group(2, [(one(ctx2), ctx2.zeta())], ctx2)
    K2 = equivariant_stabilization(w, G2)
    for g in G2.elements:
        cls = chern_equivariant(K2, G2, g)
        # both elements fix the x-axis, so every character vanishes
        assert cls.value.is_zero()
    report(9, "stabilized residue field characters")


def test_criterion_10_duality_and_integrality():
    for n in (3, 4, 5):
        ring, ctx, G = _cyclic_setup(n)
        for i in range(1, n):
            for a in (0, 1):
                EG = _pinned(ring, ctx, i, n, a)
                ED = equivariant_dual(EG, G)
                for g in G.elements:
                    left = chern_equivariant(ED, G, g)
                    right = chern_equivariant(EG, G, G.inverse(g))
                    assert left.value == right.value
                for b in (0, 1):
                    FG = _pinned(ring, ctx, i, n, b)
                    value = chi_equivariant(EG, FG, G)
                    assert value.is_rational_integer()
    ctx2 = CyclotomicContext(2)
    ring2 = PolyRing(("x", "y"), ctx2)
    G2 = close_group(2, [(one(ctx2), ctx2.zeta())], ctx2)
    E = koszul([ring2.parse("x")], [ring2.parse("x^2 + y^2")])
    rho = tuple(
        tuple(one(ctx2) if p == q else zero(ctx2) for q in range(2)) for p in range(2)
    )
    EG = EquivariantMF(E, (rho,))
    ED = equivariant_dual(EG, G2)
    for g in G2.elements:
        assert chern_equivariant(ED, G2, g).value == chern_equivariant(
            EG, G2, G2.inverse(g)
        ).value
    assert chi_equivariant(EG, EG, G2).is_rational_integer()
    report(10, "duality of characters and integer indices")


def test_criterion_11_property_suite(tmp_path, capsys):
    # field axioms on a handful of cyclotomic values
    ctx = CyclotomicContext(5)
    vals = [ctx.zeta(k) + rational(k - 1) for k in range(1, 4)]
    for u in vals:
        for v in vals:
            for t in vals:
                assert (u + v) + t == u + (v + t)
                assert u * (v + t) == u * v + u * t
                assert (u * v) * t == u * (v * t)
            assert u + v == v + u and u * v == v * u
        assert u * u.inverse() == one(ctx)
    # difference derivatives: telescoping and restriction to partials
    for w, _a, _b in BATTERY[:6]:
        ring = w.ring
        n = ring.n
        data = build_diagonal(build_milnor(w))
        images = [ring.var(i) for i in range(n)] * 2
        for j in range(n):
            assert data.differences[j].substitute(ring, images) == w.partial_derivative(j)
    # constructors validate: square-zero and potential identities
    E = koszul([R2.parse("x")], [R2.parse("x^2 + y^2")])
    F = koszul([R2.parse("x"), R2.parse("y")], [R2.parse("x^2"), R2.parse("x*y")])
    for M in (tensor(E, F), dual(E), shift(E), direct_sum(E, F)):
        M.validate()
    # d^2 = 0 on morphism complexes, and tau kills coboundaries
    A = build_milnor(R2.parse("x^3 + x*y^2"))
    rng = random.Random(1111)
    for parity in (0, 1):
        n = len(_hom_positions(E, E, parity))
        vec = [random_monomial(rng, R2) for _ in range(n)]
        g = vector_to_morphism(E, E, parity, vec)
        dg = g.differential()
        assert dg.differential().is_zero()
        assert dg.is_closed()
        assert tau(E, dg, A).is_zero()
    # Gram nondegeneracy across the battery: the mu x mu matrix has full rank
    for w, _a, _b in BATTERY:
        Aw = build_milnor(w)
        G = gram_matrix(Aw)
        assert len(G) == Aw.mu and exact_rank(G) == Aw.mu
    # deterministic serialization through the CLI
    doc = {
        "variables": ["x", "y"],
        "potential": "x^3 + x*y^2",
        "factorizations": {"E": {"koszul": {"a": ["x"], "b": ["x^2 + y^2"]}}},
    }
    path = tmp_path / "session.json"
    path.write_text(json.dumps(doc))
    outs = []
    for _ in range(2):
        assert cli_main(["--input", str(path), "--json", "milnor"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    report(11, "module property sweep")
