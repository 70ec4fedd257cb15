from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfinv.homology import hom_cohomology
from mfinv.invariants import chern, supertrace, tau
from mfinv.mfcore import (
    MorphismCocycle,
    greedy_decomposition,
    identity_morphism,
    koszul,
    koszul_subsets,
    mat_map,
    mat_mul,
    stabilized_residue_field,
)
from mfinv.milnor import build_milnor
from mfinv.oracle import (
    DTensor,
    build_diagonal,
    chern_of_diagonal,
    inverse_form_check,
    oracle_tau,
    solve_D,
)
from mfinv.poly import PolyRing, determinant, difference_derivative, doubled_ring
from mfinv.scalar import CyclotomicContext, rational
from mf_ops import scale
from tuple_route import polynomial, shift, terms
import matrix_route
from matrix_route import dense, sparse

R1 = PolyRing(("x",))
R2 = PolyRing(("x", "y"))
R3 = PolyRing(("x", "y", "z"))


def diagonal_koszul(data):
    """The Koszul diagonal {Delta_j w; y_j - x_j} on the doubled ring."""
    n = data.milnor.ring.n
    us = [data.doubled.var(n + j) - data.doubled.var(j) for j in range(n)]
    return koszul(data.differences, us)


def component(D: DTensor, subset) -> tuple:
    """The stored component D_S mapped back from (x, u) to (x, y), through
    u_j = y_j - x_j on exponent tuples."""
    n = D.source.ring.n
    M = dict(D.solved)[tuple(subset)]
    return mat_map(M, lambda p: polynomial(D.doubled, shift(terms(p), n, -1)))


def restriction_recursion_check(D: DTensor) -> bool:
    """The nested-subset components restrict to derivative factors in turn."""
    E = D.source
    doubled = D.doubled
    n = E.ring.n
    for j in range(1, n + 1):
        S = tuple(range(n - j, n))
        prev = tuple(range(n - j + 1, n))
        pivot = n - j
        images = [doubled.var(i) for i in range(2 * n)]
        images[n + pivot] = doubled.var(pivot)
        lhs = mat_map(component(D, S), lambda p: p.substitute(doubled, images))
        mixed = [doubled.var(i) for i in range(n)]
        for k in range(pivot + 1, n):
            mixed[k] = doubled.var(n + k)
        part = mat_map(E.partials[pivot], lambda p: p.substitute(doubled, mixed))
        rhs = mat_mul(component(D, prev), part, doubled.zero(), E.rank)
        if lhs != rhs:
            return False
    return True


def xn_fac(n, i):
    return koszul([R1.parse("x^%d" % i)], [R1.parse("x^%d" % (n - i))])


BATTERY = [
    (R1.parse("x^2"), [xn_fac(2, 1)]),
    (R1.parse("x^4"), [xn_fac(4, 1), xn_fac(4, 2)]),
    (R1.parse("x^6"), [xn_fac(6, 3)]),
    (
        R2.parse("x^3 + x*y^2"),
        [
            koszul([R2.parse("x")], [R2.parse("x^2 + y^2")]),
            koszul([R2.parse("x"), R2.parse("y")], [R2.parse("x^2"), R2.parse("x*y")]),
        ],
    ),
    (
        R2.parse("x^2 + y^2"),
        [koszul([R2.parse("x"), R2.parse("y")], [R2.parse("x"), R2.parse("y")])],
    ),
    (
        R2.parse("x^3 + y^3"),
        [koszul([R2.parse("x"), R2.parse("y")], [R2.parse("x^2"), R2.parse("y^2")])],
    ),
    (
        R3.parse("x^3 + y^3 + z^3"),
        [
            koszul(
                [R3.parse("x"), R3.parse("y"), R3.parse("z")],
                [R3.parse("x^2"), R3.parse("y^2"), R3.parse("z^2")],
            )
        ],
    ),
]


def test_build_diagonal_telescopes():
    w = R2.parse("x^3 + x*y^2")
    data = build_diagonal(build_milnor(w))
    n = 2
    doubled = data.doubled
    xs = [doubled.var(i) for i in range(n)]
    ys = [doubled.var(n + i) for i in range(n)]
    total = doubled.zero()
    for j in range(n):
        total = total + data.differences[j] * (ys[j] - xs[j])
    assert total == data.w_tilde
    assert diagonal_koszul(data).w == data.w_tilde


def test_difference_derivatives_restrict_to_partials():
    w = R2.parse("x^3 + x*y^2")
    data = build_diagonal(build_milnor(w))
    images = [R2.var(0), R2.var(1)] * 2
    for j in range(2):
        restricted = data.differences[j].substitute(R2, images)
        assert restricted == w.partial_derivative(j)


def test_diagonal_factorization_matches_subset_conventions():
    # the Koszul matrix mfcore builds must agree entry by entry with the
    # wedge/contraction signs the solver uses
    w = R2.parse("x^3 + y^3")
    data = build_diagonal(build_milnor(w))
    doubled = data.doubled
    n = 2
    evens, odds = koszul_subsets(n)
    ordered = evens + odds
    pos = {s: k for k, s in enumerate(ordered)}
    size = len(ordered)
    expected = [[doubled.zero() for _ in range(size)] for _ in range(size)]
    us = [doubled.var(n + i) - doubled.var(i) for i in range(n)]
    for s in ordered:
        col = pos[s]
        for i in range(n):
            below = sum(1 for t in s if t < i)
            sign = -1 if below % 2 else 1
            if i in s:
                t = tuple(k for k in s if k != i)
                term = us[i] if sign > 0 else -us[i]
            else:
                t = tuple(sorted(s + (i,)))
                d = data.differences[i]
                term = d if sign > 0 else -d
            expected[pos[t]][col] = expected[pos[t]][col] + term
    assert diagonal_koszul(data).delta == sparse(expected)


def test_diagonal_checks_reject_foreign_data():
    data = build_diagonal(build_milnor(R1.parse("x^2")))
    w = R1.parse("x^4")
    for check in (chern_of_diagonal, inverse_form_check):
        with pytest.raises(ValueError, match="different potential"):
            check(w, data)
    assert chern_of_diagonal(R1.parse("x^2"), data).agree
    assert inverse_form_check(R1.parse("x^2"), data)


def test_oracle_route_builds_no_diagonal(monkeypatch):
    # solve_D and oracle_tau read only the difference derivatives; the
    # Koszul diagonal and the doubled Jacobian belong to the two checks
    import mfinv.oracle as oracle

    def built(*args, **kwargs):
        raise AssertionError("the oracle route built a diagonal")

    w = R2.parse("x^3 + x*y^2")
    E = koszul([R2.parse("x")], [R2.parse("x^2 + y^2")])
    A = build_milnor(w)
    monkeypatch.setattr(oracle, "koszul", built)
    monkeypatch.setattr(oracle, "build_diagonal", built)
    assert oracle_tau(E, identity_morphism(E), A) == chern(E, A)
    assert restriction_recursion_check(solve_D(E))
    with pytest.raises(AssertionError, match="built a diagonal"):
        oracle.chern_of_diagonal(w)


def test_inverse_form_check_builds_no_koszul_diagonal(monkeypatch):
    # the Koszul diagonal is read by chern_of_diagonal alone
    import mfinv.oracle as oracle

    def built(*args, **kwargs):
        raise AssertionError("a Koszul diagonal was built")

    monkeypatch.setattr(oracle, "koszul", built)
    w = R2.parse("x^3 + x*y^2")
    assert inverse_form_check(w)
    assert inverse_form_check(w, build_diagonal(build_milnor(w)))
    with pytest.raises(AssertionError, match="Koszul diagonal was built"):
        chern_of_diagonal(w)


def test_smallest_case_by_hand():
    # w = x^2, E = {x, x}: the single nontrivial component is the odd
    # part of the Koszul matrix itself
    E = xn_fac(2, 1)
    D = solve_D(E)
    doubled = D.doubled
    one = doubled.one()
    assert dense(component(D, ()), 2, doubled.zero()) == ((one, doubled.zero()), (doubled.zero(), one))
    top = dense(component(D, (0,)), 2, doubled.zero())
    assert top[0][0].is_zero() and top[1][1].is_zero()
    assert top[0][1] == one and top[1][0] == one


@pytest.mark.parametrize(
    "ring,w,a,b",
    [
        (R1, "x^4", ["x"], ["x^3"]),
        (R2, "x^3 + y^3", ["x", "y"], ["x^2", "y^2"]),
        (R3, "x^3 + y^3 + z^3", ["x", "y", "z"], ["x^2", "y^2", "z^2"]),
    ],
)
def test_solve_rejects_a_perturbed_top_component(ring, w, a, b, monkeypatch):
    # one wrong coefficient in the top level leaves the last contraction
    # unbalanced, and nothing is solved after it that could fail first
    import mfinv.oracle as oracle

    E = koszul([ring.parse(t) for t in a], [ring.parse(t) for t in b])
    assert E.w == ring.parse(w)
    perturbed = []
    monkeypatch.setattr(oracle, "_homotopy", _perturbing_top(oracle._homotopy, perturbed))
    with pytest.raises(AssertionError, match="residual is nonzero"):
        solve_D(E)
    assert perturbed


def _perturbing_top(homotopy, perturbed):
    """`oracle._homotopy` with 1 added to one coefficient of the top
    component, which is the last one solve_D asks for."""
    calls = []

    def perturbing(M, i, n, ring):
        out = homotopy(M, i, n, ring)
        calls.append(i)
        if len(calls) < 2**n - 1:
            return out
        rows = [dict(row) for row in out]
        r, s = next((r, s) for r, row in enumerate(rows) for s in sorted(row))
        m = next(iter(rows[r][s].terms))
        rows[r][s] = rows[r][s] + ring.from_terms({m: ring.scalar(1)})
        perturbed.append((r, s, m))
        return tuple({s: p for s, p in row.items() if p} for row in rows)

    return perturbing


def _dropping_a_term(difference_derivative, dropped):
    """`oracle.difference_derivative` with one term removed from the first
    nonzero difference derivative it returns."""

    def dropping(f, j, doubled):
        out = difference_derivative(f, j, doubled)
        if dropped or not out.terms:
            return out
        m = next(iter(out.terms))
        dropped.append(m)
        return doubled.from_terms({t: c for t, c in out.terms.items() if t != m})

    return dropping


def test_telescoping_gate_rejects_a_dropped_term(monkeypatch):
    import mfinv.oracle as oracle

    A = build_milnor(R2.parse("x^3 + x*y^2"))
    E = koszul([R2.parse("x")], [R2.parse("x^2 + y^2")])
    for route in (lambda: build_diagonal(A), lambda: solve_D(E)):
        dropped = []
        monkeypatch.setattr(
            oracle, "difference_derivative", _dropping_a_term(difference_derivative, dropped)
        )
        with pytest.raises(AssertionError, match="fail the telescoping identity"):
            route()
        assert dropped


@pytest.mark.parametrize("w,facs", BATTERY)
def test_restriction_recursion(w, facs):
    for E in facs:
        D = solve_D(E)
        assert restriction_recursion_check(D)


@pytest.mark.parametrize("w,facs", BATTERY)
def test_oracle_tau_agrees_with_closed_form(w, facs):
    A = build_milnor(w)
    for E in facs:
        D = solve_D(E)
        h0, h1, basis = hom_cohomology(E, E)
        assert oracle_tau(E, identity_morphism(E), A, dtensor=D) == chern(E, A)
        for parity, dim in ((0, h0), (1, h1)):
            for k in range(dim):
                alpha = basis.representative(parity, k)
                assert oracle_tau(E, alpha, A, dtensor=D) == tau(E, alpha, A)


def test_oracle_tau_on_scaled_morphisms():
    w = R2.parse("x^3 + x*y^2")
    E = koszul([R2.parse("x")], [R2.parse("x^2 + y^2")])
    A = build_milnor(w)
    D = solve_D(E)
    alpha = scale(identity_morphism(E), rational(3, 2))
    assert oracle_tau(E, alpha, A, dtensor=D) == tau(E, alpha, A)
    beta = MorphismCocycle(E, E, 0, mat_map(alpha.matrix, lambda p: R2.parse("y") * p))
    assert oracle_tau(E, beta, A, dtensor=D) == tau(E, beta, A)


def test_oracle_tau_rejects_open_morphisms():
    E = xn_fac(4, 2)
    A = build_milnor(R1.parse("x^4"))
    x = R1.parse("x")
    bad = MorphismCocycle.from_blocks(E, E, 1, (((x,),), ((x,),)))
    assert not bad.is_closed()
    with pytest.raises(ValueError, match="not closed"):
        oracle_tau(E, bad, A)


def test_oracle_tau_rejects_potential_mismatch():
    E = xn_fac(4, 2)
    A = build_milnor(R1.parse("x^2"))
    with pytest.raises(ValueError, match="potential mismatch"):
        oracle_tau(E, identity_morphism(E), A)


def test_chern_of_diagonal_frozen_values():
    c = chern_of_diagonal(R1.parse("x^2"))
    assert c.agree
    assert c.direct == c.direct.ring.parse("2")
    c = chern_of_diagonal(R2.parse("x^2 + y^2"))
    assert c.agree
    assert c.direct == c.direct.ring.parse("-4")


# the potentials of the benchmark's diagonal workload, then the battery's
DIAGONAL = [
    R2.parse("x^9 + y^8"),
    R3.parse("x^3*y + y^5 + z^3"),
    R3.parse("x^4 + y^5 + z^6"),
    R3.parse("x^3 + y^3 + z^3"),
] + [w for w, _facs in BATTERY]


@pytest.mark.parametrize("w", DIAGONAL)
def test_chern_of_diagonal_matches_doubled_milnor_route(w):
    # the reference route: the whole Milnor ring of w(y) - w(x), with the
    # character through `chern` and the signed determinant projected there
    data = build_diagonal(build_milnor(w))
    A = build_milnor(data.w_tilde)
    direct = chern(diagonal_koszul(data), A)
    n = w.ring.n
    rows = [
        [difference_derivative(w.partial_derivative(i), j, data.doubled) for j in range(n)]
        for i in range(n)
    ]
    det = determinant(rows, data.doubled.one())
    det = A.project(-det if (n * (n - 1) // 2) % 2 else det, parity=0)
    c = chern_of_diagonal(w)
    assert (c.direct, c.determinant) == (direct.value, det.value)
    assert c.agree == (direct == det)
    assert c.agree


def test_oracle_route_never_calls_the_closed_form(monkeypatch):
    import importlib
    import pkgutil

    import mfinv
    import mfinv.invariants as invariants

    x, y, z = R3.var(0), R3.var(1), R3.var(2)
    cases = [
        (R1.parse("x^4"), xn_fac(4, 2)),
        (R2.parse("x^3 + x*y^2"), koszul([R2.parse("x")], [R2.parse("x^2 + y^2")])),
        (R3.parse("x^3 + y^3 + z^3"), koszul([x, y, z], [x**2, y**2, z**2])),
    ]
    expected = []
    for w, E in cases:
        A = build_milnor(w)
        h0, h1, basis = hom_cohomology(E, E)
        morphisms = [identity_morphism(E)] + [
            basis.representative(parity, k)
            for parity, dim in ((0, h0), (1, h1))
            for k in range(dim)
        ]
        values = [tau(E, f, A) for f in morphisms]
        assert values[0] == chern(E, A)
        expected.append((E, A, morphisms, values))

    def closed_form(*args, **kwargs):
        raise AssertionError("the oracle route called the closed-form formula")

    names = ("derivative_product", "chern", "tau")
    stubbed = set()
    for info in pkgutil.iter_modules(mfinv.__path__):
        module = importlib.import_module("mfinv." + info.name)
        for name in names:
            if getattr(module, name, None) is getattr(invariants, name):
                stubbed.add((module.__name__, name))
    for module_name, name in stubbed:
        monkeypatch.setattr(importlib.import_module(module_name), name, closed_form)
    assert {("mfinv.invariants", name) for name in names} <= stubbed
    assert ("mfinv.oracle", "derivative_product") in stubbed
    with pytest.raises(AssertionError, match="closed-form"):
        invariants.chern(*expected[0][:2])
    for E, A, morphisms, values in expected:
        D = solve_D(E)
        assert [oracle_tau(E, f, A, dtensor=D) for f in morphisms] == values


@pytest.mark.parametrize("w,facs", BATTERY)
def test_chern_of_diagonal_two_routes_agree(w, facs):
    assert chern_of_diagonal(w).agree


@pytest.mark.parametrize("w,facs", BATTERY)
def test_inverse_form(w, facs):
    assert inverse_form_check(w)


def test_inverse_form_smallest_cases():
    # x^2: Gram matrix [1/2], determinant reduces to 2
    assert inverse_form_check(R1.parse("x^2"))
    assert inverse_form_check(R2.parse("x^2 + y^2"))


@settings(deadline=None, max_examples=12)
@given(
    i=st.integers(min_value=1, max_value=3),
    n=st.integers(min_value=2, max_value=5),
)
def test_oracle_tau_random_power_factorizations(i, n):
    if i >= n:
        i, n = n - 1, n
    E = xn_fac(n, i)
    A = build_milnor(R1.parse("x^%d" % n))
    D = solve_D(E)
    h0, h1, basis = hom_cohomology(E, E)
    for parity, dim in ((0, h0), (1, h1)):
        for k in range(dim):
            alpha = basis.representative(parity, k)
            assert oracle_tau(E, alpha, A, dtensor=D) == tau(E, alpha, A)


def _gauss_solve(matrix, vector, zero):
    """Dense exact elimination over k."""
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for rr in range(r, rows):
            if matrix[rr][c] != 0:
                pivot = rr
                break
        if pivot is None:
            raise AssertionError("contraction system is singular on a column")
        matrix[r], matrix[pivot] = matrix[pivot], matrix[r]
        vector[r], vector[pivot] = vector[pivot], vector[r]
        inv = matrix[r][c].inverse()
        matrix[r] = [a * inv for a in matrix[r]]
        vector[r] = vector[r] * inv
        for rr in range(rows):
            if rr != r and matrix[rr][c] != 0:
                f = matrix[rr][c]
                matrix[rr] = [-(f * b) + a for a, b in zip(matrix[rr], matrix[r])]
                vector[rr] = -(f * vector[r]) + vector[rr]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    for rr in range(r, rows):
        if vector[rr] != 0:
            raise AssertionError("contraction system is inconsistent")
    solution = [zero] * cols
    for k, c in enumerate(pivots):
        solution[c] = vector[k]
    return solution


def _contraction_system(eqs: dict, n: int):
    """The incidence system of kappa(X) = rhs on one matrix entry of a level.

    eqs maps (subset, monomial) to a coefficient of the right-hand side, with
    u_i at position n + i of a monomial.  The unknowns are the coefficients
    of (T, monomial) with every u index at least min(T); a frontier search
    adds each unknown whose contraction reaches a known equation and each
    equation that such an unknown reaches.  Returns (rows, cols, matrix)
    with +-1 entries.
    """
    def shift(m, i, e):
        return m[: n + i] + (m[n + i] + e,) + m[n + i + 1 :]

    def unknowns_of(S, m):
        for i in range(n):
            if m[n + i] and i not in S:
                pos = sum(1 for s in S if s < i)
                T = tuple(sorted(S + (i,)))
                m2 = shift(m, i, -1)
                if not any(m2[n + k] for k in range(T[0])):
                    yield pos, (T, m2)

    for (S, m), c in eqs.items():
        if c != 0 and not any(m[n:]):
            raise AssertionError("right-hand side has a u-free term")
    rows = set(eqs)
    cols: set = set()
    frontier = set(eqs)
    while frontier:
        new = {key for S, m in frontier for _, key in unknowns_of(S, m)} - cols
        cols |= new
        frontier = {
            (tuple(t for t in T if t != i), shift(m, i, 1)) for T, m in new for i in T
        } - rows
        rows |= frontier
    rows, cols = sorted(rows), sorted(cols)
    index = {c: k for k, c in enumerate(cols)}
    matrix = []
    for S, m in rows:
        row = [rational(0)] * len(cols)
        for pos, key in unknowns_of(S, m):
            row[index[key]] = rational(-1 if pos % 2 else 1)
        matrix.append(row)
    return rows, cols, matrix


def _eliminate_level(level: dict, n: int, rank: int, ring) -> dict:
    """The components one level up, solved entry by entry by elimination."""
    zero = rational(0)
    grids: dict = {}
    for r in range(rank):
        for s in range(rank):
            eqs = {(S, m): c for S, M in level.items()
                   for m, c in terms(M[r].get(s, ring.zero())).items()}
            rows, cols, matrix = _contraction_system(eqs, n)
            if not cols:
                assert not eqs
                continue
            rhs = [eqs.get(row, zero) for row in rows]
            for (T, m), c in zip(cols, _gauss_solve(matrix, rhs, zero)):
                if c != 0:
                    grid = grids.setdefault(T, [[{} for _ in range(rank)] for _ in range(rank)])
                    grid[r][s][m] = c
    return {
        T: tuple(tuple(polynomial(ring, entry) for entry in row) for row in grid)
        for T, grid in grids.items()
    }


def _sheared_kst(ring, text, c):
    """k^st of w with (a_1, b_0) <- (a_1 + p a_0, b_0 - p b_1), p = c x_n."""
    a = list(greedy_decomposition(ring.parse(text)))
    b = [ring.var(i) for i in range(ring.n)]
    p = ring.var(ring.n - 1) * c
    a[1], b[0] = a[1] + p * a[0], b[0] - p * b[1]
    return koszul(a, b)


R2Z = PolyRing(("x", "y"), CyclotomicContext(3))
R4 = PolyRing(("x", "y", "z", "t"))
# the battery, the residue workload's oracle potentials with sheared k^st,
# a pair over Q(zeta_3) and k^st of the 4-variable Fermat cubic
REFERENCE = BATTERY + [
    (R2.parse("x^9 + y^8"), [_sheared_kst(R2, "x^9 + y^8", 2)]),
    (R2.parse("x^3*y + y^7"), [_sheared_kst(R2, "x^3*y + y^7", -1)]),
    (
        R2Z.parse("x^3 + y^3"),
        [koszul([R2Z.parse("x + z*y")], [R2Z.parse("(x + y)*(x + z^2*y)")])],
    ),
    (
        R4.parse("x^3 + y^3 + z^3 + t^3"),
        [stabilized_residue_field(R4.parse("x^3 + y^3 + z^3 + t^3"))],
    ),
]


@pytest.mark.parametrize("w,facs", REFERENCE)
def test_homotopy_matches_elimination_reference(w, facs, monkeypatch):
    # elimination level by level, from the right-hand sides solve_D formed:
    # if each level agrees, the elimination route run from the identity
    # forms the same right-hand sides and so the same components
    import mfinv.oracle as oracle

    seen = []
    check = oracle._assert_system

    def recording(components, rhs, n, rank, ring):
        seen.append((dict(components), dict(rhs), ring))
        return check(components, rhs, n, rank, ring)

    monkeypatch.setattr(oracle, "_assert_system", recording)
    n = w.ring.n
    for E in facs:
        D = solve_D(E)
        components, rhs, ring = seen.pop()
        images = [ring.var(i) for i in range(n)] + [ring.var(n + i) - ring.var(i) for i in range(n)]

        def from_u(p):
            return p.substitute(ring, images)

        zero = tuple(tuple(ring.zero() for _ in range(E.rank)) for _ in range(E.rank))
        for j in range(n):
            level = {S: M for S, M in rhs.items() if len(S) == j}
            solved = _eliminate_level(level, n, E.rank, ring)
            for T in combinations(range(n), j + 1):
                want = sparse(solved.get(T, zero))
                assert components[T] == want
                assert component(D, T) == mat_map(want, from_u)


@pytest.mark.parametrize("w,facs", REFERENCE)
def test_solve_D_matches_the_matrix_route(w, facs, monkeypatch):
    # each level formed and checked by one mat_sum, against whole matrices
    # added entry by entry: the same components in the same order, and
    # the right-hand sides pass the reference residual check
    import mfinv.oracle as oracle

    seen = []
    check = oracle._assert_system

    def recording(components, rhs, n, rank, ring):
        seen.append((dict(components), dict(rhs), ring))
        return check(components, rhs, n, rank, ring)

    monkeypatch.setattr(oracle, "_assert_system", recording)
    for E in facs:
        assert solve_D(E).solved == matrix_route.solve_D(E).solved
        components, rhs, ring = seen.pop()
        matrix_route.assert_system(components, rhs, w.ring.n, ring)


def _dropping_from(homotopy, skip, dropped):
    """`oracle._homotopy` with the first term of one entry removed from the
    nonzero component that follows the first ``skip`` nonzero ones."""
    passed = []

    def dropping(M, i, n, ring):
        out = homotopy(M, i, n, ring)
        if dropped or not any(out):
            return out
        if len(passed) < skip:
            passed.append(i)
            return out
        rows = [dict(row) for row in out]
        r, s = next((r, s) for r, row in enumerate(rows) for s in sorted(row))
        m = next(iter(rows[r][s].terms))
        rows[r][s] = ring.from_terms({t: c for t, c in rows[r][s].terms.items() if t != m})
        dropped.append((r, s, m))
        return tuple({s: p for s, p in row.items() if p} for row in rows)

    return dropping


@pytest.mark.parametrize("skip", [0, 1, 3, 5])
def test_solve_rejects_a_component_with_a_dropped_term(skip, monkeypatch):
    # a lower component missing one term is read by every level above it,
    # so the levels stay consistent with it; only the residual of the
    # level below sees the missing u_i term
    import mfinv.oracle as oracle

    x, y, z = R3.var(0), R3.var(1), R3.var(2)
    E = koszul([x, y, z], [x**2, y**2, z**2])
    dropped = []
    monkeypatch.setattr(oracle, "_homotopy", _dropping_from(oracle._homotopy, skip, dropped))
    with pytest.raises(AssertionError, match="residual is nonzero"):
        solve_D(E)
    assert len(dropped) == 1


@pytest.mark.parametrize("w,facs", REFERENCE)
def test_components_are_admissible(w, facs):
    # in (x, u) coordinates, D_T involves no u_k with k < min(T)
    ring = doubled_ring(w.ring)
    n = w.ring.n
    to_u = [ring.var(i) for i in range(n)] + [ring.var(i) + ring.var(n + i) for i in range(n)]
    for E in facs:
        D = solve_D(E)
        for T, _stored in D.solved:
            for row in component(D, T):
                for p in row.values():
                    for m in terms(p.substitute(ring, to_u)):
                        assert not any(m[n + k] for k in range(T[0] if T else n))


def _coefficients(context):
    small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    if context is None:
        return small.map(rational)
    return st.tuples(small, small).map(
        lambda ab: context.from_rational(ab[0]) + context.zeta() * ab[1]
    )


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_shift_is_the_binomial_ring_map(data):
    # the solver's coordinate change against the generic ring map y -> x + u,
    # and the reference back-map u -> y - x of `component` undoes it
    import mfinv.oracle as oracle

    n = data.draw(st.integers(min_value=1, max_value=3))
    context = data.draw(st.sampled_from([None, CyclotomicContext(3)]))
    ring = doubled_ring(PolyRing(("x", "y", "z")[:n], context))
    exponents = st.tuples(*[st.integers(min_value=0, max_value=4)] * (2 * n))
    p = polynomial(ring, data.draw(st.dictionaries(exponents, _coefficients(context), max_size=6)))
    xs = [ring.var(i) for i in range(n)]
    zs = [ring.var(n + i) for i in range(n)]
    forward = oracle._shift(p, n, ring)
    back = polynomial(ring, shift(terms(p), n, -1))
    assert forward == p.substitute(ring, xs + [x + z for x, z in zip(xs, zs)])
    assert back == p.substitute(ring, xs + [z - x for x, z in zip(xs, zs)])
    # and against the binomial expansion on exponent tuples
    assert forward == polynomial(ring, shift(terms(p), n, 1))
    assert polynomial(ring, shift(terms(forward), n, -1)) == p
    assert oracle._shift(back, n, ring) == p


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_halves_are_the_ring_maps_into_the_doubled_ring(data):
    # the word moves into k[x, y] against the generic ring map: x -> x for
    # half 0, x -> y for half 1
    import mfinv.oracle as oracle

    n = data.draw(st.integers(min_value=1, max_value=3))
    context = data.draw(st.sampled_from([None, CyclotomicContext(3)]))
    ring = PolyRing(("x", "y", "z")[:n], context)
    doubled = doubled_ring(ring)
    exponents = st.tuples(*[st.integers(min_value=0, max_value=6)] * n)
    p = polynomial(ring, data.draw(st.dictionaries(exponents, _coefficients(context), max_size=6)))
    for half in (0, 1):
        images = [doubled.var(half * n + i) for i in range(n)]
        assert oracle._in_half(p, doubled, half) == p.substitute(doubled, images)


@pytest.mark.parametrize("w,facs", REFERENCE)
def test_oracle_tau_reads_the_top_component_at_u_zero(w, facs):
    # the u-free terms of the stored top component against the top
    # component in (x, y) restricted through y -> x
    A = build_milnor(w)
    ring, n = w.ring, w.ring.n
    to_x = [ring.var(i) for i in range(n)] * 2
    for E in facs:
        D = solve_D(E)
        top = mat_map(component(D, range(n)), lambda p: p.substitute(ring, to_x))
        ident = identity_morphism(E)
        for alpha in (ident, scale(ident, ring.var(0))):
            M = mat_mul(top, alpha.matrix, ring.zero(), E.rank)
            want = A.project(supertrace(ring, M, E.r0), parity=(n + alpha.parity) % 2)
            assert oracle_tau(E, alpha, A, dtensor=D) == want
            assert oracle_tau(E, alpha, A) == want


@pytest.mark.parametrize("entry,delta", [((0, 0), 1), ((0, 1), 1), ((2, 0), 1)])
def test_inverse_form_rejects_a_wrong_gram_matrix(monkeypatch, entry, delta):
    import mfinv.oracle as oracle

    gram = oracle.gram_matrix

    def perturbed(A):
        G = gram(A)
        i, j = entry
        G[i][j] = G[i][j] + delta
        return G

    monkeypatch.setattr(oracle, "gram_matrix", perturbed)
    with pytest.raises(AssertionError, match="does not invert the Gram matrix"):
        inverse_form_check(R1.parse("x^4"))


def test_transgression_gate_raises_under_optimize():
    # a perturbed top component: the residual gate must not be a bare
    # assert, which python -O strips
    import os
    import pathlib
    import subprocess
    import sys

    import mfinv

    src = str(pathlib.Path(mfinv.__file__).resolve().parent.parent)
    tests = str(pathlib.Path(__file__).resolve().parent)
    code = (
        "import mfinv.oracle as oracle\n"
        "from test_oracle import _perturbing_top, xn_fac\n"
        "perturbed = []\n"
        "oracle._homotopy = _perturbing_top(oracle._homotopy, perturbed)\n"
        "try:\n"
        "    oracle.solve_D(xn_fac(4, 1))\n"
        "except AssertionError as exc:\n"
        "    print('raised:', exc, len(perturbed))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, tests)))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.splitlines() == [
        "raised: transgression system residual is nonzero at level 0 1"
    ]


def test_telescoping_gate_raises_under_optimize():
    # the gate is an explicit raise, not a bare assert, so python -O keeps it
    import os
    import pathlib
    import subprocess
    import sys

    import mfinv

    src = str(pathlib.Path(mfinv.__file__).resolve().parent.parent)
    tests = str(pathlib.Path(__file__).resolve().parent)
    code = (
        "import mfinv.oracle as oracle\n"
        "from mfinv.milnor import build_milnor\n"
        "from test_oracle import _dropping_a_term, xn_fac\n"
        "real = oracle.difference_derivative\n"
        "E = xn_fac(4, 1)\n"
        "for route in (lambda: oracle.build_diagonal(build_milnor(E.w)), lambda: oracle.solve_D(E)):\n"
        "    dropped = []\n"
        "    oracle.difference_derivative = _dropping_a_term(real, dropped)\n"
        "    try:\n"
        "        route()\n"
        "    except AssertionError as exc:\n"
        "        print('raised:', exc, len(dropped))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, tests)))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.splitlines() == [
        "raised: difference derivatives fail the telescoping identity 1"
    ] * 2


def test_dropped_term_gate_raises_under_optimize():
    # the residual gate is an explicit raise, so python -O keeps it also
    # when the wrong component sits below the top
    import os
    import pathlib
    import subprocess
    import sys

    import mfinv

    src = str(pathlib.Path(mfinv.__file__).resolve().parent.parent)
    tests = str(pathlib.Path(__file__).resolve().parent)
    code = (
        "import mfinv.oracle as oracle\n"
        "from test_oracle import R3, _dropping_from\n"
        "from mfinv.mfcore import koszul\n"
        "x, y, z = R3.var(0), R3.var(1), R3.var(2)\n"
        "E = koszul([x, y, z], [x**2, y**2, z**2])\n"
        "dropped = []\n"
        "oracle._homotopy = _dropping_from(oracle._homotopy, 0, dropped)\n"
        "try:\n"
        "    oracle.solve_D(E)\n"
        "except AssertionError as exc:\n"
        "    print('raised:', exc, len(dropped))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, tests)))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.splitlines() == [
        "raised: transgression system residual is nonzero at level 0 1"
    ]
