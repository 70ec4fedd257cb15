"""Finite diagonal symmetry: sectors, equivariant characters, orbifold sums.

A group element acts by x_i -> zeta^(k_i) x_i.  Inside this module it is
the exponent vector (k_1..k_n) mod m over one table of roots of unity
``roots = (zeta^0..zeta^(m-1))`` per group (``(1, -1)`` over Q), so group
closure and inversion are integer arithmetic and the character of a
monomial x^e is the table entry zeta^(sum k_i e_i).  At the public
boundary an element is still the tuple of its root-of-unity scalars
(zeta^(k_1)..zeta^(k_n)), in the order the closure found it.

Everything is enumerated: the closure of the generators, the per-element
action matrices on a factorization (extended multiplicatively from the
generators and checked against the group relations), and the sector data

    w_g = w restricted to the fixed variables of g,

whose Milnor algebra receives the g-component of the equivariant Chern
character.  The equivariance convention used throughout:

    rho(g) . delta(g x) = delta(x) . rho(g),

which over a group is equivalent to the usual one-sided conjugation form.
It is checked on the generators only.  `equivariant_actions` has already
checked rho(g) rho(h_k) = rho(g h_k) for every g and k, so rho is a
homomorphism; if the identity holds for g and h, applying it for h at g x
and then for g gives it for g h.  The elements where it holds are closed
under products, so in a finite group they form a subgroup, and a subgroup
that contains the generators is all of G.  The same argument covers the
invariance of the potential, w(g x) = w.
Because ``G.elements`` lists the identity and then the distinct
generators in input order, the first generator that fails is the first
element that would fail.  The generators also fix the action on the Hom
cohomology H(E, F), a representation of G: `invariant_hom_dimensions`
computes its matrices on the generators only and extends them over
``G.products`` as `equivariant_actions` extends rho, checking every
relation.

Each piece of work is done once.  `validate_equivariant` keeps the table
it has checked on the `EquivariantMF`, for the last group it was checked
against (compared by identity; both objects are immutable), and a failed
check stores nothing.  A sweep builds one sector per set of fixed
variables, on which alone the sector of g depends.  Sectors with no
fixed variables degenerate to the zero-variable Milnor algebra A = k; the
supertrace of rho(g) itself is the character there and the empty pairing
sign is +1.

The g-component is the plain supertrace str(d delta ... d delta . rho(g))
over the fixed indices: `invariants.supertrace` reads the diagonal of the
fixed product times rho(g) without forming it, and a polynomial restricts
to a sector by masking its exponent words (`_restrict`).  The equivariant
index and the graded index are one orbifold sum over (g, rho_E(g^-1),
rho_F(g)); the graded one runs over the abstract cyclic grading group,
whose generator has the exponent vector of the weights over a table of
order 2 ell.
"""
from __future__ import annotations

from math import gcd
from operator import mul
from types import MappingProxyType

from .homology import hom_cohomology
from .mfcore import (
    EquivariantMF,
    MatFac,
    MorphismCocycle,
    diagonal_matrix,
    koszul_subsets,
    mat_add,
    mat_map,
    mat_mul,
    mat_scale,
    mat_transpose,
    stabilized_residue_field,
)
from .milnor import MilnorClass, build_milnor, canonical_pairing
from .invariants import derivative_product, supertrace
from .poly import _B, _FIELD, Polynomial, PolyRing
from .scalar import (
    MAX_CONDUCTOR,
    CyclotomicContext,
    Frozen,
    Scalar,
    one as scalar_one,
    rational,
    zero as scalar_zero,
)

Element = tuple  # tuple[Scalar, ...] of length n


def _roots(context, m: int) -> tuple:
    """zeta_m^0..zeta_m^(m-1) in the field of ``context``; (1, -1) over Q."""
    if context is None:
        return (scalar_one(), -scalar_one())
    return tuple(context.zeta(k * (context.order // m)) for k in range(m))


class DiagonalGroup(Frozen):
    """An enumerated finite group of diagonal scaling symmetries.

    ``exponents[i]`` is the exponent vector of ``elements[i]`` over
    ``roots``, and ``products[i][k]`` the position of
    elements[i] . generators[k].  Exponent vectors and scalar tuples live
    in separate dicts: a rational Scalar hashes and compares equal to the
    matching int, so one dict would confuse (1,) with the identity over Q.
    """

    __slots__ = ("context", "n", "roots", "generators", "elements", "exponents",
                 "products", "_index", "_position")

    def __init__(self, context, n, roots, gen_exponents, position, products):
        # position maps each exponent vector to its position, identity first
        exponents = tuple(position)
        elements = tuple(tuple(roots[k] for k in e) for e in exponents)
        generators = tuple(tuple(roots[k] for k in h) for h in gen_exponents)
        index = {g: i for i, g in enumerate(elements)}
        super().__init__(context, n, roots, generators, elements, exponents, products, index,
                         position)

    @property
    def order(self) -> int:
        return len(self.elements)

    def index(self, g: Element) -> int:
        try:
            return self._index[g]
        except (KeyError, TypeError):  # TypeError: g is not hashable
            raise ValueError("element is not in the enumerated group") from None

    def exponent(self, g: Element) -> tuple:
        return self.exponents[self.index(g)]

    def inverse(self, g: Element) -> Element:
        m = len(self.roots)
        return self.elements[self._position[tuple(-k % m for k in self.exponent(g))]]

    def generator_items(self):
        """(element, exponent vector) of each generator, in input order:
        ``products[0][k]`` is the position of identity . h_k = h_k."""
        return [(self.elements[i], self.exponents[i]) for i in self.products[0]]


def close_group(n: int, generators, context=None) -> DiagonalGroup:
    """Enumerate the closure of diagonal generators, breadth first; a
    closure of more than MAX_CONDUCTOR elements raises."""
    roots = _roots(context, 2 if context is None else context.order)
    m = len(roots)
    log = {lam: k for k, lam in enumerate(roots)}
    gens = []
    for g in generators:
        g = tuple(g)
        if len(g) != n:
            raise ValueError("generator length does not match the variable count")
        for lam in g:
            if lam not in log:
                raise ValueError("entry %s is not a root of unity" % lam)
        gens.append(tuple(log[lam] for lam in g))
    exponents = [(0,) * n]
    position = {exponents[0]: 0}
    products = []
    for e in exponents:  # grows while it is walked: a breadth-first queue
        row = []
        for h in gens:
            prod = tuple((a + b) % m for a, b in zip(e, h))
            if prod not in position:
                position[prod] = len(exponents)
                exponents.append(prod)
                if len(exponents) > MAX_CONDUCTOR:
                    raise ValueError("group closure exceeds the bound %d" % MAX_CONDUCTOR)
            row.append(position[prod])
        products.append(tuple(row))
    return DiagonalGroup(context, n, roots, gens, position, tuple(products))


def substitute_action(p: Polynomial, k: tuple, roots: tuple) -> Polynomial:
    """p(g x) for the element with exponent vector k over ``roots``: the
    term c x^e becomes c zeta^(sum k_i e_i) x^e."""
    m, exponents = len(roots), p.ring.layout.exponents
    return p.ring.from_terms({
        e: c * roots[sum(map(mul, k, exponents(e))) % m] for e, c in p.terms.items()
    })


def check_invariance(w: Polynomial, G: DiagonalGroup) -> None:
    """w(g x) = w for every g, checked on the generators (module docstring)."""
    for g, k in G.generator_items():
        if substitute_action(w, k, G.roots) != w:
            raise ValueError(
                "potential is not invariant under (%s)" % ", ".join(str(x) for x in g)
            )


class Sector(Frozen):
    """Fixed-locus data of a group element, shared by every element with
    the same fixed variables; ``milnor`` is A_{w_g} over the
    fixed-variable ring."""

    __slots__ = ("fixed_indices", "milnor")

    @property
    def w_g(self) -> Polynomial:
        return self.milnor.w

    @property
    def n_fixed(self) -> int:
        return len(self.fixed_indices)


def _restrict(p: Polynomial, fixed: tuple, sub_ring: PolyRing) -> Polynomial:
    """p at zero moving variables, in the fixed variables' ring: the terms
    with no bit in a moving field, fixed fields packed into sub-ring words."""
    moving = sum(_FIELD << (_B * i) for i in range(p.ring.n) if i not in fixed)
    moves = [(_B * i, _B * k) for k, i in enumerate(fixed)]
    return Polynomial(sub_ring, {
        sum((m >> a & _FIELD) << b for a, b in moves): c
        for m, c in p.terms.items() if not m & moving
    })


def sector(w: Polynomial, g: Element) -> Sector:
    ring = w.ring
    fixed = tuple(i for i, lam in enumerate(g) if lam == 1)
    w_g = _restrict(w, fixed, PolyRing(tuple(ring.names[i] for i in fixed), ring.context))
    try:
        milnor = build_milnor(w_g)
    except ValueError as exc:
        raise AssertionError("sector potential is not isolated: %s" % exc) from exc
    return Sector(fixed, milnor)


def sectors(w: Polynomial, elements) -> list[Sector]:
    """The sector of each element, built once per set of fixed variables."""
    built = {}
    out = []
    for g in elements:
        fixed = tuple(i for i, lam in enumerate(g) if lam == 1)
        if fixed not in built:
            built[fixed] = sector(w, g)
        out.append(built[fixed])
    return out


def restrict_to_sector(p: Polynomial, sec: Sector) -> Polynomial:
    return _restrict(p, sec.fixed_indices, sec.milnor.ring)


# --- action matrices --------------------------------------------------------


def _extend(G: DiagonalGroup, generators: list, size: int) -> list | None:
    """M(g) for every element in ``G.elements`` order, from
    M(h_k) = generators[k], in one breadth-first pass over the closure:
    the first product M(g) M(h_k) defines M(g h_k), and every later
    product that lands on the same element checks a group relation.
    None when a relation fails."""
    zero = scalar_zero(G.context)
    M = [diagonal_matrix([scalar_one(G.context)] * size, zero)] + [None] * (G.order - 1)
    for i, row in enumerate(G.products):
        for k, j in enumerate(row):
            P = mat_mul(M[i], generators[k], zero)
            if M[j] is None:
                M[j] = P
            elif P != M[j]:
                return None
    return M


def equivariant_actions(E: EquivariantMF, G: DiagonalGroup) -> dict:
    """rho(g) for every element, extended from the generators by `_extend`.
    Raises when the action fails a relation or a generator count
    mismatches."""
    if len(E.action) != len(G.generators):
        raise ValueError("one action matrix per group generator is required")
    rho = _extend(G, E.action, E.base.rank)
    if rho is None:
        raise ValueError("action does not respect the group relations")
    return dict(zip(G.elements, rho))


def _commutes(delta, k: tuple, roots: tuple, rho, zero) -> bool:
    """rho . delta(g x) == delta(x) . rho for one element and its action."""
    moved = mat_map(delta, lambda p: substitute_action(p, k, roots))
    return mat_mul(rho, moved, zero) == mat_mul(delta, rho, zero)


def validate_equivariant(E: EquivariantMF, G: DiagonalGroup) -> MappingProxyType:
    """The action table of `equivariant_actions`, read-only, after checking
    rho(g) delta(g x) = delta(x) rho(g) for every element, through its
    generators (module docstring).  The checked table is kept on E for G,
    so later calls with the same G return it at once."""
    checked = E.checked
    if checked is not None and checked[0] is G:
        return MappingProxyType(checked[1])
    actions = equivariant_actions(E, G)
    delta = E.base.delta
    for g, k in G.generator_items():
        if not _commutes(delta, k, G.roots, actions[g], E.base.ring.zero()):
            raise ValueError(
                "factorization is not equivariant under (%s)"
                % ", ".join(str(x) for x in g)
            )
    # the slot holds the dict itself, which copy and pickle can carry
    object.__setattr__(E, "checked", (G, actions))
    return MappingProxyType(actions)


# --- equivariant characters -------------------------------------------------


def _fixed_product(base: MatFac, sec: Sector):
    """The product of d delta over the fixed indices, the highest leftmost."""
    return derivative_product(base, sec.fixed_indices[::-1])


def _sector_character(base: MatFac, sec: Sector, P, rho_g) -> MilnorClass:
    """The g-sector character from ``P = _fixed_product(base, sec)``."""
    s = restrict_to_sector(supertrace(P, base.r0, rho_g), sec)
    return sec.milnor.project(s, parity=sec.n_fixed % 2)


def chern_equivariant(E: EquivariantMF, G: DiagonalGroup, g: Element) -> MilnorClass:
    """The g-component of the equivariant Chern character, in A_{w_g}."""
    G.index(g)  # an element outside G raises before any work
    actions = validate_equivariant(E, G)
    sec = sector(E.base.w, g)
    return _sector_character(E.base, sec, _fixed_product(E.base, sec), actions[g])


def _morphism_action_full(f, G: DiagonalGroup, g, actions_E, actions_F):
    """Full matrix of g . f = rho_F(g) f(g x) rho_E(g)^(-1)."""
    zero = f.source.ring.zero()
    k = G.exponent(g)
    moved = mat_map(f.matrix, lambda p: substitute_action(p, k, G.roots))
    return mat_mul(actions_F[g], mat_mul(moved, actions_E[G.inverse(g)], zero), zero)


def c_weight(k: tuple, roots: tuple) -> Scalar:
    """Product over moving directions of (1 - lambda_i)^(-1) for the
    element with exponent vector k over ``roots``; 1 at identity.

    No factor needs a field inversion.  With m = len(roots), the entry
    lambda = roots[e] of order q = m / gcd(e, m) > 1 has powers that sum
    to zero, so

        (1 - lambda) sum_(t<q) t lambda^t = -q,
        (1 - lambda)^(-1) = -(1/q) sum_(t<q) t lambda^t.

    Over Q, roots = (1, -1) and the one factor is 1/2.  The integral sums
    are multiplied together and divided once by the product of the -q.
    """
    m = len(roots)
    total, den = roots[0], 1
    for e in k:
        if e % m:
            q = m // gcd(e, m)
            total = total * sum(t * roots[e * t % m] for t in range(1, q))
            den *= -q
    return total / den


def chi_equivariant(E: EquivariantMF, F: EquivariantMF, G: DiagonalGroup) -> Scalar:
    """The orbifold index pairing; always a rational integer.

    |G|^(-1) sum_g c_g <ch(E)_(g^-1), ch(F)_g> paired in the g-sector.
    """
    if E.base.w != F.base.w:
        raise ValueError("potential mismatch")
    actions_E = validate_equivariant(E, G)
    actions_F = validate_equivariant(F, G)
    terms = [(k, actions_E[G.inverse(g)], actions_F[g]) for g, k in zip(G.elements, G.exponents)]
    return _orbifold_sum(E.base.w, E.base, F.base, terms, G.roots, "equivariant index")


def _orbifold_sum(w, E: MatFac, F: MatFac, terms, roots: tuple, what: str) -> Scalar:
    """|terms|^(-1) sum over (k, rho_E(g^-1), rho_F(g)), k the exponent
    vector of g over ``roots``, of the c_g-weighted pairing of the two
    sector characters; must be a rational integer."""
    total = rational(0)
    products = {}  # fixed indices -> the fixed products of E and F
    elements = [tuple(roots[e] for e in t[0]) for t in terms]
    for (k, rho_E, rho_F), sec in zip(terms, sectors(w, elements)):
        if sec.fixed_indices not in products:
            products[sec.fixed_indices] = (_fixed_product(E, sec), _fixed_product(F, sec))
        P_E, P_F = products[sec.fixed_indices]
        a = _sector_character(E, sec, P_E, rho_E)
        b = _sector_character(F, sec, P_F, rho_F)
        pair = canonical_pairing(a, b)
        total = total + c_weight(k, roots) * pair
    total = total / rational(len(terms))
    if not total.is_rational_integer():
        raise ValueError("%s is not an integer: %s" % (what, total))
    return total


def invariant_hom_dimensions(
    E: EquivariantMF, F: EquivariantMF, G: DiagonalGroup
) -> tuple[int, int]:
    """Dimensions of the G-invariant parts of the Hom cohomology.

    Computed through the averaging projector acting on class coordinates,
    from the generators' matrices extended to every element by `_extend`
    (module docstring); the group relations, idempotency and integrality
    of the trace are asserted.
    """
    actions_E = validate_equivariant(E, G)
    actions_F = validate_equivariant(F, G)
    h0, h1, basis = hom_cohomology(E.base, F.base)
    dims = []
    for parity, count in ((0, h0), (1, h1)):
        if count == 0:
            dims.append(0)
            continue
        reps = [basis.representative(parity, k) for k in range(count)]
        generators = [
            _class_action(basis, reps, G, h, actions_E, actions_F) for h in G.generators
        ]
        mats = _extend(G, generators, count)
        if mats is None:
            raise AssertionError("action on Hom cohomology does not respect the group relations")
        avg = mats[0]
        for Mg in mats[1:]:
            avg = mat_add(avg, Mg)
        P = mat_scale(avg, rational(1, G.order))
        if mat_mul(P, P, scalar_zero(G.context)) != P:
            raise AssertionError("averaging operator failed to be idempotent")
        trace = rational(0)
        for i in range(count):
            trace = trace + P[i][i]
        if not trace.is_rational_integer():
            raise AssertionError("projector trace is not an integer: %s" % trace)
        dims.append(int(trace.as_fraction()))
    return dims[0], dims[1]


def _class_action(basis, reps, G: DiagonalGroup, h: Element, actions_E, actions_F):
    """The matrix of h on H^p(E, F) in class coordinates: column k holds
    the coordinates of h . reps[k]."""
    cols = []
    for f in reps:
        acted = _morphism_action_full(f, G, h, actions_E, actions_F)
        cols.append(basis.class_coordinates(MorphismCocycle(f.source, f.target, f.parity, acted)))
    return mat_transpose(cols)


# --- orbifold Hochschild dimensions ----------------------------------------


def orbifold_hh_dimensions(w: Polynomial, G: DiagonalGroup):
    """Per-sector invariant dimensions of A_{w_g} . dx_fixed, with totals.

    Returns (sectors, total_even, total_odd) where sectors is a list of
    (g, parity, dimension).  h acts on the sector algebra by substitution
    and on the form factor by the product of its fixed-direction
    eigenvalues.
    """
    check_invariance(w, G)
    out = []
    total = [0, 0]
    dims = {}  # fixed indices -> invariant dimension of that sector
    for g, sec in zip(G.elements, sectors(w, G.elements)):
        if sec.fixed_indices not in dims:
            dims[sec.fixed_indices] = _invariant_dimension(sec, G)
        parity = sec.n_fixed % 2
        dim = dims[sec.fixed_indices]
        out.append((g, parity, dim))
        total[parity] += dim
    return out, total[0], total[1]


def _invariant_dimension(sec: Sector, G: DiagonalGroup) -> int:
    """dim (A_{w_g} . dx_fixed)^G for the elements g of this sector."""
    # each h acts diagonally on the monomial basis: x^e dx_fixed has
    # the character zeta^(sum over fixed i of k_i (e_i + 1))
    m = len(G.roots)
    trace = rational(0)
    for k in G.exponents:
        fixed_k = [k[i] for i in sec.fixed_indices]
        for e in sec.milnor.basis:
            s = sum(a * (b + 1) for a, b in zip(fixed_k, e))
            trace = trace + G.roots[s % m]
    trace = trace / rational(G.order)
    if not trace.is_rational_integer():
        raise AssertionError("invariant dimension is not an integer")
    return int(trace.as_fraction())


# --- equivariant stabilization ---------------------------------------------


def equivariant_stabilization(w: Polynomial, G: DiagonalGroup) -> EquivariantMF:
    """k^st with the subset-diagonal action (valid for any diagonal group)."""
    check_invariance(w, G)
    kst = stabilized_residue_field(w)
    evens, odds = koszul_subsets(w.ring.n)
    ordered = evens + odds
    m = len(G.roots)
    action = []
    for h in G.generators:
        k = G.exponent(h)
        diag = [G.roots[sum(k[i] for i in s) % m] for s in ordered]
        action.append(diagonal_matrix(diag, scalar_zero(G.context)))
    return EquivariantMF(kst, tuple(action))


# --- graded potentials as equivariant ones ----------------------------------


class GradedStructure(Frozen):
    """The cyclic grading symmetry of a quasi-homogeneous potential.

    The abstract group is Z/(2 ell).  Its generator scales x_i by
    roots[a_i] = zeta^(a_i) where zeta has order 2 ell, so [m] has the
    exponent vector m a mod 2 ell; this diagonal action need not
    be faithful (distinct group elements can move the variables the same
    way while acting differently on factorizations through the extra
    half-period twist on odd summands), so the group is kept abstract
    rather than enumerated from its diagonal tuples.

    ``weights`` are taken after the possible doubling, ``ell`` is half the
    (doubled) degree of w, and ``roots`` lists zeta^0..zeta^(2 ell - 1) for
    a primitive root of order 2 ell.
    """

    __slots__ = ("ring", "w", "weights", "ell", "roots", "doubled")

    @property
    def order(self) -> int:
        return 2 * self.ell


def graded_to_equivariant(w: Polynomial, weights) -> GradedStructure:
    """Realize the grading of w as a cyclic symmetry of order 2*ell.

    Weights are doubled when the weighted degree of w is odd, so that the
    degree of w is always 2*ell and the generator acts by zeta_(2 ell)^(a_i).
    A weight that is not an integer, or an order 2*ell above MAX_CONDUCTOR
    over Q, raises ValueError.
    """
    try:
        integral = all(a == int(a) for a in weights)
    except (TypeError, ValueError, OverflowError):
        integral = False
    if not integral:
        raise ValueError("weights must be integers, got %r" % (tuple(weights),))
    weights = tuple(int(a) for a in weights)
    degw = w.quasi_degree(weights)
    if degw is None or degw <= 0:
        raise ValueError("potential is not quasi-homogeneous for these weights")
    doubled = degw % 2 == 1
    if doubled:
        weights = tuple(2 * a for a in weights)
        degw *= 2
    ell = degw // 2
    L = degw
    base_ring = w.ring
    if base_ring.context is None:
        if L > MAX_CONDUCTOR:
            raise ValueError("grading group order %d is above the limit %d" % (L, MAX_CONDUCTOR))
        ctx = CyclotomicContext(L)
        ring = PolyRing(base_ring.names, ctx)
        w2 = w.map_ring(ring)
    else:
        ctx = base_ring.context
        if ctx.order % L:
            raise ValueError(
                "session field of order %d has no root of order %d" % (ctx.order, L)
            )
        ring = base_ring
        w2 = w
    return GradedStructure(ring, w2, weights, ell, _roots(ctx, L), doubled)


def graded_exponents(S: GradedStructure, E: MatFac, degrees0, degrees1):
    """Diagonal character exponents of the grading generator on E.

    degrees0/degrees1 assign an integer degree to each even/odd basis
    element, measured against S.weights (the doubled scale when S.doubled
    is set; odd summands often need odd degrees there).  Every nonzero
    entry of delta must be quasi-homogeneous of degree
    ell + deg(source) - deg(target).  The generator then acts on the even
    part by zeta^deg and on the odd part by zeta^(deg + ell); the
    returned list gives those exponents in full-basis order.
    """
    if E.ring.names != S.ring.names:
        raise ValueError("factorization ring does not match the graded ring")
    degrees0, degrees1 = list(degrees0), list(degrees1)
    if len(degrees0) != E.r0 or len(degrees1) != E.r1:
        raise ValueError("one degree per basis element is required")
    degrees = degrees0 + degrees1
    for t, row in enumerate(E.delta):
        for s, entry in enumerate(row):
            if entry.is_zero():
                continue
            qd = entry.quasi_degree(S.weights)
            if qd is None or qd != S.ell + degrees[s] - degrees[t]:
                raise ValueError("basis degrees are incompatible with a homogeneous delta")
    L = S.order
    exps = [d % L for d in degrees0]
    exps += [(d + S.ell) % L for d in degrees1]
    return exps


def _graded_rho(S: GradedStructure, exps, m: int):
    """The diagonal action of [m] on a summand with these exponents."""
    diag = [S.roots[(m * e) % S.order] for e in exps]
    return diagonal_matrix(diag, scalar_zero(S.ring.context))


def graded_chi(
    S: GradedStructure,
    E: MatFac,
    degE: tuple,
    F: MatFac,
    degF: tuple,
) -> Scalar:
    """Graded Euler characteristic through the orbifold index over Z/(2 ell)."""
    if E.w != S.w or F.w != S.w:
        raise ValueError("potential mismatch")
    exps_E = graded_exponents(S, E, *degE)
    exps_F = graded_exponents(S, F, *degF)
    # over Q the grading's roots live in Q(zeta_(2 ell)): E and F move to
    # that ring first, so that no polynomial over Q is multiplied by them
    E, F = (
        X if X.ring == S.ring
        else MatFac(S.ring, S.w, mat_map(X.delta, lambda p: p.map_ring(S.ring)), X.r0)
        for X in (E, F)
    )
    for base, exps in ((E, exps_E), (F, exps_F)):
        rho = _graded_rho(S, exps, 1)
        if not _commutes(base.delta, S.weights, S.roots, rho, base.ring.zero()):
            raise ValueError("graded action does not commute with delta")
    terms = [
        (tuple(m * a % S.order for a in S.weights), _graded_rho(S, exps_E, -m),
         _graded_rho(S, exps_F, m))
        for m in range(S.order)
    ]
    return _orbifold_sum(S.w, E, F, terms, S.roots, "graded index")
