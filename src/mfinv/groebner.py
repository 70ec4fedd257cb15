"""One Buchberger engine for submodules of R^r; an ideal is the rank-1 case.

Everything runs over the global grevlex order.  The downstream callers
(Milnor rings, Hom-cohomology) only ever feed ideals and modules whose
quotients are supported at the origin, where global and local computations
agree; `local_support_check` certifies that precondition.

Module elements are plain tuples of polynomials, and an ideal generator g
is the element (g,).  The module order is term-over-position (grevlex on
the monomial part, ties to the lower position index); elements of length
1 also get Buchberger's product criterion.  Syzygies and cofactors use a
position-block elimination order on an enlarged free module instead of
Schreyer-style tracking, which keeps correctness independent of the
pair-elimination criteria: the basis of the vectors (g_i, e_i) in
R^(1+s) under the order whose first position dominates has the reduced
ideal basis as its first components, and its tails are the cofactors.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

from .poly import (
    Monomial,
    PolyRing,
    Polynomial,
    grevlex_key,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)

ModuleElement = tuple  # tuple[Polynomial, ...]


def _mod_lead(v: ModuleElement, block: int):
    """Lead (position, monomial) of v: any term in the first ``block``
    positions beats every term outside them, then grevlex decides, then
    the lower position."""
    positions = [p for p, c in enumerate(v) if c.terms]
    if not positions:
        raise ValueError("leading term of zero module element")
    if positions[0] < block:
        positions = [p for p in positions if p < block]
    # the lead of v is the largest of the remaining components' leads
    leads = [(p, v[p].leading_monomial()) for p in positions]
    if len(leads) == 1:
        return leads[0]
    return max(leads, key=lambda pm: (grevlex_key(pm[1]), -pm[0]))


def _mod_is_zero(v) -> bool:
    return not any(c.terms for c in v)


def _with_leads(gens, block: int):
    """(element, (position, lead monomial, inverse lead coefficient)) pairs."""
    out = []
    for g in gens:
        p, m = _mod_lead(g, block)
        out.append((g, (p, m, g[p].terms[m].inverse())))
    return out


def _with_units(gens, ring: PolyRing):
    """The vectors (g_i, e_i) in R^(rank + s)."""
    s = len(gens)
    return [
        tuple(g) + tuple(ring.one() if j == i else ring.zero() for j in range(s))
        for i, g in enumerate(gens)
    ]


def _mod_divide(v, basis, ring, block: int):
    """Full division of v by the `_with_leads` entries of ``basis``;
    returns (remainder, quotients)."""
    quots = [{} for _ in basis]
    rem = [{} for _ in v]
    work = list(v)
    while not _mod_is_zero(work):
        p, m = _mod_lead(work, block)
        c = work[p].terms[m]
        for i, (w, (wp, wm, winv)) in enumerate(basis):
            if wp == p and monomial_divides(wm, m):
                t = monomial_div(m, wm)
                coeff = c * winv
                # leads strictly decrease, so each (i, t) occurs once
                quots[i][t] = coeff
                factor = Polynomial(ring, {t: -coeff})
                work = [a + factor * b if b.terms else a for a, b in zip(work, w)]
                break
        else:
            rem[p][m] = c
            terms = dict(work[p].terms)
            del terms[m]
            work[p] = Polynomial(ring, terms)
    return (
        tuple(Polynomial(ring, d) for d in rem),
        [Polynomial(ring, q) for q in quots],
    )


def module_buchberger(gens, ring: PolyRing, block: int = 0):
    """Reduced module GB under term-over-position grevlex; ``block=r``
    switches to the elimination order whose first r positions dominate (for
    syzygies and cofactors).  Elements of length 1 are ideal generators."""
    basis: list = []  # `_with_leads` entries
    sugars: list[int] = []
    # (sugar, grevlex key of lcm, position, j, i, lcm), taken smallest
    # first; (j, i) is the insertion order, so ties go to the older pair
    pairs: list[tuple] = []

    def add_element(v, sugar):
        t = len(basis)
        p, m = _mod_lead(v, block)
        cand = []
        for i, (_w, (wp, wm, _c)) in enumerate(basis):
            if wp == p:
                lcm = monomial_lcm(wm, m)
                s = max(sugars[i] + sum(monomial_div(lcm, wm)), sugar + sum(monomial_div(lcm, m)))
                cand.append([lcm, s, i, True])
        # Gebauer-Moeller update of the pair set
        # criterion M: drop pairs whose lcm is a proper multiple of another's
        for a in cand:
            for b in cand:
                if a is not b and b[3] and monomial_divides(b[0], a[0]) and a[0] != b[0]:
                    a[3] = False
                    break
        # criterion F: among equal lcms keep a single representative
        seen = set()
        for a in cand:
            if a[3]:
                if a[0] in seen:
                    a[3] = False
                else:
                    seen.add(a[0])
        # product criterion (ideals only): coprime leads reduce to zero
        if len(v) == 1:
            for a in cand:
                if a[3] and monomial_mul(basis[a[2]][1][1], m) == a[0]:
                    a[3] = False
        # chain criterion on the old pairs
        pairs[:] = [
            q for q in pairs
            if not (
                q[2] == p
                and monomial_divides(m, q[5])
                and monomial_lcm(basis[q[3]][1][1], m) != q[5]
                and monomial_lcm(basis[q[4]][1][1], m) != q[5]
            )
        ]
        pairs.extend((s, grevlex_key(lcm), p, t, i, lcm) for lcm, s, i, alive in cand if alive)
        basis.append((v, (p, m, v[p].terms[m].inverse())))
        sugars.append(sugar)

    for g in gens:
        g = tuple(g)
        if _mod_is_zero(g):
            continue
        r, _ = _mod_divide(g, basis, ring, block)
        if not _mod_is_zero(r):
            add_element(r, max(c.total_degree() for c in g))

    while pairs:
        q = min(pairs)
        pairs.remove(q)
        sugar, _key, _p, j, i, lcm = q
        (vi, (_, mi, ci)), (vj, (_, mj, cj)) = basis[i], basis[j]
        fi = Polynomial(ring, {monomial_div(lcm, mi): ci})
        fj = Polynomial(ring, {monomial_div(lcm, mj): -cj})
        s = tuple(fi * a + fj * b for a, b in zip(vi, vj))
        if _mod_is_zero(s):
            continue
        r, _ = _mod_divide(s, basis, ring, block)
        if not _mod_is_zero(r):
            add_element(r, sugar)

    # minimalize: drop entries whose lead is divisible by another lead
    keep = [
        e for i, e in enumerate(basis)
        if not any(
            j != i and f[1][0] == e[1][0] and monomial_divides(f[1][1], e[1][1])
            and (f[1][1] != e[1][1] or j < i)
            for j, f in enumerate(basis)
        )
    ]
    # tail-reduce and normalize to monic
    final = []
    for idx, (v, _lead) in enumerate(keep):
        r, _ = _mod_divide(v, keep[:idx] + keep[idx + 1:], ring, block)
        p, m = _mod_lead(r, block)
        inv = r[p].terms[m].inverse()
        final.append(((p, grevlex_key(m)), tuple(a * inv for a in r)))
    final.sort(key=lambda e: e[0])
    return [e[1] for e in final]


# --- ideals -----------------------------------------------------------------


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced ideal basis.  A tracked basis also keeps the input
    generators and the module basis of the vectors (g_i, e_i)."""

    ring: PolyRing
    generators: tuple[Polynomial, ...]
    originals: tuple[Polynomial, ...] | None = None
    tracked: tuple[ModuleElement, ...] | None = None

    @cached_property
    def _module(self) -> "ModuleGB":
        return ModuleGB(self.ring, 1, tuple((g,) for g in self.generators))

    @cached_property
    def _tracked_leads(self):
        return _with_leads(self.tracked, 1)


def buchberger(gens, track: bool = False) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal, as a rank-1 module; with
    track=True also keeps the block-order basis that carries cofactors
    against the original generators."""
    gens = tuple(gens)
    ring = next((g.ring for g in gens if not g.is_zero()), None)
    if ring is None:
        raise ValueError("no nonzero generators")
    rank1 = [(g,) for g in gens]
    if not track:
        return GroebnerBasis(ring, tuple(v[0] for v in module_buchberger(rank1, ring)))
    tracked = module_buchberger(_with_units(rank1, ring), ring, block=1)
    heads = tuple(v[0] for v in tracked if not v[0].is_zero())
    return GroebnerBasis(ring, heads, gens, tuple(tracked))


def normal_form(f: Polynomial, gb: GroebnerBasis) -> Polynomial:
    return module_normal_form((f,), gb._module)[0]


def normal_form_with_cofactors(f: Polynomial, gb: GroebnerBasis):
    """Remainder plus cofactors against the ORIGINAL generators.

    Requires a tracked basis (buchberger(..., track=True)).  Dividing
    (f, 0, ..., 0) by it leaves (r, -a_1, ..., -a_s), and the defining
    identity f = sum_j a_j * original_j + r is checked.
    """
    if gb.tracked is None:
        raise ValueError("basis was not tracked; rebuild with track=True")
    ring = gb.ring
    v = (f,) + (ring.zero(),) * len(gb.originals)
    rem, _ = _mod_divide(v, gb._tracked_leads, ring, 1)
    r, cof = rem[0], [-a for a in rem[1:]]
    check = r
    for a, g in zip(cof, gb.originals):
        check = check + a * g
    if check != f:
        raise AssertionError("cofactor identity failed")
    return r, cof


def quotient_basis(gb: GroebnerBasis):
    """Standard monomials of the quotient, or None when infinite."""
    std = module_standard_monomials(gb._module)
    return None if std is None else [m for _p, m in std]


def local_support_check(gb: GroebnerBasis) -> bool:
    """True iff every variable is nilpotent in the (finite) quotient."""
    basis = quotient_basis(gb)
    if basis is None:
        raise ValueError("quotient is not finite-dimensional")
    d = len(basis)
    for i in range(gb.ring.n):
        p = gb.ring.var(i) ** (d + 1)
        if not normal_form(p, gb).is_zero():
            return False
    return True


# --- modules ----------------------------------------------------------------


@dataclass(frozen=True)
class ModuleGB:
    ring: PolyRing
    rank: int
    generators: tuple[ModuleElement, ...]

    @cached_property
    def _leads(self):
        return _with_leads(self.generators, 0)


def module_gb(gens, rank: int, ring: PolyRing) -> ModuleGB:
    return ModuleGB(ring, rank, tuple(module_buchberger(gens, ring)))


def module_normal_form(v, mgb: ModuleGB):
    r, _ = _mod_divide(tuple(v), mgb._leads, mgb.ring, 0)
    return r


def module_lift(v, mgb: ModuleGB):
    """Coordinates of v against the GB generators, or None if not a member."""
    r, q = _mod_divide(tuple(v), mgb._leads, mgb.ring, 0)
    if not _mod_is_zero(r):
        return None
    return q


def syzygies(gens, rank: int, ring: PolyRing):
    """Generators of {c in R^s : sum_i c_i * gens_i = 0}."""
    gb = module_buchberger(_with_units(gens, ring), ring, block=rank)
    out = []
    for v in gb:
        if all(c.is_zero() for c in v[:rank]):
            out.append(tuple(v[rank:]))
    return out


def module_kernel(columns_matrix, r_in: int, r_out: int, ring: PolyRing) -> ModuleGB:
    """Kernel of the map R^{r_in} -> R^{r_out} given by the matrix (rows x cols
    = r_out x r_in), as a module GB inside R^{r_in}."""
    cols = []
    for j in range(r_in):
        cols.append(tuple(columns_matrix[i][j] for i in range(r_out)))
    syz = syzygies(cols, r_out, ring)
    if not syz:
        return ModuleGB(ring, r_in, tuple())
    return module_gb(syz, r_in, ring)


def module_standard_monomials(mgb: ModuleGB):
    """Standard (position, monomial) pairs of R^rank / <leads>, or None."""
    n = mgb.ring.n
    leads: dict[int, list[Monomial]] = {p: [] for p in range(mgb.rank)}
    for _g, (p, m, _c) in mgb._leads:
        leads[p].append(m)
    out = []
    for p in range(mgb.rank):
        lm = leads[p]
        bounds = []
        for i in range(n):
            pure = [m[i] for m in lm if all(e == 0 for k, e in enumerate(m) if k != i)]
            if not pure:
                return None
            bounds.append(min(pure))
        # box enumeration over prod [0, bounds_i)
        for m in product(*(range(b) for b in bounds)):
            if not any(monomial_divides(l, m) for l in lm):
                out.append((p, m))
    out.sort(key=lambda t: (t[0], grevlex_key(t[1])))
    return out


def subquotient_presentation(kernel: ModuleGB, image_gens):
    """Presentation of <kernel> / <image_gens> as R^t / relations.

    t is the number of kernel GB generators; the relation submodule is the
    lifted image plus the syzygies of the kernel generators.  Returns
    (relation GB in R^t, standard (position, monomial) pairs), the latter a
    k-basis of the quotient.  Raises when an image generator falls outside
    the kernel or the quotient is infinite-dimensional.
    """
    ring = kernel.ring
    t = len(kernel.generators)
    if t == 0:
        if any(not _mod_is_zero(g) for g in image_gens):
            raise ValueError("image generators outside the kernel submodule")
        return ModuleGB(ring, 0, tuple()), []
    relations = []
    for g in image_gens:
        if _mod_is_zero(tuple(g)):
            continue
        lift = module_lift(g, kernel)
        if lift is None:
            raise ValueError("image generators outside the kernel submodule")
        relations.append(tuple(lift))
    relations.extend(syzygies(list(kernel.generators), kernel.rank, ring))
    relations = [r for r in relations if not _mod_is_zero(r)]
    if relations:
        rel_gb = module_gb(relations, t, ring)
    else:
        rel_gb = ModuleGB(ring, t, tuple())
    std = module_standard_monomials(rel_gb)
    if std is None:
        raise ValueError("subquotient is infinite-dimensional")
    return rel_gb, std


def subquotient_dimension(kernel: ModuleGB, image_gens) -> int:
    """dim_k of <kernel> / <image_gens> inside R^rank."""
    _, std = subquotient_presentation(kernel, image_gens)
    return len(std)
