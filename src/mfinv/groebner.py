"""One Buchberger engine for submodules of R^r; an ideal is the rank-1 case.

Everything runs over the global grevlex order.  The downstream callers
(Milnor rings, Hom-cohomology) only ever feed ideals and modules whose
quotients are supported at the origin, where global and local computations
agree; `milnor.build_milnor` certifies that precondition for the Jacobian
ideal, whose nilpotency search rejects support away from the origin.

Module elements are flat dicts {(position, monomial): coefficient} from
the engine's input to every `ModuleGB` it builds, and an ideal generator g
is the element (g,).  The arithmetic is fraction-free (Bareiss 1968;
Geddes-Czapor-Labahn, ch. 9).  Over Q `_flat` scales a tuple of
polynomials by D, the lcm of its denominators, to ``int`` coefficients,
and a basis entry is stored primitive: content removed, lead coefficient L
a positive ``int``.  Division cancels a term c against a lead L by scaling
the working element by L/g, g = gcd(L, c), and subtracting (c/g) times the
entry; the product M of those scales is tracked, each remainder term is
recorded with the M of its time and rescaled to the final M at the end, so
the remainder is r / (D M) in field terms.  Over Q(zeta) the coefficients
are the ring's Scalars, an entry is made monic when it is inserted and its
lead stored as the ``int`` 1, so the same loop runs with L = 1, M = 1 and
no gcd.  Every element is a scalar multiple of its field counterpart, so
leads, pair order and results are those of field arithmetic.  Tuples of
polynomials, one exact division per term with a Fraction only where it is
not integral (`_unflat`), are built only for a basis's monic
``generators`` and the results of `lift` and `module_normal_form`.  The module order is term-over-position: grevlex on
the monomial part, ties to the lower position; with ``block=b`` any term
in the first b positions beats every term outside them.  The term (p, m) has the order key

    (p >= block, -deg m, reversed m, p)

and the smaller key is the larger term, so a heap of keys yields the lead.
Division keeps the keys of its working element in such a heap and deletes
lazily: a key whose term has cancelled is skipped when it comes up.  Each
basis keeps, per lead position, its entries' leads, lead coefficients and
remaining terms; a lead is divided by the first entry, in insertion order,
whose lead divides it.

Bases of rank 1 also get Buchberger's product criterion.  Syzygies,
cofactors, kernels and subquotients use the block order on an enlarged
free module instead of Schreyer-style tracking, which keeps correctness
independent of the pair-elimination criteria (Greuel-Pfister 2.5).
`lift_basis(gens, rank, ring, extra)` is that one object: the basis of the
vectors (g_i, e_i) and (h_j, 0) under the order whose first ``rank``
positions dominate.  `lift` divides (v, 0) by it once for the remainder
and the cofactors of v; `split` reads it: the elements with a term in the
first ``rank`` positions have their leads there, and their heads are a
reduced basis of <g, h>; the tails of the others are a reduced basis of
the relations {c : sum_i c_i g_i in <h>}, as no other lead divides their
terms.  `syzygies`, `module_kernel`, `subquotient_presentation` and
`milnor.build_milnor` read their bases through `split`.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import product
from math import gcd, lcm as int_lcm
from operator import add

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
from .scalar import Frozen

ModuleElement = tuple  # tuple[Polynomial, ...]


def _flat(v, ring: PolyRing):
    """(d, D): the tuple of polynomials times D as a flat element d =
    {(position, monomial): coefficient}.  Over Q, D is the lcm of the
    denominators and the coefficients are ints; over Q(zeta), D = 1 and
    they are the ring's Scalars."""
    d = {(p, m): c for p, f in enumerate(v) for m, c in f.terms.items()}
    if ring.context is not None:
        return d, 1
    D = int_lcm(*(c.denominator for c in d.values()))
    if D == 1:
        return d, 1
    return {k: c.numerator * (D // c.denominator) for k, c in d.items()}, D


def _unflat(d: dict, length: int, ring: PolyRing, den: int = 1) -> ModuleElement:
    """The tuple of polynomials d / den; den is 1 over Q(zeta)."""
    comps: dict = {}
    for (p, m), c in d.items():
        if den != 1:
            c = c // den if c % den == 0 else Fraction(c, den)
        comps.setdefault(p, {})[m] = c
    zero = ring.zero()  # polynomials are immutable, so one zero serves all
    return tuple(Polynomial(ring, comps[p]) if p in comps else zero for p in range(length))


def _normalize(d: dict, lead) -> dict:
    """The flat element d as a basis entry stores it: primitive with a
    positive lead over Q, monic over Q(zeta)."""
    lc = d[lead]
    if lc.__class__ is int:
        content = gcd(*d.values()) if lc > 0 else -gcd(*d.values())
        return d if content == 1 else {k: a // content for k, a in d.items()}
    inv = lc.inverse()
    return {k: a * inv for k, a in d.items()}


def _key(p: int, m: Monomial, block: int):
    """Heap entry of the term (p, m): the order key, then the monomial."""
    return (p >= block, -sum(m), m[::-1], p, m)


class _Divisors:
    """A basis ready for division.  ``entries`` holds, in insertion order,
    (element, lead position, lead monomial, lead coefficient L, other
    terms), the other terms as (position, monomial, coefficient); ``by_pos``
    maps a lead position to its entries as (lead monomial, L, other
    terms).  `add` takes an element already in its stored form (see
    `_normalize`), with its lead: primitive with a positive ``int`` L over
    Q, monic with L = 1 over Q(zeta)."""

    __slots__ = ("block", "entries", "by_pos")

    def __init__(self, block: int):
        self.block = block
        self.entries: list = []
        self.by_pos: dict = {}

    def __len__(self) -> int:
        return len(self.entries)

    def add(self, d: dict, lead) -> None:
        p, m = lead
        lc = d[lead]
        if lc.__class__ is not int:
            lc = 1
        rest = [(q, tm, a) for (q, tm), a in d.items() if q != p or tm != m]
        self.by_pos.setdefault(p, []).append((m, lc, rest))
        self.entries.append((d, p, m, lc, rest))


def _add_multiple(work: dict, terms, t: Monomial, c, heap=None, block=0) -> None:
    """work += c * t * terms for (position, monomial, coefficient) terms,
    pushing the key of every new term onto ``heap`` when given."""
    for q, tm, a in terms:
        nm = tuple(map(add, t, tm))
        k = (q, nm)
        old = work.get(k)
        if old is None:
            work[k] = c * a
            if heap is not None:
                heappush(heap, _key(q, nm, block))
        else:
            s = old + c * a
            if not s:
                del work[k]
            else:
                work[k] = s


def _divide(work: dict, divs: _Divisors):
    """Full division of the flat element ``work`` (consumed) by ``divs``;
    returns (r, M), the remainder of M * work for the product M of the
    scales the division took."""
    block = divs.block
    by_pos = divs.by_pos
    heap = [_key(p, m, block) for p, m in work]
    heapify(heap)
    rem = {}  # (p, m) -> (coefficient, M when it was recorded)
    M = 1
    while heap:
        p, m = heappop(heap)[3:]
        c = work.pop((p, m), None)
        if c is None:
            continue  # cancelled, or already divided under an older key
        for wm, lc, rest in by_pos.get(p, ()):
            # monomial_divides and monomial_div, inlined in the hot loop
            if all(a <= b for a, b in zip(wm, m)):
                t = tuple(b - a for a, b in zip(wm, m))
                if lc != 1:
                    # (lc/g) work - (c/g) t entry cancels the term
                    g = gcd(lc, c)
                    if g != lc:
                        s = lc // g
                        M *= s
                        for k, a in work.items():
                            work[k] = a * s
                    c //= g
                # the lead cancels exactly; only the other terms change
                _add_multiple(work, rest, t, -c, heap, block)
                break
        else:
            rem[p, m] = (c, M)
    return {k: c if Mk == M else c * (M // Mk) for k, (c, Mk) in rem.items()}, M


def module_buchberger(gens, rank: int, block: int = 0) -> _Divisors:
    """Reduced GB, ready for division, of the submodule of R^rank
    that the flat elements ``gens`` (left unchanged) generate, under
    term-over-position grevlex; ``block=r`` switches to the elimination
    order whose first r positions dominate (for syzygies and cofactors)."""
    divs = _Divisors(block)
    entries = divs.entries
    sugars: list[int] = []
    # (sugar, grevlex key of lcm, position, j, i, lcm), taken smallest
    # first; (j, i) is the insertion order, so ties go to the older pair
    pairs: list[tuple] = []

    def add_element(d, sugar):
        t = len(entries)
        p, m = min(d, key=lambda pm: _key(pm[0], pm[1], block))  # the lead
        cand = []
        for i, (_d, wp, wm, _c, _r) in enumerate(entries):
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
        if rank == 1:
            for a in cand:
                if a[3] and monomial_mul(entries[a[2]][2], m) == a[0]:
                    a[3] = False
        # chain criterion on the old pairs
        pairs[:] = [
            q for q in pairs
            if not (
                q[2] == p
                and monomial_divides(m, q[5])
                and monomial_lcm(entries[q[3]][2], m) != q[5]
                and monomial_lcm(entries[q[4]][2], m) != q[5]
            )
        ]
        pairs.extend((s, grevlex_key(lcm), p, t, i, lcm) for lcm, s, i, alive in cand if alive)
        divs.add(_normalize(d, (p, m)), (p, m))
        sugars.append(sugar)

    for d in gens:
        if d:
            sugar = max(sum(m) for _p, m in d)
            r, _M = _divide(dict(d), divs)
            if r:
                add_element(r, sugar)

    while pairs:
        q = min(pairs)
        pairs.remove(q)
        sugar, _grevlex, _p, j, i, lcm = q
        _di, _, mi, li, rest_i = entries[i]
        _dj, _, mj, lj, rest_j = entries[j]
        # (lj/g) t_i e_i - (li/g) t_j e_j: the leads cancel exactly, and
        # the S-vector is made of the rest
        g = gcd(li, lj)
        s: dict = {}
        _add_multiple(s, rest_i, monomial_div(lcm, mi), lj // g)
        _add_multiple(s, rest_j, monomial_div(lcm, mj), -(li // g))
        r, _M = _divide(s, divs)
        if r:
            add_element(r, sugar)

    # minimalize: drop the entries whose lead another lead divides; the
    # leads are distinct, as each element was reduced by those before it
    minimal = [
        (d, (p, m))
        for d, p, m, _c, _r in entries
        if not any(wm != m and monomial_divides(wm, m) for wm, _c, _r in divs.by_pos[p])
    ]
    # tail-reduce from the smallest lead up: only smaller leads divide a
    # tail term, and those are reduced already; no other lead divides this
    # one, so it passes through as lc * M (the monic lead over Q(zeta))
    minimal.sort(key=lambda e: _key(*e[1], block), reverse=True)
    final = _Divisors(block)
    for d, lead in minimal:
        r, _M = _divide(dict(d), final)
        final.add(_normalize(r, lead) if d[lead].__class__ is int else r, lead)
    # handed out by position, then grevlex: the order ``by_pos`` already has
    final.entries.sort(key=lambda e: (e[1], grevlex_key(e[2])))
    return final


# --- modules ----------------------------------------------------------------


class ModuleGB(Frozen):
    """A reduced basis of a submodule of R^rank under the order whose first
    ``block`` positions dominate; ``block`` is 0 for term-over-position.
    ``divisors`` is the basis as `module_buchberger` returns it, and
    carries the block."""

    def __init__(self, ring: PolyRing, rank: int, divisors: _Divisors):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "block", divisors.block)
        object.__setattr__(self, "_divisors", divisors)

    @cached_property
    def generators(self) -> tuple[ModuleElement, ...]:
        """The elements as monic tuples of polynomials: each entry over L."""
        entries = self._divisors.entries
        return tuple(_unflat(d, self.rank, self.ring, lc) for d, _p, _m, lc, _r in entries)


def _scaled(gens, ring: PolyRing) -> list:
    """(c g, c) per element g of ``gens``, c g flat: c = L, the stored lead,
    for a `ModuleGB`; for tuples of polynomials D over Q, 1 over Q(zeta)."""
    if isinstance(gens, ModuleGB):
        return [(d, d[p, m]) for d, p, m, _c, _r in gens._divisors.entries]
    return [(d, ring.coefficient(D)) for d, D in (_flat(g, ring) for g in gens)]


def module_gb(gens, rank: int, ring: PolyRing) -> ModuleGB:
    return ModuleGB(ring, rank, module_buchberger([d for d, _c in _scaled(gens, ring)], rank))


def module_normal_form(v, mgb: ModuleGB):
    if len(v) != mgb.rank:
        raise ValueError("vector of length %d in a module of rank %d" % (len(v), mgb.rank))
    d, D = _flat(v, mgb.ring)
    r, M = _divide(d, mgb._divisors)
    return _unflat(r, mgb.rank, mgb.ring, D * M)


def lift_basis(gens, rank: int, ring: PolyRing, extra=()) -> ModuleGB:
    """The block-order basis of the vectors (g_i, e_i) and (h_j, 0) in
    R^(rank + s), s = len(gens), for g_i in ``gens`` and h_j in ``extra``,
    with block = rank.  ``gens`` and ``extra`` are tuples of polynomials or
    a `ModuleGB`, whose entries L g_i give L (g_i, e_i) as they are."""
    z = (0,) * ring.n
    vectors = [{**d, (rank + i, z): c} for i, (d, c) in enumerate(_scaled(gens, ring))]
    s = len(vectors)
    vectors += [d for d, _c in _scaled(extra, ring)]
    return ModuleGB(ring, rank + s, module_buchberger(vectors, rank + s, rank))


def lift(v, basis: ModuleGB):
    """(remainder, cofactors) of v in R^block against a `lift_basis`:
    v = sum_i a_i g_i + r + an element of <h>.  Dividing (v, 0) leaves
    (r, -a); r is the normal form of v modulo <g, h> and a is reduced
    modulo the relations, so both are unique."""
    ring, b = basis.ring, basis.block
    if len(v) != b:
        raise ValueError("vector of length %d for a lift basis of block %d" % (len(v), b))
    d, D = _flat(v, ring)
    r, M = _divide(d, basis._divisors)
    rem = _unflat(r, basis.rank, ring, D * M)
    return rem[:b], tuple(-a for a in rem[b:])


def split(basis: ModuleGB):
    """(heads, tails) of a `lift_basis` as module bases: the first block
    components of the elements that have any, a reduced basis of <g, h>,
    and the other components, shifted to position 0, of the elements whose
    first block vanishes, a reduced basis of the relations.  The leads stay
    where they are; a head over Q may have content to remove."""
    b, ring = basis.block, basis.ring
    heads, tails = _Divisors(0), _Divisors(0)
    for d, p, m, _c, _r in basis._divisors.entries:
        if p < b:
            head = {k: a for k, a in d.items() if k[0] < b}
            heads.add(_normalize(head, (p, m)) if ring.context is None else head, (p, m))
        else:
            tails.add({(q - b, t): a for (q, t), a in d.items()}, (p - b, m))
    return ModuleGB(ring, b, heads), ModuleGB(ring, basis.rank - b, tails)


def syzygies(gens, rank: int, ring: PolyRing):
    """The reduced term-over-position basis of {c in R^s : sum_i c_i *
    gens_i = 0}, in `module_buchberger`'s order: the tails of the lift
    basis of ``gens``."""
    return split(lift_basis(gens, rank, ring))[1].generators


def module_kernel(matrix, r_in: int, r_out: int, ring: PolyRing):
    """(kernel, image) of the map R^{r_in} -> R^{r_out} given by the matrix
    (rows x cols = r_out x r_in) as module GBs: the tails and the heads of
    the lift basis of its columns."""
    cols = [tuple(matrix[i][j] for i in range(r_out)) for j in range(r_in)]
    image, kernel = split(lift_basis(cols, r_out, ring))
    return kernel, image


def module_standard_monomials(mgb: ModuleGB):
    """Standard (position, monomial) pairs of R^rank / <leads>, or None."""
    n = mgb.ring.n
    leads: dict[int, list[Monomial]] = {p: [] for p in range(mgb.rank)}
    for _d, p, m, _c, _r in mgb._divisors.entries:
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


def subquotient_presentation(kernel: ModuleGB, image):
    """Presentation of <kernel> / <image> as R^t / relations.

    t is the number of kernel GB generators k_i.  The lift basis of the k_i
    with the image generators g_j (a `ModuleGB` or tuples of polynomials)
    as ``extra`` has the relations {c : sum_i c_i k_i in <g_j>} as its
    tails; its heads are the kernel's own entries exactly when every g_j
    lies in the kernel.  Returns (that lift basis, the relation GB in R^t,
    standard (position, monomial) pairs), the last a k-basis of the
    quotient.  Raises when an image generator falls outside the kernel or
    the quotient is infinite-dimensional.
    """
    basis = lift_basis(kernel, kernel.rank, kernel.ring, image)
    heads, relations = split(basis)
    if [e[0] for e in heads._divisors.entries] != [e[0] for e in kernel._divisors.entries]:
        raise ValueError("image generators outside the kernel submodule")
    std = module_standard_monomials(relations)
    if std is None:
        raise ValueError("subquotient is infinite-dimensional")
    return basis, relations, std


# --- ideals -----------------------------------------------------------------


def buchberger(gens) -> ModuleGB:
    """Reduced Groebner basis of the ideal, as a rank-1 module."""
    gens = tuple(gens)
    ring = next((g.ring for g in gens if not g.is_zero()), None)
    if ring is None:
        raise ValueError("no nonzero generators")
    return module_gb([(g,) for g in gens], 1, ring)


def normal_form(f: Polynomial, gb: ModuleGB) -> Polynomial:
    return module_normal_form((f,), gb)[0]


def quotient_basis(gb: ModuleGB):
    """Standard monomials of the quotient, or None when infinite."""
    std = module_standard_monomials(gb)
    return None if std is None else [m for _p, m in std]
