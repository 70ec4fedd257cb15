"""One Buchberger engine for submodules of R^r; an ideal is the rank-1 case.

Everything runs over the global grevlex order.  The downstream callers
(Milnor rings, Hom-cohomology) only ever feed ideals and modules whose
quotients are supported at the origin, where global and local computations
agree; `milnor.build_milnor` certifies that precondition for the Jacobian
ideal, whose nilpotency search rejects support away from the origin.

Module elements are flat dicts {key: coefficient} from the engine's
input to every `ModuleGB` it builds, and an ideal generator g is the
element (g,).  The arithmetic is fraction-free (Bareiss 1968;
Geddes-Czapor-Labahn, ch. 9).  Over Q `_flat` scales a vector of
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
``generators`` and the results of `lift` and `module_normal_form`.

The module order is term-over-position: grevlex on the monomial part, ties
to the lower position; with ``block=b`` any term in the first b positions
beats every term outside them.  The term (p, m) is one ``int`` key, the
smaller key the larger term (Monagan-Pearce, CASC 2007):

    K = (0 < block <= p) 2^k1 + (G_max - G(x)) 2^k2 + p 2^ps + x

x is the exponent word of m and G(x) its grevlex word (`poly.WordLayout`,
which `_Layout` extends), p has 32 bits; `_flat` adds the rest to each
word, and `_unflat` masks it out.  A product by t adds x_t - G(x_t) 2^k2,
that is K - K' when K' divides K in the same position: ((K | H) - K') & H
== H, H the top bit of each field.  Words keep their guard bits clear, so
no sum of two terms carries into another field; `_divide` raises on a
popped term past that bound, and `split` subtracts 2^k1 + b 2^ps from
its tails.
Per lead position a basis keeps its entries' leads, lead coefficients and
other terms; a lead is divided by the first entry, in insertion order,
whose lead divides it.

Bases of rank 1 also get Buchberger's product criterion.  Syzygies,
cofactors, kernels and subquotients use the block order on an enlarged
free module instead of Schreyer-style tracking, which keeps correctness
independent of the pair-elimination criteria (Greuel-Pfister 2.5).
`lift_basis(gens, rank, ring)` is that one object: the basis of the
vectors (g_i, e_i) under the order whose first ``rank`` positions
dominate.  `lift` divides (v, 0) by it once for the remainder and the
cofactors of v; `split` reads it: the elements with a term in the first
``rank`` positions have their leads there, and their heads are a reduced
basis of <g>; the tails of the others are a reduced basis of the
syzygies {c : sum_i c_i g_i = 0}, as no other lead divides their terms.
`module_kernel` and `milnor.build_milnor` read their bases through
`split`.

A subquotient K / I of two such bases, I inside K, takes no further run:
`subquotient_basis` reads a k-basis of it off the leads of both.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from heapq import heapify, heappop, heappush
from itertools import product
from math import gcd, lcm as int_lcm
from operator import itemgetter

from .poly import _B, _FIELD as _PMASK, _OVERFLOW, PolyRing, Polynomial, WordLayout
from .scalar import Frozen

ModuleElement = tuple  # tuple[Polynomial, ...]


class _Layout(WordLayout):
    """The keys of the module docstring for n variables; `_layout` makes one per n."""

    def __init__(self, n: int):
        super().__init__(n)
        self.ps, self.k2 = self.width, self.width + _B  # width: also of G(x)
        self.flag = 1 << (self.k2 + self.ps)

    def base(self, p: int, block: int) -> int:
        """The key of 1 in position p; x there has the key base + x - G(x) 2^k2."""
        if p > _PMASK:
            raise ValueError("position %d above the limit 2^32 - 1 of the module keys" % p)
        return (0 < block <= p) * self.flag + (self.xmask << self.k2) + (p << self.ps)

    def divides(self, a: int, b: int) -> bool:
        """Whether a's monomial divides b's; keys in one position, or exponent words."""
        return ((b | self.high) - a) & self.high == self.high

    def lcm(self, a: int, b: int) -> int:
        """The key of the lcm of two keys in one position."""
        d = ((b & self.xmask) | self.high) - (a & self.xmask)  # 2^(B-1) + xb - xa per field
        ge = d & self.high  # the top bit of each field where xb >= xa
        t = d & (ge - (ge >> (_B - 1)))  # lcm / a: xb - xa there, 0 elsewhere
        return a + t - ((t * self.ones & self.xmask) << self.k2)


_layout = cache(_Layout)


def _flat(v, ring: PolyRing, block: int, rank: int):
    """(d, D): the vector v of R^rank times D as a flat element d = {key:
    coefficient} under ``block``.  v is a tuple of ``rank`` polynomials,
    or a dict {position: polynomial} keyed in range(rank) that need not
    hold the zero positions; anything else raises.  Over Q, D is the lcm
    of the denominators and the coefficients are ints; over Q(zeta),
    D = 1 and they are the ring's Scalars."""
    if isinstance(v, dict):
        bad = [p for p in v if not 0 <= p < rank]
        if bad:
            raise ValueError("position %d outside a module of rank %d" % (bad[0], rank))
    elif len(v) != rank:
        raise ValueError("vector of length %d in a module of rank %d" % (len(v), rank))
    lay = _layout(ring.n)
    ones, xmask, k2 = lay.ones, lay.xmask, lay.k2
    d = {}
    for p, f in v.items() if isinstance(v, dict) else enumerate(v):
        base = lay.base(p, block)
        for x, c in f.terms.items():
            d[base + x - ((x * ones & xmask) << k2)] = c
    if ring.context is not None:
        return d, 1
    D = int_lcm(*(c.denominator for c in d.values()))
    if D == 1:
        return d, 1
    return {k: c.numerator * (D // c.denominator) for k, c in d.items()}, D


def _unflat(d: dict, length: int, ring: PolyRing, den: int = 1) -> ModuleElement:
    """The tuple of polynomials d / den; den is 1 over Q(zeta)."""
    lay = _layout(ring.n)
    ps, xmask = lay.ps, lay.xmask
    comps: dict = {}
    for k, c in d.items():
        if den != 1:
            c = c // den if c % den == 0 else Fraction(c, den)
        comps.setdefault(k >> ps & _PMASK, {})[k & xmask] = c
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


class _Divisors:
    """A basis ready for division.  ``entries`` holds, in insertion order,
    (element, lead position, lead key, lead coefficient L, other terms),
    the other terms as (key, coefficient); ``by_pos`` maps a lead position
    to its entries as (lead key, L, other terms).  `add` takes an element
    already in its stored form (see `_normalize`), with its lead: primitive
    with a positive ``int`` L over Q, monic with L = 1 over Q(zeta)."""

    __slots__ = ("block", "layout", "entries", "by_pos")

    def __init__(self, block: int, layout: _Layout):
        self.block, self.layout = block, layout
        self.entries: list = []
        self.by_pos: dict = {}

    def __len__(self) -> int:
        return len(self.entries)

    def add(self, d: dict, lead: int) -> None:
        p = lead >> self.layout.ps & _PMASK
        lc = d[lead]
        if lc.__class__ is not int:
            lc = 1
        rest = [(k, a) for k, a in d.items() if k != lead]
        self.by_pos.setdefault(p, []).append((lead, lc, rest))
        self.entries.append((d, p, lead, lc, rest))


def _add_multiple(work: dict, terms, t: int, c, heap=None) -> None:
    """work += c * t * terms for (key, coefficient) terms, t the constant
    of a monomial, pushing every new key onto ``heap`` when given."""
    for k, a in terms:
        k += t
        old = work.get(k)
        if old is None:
            work[k] = c * a
            if heap is not None:
                heappush(heap, k)
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
    lay = divs.layout
    by_pos, ps, high, guard = divs.by_pos, lay.ps, lay.high, lay.guard
    heap = list(work)
    heapify(heap)
    rem = {}  # key -> (coefficient, M when it was recorded)
    M = 1
    while heap:
        k = heappop(heap)
        c = work.pop(k, None)
        if c is None:
            continue  # cancelled, or already divided when pushed before
        if k & guard:
            raise ValueError(_OVERFLOW % (lay.limit, lay.n))
        for wk, lc, rest in by_pos.get(k >> ps & _PMASK, ()):
            if ((k | high) - wk) & high == high:  # `_Layout.divides`, inlined
                if lc != 1:
                    # (lc/g) work - (c/g) t entry cancels the term
                    g = gcd(lc, c)
                    if g != lc:
                        s = lc // g
                        M *= s
                        for kk, a in work.items():
                            work[kk] = a * s
                    c //= g
                # the lead cancels exactly; only the other terms change
                _add_multiple(work, rest, k - wk, -c, heap)
                break
        else:
            rem[k] = (c, M)
    return {k: c if Mk == M else c * (M // Mk) for k, (c, Mk) in rem.items()}, M


def module_buchberger(gens, rank: int, lay: _Layout, block: int = 0) -> _Divisors:
    """Reduced GB, ready for division, of the submodule of R^rank that the
    flat elements ``gens`` (left unchanged, keyed under ``block``) generate,
    under term-over-position grevlex; ``block=r`` switches to the
    elimination order whose first r positions dominate (for syzygies)."""
    divs = _Divisors(block, lay)
    entries = divs.entries
    # per entry, its sugar minus the degree of its lead: a pair's sugar is
    # the larger of its two entries' plus the degree of the lcm
    excess: list[int] = []
    # (sugar, G(lcm) - G_max, position, j, i, lcm), taken smallest first;
    # (j, i) is the insertion order, so ties go to the older pair
    pairs: list[tuple] = []

    def add_element(d, sugar):
        t = len(entries)
        m = min(d)  # the lead
        p = m >> lay.ps & _PMASK
        own = sugar - lay.deg(m)
        cand = []
        for i, (_d, wp, wm, _c, _r) in enumerate(entries):
            if wp == p:
                lcm = lay.lcm(wm, m)
                cand.append([lcm, max(excess[i], own) + lay.deg(lcm), i, True])
        # Gebauer-Moeller update of the pair set
        # criterion M: drop pairs whose lcm is a proper multiple of another's
        for a in cand:
            for b in cand:
                if a is not b and b[3] and lay.divides(b[0], a[0]) and a[0] != b[0]:
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
                if a[3] and lay.deg(entries[a[2]][2]) + lay.deg(m) == lay.deg(a[0]):
                    a[3] = False
        # chain criterion on the old pairs
        pairs[:] = [
            q for q in pairs
            if not (
                q[2] == p
                and lay.divides(m, q[5])
                and lay.lcm(entries[q[3]][2], m) != q[5]
                and lay.lcm(entries[q[4]][2], m) != q[5]
            )
        ]
        pairs.extend((s, -(u >> lay.k2 & lay.xmask), p, t, i, u) for u, s, i, ok in cand if ok)
        divs.add(_normalize(d, m), m)
        excess.append(own)

    for d in gens:
        if d:
            sugar = max(map(lay.deg, d))
            r, _M = _divide(dict(d), divs)
            if r:
                add_element(r, sugar)

    while pairs:
        q = min(pairs)
        pairs.remove(q)
        sugar, _g, _p, j, i, lcm = q
        _di, _, ki, li, rest_i = entries[i]
        _dj, _, kj, lj, rest_j = entries[j]
        # (lj/g) t_i e_i - (li/g) t_j e_j: the leads cancel exactly, and
        # the S-vector is made of the rest
        g = gcd(li, lj)
        s: dict = {}
        _add_multiple(s, rest_i, lcm - ki, lj // g)
        _add_multiple(s, rest_j, lcm - kj, -(li // g))
        r, _M = _divide(s, divs)
        if r:
            add_element(r, sugar)

    # minimalize: drop the entries whose lead another lead divides; the
    # leads are distinct, as each element was reduced by those before it
    minimal = [
        (d, k)
        for d, p, k, _c, _r in entries
        if not any(wk != k and lay.divides(wk, k) for wk, _c, _r in divs.by_pos[p])
    ]
    # tail-reduce from the smallest lead up: only smaller leads divide a
    # tail term, and those are reduced already; no other lead divides this
    # one, so it passes through as lc * M (the monic lead over Q(zeta))
    minimal.sort(key=itemgetter(1), reverse=True)
    final = _Divisors(block, lay)
    for d, lead in minimal:
        r, _M = _divide(dict(d), final)
        final.add(_normalize(r, lead) if d[lead].__class__ is int else r, lead)
    # handed out by position, then grevlex: the order ``by_pos`` already has
    final.entries.sort(key=lambda e: (e[1], -e[2]))
    return final


# --- modules ----------------------------------------------------------------


class ModuleGB(Frozen):
    """A reduced basis of a submodule of R^rank under the order whose first
    ``block`` positions dominate; ``block`` is 0 for term-over-position.
    ``divisors`` is the basis as `module_buchberger` returns it, and
    carries the block.  `subquotient_basis` hands out its k-basis, whose
    leads are distinct too, in the same form."""

    def __init__(self, ring: PolyRing, rank: int, divisors: _Divisors):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "block", divisors.block)
        object.__setattr__(self, "_divisors", divisors)

    def __len__(self) -> int:
        return len(self._divisors)

    @cached_property
    def generators(self) -> tuple[ModuleElement, ...]:
        """The elements as monic tuples of polynomials: each entry over L."""
        entries = self._divisors.entries
        return tuple(_unflat(d, self.rank, self.ring, lc) for d, _p, _m, lc, _r in entries)


def module_gb(gens, rank: int, ring: PolyRing) -> ModuleGB:
    gens = [_flat(g, ring, 0, rank)[0] for g in gens]
    return ModuleGB(ring, rank, module_buchberger(gens, rank, _layout(ring.n)))


def module_normal_form(v, mgb: ModuleGB):
    d, D = _flat(v, mgb.ring, mgb.block, mgb.rank)
    r, M = _divide(d, mgb._divisors)
    return _unflat(r, mgb.rank, mgb.ring, D * M)


def lift_basis(gens, rank: int, ring: PolyRing) -> ModuleGB:
    """The block-order basis of the vectors (g_i, e_i) in R^(rank + s),
    s = len(gens), for the vectors g_i of R^rank in ``gens``, each read
    as `_flat` reads it, with block = rank.  A generator outside R^rank
    raises rather than reaching the cofactor positions."""
    lay = _layout(ring.n)
    scaled = enumerate(_flat(g, ring, rank, rank) for g in gens)
    vectors = [{**d, lay.base(rank + i, rank): ring.coefficient(D)} for i, (d, D) in scaled]
    s = len(vectors)
    return ModuleGB(ring, rank + s, module_buchberger(vectors, rank + s, lay, rank))


def lift(v, basis: ModuleGB):
    """(remainder, cofactors) of v in R^block against a `lift_basis`:
    v = sum_i a_i g_i + r.  Dividing (v, 0) leaves (r, -a); r is the
    normal form of v modulo <g> and a is reduced modulo the syzygies, so
    both are unique."""
    ring, b = basis.ring, basis.block
    d, D = _flat(v, ring, b, b)
    r, M = _divide(d, basis._divisors)
    rem = _unflat(r, basis.rank, ring, D * M)
    return rem[:b], tuple(-a for a in rem[b:])


def split(basis: ModuleGB):
    """(heads, tails) of a `lift_basis` as module bases: the first block
    components of the elements that have any, a reduced basis of <g>, and
    the other components, shifted to position 0, of the elements whose
    first block vanishes, a reduced basis of the syzygies.  The leads stay
    where they are; a head over Q may have content to remove."""
    b, ring, lay = basis.block, basis.ring, basis._divisors.layout
    flag, shift = lay.flag, lay.flag + (b << lay.ps)
    heads, tails = _Divisors(0, lay), _Divisors(0, lay)
    for d, p, k, _c, _r in basis._divisors.entries:
        if p < b:
            head = {t: a for t, a in d.items() if t < flag}
            heads.add(_normalize(head, k) if ring.context is None else head, k)
        else:
            tails.add({t - shift: a for t, a in d.items()}, k - shift)
    return ModuleGB(ring, b, heads), ModuleGB(ring, basis.rank - b, tails)


def module_kernel(cols, r_out: int, ring: PolyRing):
    """(kernel, image) of the map R^len(cols) -> R^r_out with these
    columns, each read as `_flat` reads a vector, as module GBs: the tails
    and the heads of the lift basis of the columns."""
    image, kernel = split(lift_basis(cols, r_out, ring))
    return kernel, image


def _standard_terms(starts, divs: _Divisors):
    """{term: the first start dividing it} for the terms that a key of
    ``starts`` divides and no lead of ``divs`` divides, in ascending term
    order; None when infinitely many, that is when along some x_i no lead
    in a start's position has its other exponents at most the start's."""
    lay = divs.layout
    found = {}
    for s in starts:
        x = s & lay.xmask
        leads = [k for k, _c, _r in divs.by_pos.get(s >> lay.ps & _PMASK, ())]
        steps = []
        for i in range(lay.n):
            field = _PMASK << (_B * i)
            covering = [k & field for k in leads if lay.divides(k & lay.xmask & ~field, x)]
            if not covering:
                return None
            steps.append(range(0, max(min(covering) - (x & field), 0), 1 << (_B * i)))
        for u in map(sum, product(*steps)):
            t = s + u - (lay.grevlex(u) << lay.k2)
            if t not in found and not any(lay.divides(k, t) for k in leads):
                found[t] = s
    return dict(sorted(found.items(), reverse=True))


def subquotient_basis(kernel: ModuleGB, image: ModuleGB) -> ModuleGB:
    """A k-basis of <kernel> / <image>, both term-over-position: for each
    term m of LT(kernel) outside LT(image), the normal form modulo the
    image of t g, g the first kernel entry whose lead divides m = t
    lead(g).  Its leads are those m, in ascending order.  Raises when an
    image entry falls outside the kernel or the quotient is infinite."""
    ker, im = kernel._divisors, image._divisors
    if any(_divide(dict(d), ker)[0] for d, _p, _k, _c, _r in im.entries):
        raise ValueError("image generators outside the kernel submodule")
    terms = _standard_terms([k for _d, _p, k, _c, _r in ker.entries], im)
    if terms is None:
        raise ValueError("subquotient is infinite-dimensional")
    entries = {k: d for d, _p, k, _c, _r in ker.entries}
    basis = _Divisors(0, ker.layout)
    for m, k in terms.items():
        r, _M = _divide({t + m - k: a for t, a in entries[k].items()}, im)
        basis.add(_normalize(r, m), m)
    return ModuleGB(kernel.ring, kernel.rank, basis)


def subquotient_coordinates(v, basis: ModuleGB, image: ModuleGB):
    """The coordinates of the vector v modulo <image> on the monic elements
    of a `subquotient_basis`, or None when v is outside the kernel.  The
    normal form's lead must be a basis lead; subtract that element and
    repeat."""
    d, D = _flat(v, image.ring, 0, image.rank)
    r, M = _divide(d, image._divisors)
    leads = {k: (i, lc, rest) for i, (_d, _p, k, lc, rest) in enumerate(basis._divisors.entries)}
    coords = [0] * len(leads)
    while r:
        m = min(r)
        if m not in leads:
            return None
        i, lc, rest = leads[m]
        coords[i] = c = r.pop(m)
        _add_multiple(r, rest, 0, -(c if lc == 1 else Fraction(c, lc)))
    return [c if D * M == 1 else Fraction(c, D * M) for c in coords]


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
    """Standard monomials of the quotient as exponent words in ascending
    grevlex order, or None when infinite."""
    lay = gb._divisors.layout
    std = _standard_terms([lay.base(0, 0)], gb._divisors)
    return None if std is None else [k & lay.xmask for k in std]


def quotient_dimension(mgb: ModuleGB):
    """dim_k R^rank / <mgb> for a term-over-position basis: its number of
    standard terms, or None when infinite."""
    lay = mgb._divisors.layout
    std = _standard_terms([lay.base(p, 0) for p in range(mgb.rank)], mgb._divisors)
    return None if std is None else len(std)
