"""One Buchberger engine for submodules of R^r; an ideal is the rank-1 case.

Everything runs over the global grevlex order.  The downstream callers
(Milnor rings, Hom-cohomology) only ever feed ideals and modules whose
quotients are supported at the origin, where global and local computations
agree; `milnor.build_milnor` certifies that precondition for the Jacobian
ideal, whose nilpotency search rejects support away from the origin.

At the API boundary module elements are tuples of polynomials, and an
ideal generator g is the element (g,).  Inside the engine an element is a
flat dict {(position, monomial): coefficient} of raw field elements: the
Fraction inside each Scalar over Q, the Scalar itself over Q(zeta).
`_flat` unwraps the coefficients and `_unflat` wraps them back, so Scalars
appear only at the API boundary, as polynomials do; the loops use nothing
but field arithmetic, ``1 / c`` and truth.  The module order is
term-over-position: grevlex on the monomial part, ties to the lower
position; with ``block=b`` any term in the first b positions beats every
term outside them.  The term (p, m) has the order key

    (p >= block, -deg m, reversed m, p)

and the smaller key is the larger term, so a heap of keys yields the lead.
Division keeps the keys of its working element in such a heap and deletes
lazily: a key whose term has cancelled is skipped when it comes up.  Each
basis keeps, per lead position, its entries' leads, inverse lead
coefficients and remaining terms; a lead is divided by the first entry, in
insertion order, whose lead divides it.

Elements of length 1 also get Buchberger's product criterion.  Syzygies,
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

from functools import cached_property
from heapq import heapify, heappop, heappush
from itertools import product
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
from .scalar import Frozen, Scalar

ModuleElement = tuple  # tuple[Polynomial, ...]


def _flat(v, ring: PolyRing) -> dict:
    """{(position, monomial): raw coefficient} of a tuple of polynomials."""
    if ring.context is None:
        return {(p, m): c.coeffs[0] for p, f in enumerate(v) for m, c in f.terms.items()}
    return {(p, m): c for p, f in enumerate(v) for m, c in f.terms.items()}


def _polynomial(terms: dict, ring: PolyRing) -> Polynomial:
    """The polynomial with raw coefficients {monomial: coefficient}."""
    if ring.context is None:
        terms = {m: Scalar(None, (c,)) for m, c in terms.items()}
    return Polynomial(ring, terms)


def _unflat(d: dict, length: int, ring: PolyRing) -> ModuleElement:
    comps: dict = {}
    for (p, m), c in d.items():
        comps.setdefault(p, {})[m] = c
    zero = ring.zero()  # polynomials are immutable, so one zero serves all
    return tuple(_polynomial(comps[p], ring) if p in comps else zero for p in range(length))


def _key(p: int, m: Monomial, block: int):
    """Heap entry of the term (p, m): the order key, then the monomial."""
    return (p >= block, -sum(m), m[::-1], p, m)


def _lead(d: dict, block: int):
    """Lead (position, monomial) of a nonzero flat element."""
    return min(d, key=lambda pm: _key(pm[0], pm[1], block))


class _Divisors:
    """A basis ready for division.  ``entries`` holds, in insertion order,
    (element, lead position, lead monomial, inverse lead coefficient,
    other terms), the other terms as (position, monomial, coefficient);
    ``by_pos`` maps a lead position to its entries as (index, lead
    monomial, inverse lead coefficient, other terms)."""

    __slots__ = ("block", "entries", "by_pos")

    def __init__(self, block: int, elements=()):
        self.block = block
        self.entries: list = []
        self.by_pos: dict = {}
        for d in elements:
            self.add(d)

    def add(self, d: dict, lead=None) -> None:
        p, m = lead or _lead(d, self.block)
        inv = 1 / d[p, m]
        rest = [(q, tm, c) for (q, tm), c in d.items() if q != p or tm != m]
        self.by_pos.setdefault(p, []).append((len(self.entries), m, inv, rest))
        self.entries.append((d, p, m, inv, rest))


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


def _divide(work: dict, divs: _Divisors, skip: int = -1) -> dict:
    """Full division of the flat element ``work`` (consumed) by ``divs``,
    leaving out entry ``skip``; returns the remainder."""
    block = divs.block
    by_pos = divs.by_pos
    heap = [_key(p, m, block) for p, m in work]
    heapify(heap)
    rem = {}
    while heap:
        p, m = heappop(heap)[3:]
        c = work.pop((p, m), None)
        if c is None:
            continue  # cancelled, or already divided under an older key
        for i, wm, winv, rest in by_pos.get(p, ()):
            # monomial_divides and monomial_div, inlined in the hot loop
            if i != skip and all(a <= b for a, b in zip(wm, m)):
                t = tuple(b - a for a, b in zip(wm, m))
                # the lead cancels exactly; only the other terms change
                _add_multiple(work, rest, t, -c * winv, heap, block)
                break
        else:
            rem[p, m] = c
    return rem


def module_buchberger(gens, ring: PolyRing, block: int = 0):
    """Reduced module GB under term-over-position grevlex; ``block=r``
    switches to the elimination order whose first r positions dominate (for
    syzygies and cofactors).  Elements of length 1 are ideal generators."""
    gens = [tuple(g) for g in gens]
    length = len(gens[0]) if gens else 0
    divs = _Divisors(block)
    entries = divs.entries
    sugars: list[int] = []
    # (sugar, grevlex key of lcm, position, j, i, lcm), taken smallest
    # first; (j, i) is the insertion order, so ties go to the older pair
    pairs: list[tuple] = []

    def add_element(d, sugar):
        t = len(entries)
        p, m = _lead(d, block)
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
        if length == 1:
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
        divs.add(d, (p, m))
        sugars.append(sugar)

    for g in gens:
        d = _flat(g, ring)
        if d:
            sugar = max(sum(m) for _p, m in d)
            r = _divide(d, divs)
            if r:
                add_element(r, sugar)

    while pairs:
        q = min(pairs)
        pairs.remove(q)
        sugar, _grevlex, _p, j, i, lcm = q
        _di, _, mi, ci, rest_i = entries[i]
        _dj, _, mj, cj, rest_j = entries[j]
        # the scaled leads cancel exactly; the S-vector is made of the rest
        s: dict = {}
        _add_multiple(s, rest_i, monomial_div(lcm, mi), ci)
        _add_multiple(s, rest_j, monomial_div(lcm, mj), -cj)
        r = _divide(s, divs)
        if r:
            add_element(r, sugar)

    # minimalize: drop entries whose lead is divisible by another lead
    keep = _Divisors(block)
    for i, (d, p, m, _c, _r) in enumerate(entries):
        if not any(
            j != i and wp == p and monomial_divides(wm, m) and (wm != m or j < i)
            for j, (_d, wp, wm, _c, _r) in enumerate(entries)
        ):
            keep.add(d, (p, m))
    # tail-reduce and normalize to monic
    final = []
    for idx, (d, p, m, inv, _r) in enumerate(keep.entries):
        # no other lead divides this one, so the lead passes through
        r = _divide(dict(d), keep, skip=idx)
        final.append(((p, grevlex_key(m)), {k: c * inv for k, c in r.items()}))
    final.sort(key=lambda e: e[0])
    return [_unflat(e[1], length, ring) for e in final]


# --- modules ----------------------------------------------------------------


class ModuleGB(Frozen):
    """A reduced basis of a submodule of R^rank under the order whose first
    ``block`` positions dominate; ``block`` is 0 for term-over-position."""

    def __init__(
        self, ring: PolyRing, rank: int, generators: tuple[ModuleElement, ...], block: int = 0
    ):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rank", rank)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "block", block)

    @cached_property
    def _divisors(self) -> _Divisors:
        return _Divisors(self.block, [_flat(g, self.ring) for g in self.generators])


def module_gb(gens, rank: int, ring: PolyRing) -> ModuleGB:
    return ModuleGB(ring, rank, tuple(module_buchberger(gens, ring)))


def module_normal_form(v, mgb: ModuleGB):
    return _unflat(_divide(_flat(v, mgb.ring), mgb._divisors), len(v), mgb.ring)


def lift_basis(gens, rank: int, ring: PolyRing, extra=()) -> ModuleGB:
    """The block-order basis of the vectors (g_i, e_i) and (h_j, 0) in
    R^(rank + s), s = len(gens), for g_i in ``gens`` and h_j in ``extra``,
    with block = rank."""
    s = len(gens)
    one, zero = ring.one(), ring.zero()
    vectors = [
        tuple(g) + (zero,) * i + (one,) + (zero,) * (s - 1 - i) for i, g in enumerate(gens)
    ]
    vectors += [tuple(h) + (zero,) * s for h in extra]
    return ModuleGB(ring, rank + s, tuple(module_buchberger(vectors, ring, block=rank)), rank)


def lift(v, basis: ModuleGB):
    """(remainder, cofactors) of v in R^block against a `lift_basis`:
    v = sum_i a_i g_i + r + an element of <h>.  Dividing (v, 0) leaves
    (r, -a); r is the normal form of v modulo <g, h> and a is reduced
    modulo the relations, so both are unique."""
    ring, b = basis.ring, basis.block
    rem = _unflat(_divide(_flat(v, ring), basis._divisors), basis.rank, ring)
    return rem[:b], tuple(-a for a in rem[b:])


def split(basis: ModuleGB):
    """(heads, tails) of a `lift_basis` as module bases: the first block
    components of the elements that have any, a reduced basis of <g, h>,
    and the other components of the elements whose first block vanishes,
    a reduced basis of the relations."""
    b = basis.block
    heads, tails = [], []
    for v in basis.generators:
        if any(c.terms for c in v[:b]):
            heads.append(v[:b])
        else:
            tails.append(v[b:])
    ring = basis.ring
    return ModuleGB(ring, b, tuple(heads)), ModuleGB(ring, basis.rank - b, tuple(tails))


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


def subquotient_presentation(kernel: ModuleGB, image_gens):
    """Presentation of <kernel> / <image_gens> as R^t / relations.

    t is the number of kernel GB generators k_i.  The lift basis of the k_i
    with the image generators g_j as ``extra`` has the relations {c :
    sum_i c_i k_i in <g_j>} as its tails; its heads are the kernel's own
    basis exactly when every g_j lies in the kernel.  Returns (that lift
    basis, the relation GB in R^t, standard (position, monomial) pairs),
    the last a k-basis of the quotient.  Raises when an image generator
    falls outside the kernel or the quotient is infinite-dimensional.
    """
    basis = lift_basis(kernel.generators, kernel.rank, kernel.ring, image_gens)
    heads, relations = split(basis)
    if heads.generators != kernel.generators:
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
