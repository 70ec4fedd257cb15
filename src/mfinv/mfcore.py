"""Matrix factorizations of a potential and the morphism calculus on them.

A factorization (E, delta) of w is a free module E = E0 + E1 with an odd
differential delta, stored as one square polynomial matrix on E0 + E1:
the first r0 basis elements span the even summand E0, delta vanishes on
the E0 <- E0 and E1 <- E1 blocks, and delta * delta = w * id.  That basis
order (even summand first) is used for every "full matrix" in this
package.  Matrices are tuples of row tuples; `mat_sum` sums products of
polynomial, scalar (group action) and mixed ones, and `mat_mul` is one
product.  Koszul factorizations live on the exterior algebra of k^m with
basis indexed by subsets of {0..m-1}, sorted by (size, lexicographic);
wedge and contraction carry the sign (-1)^(number of elements below the
touched index).

A morphism E -> F is stored as its full F.rank x E.rank matrix in those
bases, vanishing off the blocks of its parity; `_hom_positions` alone
defines the Hom^p coordinates, which `hom_differential`,
`morphism_to_vector` and `vector_to_morphism` share.  The differential
on morphisms is d(f) = delta_F f - (-1)^|f| f delta_E, and closed odd
endomorphisms of the stabilized residue field generate a Clifford algebra,
built here from the same greedy monomial decomposition that builds k^st.
"""
from __future__ import annotations

from functools import cached_property

from .poly import _B, Polynomial, PolyRing, _normal, add_products
from .scalar import Frozen

Matrix = tuple  # tuple[tuple[Polynomial, ...], ...], row major


def as_matrix(rows) -> Matrix:
    return tuple(tuple(row) for row in rows)


def diagonal_matrix(entries, zero) -> Matrix:
    """The square matrix with these diagonal entries and `zero` elsewhere."""
    n = len(entries)
    return tuple(
        tuple(entries[i] if i == j else zero for j in range(n)) for i in range(n)
    )


def identity_matrix(ring: PolyRing, n: int) -> Matrix:
    return diagonal_matrix([ring.one()] * n, ring.zero())


def mat_sum(pairs, zero) -> Matrix:
    """A_1 B_1 + ... + A_k B_k for a sequence of pairs (A_i, B_i) of one
    shape; an empty sum is `zero` itself.  Over a polynomial `zero` each
    entry gathers the term products of all its pairs, a scalar entry as its
    constant, in one dict (`add_products`), and every word is checked
    against the layout before the cancelled ones go.  Over a scalar `zero`
    (group actions) the products add one at a time."""
    rows, cols = len(pairs[0][0]), len(pairs[0][1][0]) if pairs[0][1] else 0
    for A, B in pairs:
        if (len(A), len(B[0]) if B else 0) != (rows, cols) or A and B and len(A[0]) != len(B):
            raise ValueError("matrix shapes do not compose")
    out = []
    if zero.__class__ is not Polynomial:
        for i in range(rows):
            # the nonzero entries of the row with the rows of B they pair with
            terms = [(B[k], a) for A, B in pairs for k, a in enumerate(A[i]) if not a.is_zero()]
            new = []
            for j in range(cols):
                acc = zero
                for Bk, a in terms:
                    b = Bk[j]
                    if not b.is_zero():
                        acc = acc + a * b
                new.append(acc)
            out.append(tuple(new))
        return tuple(out)
    ring = zero.ring

    def sparse(M) -> list:
        """Each row of M as the (column, term dict) of its nonzero entries."""
        try:
            return [[(j, e.terms) for j, e in enumerate(row) if e.terms] for row in M]
        except AttributeError:  # a scalar matrix (a group action): constants
            return [[(j, ring.const(e).terms) for j, e in enumerate(row) if e] for row in M]

    factors = [(sparse(A), sparse(B)) for A, B in pairs]
    for i in range(rows):
        sums: dict = {}  # column -> the term products of that entry
        for A, B in factors:
            for k, a in A[i]:
                for j, b in B[k]:
                    add_products(sums.setdefault(j, {}), a, b)
        new = [zero] * cols
        for j, acc in sums.items():
            ring.layout.check(acc)  # valid words add without a carry
            acc = _normal(acc)
            new[j] = Polynomial(ring, acc) if acc else zero
        out.append(tuple(new))
    return tuple(out)


def mat_mul(A: Matrix, B: Matrix, zero) -> Matrix:
    """A B, the one-pair case of `mat_sum`."""
    return mat_sum(((A, B),), zero)


def mat_add(A: Matrix, B: Matrix) -> Matrix:
    return tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_neg(A: Matrix) -> Matrix:
    return tuple(tuple(-a for a in row) for row in A)


def mat_scale(A: Matrix, c) -> Matrix:
    return tuple(tuple(a * c for a in row) for row in A)


def mat_transpose(A: Matrix) -> Matrix:
    if not A:
        return ()
    return tuple(tuple(A[i][j] for i in range(len(A))) for j in range(len(A[0])))


def mat_map(A: Matrix, fn) -> Matrix:
    return tuple(tuple(fn(a) for a in row) for row in A)


def _off_parity_rows(M: Matrix, r0_rows: int, r0_cols: int, parity: int) -> list:
    """The rows of M with a nonzero entry off the blocks of this parity; rows
    split into even and odd at r0_rows, columns at r0_cols."""
    return [i for i, row in enumerate(M) if any(
        not e.is_zero() for e in (row[r0_cols:] if (i >= r0_rows) == parity else row[:r0_cols]))]


class MatFac(Frozen):
    """A matrix factorization (E, delta) of the potential w.

    ``delta`` is the odd differential as one square matrix on E0 + E1,
    whose first ``r0`` basis elements span E0; the constructor checks the
    shape and the parity, `validate` checks delta * delta = w * id.
    ``partials`` holds the derivatives d_i delta, computed on first read.
    """

    def __init__(self, ring: PolyRing, w: Polynomial, delta: Matrix, r0: int):
        if not 0 <= r0 <= len(delta) or any(len(row) != len(delta) for row in delta):
            raise ValueError("delta is not square (d1 must be r0 x r1, d0 r1 x r0)")
        bad = _off_parity_rows(delta, r0, r0, 1)
        if bad:
            raise ValueError("delta is not odd: entry in row %d preserves parity" % bad[0])
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "r0", r0)

    @classmethod
    def from_blocks(cls, ring: PolyRing, w: Polynomial, d0: Matrix, d1: Matrix) -> "MatFac":
        """The factorization with blocks d0 : E0 -> E1 (r1 x r0) and
        d1 : E1 -> E0 (r0 x r1), that is delta = [[0, d1], [d0, 0]]."""
        zero = ring.zero()
        top = tuple((zero,) * len(d1) + tuple(row) for row in d1)
        bottom = tuple(tuple(row) + (zero,) * len(d0) for row in d0)
        return cls(ring, w, top + bottom, len(d1))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.ring, self.w, self.r0, self.delta) == (
            other.ring, other.w, other.r0, other.delta)

    @property
    def r1(self) -> int:
        return len(self.delta) - self.r0

    @property
    def rank(self) -> int:
        return len(self.delta)

    @property
    def d0(self) -> Matrix:
        """The E1 <- E0 block of delta."""
        return tuple(row[: self.r0] for row in self.delta[self.r0 :])

    @property
    def d1(self) -> Matrix:
        """The E0 <- E1 block of delta."""
        return tuple(row[self.r0 :] for row in self.delta[: self.r0])

    @cached_property
    def partials(self) -> tuple:
        """(d_0 delta, ..., d_{n-1} delta), one matrix per variable."""
        return tuple(
            mat_map(self.delta, lambda p: p.partial_derivative(i)) for i in range(self.ring.n)
        )

    def validate(self) -> None:
        """Check delta * delta = w * id exactly."""
        zero = self.ring.zero()
        for i, row in enumerate(mat_mul(self.delta, self.delta, zero)):
            for j, entry in enumerate(row):
                if entry != (self.w if i == j else zero):
                    raise ValueError(
                        "not a factorization: delta*delta entry (%d, %d) is %s"
                        % (i, j, entry)
                    )


# --- Koszul factorizations --------------------------------------------------


def koszul_subsets(m: int) -> tuple[list, list]:
    """Subsets of {0..m-1} split by parity, each sorted by (size, lex)."""
    subsets = [()]
    for j in range(m):
        subsets += [s + (j,) for s in subsets]
    subsets.sort(key=lambda s: (len(s), s))
    evens = [s for s in subsets if len(s) % 2 == 0]
    odds = [s for s in subsets if len(s) % 2 == 1]
    return evens, odds


def koszul_operator(
    ring: PolyRing, m: int, wedge: list, contract: list
) -> Matrix:
    """Full matrix of sum_j wedge[j] e_j^ + sum_j contract[j] i(e_j*).

    Acts on the subset basis in MatFac order (even subsets first); both
    coefficient lists have length m.
    """
    evens, odds = koszul_subsets(m)
    ordered = evens + odds
    pos = {s: i for i, s in enumerate(ordered)}
    size = len(ordered)
    rows = [[ring.zero() for _ in range(size)] for _ in range(size)]
    for s in ordered:
        col = pos[s]
        for j in range(m):
            below = sum(1 for i in s if i < j)
            sign = -1 if below % 2 else 1
            if j not in s and not wedge[j].is_zero():
                t = tuple(sorted(s + (j,)))
                entry = wedge[j] if sign > 0 else -wedge[j]
                rows[pos[t]][col] = rows[pos[t]][col] + entry
            if j in s and not contract[j].is_zero():
                t = tuple(i for i in s if i != j)
                entry = contract[j] if sign > 0 else -contract[j]
                rows[pos[t]][col] = rows[pos[t]][col] + entry
    return as_matrix(rows)


def koszul(a, b) -> MatFac:
    """The Koszul factorization {a, b} of sum_j a_j b_j on Lambda(k^m)."""
    a, b = list(a), list(b)
    if len(a) != len(b):
        raise ValueError("coefficient sequences differ in length")
    if not a:
        raise ValueError("empty Koszul data")
    ring = a[0].ring
    m = len(a)
    w = ring.zero()
    for x, y in zip(a, b):
        w = w + x * y
    E = MatFac(ring, w, koszul_operator(ring, m, a, b), 2 ** (m - 1))
    E.validate()
    return E


# --- morphisms --------------------------------------------------------------


class MorphismCocycle(Frozen):
    """A parity-homogeneous map E -> F, stored as its full F.rank x E.rank
    matrix in the E0 + E1 and F0 + F1 bases.

    An even map vanishes off the blocks F0 <- E0 and F1 <- E1, an odd one
    off F1 <- E0 and F0 <- E1.  Nothing here asserts closedness;
    is_closed() checks it on its first call and keeps the answer in
    ``closed`` (None before).
    """

    __slots__ = ("source", "target", "parity", "matrix", "closed")

    def __init__(self, source: MatFac, target: MatFac, parity: int, matrix: Matrix):
        if len(matrix) != target.rank or any(len(row) != source.rank for row in matrix):
            raise ValueError("morphism block has the wrong shape")
        if _off_parity_rows(matrix, target.r0, source.r0, parity):
            raise ValueError("matrix is not parity-homogeneous of parity %d" % parity)
        super().__init__(source, target, parity, matrix, None)

    @classmethod
    def from_blocks(
        cls, source: MatFac, target: MatFac, parity: int, blocks: tuple
    ) -> "MorphismCocycle":
        """The map with parity blocks (b00 : F0 <- E0, b11 : F1 <- E1) when
        even, (b10 : F1 <- E0, b01 : F0 <- E1) when odd."""
        first, second = blocks
        if parity == 0:
            shapes = ((target.r0, source.r0), (target.r1, source.r1))
        else:
            shapes = ((target.r1, source.r0), (target.r0, source.r1))
        for blk, (r, c) in zip((first, second), shapes):
            if len(blk) != r or any(len(row) != c for row in blk):
                raise ValueError("morphism block has the wrong shape")
        zero = source.ring.zero()
        left, right = (zero,) * source.r0, (zero,) * source.r1
        on_e0 = tuple(tuple(row) + right for row in first)
        on_e1 = tuple(left + tuple(row) for row in second)
        return cls(source, target, parity, on_e0 + on_e1 if parity == 0 else on_e1 + on_e0)

    def compose(self, other: "MorphismCocycle") -> "MorphismCocycle":
        """self after other (the source of self is the target of other)."""
        if self.source != other.target:
            raise ValueError("composition endpoints do not match")
        M = mat_mul(self.matrix, other.matrix, self.source.ring.zero())
        return MorphismCocycle(other.source, self.target, (self.parity + other.parity) % 2, M)

    def differential(self) -> "MorphismCocycle":
        """d(f) = delta_F f - (-1)^|f| f delta_E."""
        f, dE = self.matrix, self.source.delta
        pairs = ((self.target.delta, f), (f, dE if self.parity else mat_neg(dE)))
        D = mat_sum(pairs, self.source.ring.zero())
        return MorphismCocycle(self.source, self.target, 1 - self.parity, D)

    def is_closed(self) -> bool:
        if self.closed is None:
            object.__setattr__(self, "closed", self.differential().is_zero())
        return self.closed

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.matrix for e in row)


def identity_morphism(E: MatFac) -> MorphismCocycle:
    return MorphismCocycle(E, E, 0, identity_matrix(E.ring, E.rank))


# --- the Hom complex as flat matrices ---------------------------------------


def morphism_to_vector(f: MorphismCocycle) -> tuple:
    """The Hom^p coordinates of f: its entries at `_hom_positions`."""
    M = f.matrix
    return tuple(M[t][s] for t, s in _hom_positions(f.source, f.target, f.parity))


def vector_to_morphism(E: MatFac, F: MatFac, parity: int, vec) -> MorphismCocycle:
    """The map E -> F of this parity with Hom^parity coordinates vec."""
    positions = _hom_positions(E, F, parity)
    vec = tuple(vec)
    if len(vec) != len(positions):
        raise ValueError(
            "Hom^%d has %d coordinates, not %d" % (parity, len(positions), len(vec))
        )
    rows = [[E.ring.zero()] * E.rank for _ in range(F.rank)]
    for (t, s), e in zip(positions, vec):
        rows[t][s] = e
    return MorphismCocycle(E, F, parity, as_matrix(rows))


def _hom_positions(E: MatFac, F: MatFac, parity: int) -> list:
    """(target, source) full-basis indices of the flattened Hom^parity.

    This is the one definition of the Hom^p coordinates: each parity block
    row-major, the block on E0 first.
    """
    F0, F1 = range(F.r0), range(F.r0, F.rank)
    E0, E1 = range(E.r0), range(E.r0, E.rank)
    blocks = ((F0, E0), (F1, E1)) if parity == 0 else ((F1, E0), (F0, E1))
    return [(t, s) for rows, cols in blocks for t in rows for s in cols]


def hom_differential(E: MatFac, F: MatFac) -> tuple[tuple[dict, ...], tuple[dict, ...]]:
    """The columns of d on flattened Hom^0 and Hom^1.

    Returns (d_even, d_odd): one column per Hom^p coordinate of
    d_even : Hom^0 -> Hom^1 and d_odd : Hom^1 -> Hom^0 over the polynomial
    ring, each a dict {row: entry} of its nonzero entries; both
    compositions vanish when E and F share w.  The column of the unit map
    e_ts is read off the delta blocks: column t of delta_F placed at column
    s, minus (-1)^p row s of delta_E placed at row t.
    """
    if E.w != F.w:
        raise ValueError("potential mismatch")
    dE, dF = E.delta, F.delta
    out = []
    for parity in (0, 1):
        at = {ts: r for r, ts in enumerate(_hom_positions(E, F, 1 - parity))}
        cols = []
        for t, s in _hom_positions(E, F, parity):
            col = {at[t2, s]: row[t] for t2, row in enumerate(dF) if row[t].terms}
            col.update((at[t, s2], e if parity else -e) for s2, e in enumerate(dE[s]) if e.terms)
            cols.append(col)
        out.append(tuple(cols))
    return out[0], out[1]


# --- stabilization of the residue field -------------------------------------


def greedy_decomposition(w: Polynomial) -> list:
    """Write w = sum_i x_i w_i, dividing each monomial by its lowest variable.

    Requires w(0) = 0; deterministic.
    """
    ring = w.ring
    parts = [dict() for _ in range(ring.n)]
    for m, c in w.terms.items():
        if not m:
            raise ValueError("potential has a nonzero constant term")
        # the lowest set bit of the word lies in the field of the lowest
        # variable; m is the key with that variable raised again, so no two
        # terms of w meet in one part
        i = ((m & -m).bit_length() - 1) // _B
        parts[i][m - (1 << (_B * i))] = c
    return [Polynomial(ring, p) for p in parts]


def stabilized_residue_field(w: Polynomial) -> MatFac:
    """k^st = {(w_1..w_n); (x_1..x_n)}, the stabilization of the residue field."""
    ring = w.ring
    xs = [ring.var(i) for i in range(ring.n)]
    return koszul(greedy_decomposition(w), xs)


def clifford_generators(w: Polynomial):
    """Closed odd endomorphisms alpha_j of k^st generating a Clifford algebra.

    alpha_j = -(sum_i w_ij e_i^) + i(e_j*), with w_j = sum_i x_i w_ij from
    the greedy decomposition applied twice.  Requires w without linear part
    (w in the square of the maximal ideal).
    """
    ring = w.ring
    n = ring.n
    if any(ring.layout.deg(m) < 2 for m in w.terms):
        raise ValueError("potential has a linear part")
    kst = stabilized_residue_field(w)
    ws = greedy_decomposition(w)
    alphas = []
    for j in range(n):
        wij = greedy_decomposition(ws[j])
        wedge = [-wij[i] for i in range(n)]
        contract = [ring.one() if i == j else ring.zero() for i in range(n)]
        alphas.append(MorphismCocycle(kst, kst, 1, koszul_operator(ring, n, wedge, contract)))
    return kst, alphas


# --- equivariant structure (validated against a group in `equivariant`) -----


class EquivariantMF(Frozen):
    """A factorization with a constant parity-preserving action matrix per
    group generator, in the full E0 + E1 basis: ``action`` holds one full
    square Scalar matrix per generator.  ``checked`` is None until
    `equivariant.validate_equivariant` has checked the action against a
    group G; then it is (G, the action table of every element of G)."""

    __slots__ = ("base", "action", "checked")

    def __init__(self, base: MatFac, action: tuple):
        for rho in action:
            if len(rho) != base.rank or any(len(row) != base.rank for row in rho):
                raise ValueError("action matrix has the wrong size")
            if _off_parity_rows(rho, base.r0, base.r0, 0):
                raise ValueError("action matrix does not preserve parity")
        super().__init__(base, action, None)
