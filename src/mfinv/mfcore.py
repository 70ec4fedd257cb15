"""Matrix factorizations of a potential and the morphism calculus on them.

A factorization (E, delta) of w is a free module E = E0 + E1 with an odd
differential delta, stored as one square polynomial matrix on E0 + E1:
the first r0 basis elements span E0, delta vanishes on the E0 <- E0 and
E1 <- E1 blocks, and delta * delta = w * id.  That basis order (even
summand first) is used for every "full matrix" in this package.

A matrix is a tuple of rows, each a dict {column: entry} of its nonzero
entries: no zero is ever stored, so two matrices are equal exactly when
their tuples are, and every product walks the stored entries alone.  A
row does not record how many columns the matrix has; the caller knows
it (a rank) and names it to a product.  Dense rows, sequences with their
zeros, enter only through `as_matrix`, which the constructors and
`from_blocks` pass their input through.  `mat_sum` sums products of
polynomial, scalar (group action) and mixed matrices; `mat_mul` is one.
Koszul factorizations live on the exterior algebra of k^m with basis
indexed by subsets of {0..m-1}, sorted by (size, lexicographic); wedge
and contraction carry the sign (-1)^(number of elements below the
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

Matrix = tuple  # tuple[dict[int, entry], ...]: the nonzero entries of each row


def as_matrix(rows, cols: int, error: str = "matrix row outside its column count") -> Matrix:
    """The matrix of these rows in ``cols`` columns, zero entries dropped.

    A row is a sequence of ``cols`` entries (a dense row, as a session or a
    caller writes it) or a dict {column: entry}; a sequence of another
    length or a column outside range(cols) raises ValueError(error).
    """
    out = []
    for row in rows:
        if row.__class__ is not dict:
            row = tuple(row)
            if len(row) != cols:
                raise ValueError(error)
            row = dict(enumerate(row))
        elif not _columns_within((row,), cols):
            raise ValueError(error)
        out.append({j: e for j, e in row.items() if e})
    return tuple(out)


def _columns_within(M: Matrix, cols: int) -> bool:
    """Whether every stored column of M lies in range(cols)."""
    return all(not row or (0 <= min(row) and max(row) < cols) for row in M)


def diagonal_matrix(entries) -> Matrix:
    """The square matrix with these diagonal entries."""
    return tuple({i: e} if e else {} for i, e in enumerate(entries))


def identity_matrix(ring: PolyRing, n: int) -> Matrix:
    return diagonal_matrix([ring.one()] * n)


def mat_sum(pairs, zero, cols: int) -> Matrix:
    """A_1 B_1 + ... + A_k B_k for pairs (A_i, B_i) whose A_i have one row
    count and whose B_i have ``cols`` columns; a stored column of A_i
    outside the rows of B_i, or of B_i outside range(cols), raises.  Each
    row walks the stored entries A_i[r][k] and B_i[k][c] alone; an entry
    that no product reaches, or whose products cancel, is not stored.  Over
    a polynomial `zero` each entry gathers the term products of all its
    pairs, a scalar entry (of a group action) as its constant, in one dict
    (`add_products`), and every word is checked against the layout before
    the cancelled ones go; over a scalar `zero` they add one at a time."""
    rows = len(pairs[0][0])
    for A, B in pairs:
        if len(A) != rows or not (_columns_within(A, len(B)) and _columns_within(B, cols)):
            raise ValueError("matrix shapes do not compose")
    out = []
    if zero.__class__ is not Polynomial:
        for i in range(rows):
            acc: dict = {}
            for A, B in pairs:
                for k, a in A[i].items():
                    for j, b in B[k].items():
                        acc[j] = acc[j] + a * b if j in acc else a * b
            out.append({j: e for j, e in acc.items() if e})
        return tuple(out)
    ring = zero.ring
    coefficient = ring.coefficient
    for i in range(rows):
        sums: dict = {}  # column -> the term products of that entry
        for A, B in pairs:
            for k, a in A[i].items():
                a = a.terms if a.__class__ is Polynomial else {0: coefficient(a)}
                for j, b in B[k].items():
                    right = b.terms if b.__class__ is Polynomial else {0: coefficient(b)}
                    add_products(sums.setdefault(j, {}), a, right)
        new = {}
        for j, acc in sums.items():
            ring.layout.check(acc)  # valid words add without a carry
            if acc := _normal(acc):
                new[j] = Polynomial(ring, acc)
        out.append(new)
    return tuple(out)


def mat_mul(A: Matrix, B: Matrix, zero, cols: int) -> Matrix:
    """A B for B with ``cols`` columns, the one-pair case of `mat_sum`."""
    return mat_sum(((A, B),), zero, cols)


def mat_neg(A: Matrix) -> Matrix:
    return tuple({j: -e for j, e in row.items()} for row in A)


def mat_map(A: Matrix, fn) -> Matrix:
    """fn of each stored entry; the entries it sends to zero are dropped."""
    return tuple({j: v for j, e in row.items() if (v := fn(e))} for row in A)


def _off_parity_rows(M: Matrix, r0_rows: int, r0_cols: int, parity: int) -> list:
    """The rows of M with an entry off the blocks of this parity; rows
    split into even and odd at r0_rows, columns at r0_cols."""
    return [i for i, row in enumerate(M) if row and (
        max(row) >= r0_cols if (i >= r0_rows) == parity else min(row) < r0_cols)]


_NOT_SQUARE = "delta is not square (d1 must be r0 x r1, d0 r1 x r0)"


class MatFac(Frozen):
    """A matrix factorization (E, delta) of the potential w.

    ``delta`` is the odd differential as one square matrix on E0 + E1,
    whose first ``r0`` basis elements span E0; the constructor reads it
    through `as_matrix` and checks the shape and the parity, `validate`
    checks delta * delta = w * id.  ``partials`` holds the derivatives
    d_i delta, computed on first read.
    """

    def __init__(self, ring: PolyRing, w: Polynomial, delta, r0: int):
        delta = as_matrix(delta, len(delta), _NOT_SQUARE)
        if not 0 <= r0 <= len(delta):
            raise ValueError(_NOT_SQUARE)
        bad = _off_parity_rows(delta, r0, r0, 1)
        if bad:
            raise ValueError("delta is not odd: entry in row %d preserves parity" % bad[0])
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "r0", r0)

    @classmethod
    def from_blocks(cls, ring: PolyRing, w: Polynomial, d0, d1) -> "MatFac":
        """The factorization with blocks d0 : E0 -> E1 (r1 x r0) and
        d1 : E1 -> E0 (r0 x r1), that is delta = [[0, d1], [d0, 0]]; each
        block is read through `as_matrix`."""
        d0, d1 = tuple(d0), tuple(d1)
        r0 = len(d1)
        top = as_matrix(d1, len(d0), _NOT_SQUARE)
        top = tuple({r0 + j: e for j, e in row.items()} for row in top)
        return cls(ring, w, top + as_matrix(d0, r0, _NOT_SQUARE), r0)

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
        return self.delta[self.r0 :]

    @property
    def d1(self) -> Matrix:
        """The E0 <- E1 block of delta."""
        return tuple({j - self.r0: e for j, e in row.items()} for row in self.delta[: self.r0])

    @cached_property
    def partials(self) -> tuple:
        """(d_0 delta, ..., d_{n-1} delta), one matrix per variable."""
        return tuple(
            mat_map(self.delta, lambda p: p.partial_derivative(i)) for i in range(self.ring.n)
        )

    def validate(self) -> None:
        """Check delta * delta = w * id exactly."""
        zero = self.ring.zero()
        for i, row in enumerate(mat_mul(self.delta, self.delta, zero, self.rank)):
            want = {i: self.w} if self.w else {}
            if row != want:
                j = min(j for j in row.keys() | want.keys() if row.get(j) != want.get(j))
                raise ValueError(
                    "not a factorization: delta*delta entry (%d, %d) is %s"
                    % (i, j, row.get(j, zero))
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
    """The matrix of sum_j wedge[j] e_j^ + sum_j contract[j] i(e_j*).

    Acts on the subset basis in MatFac order (even subsets first); both
    coefficient lists have length m.  Each entry is reached from one
    column s by one index j, which the subsets of its row and column
    determine, so it is set once and only where its coefficient is
    nonzero.
    """
    evens, odds = koszul_subsets(m)
    ordered = evens + odds
    pos = {s: i for i, s in enumerate(ordered)}
    rows = [{} for _ in ordered]
    for col, s in enumerate(ordered):
        for j in range(m):
            odd = sum(1 for i in s if i < j) % 2
            if j not in s and wedge[j]:
                rows[pos[tuple(sorted(s + (j,)))]][col] = -wedge[j] if odd else wedge[j]
            if j in s and contract[j]:
                t = tuple(i for i in s if i != j)
                rows[pos[t]][col] = -contract[j] if odd else contract[j]
    return tuple(rows)


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


_WRONG_SHAPE = "morphism block has the wrong shape"


class MorphismCocycle(Frozen):
    """A parity-homogeneous map E -> F, stored as its full F.rank x E.rank
    matrix in the E0 + E1 and F0 + F1 bases, read through `as_matrix`.

    An even map vanishes off the blocks F0 <- E0 and F1 <- E1, an odd one
    off F1 <- E0 and F0 <- E1.  Nothing here asserts closedness;
    is_closed() checks it on its first call and keeps the answer in
    ``closed`` (None before).
    """

    __slots__ = ("source", "target", "parity", "matrix", "closed")

    def __init__(self, source: MatFac, target: MatFac, parity: int, matrix):
        matrix = as_matrix(matrix, source.rank, _WRONG_SHAPE)
        if len(matrix) != target.rank:
            raise ValueError(_WRONG_SHAPE)
        if _off_parity_rows(matrix, target.r0, source.r0, parity):
            raise ValueError("matrix is not parity-homogeneous of parity %d" % parity)
        super().__init__(source, target, parity, matrix, None)

    @classmethod
    def from_blocks(
        cls, source: MatFac, target: MatFac, parity: int, blocks: tuple
    ) -> "MorphismCocycle":
        """The map with parity blocks (b00 : F0 <- E0, b11 : F1 <- E1) when
        even, (b10 : F1 <- E0, b01 : F0 <- E1) when odd, each read through
        `as_matrix`."""
        first, second = blocks
        on_e0 = as_matrix(first, source.r0, _WRONG_SHAPE)
        on_e1 = as_matrix(second, source.r1, _WRONG_SHAPE)
        rows = (target.r0, target.r1) if parity == 0 else (target.r1, target.r0)
        if (len(on_e0), len(on_e1)) != rows:
            raise ValueError(_WRONG_SHAPE)
        on_e1 = tuple({source.r0 + j: e for j, e in row.items()} for row in on_e1)
        return cls(source, target, parity, on_e0 + on_e1 if parity == 0 else on_e1 + on_e0)

    def compose(self, other: "MorphismCocycle") -> "MorphismCocycle":
        """self after other (the source of self is the target of other)."""
        if self.source != other.target:
            raise ValueError("composition endpoints do not match")
        M = mat_mul(self.matrix, other.matrix, self.source.ring.zero(), other.source.rank)
        return MorphismCocycle(other.source, self.target, (self.parity + other.parity) % 2, M)

    def differential(self) -> "MorphismCocycle":
        """d(f) = delta_F f - (-1)^|f| f delta_E."""
        f, dE = self.matrix, self.source.delta
        pairs = ((self.target.delta, f), (f, dE if self.parity else mat_neg(dE)))
        D = mat_sum(pairs, self.source.ring.zero(), self.source.rank)
        return MorphismCocycle(self.source, self.target, 1 - self.parity, D)

    def is_closed(self) -> bool:
        if self.closed is None:
            object.__setattr__(self, "closed", self.differential().is_zero())
        return self.closed

    def is_zero(self) -> bool:
        return not any(self.matrix)


def identity_morphism(E: MatFac) -> MorphismCocycle:
    return MorphismCocycle(E, E, 0, identity_matrix(E.ring, E.rank))


# --- the Hom complex as flat matrices ---------------------------------------


def morphism_to_vector(f: MorphismCocycle) -> dict:
    """The Hom^p coordinates of f, {coordinate: entry} for its nonzero
    entries, numbered by `_hom_positions`: a vector `groebner._flat` reads."""
    at = {ts: c for c, ts in enumerate(_hom_positions(f.source, f.target, f.parity))}
    return {at[t, s]: e for t, row in enumerate(f.matrix) for s, e in row.items()}


def vector_to_morphism(E: MatFac, F: MatFac, parity: int, vec) -> MorphismCocycle:
    """The map E -> F of this parity with Hom^parity coordinates vec, one
    entry per coordinate."""
    positions = _hom_positions(E, F, parity)
    vec = tuple(vec)
    if len(vec) != len(positions):
        raise ValueError("Hom^%d has %d coordinates, not %d" % (parity, len(positions), len(vec)))
    rows = [{} for _ in range(F.rank)]
    for (t, s), e in zip(positions, vec):
        rows[t][s] = e
    return MorphismCocycle(E, F, parity, rows)


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
    e_ts is read off the delta rows: the entries of delta_F in column t
    placed at column s, minus (-1)^p the entries of row s of delta_E
    placed at row t.
    """
    if E.w != F.w:
        raise ValueError("potential mismatch")
    dE, dF = E.delta, F.delta
    out = []
    for parity in (0, 1):
        at = {ts: r for r, ts in enumerate(_hom_positions(E, F, 1 - parity))}
        cols = []
        for t, s in _hom_positions(E, F, parity):
            col = {at[t2, s]: row[t] for t2, row in enumerate(dF) if t in row}
            col.update((at[t, s2], e if parity else -e) for s2, e in dE[s].items())
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
    group generator, in the full E0 + E1 basis: ``action`` holds one
    square Scalar matrix per generator, each read through `as_matrix`.
    ``checked`` is None until `equivariant.validate_equivariant` has
    checked the action against a group G; then it is (G, the action table
    of every element of G)."""

    __slots__ = ("base", "action", "checked")

    def __init__(self, base: MatFac, action: tuple):
        size = "action matrix has the wrong size"
        action = tuple(as_matrix(rho, base.rank, size) for rho in action)
        for rho in action:
            if len(rho) != base.rank:
                raise ValueError(size)
            if _off_parity_rows(rho, base.r0, base.r0, 0):
                raise ValueError("action matrix does not preserve parity")
        super().__init__(base, action, None)
