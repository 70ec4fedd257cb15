"""The Milnor algebra of an isolated singularity and its residue trace.

For a potential w with an isolated critical point at the origin, the
quotient A = k[x]/(dw/dx_1, ..., dw/dx_n) is finite dimensional and carries
the Grothendieck residue trace.  The trace is evaluated exactly through the
transformation law: writing x_i^N = sum_j a_ij dw/dx_j via Groebner
cofactors turns the residue with Jacobian denominators into one with
monomial denominators (x_1^N, ..., x_n^N), where it is plain coefficient
extraction:

    tr(f) = [x_1^(N-1) ... x_n^(N-1)] (f * det(a)).

Nothing needs the product f * det(a): the trace of a monomial is one
coefficient of the determinant,

    tr(x^m) = [x^(N-1-m)] det(a)    (N-1-m taken componentwise),

so a trace is a sum of lookups over the terms of f, and a Gram entry
tr(x^a x^b) is the single coefficient [x^(N-1-a-b)] det(a).  On exponent
words N-1-m is the subtraction T - m, T the word with every field N-1.

Scaled suitably this trace is the inverse of the intersection form; with
the sign (-1)^(n choose 2) it is the canonical pairing that the boundary
and bulk invariants land in.

    >>> A = build_milnor(PolyRing(("x",)).parse("x^3"))
    >>> A.mu
    2
    >>> str(residue_trace(hessian_class(A)))
    '2'
"""
from __future__ import annotations

from .groebner import ModuleGB, lift, lift_basis, module_gb, normal_form, quotient_basis, split
from .poly import Polynomial, PolyRing, determinant
from .scalar import Frozen, Scalar


class MilnorRing(Frozen):
    """k[x]/J_w with the data needed to evaluate residue traces.

    ``basis`` lists the standard monomials of the Jacobian ideal (grevlex
    ascending) as exponent tuples and ``basis_words`` as exponent words;
    the constructor takes both.  ``nilpotency`` is the uniform exponent N
    with every x_i^N in J_w, and ``residue_cofactor_det`` is det(a_ij) for
    one fixed choice of cofactors x_i^N = sum_j a_ij dw/dx_j.
    """

    __slots__ = ("ring", "w", "jacobian_gb", "basis", "basis_words", "mu", "nilpotency",
                 "residue_cofactor_det")

    def project(self, value: Polynomial, parity: int | None = None) -> "MilnorClass":
        """The class of ``value`` in A_w, reduced to normal form."""
        if value.ring.names != self.ring.names:
            raise ValueError("polynomial from a different ring")
        if parity is None:
            parity = self.ring.n % 2
        return MilnorClass(self, normal_form(value, self.jacobian_gb), parity % 2)

    def coordinates(self, value: Polynomial) -> tuple[Scalar, ...]:
        """Coefficients of the class of ``value`` on the monomial basis."""
        terms = normal_form(value, self.jacobian_gb).terms
        if sum(m in terms for m in self.basis_words) != len(terms):
            raise AssertionError("normal form not supported on the basis")
        scalar = self.ring.scalar
        return tuple(scalar(terms.get(m, 0)) for m in self.basis_words)


class MilnorClass(Frozen):
    """An element of A_w together with the parity of its ambient class."""

    __slots__ = ("ring", "value", "parity")

    def is_zero(self) -> bool:
        return self.value.is_zero()

    def __add__(self, other: "MilnorClass") -> "MilnorClass":
        _same_ring(self, other)
        return MilnorClass(self.ring, self.value + other.value, self.parity)

    def __sub__(self, other: "MilnorClass") -> "MilnorClass":
        _same_ring(self, other)
        return MilnorClass(self.ring, self.value - other.value, self.parity)

    def __neg__(self) -> "MilnorClass":
        return MilnorClass(self.ring, -self.value, self.parity)

    def scale(self, c) -> "MilnorClass":
        return MilnorClass(self.ring, self.value * c, self.parity)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MilnorClass):
            return NotImplemented
        return (
            self.ring.w == other.ring.w
            and self.value == other.value
            and self.parity == other.parity
        )

    __hash__ = None  # type: ignore[assignment]

    def __str__(self) -> str:
        return str(self.value)


def _same_ring(a: MilnorClass, b: MilnorClass) -> None:
    if a.ring.w != b.ring.w or a.ring.ring.names != b.ring.ring.names:
        raise ValueError("ring mismatch")


def build_milnor(w: Polynomial) -> MilnorRing:
    """Build A_w for a potential with an isolated singular point at 0.

    Raises ValueError("not an isolated singularity") when the Jacobian
    quotient is infinite dimensional, and ValueError("singular locus not
    local") when the quotient has support away from the origin.  The
    zero-variable ring (a sector with no fixed coordinates) degenerates
    to A = k with mu = 1.
    """
    ring = w.ring
    n = ring.n
    if 0 in w.terms:
        raise ValueError("potential must vanish at the origin")
    partials = [w.partial_derivative(i) for i in range(n)]
    if all(p.is_zero() for p in partials):
        if n > 0:
            raise ValueError("not an isolated singularity")
        # sector with no coordinates: A = k, the residue is the identity
        return MilnorRing(ring, w, module_gb((), 1, ring), ((),), (0,), 1, 0, ring.one())
    # one block-order run: its heads are the Jacobian basis, and `lift`
    # reads the cofactors of the residue transformation law off it
    lifts = lift_basis([(p,) for p in partials], 1, ring)
    gb = split(lifts)[0]
    basis = quotient_basis(gb)
    if basis is None:
        raise ValueError("not an isolated singularity")
    words = tuple(basis)
    exponents = tuple(map(ring.layout.exponents, words))
    nil = _nilpotency_exponent(ring, gb, exponents)
    det = _cofactor_determinant(lifts, partials, nil)
    return MilnorRing(ring, w, gb, exponents, words, len(words), nil, det)


def _nilpotency_exponent(ring: PolyRing, gb: ModuleGB, basis) -> int:
    # smallest uniform N with x_i^N in the ideal for every i; the maximal
    # ideal of an Artinian local ring of length mu satisfies m^mu = 0, so
    # at the origin the search ends by N = mu.  A variable still alive at
    # mu + 1 is not nilpotent: the quotient has support away from 0.
    # x_i^k in the ideal makes x_i^k a multiple of a lead, so the search
    # for x_i starts at the first power of x_i that is not a standard
    # monomial (the standard monomials ``basis`` are closed under division)
    mu = len(basis)
    best = 0
    for i in range(ring.n):
        x = ring.var(i)
        k = 1 + max((e[i] for e in basis if sum(e) == e[i]), default=0)
        p = x ** k
        while not normal_form(p, gb).is_zero():
            p = p * x
            k += 1
            if k > mu + 1:
                raise ValueError("singular locus not local")
        best = max(best, k)
    return best


def _cofactor_determinant(lifts: ModuleGB, partials, exponent: int) -> Polynomial:
    """det(a_ij) for x_i^N = sum_j a_ij partials_j, the cofactors read off
    the lift basis of the partials; each identity is checked."""
    ring = lifts.ring
    rows = []
    for i in range(ring.n):
        f = ring.var(i) ** exponent
        (r,), cof = lift((f,), lifts)
        if sum((a * g for a, g in zip(cof, partials)), r) != f:
            raise AssertionError("cofactor identity failed")
        if not r.is_zero():
            raise AssertionError("power of a variable failed to reduce to zero")
        rows.append(list(cof))
    return determinant(rows, ring.one())


def residue_trace(f: MilnorClass) -> Scalar:
    """The Grothendieck residue of f dx against (dw/dx_1, ..., dw/dx_n)."""
    A = f.ring
    return _trace_poly(A, f.value, A.nilpotency, A.residue_cofactor_det)


def _trace_poly(A: MilnorRing, p: Polynomial, exponent: int, det: Polynomial) -> Scalar:
    # tr(c x^m) = c [x^(N-1-m)] det; the term contributes nothing when some
    # exponent of m exceeds N-1.  The word T - m then borrows: the field
    # that went below 0 wraps into its guard bits, or, the top field, makes
    # the int negative, so it equals no stored word and the lookup misses
    top = (exponent - 1) * A.ring.layout.ones
    coeffs = det.terms
    total = 0
    for m, c in p.terms.items():
        d = coeffs.get(top - m)
        if d is not None:
            total = total + c * d
    return A.ring.scalar(total)


def hessian_class(A: MilnorRing) -> MilnorClass:
    """The class of det(d^2 w / dx_i dx_j); its trace is the Milnor number."""
    n = A.ring.n
    rows = [
        [A.w.partial_derivative(i).partial_derivative(j) for j in range(n)]
        for i in range(n)
    ]
    return A.project(determinant(rows, A.ring.one()))


def canonical_pairing(f: MilnorClass, g: MilnorClass) -> Scalar:
    """<f, g> = (-1)^(n choose 2) tr(f g), the form the index theorem uses."""
    _same_ring(f, g)
    A = f.ring
    n = A.ring.n
    value = _trace_poly(A, f.value * g.value, A.nilpotency, A.residue_cofactor_det)
    if (n * (n - 1) // 2) % 2:
        value = -value
    return value


def gram_matrix(A: MilnorRing) -> list[list[Scalar]]:
    """tr(b_a * b_b) over the standard monomial basis (no sign twist)."""
    # T - ma - mb misses as in `_trace_poly` when a sum passes N - 1
    top = (A.nilpotency - 1) * A.ring.layout.ones
    # each determinant term is wrapped once; the entries it misses share a zero
    scalar = A.ring.scalar
    coeffs = {m: scalar(c) for m, c in A.residue_cofactor_det.terms.items()}
    zero = scalar(0)
    words = A.basis_words
    return [[coeffs.get(top - ma - mb, zero) for mb in words] for ma in words]
