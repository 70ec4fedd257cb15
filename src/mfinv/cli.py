"""Batch front end over a single self-contained session file.

A session is a JSON document naming one potential, its factorizations,
morphisms between them, and optionally a diagonal symmetry group or a
weight system for the graded index.  Every command is a pure function of
that file: load, compute, print.  Results go to standard output as plain
``key: value`` lines, or as JSON with sorted keys behind ``--json``.

Exit codes: 0 on success, 1 when ``verify --check`` finds a failed
identity (or a Cardy mismatch is detected), 2 on any input error,
including a library check that rejects the input (a ValueError or
AssertionError, which `main` reports like a SessionError).

A subcommand loads only the layers it uses: the core (``scalar`` through
``mfcore``) comes with this module, and each handler imports the rest at
its own top.  ``equivariant`` also loads for a session with a group,
which load_session closes.

Session schema::

    {
      "field": "rational" | {"cyclotomic_order": m},      # default rational
      "variables": ["x", "y"],
      "potential": "x^3 + x*y^2",
      "factorizations": {
        "E": {"koszul": {"a": ["x"], "b": ["x^2 + y^2"]},
              "rho": {"gen0": [["z", "0"], ["0", "1"]]},   # optional
              "degrees": {"even": [0], "odd": [1]}},        # optional
        "F": {"d0": [["x"]], "d1": [["x^2 + y^2"]]}
      },
      "morphisms": {
        "alpha": {"source": "E", "target": "E", "parity": 0,
                  "blocks": [[["1"]], [["1"]]]}
      },
      "group": {"cyclotomic_order": 2, "generators": [["1", "-1"]]},
      "weights": [1, 1]
    }

Scalars are written "p/q", or as expressions in "z", the primitive root
of the session's cyclotomic field; the output serialization
{"m": m, "coeffs": ["p/q", ...]} is accepted on input as well.  Morphism
blocks are (even-to-even, odd-to-odd) for parity 0 and
(even-to-odd, odd-to-even) for parity 1.  No exponent in a polynomial or
scalar may exceed MAX_EXPONENT, and no cyclotomic order MAX_CONDUCTOR.
Each rho matrix is rank x rank for its factorization and preserves parity.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from functools import cache, partial
from itertools import product

# the core layers only; handlers import `invariants`, `homology`,
# `equivariant` and `oracle` where they need them
from .mfcore import (
    EquivariantMF,
    MatFac,
    MorphismCocycle,
    as_matrix,
    identity_matrix,
    identity_morphism,
    koszul,
    mat_mul,
)
from .milnor import MilnorRing, build_milnor, gram_matrix, hessian_class, residue_trace
from .poly import PolyRing, Polynomial
from .scalar import MAX_CONDUCTOR, CyclotomicContext, Scalar, bare, scalar_to_json


class SessionError(Exception):
    """Anything wrong with the input file or the requested names."""


# Largest exponent a session polynomial or scalar may use.  Far beyond it
# a power takes practically forever to expand or, in a potential, to reduce.
MAX_EXPONENT = 1000
_EXPONENT = re.compile(r"\^\s*0*(\d+)")

class Session:
    """A loaded session file.  The named parts start empty and are filled
    in file order by load_session."""

    __slots__ = ("ring", "context", "w", "milnor", "factorizations", "equivariant",
                 "degree_specs", "morphisms", "group", "weights")

    def __init__(
        self,
        ring: PolyRing,
        context: CyclotomicContext | None,
        w: Polynomial,
        milnor: MilnorRing,
    ):
        self.ring = ring
        self.context = context
        self.w = w
        self.milnor = milnor
        self.factorizations = {}  # name -> MatFac, in file order
        self.equivariant = {}  # name -> EquivariantMF, for each with rho data
        self.degree_specs = {}  # name -> (even degrees, odd degrees)
        self.morphisms = {}  # name -> MorphismCocycle
        self.group = None  # the closed DiagonalGroup, when the file has one
        self.weights = None  # one integer per variable, when the file has them


# --- scalar and polynomial input --------------------------------------------


def _session_int(value, what: str) -> int:
    """A JSON integer; bools, floats and strings are rejected."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise SessionError("%s must be an integer, got %r" % (what, value))


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise SessionError("bad rational %r: %s" % (text, exc))


def parse_scalar(spec, context: CyclotomicContext | None) -> Scalar:
    """A scalar from "p/q", an expression in z, or {"m":..,"coeffs":[..]}."""
    if isinstance(spec, dict):
        try:
            m = _session_int(spec["m"], "scalar conductor")
            coeffs = spec["coeffs"]
        except KeyError as exc:
            raise SessionError("bad scalar object %r: missing %s" % (spec, exc))
        if not isinstance(coeffs, list) or not all(isinstance(c, str) for c in coeffs):
            raise SessionError(
                "bad scalar object %r: coeffs must be a list of strings" % (spec,)
            )
        coeffs = [_parse_fraction(c) for c in coeffs]
        if context is None or context.order != m:
            raise SessionError(
                "scalar of conductor %d outside the session field" % m
            )
        if len(coeffs) != context.degree:
            raise SessionError("scalar object has %d coefficients, expected %d"
                               % (len(coeffs), context.degree))
        return Scalar(context, tuple(map(bare, coeffs)))
    if not isinstance(spec, str):
        raise SessionError("scalar must be a string or object, got %r" % (spec,))
    _check_exponent_literals(spec, "scalar %r" % spec)
    p = _parse_text(PolyRing(("z",), context), spec, "bad scalar %r" % spec)
    if context is None:
        if not p.is_constant():
            raise SessionError("scalar %r uses z but the session field is rational" % spec)
        return p.as_scalar()
    k = PolyRing((), context)
    return p.substitute(k, [k.const(context.zeta())]).as_scalar()


def _check_exponent_literals(text: str, what: str) -> None:
    # checked on the text, so that a huge power is never expanded
    for digits in _EXPONENT.findall(text):
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
            raise SessionError(
                "%s: exponent %s is above the limit %d" % (what, digits, MAX_EXPONENT)
            )


def _parse_text(ring: PolyRing, text: str, what: str) -> Polynomial:
    """ring.parse(text), with a parse error or nesting deeper than the
    recursive parser can follow reported as a SessionError."""
    try:
        return ring.parse(text)
    except ValueError as exc:
        raise SessionError("%s: %s" % (what, exc))
    except RecursionError:
        raise SessionError("%s: nested too deeply" % what)


def _parse_poly(ring: PolyRing, text, what: str) -> Polynomial:
    if not isinstance(text, str):
        raise SessionError("%s must be a polynomial string, got %r" % (what, text))
    _check_exponent_literals(text, what)
    f = _parse_text(ring, text, what)
    # products of allowed powers can still exceed the limit
    exponents = ring.layout.exponents
    top = max((e for m in f.terms for e in exponents(m)), default=0)
    if top > MAX_EXPONENT:
        raise SessionError(
            "%s: exponent %d is above the limit %d" % (what, top, MAX_EXPONENT)
        )
    return f


def _parse_poly_matrix(ring: PolyRing, rows, what: str):
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise SessionError("%s must be a list of rows" % what)
    return as_matrix(
        [
            [_parse_poly(ring, entry, what) for entry in row]
            for row in rows
        ]
    )


# --- session loading --------------------------------------------------------


def _conductor(value, what: str) -> int:
    order = _session_int(value, what)
    if order < 1:
        raise SessionError("%s must be positive" % what)
    if order > MAX_CONDUCTOR:
        raise SessionError(
            "%s %d is above the limit %d" % (what, order, MAX_CONDUCTOR)
        )
    return order


def _load_field(doc) -> int | None:
    spec = doc.get("field", "rational")
    if spec == "rational":
        order = None
    elif isinstance(spec, dict) and "cyclotomic_order" in spec:
        order = _conductor(spec["cyclotomic_order"], "cyclotomic order")
    else:
        raise SessionError("field must be \"rational\" or {\"cyclotomic_order\": m}")
    group = doc.get("group")
    if group is not None:
        if not isinstance(group, dict):
            raise SessionError("group must be an object")
        g_order = group.get("cyclotomic_order")
        if g_order is not None:
            g_order = _conductor(g_order, "group cyclotomic order")
            if order is None:
                order = g_order
            elif order != g_order:
                raise SessionError(
                    "group cyclotomic order %d does not match the session field order %d"
                    % (g_order, order)
                )
    if order == 1:
        # Q(zeta_1) is just the rationals
        order = None
    return order


def _load_factorization(ring: PolyRing, w: Polynomial, name: str, spec) -> MatFac:
    if not isinstance(spec, dict):
        raise SessionError("factorization %r must be an object" % name)
    if "koszul" in spec:
        kdata = spec["koszul"]
        if not (
            isinstance(kdata, dict)
            and isinstance(kdata.get("a"), list)
            and isinstance(kdata.get("b"), list)
        ):
            raise SessionError(
                "factorization %r needs koszul data {\"a\": [...], \"b\": [...]}" % name
            )
        a = [_parse_poly(ring, t, "factorization %r" % name) for t in kdata["a"]]
        b = [_parse_poly(ring, t, "factorization %r" % name) for t in kdata["b"]]
        try:
            E = koszul(a, b)
        except ValueError as exc:
            raise SessionError("factorization %r: %s" % (name, exc))
    elif "d0" in spec and "d1" in spec:
        d0 = _parse_poly_matrix(ring, spec["d0"], "factorization %r" % name)
        d1 = _parse_poly_matrix(ring, spec["d1"], "factorization %r" % name)
        try:
            E = MatFac.from_blocks(ring, w, d0, d1)
            E.validate()
        except ValueError as exc:
            raise SessionError("factorization %r: %s" % (name, exc))
        if E.rank == 0:
            raise SessionError("factorization %r has rank 0: d0 and d1 are empty" % name)
    else:
        raise SessionError(
            "factorization %r needs either koszul data or explicit d0/d1 blocks" % name
        )
    if E.w != w:
        raise SessionError(
            "factorization %r factors %s, not the session potential" % (name, E.w)
        )
    return E


def _load_morphism(session: Session, name: str, spec) -> MorphismCocycle:
    if not isinstance(spec, dict):
        raise SessionError("morphism %r must be an object" % name)
    for end in ("source", "target"):
        if not isinstance(spec.get(end), str) or spec[end] not in session.factorizations:
            raise SessionError("morphism %r: unknown %s factorization" % (name, end))
    source = session.factorizations[spec["source"]]
    target = session.factorizations[spec["target"]]
    parity = spec.get("parity")
    if type(parity) is not int or parity not in (0, 1):
        raise SessionError("morphism %r: parity must be 0 or 1" % name)
    blocks = spec.get("blocks")
    if not isinstance(blocks, list) or len(blocks) != 2:
        raise SessionError("morphism %r: blocks must be a pair of matrices" % name)
    B0 = _parse_poly_matrix(session.ring, blocks[0], "morphism %r" % name)
    B1 = _parse_poly_matrix(session.ring, blocks[1], "morphism %r" % name)
    try:
        return MorphismCocycle.from_blocks(source, target, parity, (B0, B1))
    except ValueError as exc:
        raise SessionError("morphism %r: %s" % (name, exc))


def load_session(path: str) -> Session:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SessionError("cannot read %s: %s" % (path, exc))
    # a file that is not UTF-8 text, or nests deeper than the decoder's
    # recursion allows, is as unreadable as one with a syntax error
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise SessionError("cannot parse %s: %s" % (path, exc))
    if not isinstance(doc, dict):
        raise SessionError("session must be a JSON object")
    variables = doc.get("variables")
    if (
        not isinstance(variables, list)
        or not variables
        or not all(isinstance(v, str) for v in variables)
    ):
        raise SessionError("variables must be a nonempty list of names")
    if len(set(variables)) != len(variables):
        raise SessionError("variable names must be distinct")
    order = _load_field(doc)
    context = CyclotomicContext(order) if order else None
    ring = PolyRing(tuple(variables), context)
    w = _parse_poly(ring, doc.get("potential"), "potential")
    try:
        A = build_milnor(w)
    except ValueError as exc:
        raise SessionError("potential: %s" % exc)
    session = Session(ring, context, w, A)
    group_doc = doc.get("group")
    if group_doc is not None:
        from .equivariant import close_group

        gens_doc = group_doc.get("generators")
        if not isinstance(gens_doc, list) or not gens_doc:
            raise SessionError("group needs a nonempty list of generators")
        gens = []
        for k, entry in enumerate(gens_doc):
            if not isinstance(entry, list) or len(entry) != len(variables):
                raise SessionError(
                    "group generator %d must list one scalar per variable" % k
                )
            gens.append(tuple(parse_scalar(t, context) for t in entry))
        try:
            session.group = close_group(len(variables), gens, context)
        except ValueError as exc:
            raise SessionError("group: %s" % exc)
    facs_doc = doc.get("factorizations", {})
    if not isinstance(facs_doc, dict):
        raise SessionError("factorizations must be an object of name: spec")
    for name in facs_doc:
        spec = facs_doc[name]
        E = _load_factorization(ring, w, name, spec)
        session.factorizations[name] = E
        rho_doc = spec.get("rho") if isinstance(spec, dict) else None
        if rho_doc is not None:
            if session.group is None:
                raise SessionError(
                    "factorization %r carries rho data but the session has no group"
                    % name
                )
            if not isinstance(rho_doc, dict):
                raise SessionError(
                    "factorization %r: rho must be an object of gen<k>: matrix"
                    % name
                )
            mats = []
            for k in range(len(session.group.generators)):
                key = "gen%d" % k
                if key not in rho_doc:
                    raise SessionError(
                        "factorization %r: rho needs a matrix for %s" % (name, key)
                    )
                rows = rho_doc[key]
                if not isinstance(rows, list) or not all(
                    isinstance(row, list) for row in rows
                ):
                    raise SessionError(
                        "factorization %r: rho %s must be a matrix" % (name, key)
                    )
                if len(rows) != E.rank or any(len(row) != E.rank for row in rows):
                    raise SessionError(
                        "factorization %r: rho %s must be %d x %d, the rank of the"
                        " factorization" % (name, key, E.rank, E.rank)
                    )
                mats.append(
                    tuple(
                        tuple(parse_scalar(t, context) for t in row) for row in rows
                    )
                )
            try:
                session.equivariant[name] = EquivariantMF(E, tuple(mats))
            except ValueError as exc:
                raise SessionError("factorization %r: %s" % (name, exc))
        deg_doc = spec.get("degrees") if isinstance(spec, dict) else None
        if deg_doc is not None:
            lists = [deg_doc.get(k) if isinstance(deg_doc, dict) else None
                     for k in ("even", "odd")]
            if not all(isinstance(d, list) for d in lists):
                raise SessionError(
                    "factorization %r: degrees needs integer lists even/odd" % name
                )
            session.degree_specs[name] = tuple(
                tuple(_session_int(d, "degree") for d in degs) for degs in lists
            )
    mors_doc = doc.get("morphisms", {})
    if not isinstance(mors_doc, dict):
        raise SessionError("morphisms must be an object of name: spec")
    for name in mors_doc:
        session.morphisms[name] = _load_morphism(session, name, mors_doc[name])
    weights_doc = doc.get("weights")
    if weights_doc is not None:
        if not isinstance(weights_doc, list) or len(weights_doc) != len(variables):
            raise SessionError("weights must list one integer per variable")
        session.weights = tuple(_session_int(a, "weight") for a in weights_doc)
    return session


# --- lookups ----------------------------------------------------------------


def _get_fac(session: Session, name: str) -> MatFac:
    try:
        return session.factorizations[name]
    except KeyError:
        raise SessionError("unknown factorization %r" % name)


def _get_mor(session: Session, name: str) -> MorphismCocycle:
    try:
        return session.morphisms[name]
    except KeyError:
        raise SessionError("unknown morphism %r" % name)


def _require_endo(alpha: MorphismCocycle, E: MatFac, mname: str, ename: str):
    if alpha.source != E or alpha.target != E:
        raise SessionError("morphism %r is not an endomorphism of %r" % (mname, ename))


def _equivariant(session: Session, name: str) -> EquivariantMF:
    if session.group is None:
        raise SessionError("this command needs a group in the session")
    if name not in session.equivariant:
        raise SessionError("factorization %r has no rho data" % name)
    return session.equivariant[name]


# --- command handlers -------------------------------------------------------


def cmd_milnor(session: Session, args) -> dict:
    A = session.milnor
    G = gram_matrix(A)
    return {
        "mu": A.mu,
        "basis": [str(session.ring.monomial(m)) for m in A.basis],
        "gram": G,
    }


def cmd_chern(session: Session, args) -> dict:
    from .invariants import chern

    E = _get_fac(session, args.factorization)
    cls = chern(E, session.milnor)
    return {"class": str(cls.value), "parity": cls.parity}


def cmd_tau(session: Session, args) -> dict:
    from .invariants import tau

    E = _get_fac(session, args.factorization)
    alpha = _get_mor(session, args.morphism)
    _require_endo(alpha, E, args.morphism, args.factorization)
    cls = tau(E, alpha, session.milnor)
    return {"class": str(cls.value), "parity": cls.parity}


def cmd_chi(session: Session, args) -> dict:
    from .invariants import chi_hrr

    E = _get_fac(session, args.factorization)
    F = _get_fac(session, args.other)
    value = chi_hrr(E, F, session.milnor)
    if not value.is_rational_integer():
        raise SessionError("index pairing is not an integer: %s" % value)
    return {"chi": int(value.as_fraction())}


def cmd_hom(session: Session, args) -> dict:
    from .homology import hom_dimensions

    E = _get_fac(session, args.factorization)
    F = _get_fac(session, args.other)
    h0, h1 = hom_dimensions(E, F)
    return {"h0": h0, "h1": h1}


def cmd_cardy(session: Session, args) -> dict:
    from .homology import cardy_lhs
    from .invariants import cardy_rhs

    E = _get_fac(session, args.factorization)
    F = _get_fac(session, args.other)
    alpha = _get_mor(session, args.morphism)
    beta = _get_mor(session, args.other_morphism)
    _require_endo(alpha, E, args.morphism, args.factorization)
    _require_endo(beta, F, args.other_morphism, args.other)
    lhs = cardy_lhs(E, F, alpha, beta)
    rhs = cardy_rhs(E, F, alpha, beta, session.milnor)
    if lhs != rhs:
        raise VerificationFailure(
            "cardy sides disagree: lhs %s, rhs %s" % (lhs, rhs)
        )
    return {"value": lhs}


def cmd_sectors(session: Session, args) -> dict:
    from .equivariant import check_invariance, sectors

    if session.group is None:
        raise SessionError("this command needs a group in the session")
    check_invariance(session.w, session.group)
    out = []
    for g, sec in zip(session.group.elements, sectors(session.w, session.group.elements)):
        out.append(
            {
                "element": g,
                "fixed": [session.ring.names[i] for i in sec.fixed_indices],
                "mu": sec.milnor.mu,
                "potential": str(sec.w_g),
            }
        )
    return {"sectors": out}


def cmd_equivariant_chi(session: Session, args) -> dict:
    from .equivariant import chi_equivariant

    E = _equivariant(session, args.factorization)
    F = _equivariant(session, args.other)
    value = chi_equivariant(E, F, session.group)
    return {"chi": int(value.as_fraction())}


def cmd_orbifold_hh(session: Session, args) -> dict:
    from .equivariant import orbifold_hh_dimensions

    if session.group is None:
        raise SessionError("this command needs a group in the session")
    sectors, even, odd = orbifold_hh_dimensions(session.w, session.group)
    return {
        "sectors": [
            {"element": g, "parity": parity, "dimension": dim}
            for g, parity, dim in sectors
        ],
        "even": even,
        "odd": odd,
    }


def cmd_graded_chi(session: Session, args) -> dict:
    from .equivariant import graded_chi, graded_to_equivariant

    if session.weights is None:
        raise SessionError("this command needs weights in the session")
    for name in (args.factorization, args.other):
        if name not in session.degree_specs:
            raise SessionError("factorization %r has no degrees data" % name)
    E = _get_fac(session, args.factorization)
    F = _get_fac(session, args.other)
    S = graded_to_equivariant(session.w, session.weights)
    value = graded_chi(
        S,
        E,
        session.degree_specs[args.factorization],
        F,
        session.degree_specs[args.other],
    )
    return {"chi": int(value.as_fraction()), "doubled": S.doubled}


# --- verify -----------------------------------------------------------------


class VerificationFailure(Exception):
    pass


def _endomorphisms(session: Session, name: str):
    """The identity, then the closed named endomorphisms in name order."""
    E = session.factorizations[name]
    out = [identity_morphism(E)]
    for mname in sorted(session.morphisms):
        f = session.morphisms[mname]
        if f.source == E and f.target == E and f.is_closed():
            out.append(f)
    return out


def _pairs(session: Session):
    """Each ordered pair of named factorizations, as ((a, E), (b, F))."""
    return product(session.factorizations.items(), repeat=2)


def _hrr_sides(session: Session, hom_basis):
    from .invariants import chi_hrr

    for (a, E), (b, F) in _pairs(session):
        basis = hom_basis(a, b)
        yield chi_hrr(E, F, session.milnor), basis.even.dimension - basis.odd.dimension


def _hom_koszul_sides(session: Session, hom_basis):
    """Koszul reduction against the Groebner bases, on every ordered pair
    whose source qualifies for `koszul_hom_dimensions`."""
    from .homology import koszul_hom_dimensions

    for (a, E), (b, F) in _pairs(session):
        dims = koszul_hom_dimensions(E, F)
        if dims is not None:
            basis = hom_basis(a, b)
            yield dims, (basis.even.dimension, basis.odd.dimension)


def _cardy_sides(session: Session, hom_basis):
    from .homology import cardy_supertrace
    from .invariants import cardy_rhs

    ends = {a: _endomorphisms(session, a) for a in session.factorizations}
    for (a, E), (b, F) in _pairs(session):
        basis = hom_basis(a, b)
        for alpha in ends[a]:
            for beta in ends[b]:
                yield (cardy_supertrace(basis, alpha, beta),
                       cardy_rhs(E, F, alpha, beta, session.milnor))


def _oracle_tau_sides(session: Session):
    from .invariants import tau
    from .oracle import oracle_tau, solve_D

    A = session.milnor
    for a, E in session.factorizations.items():
        D = solve_D(E)
        for alpha in _endomorphisms(session, a):
            yield oracle_tau(E, alpha, A, dtensor=D), tau(E, alpha, A)


def _chern_diagonal_sides(session: Session, diagonal):
    from .oracle import chern_of_diagonal

    routes = chern_of_diagonal(session.w, diagonal())
    yield routes.direct, routes.determinant


def _inverse_form_sides(session: Session, diagonal):
    # the check raises unless the determinant inverts the trace form
    from .oracle import inverse_form_check

    yield inverse_form_check(session.w, diagonal()), True


def _permutation_sides(session: Session):
    """The supertrace of the derivative product in each index order, orders
    as `itertools.permutations` lists them, against ch(E) times the sign: a
    depth-first walk shares prefix products; `supertrace` takes the last."""
    from .invariants import chern, permutation_sign, supertrace

    A = session.milnor
    n = session.ring.n
    for E in session.factorizations.values():
        base = chern(E, A)

        def walk(prefix, P):
            rest = [i for i in range(n) if i not in prefix]
            if len(rest) == 1:
                # the chern product runs from the highest index down
                sign = permutation_sign(prefix + (rest[0],)) * (-1) ** (n * (n - 1) // 2)
                got = A.project(supertrace(P, E.r0, E.partials[rest[0]]))
                yield got.value, base.scale(sign).value
                return
            for i in rest:
                D = E.partials[i]
                yield from walk(prefix + (i,), mat_mul(P, D, E.ring.zero()) if prefix else D)

        yield from walk((), identity_matrix(E.ring, E.rank))


def _hessian_trace_sides(session: Session):
    A = session.milnor
    yield residue_trace(hessian_class(A)), A.mu


def cmd_verify(session: Session, args) -> dict:
    from .homology import hom_cohomology
    from .oracle import build_diagonal

    # Hom cohomology of each ordered pair of factorizations, computed once
    # for the checks that need it and dropped when this call returns
    @cache
    def hom_basis(a: str, b: str):
        return hom_cohomology(session.factorizations[a], session.factorizations[b])[2]

    # likewise the diagonal of the two checks that read it; `cache` keeps
    # no exception, so each check reports its own
    diagonal = cache(lambda: build_diagonal(session.milnor))
    # each check is a generator of the two sides of its identity, run below
    checks = [
        ("hrr", _hrr_sides(session, hom_basis)),
        ("hom-koszul", _hom_koszul_sides(session, hom_basis)),
        ("cardy", _cardy_sides(session, hom_basis)),
        ("oracle-tau", _oracle_tau_sides(session)),
        ("chern-diagonal", _chern_diagonal_sides(session, diagonal)),
        ("inverse-form", _inverse_form_sides(session, diagonal)),
        ("permutation-invariance", _permutation_sides(session)),
        ("hessian-trace", _hessian_trace_sides(session)),
    ]
    results = {}
    for name, sides in checks:
        # the oracle and the inverse-form check report a refuted identity
        # by raising; that reads as a failed check, with its message
        try:
            results[name] = all(lhs == rhs for lhs, rhs in sides)
        except (AssertionError, ValueError, ZeroDivisionError) as exc:
            print("verify: %s: %s" % (name, exc), file=sys.stderr)
            results[name] = False
    return {"checks": results, "ok": all(results.values())}


# --- output -----------------------------------------------------------------


def _print_human(command: str, payload: dict) -> None:
    if command == "milnor":
        print("mu: %d" % payload["mu"])
        print("basis: %s" % ", ".join(payload["basis"]))
        print("gram:")
        for row in payload["gram"]:
            print("  " + "  ".join(map(str, row)))
        return
    if command == "sectors":
        for k, sec in enumerate(payload["sectors"]):
            fixed = ", ".join(sec["fixed"]) if sec["fixed"] else "none"
            print(
                "sector %d: element (%s)  fixed %s  mu %d  potential %s"
                % (
                    k,
                    ", ".join(map(str, sec["element"])),
                    fixed,
                    sec["mu"],
                    sec["potential"],
                )
            )
        return
    if command == "orbifold-hh":
        for k, sec in enumerate(payload["sectors"]):
            print(
                "sector %d: element (%s)  parity %d  dimension %d"
                % (
                    k,
                    ", ".join(map(str, sec["element"])),
                    sec["parity"],
                    sec["dimension"],
                )
            )
        print("even: %d" % payload["even"])
        print("odd: %d" % payload["odd"])
        return
    if command == "verify":
        for name, ok in payload["checks"].items():
            print("%s: %s" % (name, "pass" if ok else "fail"))
        return
    for key in sorted(payload):
        print("%s: %s" % (key, payload[key]))


# --- entry point ------------------------------------------------------------


COMMANDS = {
    # name: (handler, help, positional arguments)
    "milnor": (cmd_milnor, "Milnor number, basis, Gram matrix", ()),
    "chern": (cmd_chern, "Chern character of a factorization", ("factorization",)),
    "tau": (cmd_tau, "boundary-bulk image of a morphism", ("factorization", "morphism")),
    "chi": (cmd_chi, "index pairing of two factorizations", ("factorization", "other")),
    "hom": (cmd_hom, "Hom cohomology dimensions", ("factorization", "other")),
    "cardy": (cmd_cardy, "both sides of the Cardy pairing",
              ("factorization", "other", "morphism", "other_morphism")),
    "sectors": (cmd_sectors, "fixed loci of the group elements", ()),
    "equivariant-chi": (cmd_equivariant_chi, "orbifold index of two equivariant factorizations",
                        ("factorization", "other")),
    "orbifold-hh": (cmd_orbifold_hh, "orbifold Hochschild dimensions by sector", ()),
    "graded-chi": (cmd_graded_chi, "graded index from weights and degrees",
                   ("factorization", "other")),
    "verify": (cmd_verify, "run the identity suite on the session", ()),
}


def build_parser() -> argparse.ArgumentParser:
    # argparse builds a formatter to check every argument it adds, and a
    # formatter without a width imports shutil to read the terminal's; the
    # parsers are built with a fixed width and get argparse's own formatter
    # back before they can print anything
    unsized = partial(argparse.HelpFormatter, width=80)
    common = argparse.ArgumentParser(add_help=False, formatter_class=unsized)
    parser = argparse.ArgumentParser(
        prog="mfinv",
        description="Exact invariants of matrix factorizations from a session file.",
        formatter_class=unsized,
    )
    # the shared flags go on both parsers so they may appear on either side
    # of the subcommand; the suppressed defaults keep a flag given before
    # the subcommand from being reset afterwards
    for flag, kwargs in (
        ("--input", {"help": "session JSON file"}),
        ("--json", {"action": "store_true", "help": "emit JSON instead of plain text"}),
        ("--check", {"action": "store_true",
                     "help": "make verify exit nonzero when an identity fails"}),
    ):
        parser.add_argument(flag, **kwargs)
        common.add_argument(flag, default=argparse.SUPPRESS, **kwargs)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_handler, help_text, positionals) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, parents=[common], formatter_class=unsized)
        for arg in positionals:
            p.add_argument(arg)
    for p in (parser, *sub.choices.values()):
        p.formatter_class = argparse.HelpFormatter
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.input is None:
        print("error: --input is required", file=sys.stderr)
        return 2
    # a library check that rejects the input raises ValueError or AssertionError
    try:
        session = load_session(args.input)
        payload = COMMANDS[args.command][0](session, args)
    except (SessionError, ValueError, AssertionError, VerificationFailure) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1 if isinstance(exc, VerificationFailure) else 2
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2, default=scalar_to_json))
    else:
        _print_human(args.command, payload)
    if args.command == "verify" and args.check and not payload["ok"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
