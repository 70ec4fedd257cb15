"""Survey invariants across a battery of isolated singularities.

For each potential the script builds a Koszul factorization, prints the
Milnor number, Hom-cohomology dimensions, Chern character and index, and
checks the index pairing against the Euler characteristic and both sides
of the Cardy identity against each other. With --oracle it also runs the
diagonal-factorization cross-check for the boundary-bulk map, which is a
few seconds per three-variable row.

Run from the repository root:

    python3 scripts/survey.py
    python3 scripts/survey.py --oracle --seed 7
"""
from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass

from mfinv.homology import cardy_lhs, euler, hom_cohomology
from mfinv.invariants import cardy_rhs, chern, chi_hrr, tau
from mfinv.mfcore import identity_morphism, koszul
from mfinv.milnor import build_milnor, hessian_class, residue_trace
from mfinv.oracle import (
    build_diagonal,
    chern_of_diagonal,
    inverse_form_check,
    oracle_tau,
    solve_D,
)
from mfinv.poly import PolyRing
from mfinv.scalar import rational


@dataclass
class Row:
    text: str
    variables: tuple[str, ...]
    a: list[str]
    b: list[str]


ROWS = [
    Row("x^4", ("x",), ["x^2"], ["x^2"]),
    Row("x^6", ("x",), ["x^3"], ["x^3"]),
    Row("x^2 + y^2", ("x", "y"), ["x", "y"], ["x", "y"]),
    Row("x^3 + x*y^2", ("x", "y"), ["x"], ["x^2 + y^2"]),
    Row("x^3 + y^3", ("x", "y"), ["x", "y"], ["x^2", "y^2"]),
    Row("x^4 + y^4", ("x", "y"), ["x", "y"], ["x^3", "y^3"]),
    Row("x^2*y + y^4", ("x", "y"), ["x", "y"], ["x*y", "y^3"]),
    Row("x^3 + y^3 + z^3", ("x", "y", "z"), ["x", "y", "z"], ["x^2", "y^2", "z^2"]),
]


def shear(rng: random.Random, a, b, times: int = 2):
    """Random data shears preserving sum(a_k b_k); returns a fresh factorization."""
    ring = a[0].ring
    a, b = list(a), list(b)
    for _ in range(times):
        i, j = rng.randrange(len(a)), rng.randrange(len(a))
        if i == j:
            continue
        p = ring.var(rng.randrange(ring.n))
        if rng.random() < 0.5:
            p = -p
        a[j] = a[j] + p * a[i]
        b[i] = b[i] - p * b[j]
    return koszul(a, b)


def survey(row: Row, rng: random.Random, with_oracle: bool) -> None:
    ring = PolyRing(row.variables)
    w = ring.parse(row.text)
    A = build_milnor(w)
    a = [ring.parse(t) for t in row.a]
    b = [ring.parse(t) for t in row.b]
    E = koszul(a, b)
    F = shear(rng, a, b) if len(a) > 1 else E

    h0, h1, basis = hom_cohomology(E, E)
    ch = chern(E, A)
    chi = chi_hrr(E, F, A)
    one = identity_morphism(E)
    lhs = cardy_lhs(E, E, one, one)
    rhs = cardy_rhs(E, E, one, one, A)
    for holds, message in (
        (chi == rational(euler(E, F)), "index pairing disagrees with Euler number"),
        (lhs == rhs, "Cardy sides disagree on the identity"),
        (residue_trace(hessian_class(A)) == rational(A.mu), "Hessian trace is not mu"),
    ):
        if not holds:
            print("%s: %s" % (row.text, message), file=sys.stderr)
            raise SystemExit(1)

    print(
        "%-18s mu=%-3d rank=%-2d h0=%d h1=%d chi(E,F)=%-4s cardy(id,id)=%s"
        % (row.text, A.mu, E.r0, h0, h1, chi, lhs)
    )
    print("    ch(E) = %s  (parity %d)" % (ch, ch.parity))

    if with_oracle:
        D = solve_D(E)
        agree = oracle_tau(E, one, A, dtensor=D) == ch
        for parity, dim in ((0, h0), (1, h1)):
            for k in range(dim):
                f = basis.representative(parity, k)
                agree = agree and oracle_tau(E, f, A, dtensor=D) == tau(E, f, A)
        diagonal = build_diagonal(A)
        routes = chern_of_diagonal(w, diagonal)
        inverse_form_check(w, diagonal)
        status = "agree" if agree and routes.agree else "DISAGREE"
        print("    oracle: boundary-bulk and diagonal routes %s" % status)
        if not (agree and routes.agree):
            raise SystemExit(1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="shear RNG seed")
    parser.add_argument(
        "--oracle",
        action="store_true",
        help="also run the diagonal-factorization cross-checks",
    )
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    for row in ROWS:
        survey(row, rng, args.oracle)
    print("all rows consistent")
    return 0


if __name__ == "__main__":
    sys.exit(main())
