#!/usr/bin/env python3
"""Run the exhaustive law checks on the catalogs and a fixed corpus, and
print one SHA-256 digest over their answers: every validate_irl and
validate_dmm report, the validate_ra report of each e-free reduct, and
every satisfies result (holds and first counterexample) for the
LAW_LIBRARY statements, quasi-equations included.  A second line digests
the same three reports on CORRUPTIONS seeded corruptions of each input,
which are mostly not IRLs, so it covers the violations and witnesses the
validators report.  A third line digests the check_derived_laws report
of every input and of every corruption, where premises fail and first
counterexamples differ most.  Two versions of the checks agree when they
print the same digests; the times are the checks' own.

Each corruption makes one or two edits that keep the tables symmetric: an
entry of meet, join or fusion is set at (a, b) and (b, a) together, two
values of neg are swapped, or e is moved.  The edits are drawn from a
random.Random seeded with the input's name, so they do not depend on the
other inputs.  A corruption that edits neither meet nor join keeps the
input's own meet and join objects, as the enumerator's tables on one
lattice do.

The inputs are the dmm catalogs of sizes 1..--dmm, the irl catalogs of sizes
1..--irl, and, unless --no-corpus, S8, S10, S12, C4ext_2..4 and the products
2^3, 2^4, S3^2, S3^3, C4x2, C4xS3, C4xC4, C4xD4 and D4xD4.

Example:
    python3 scripts/law_digest.py --dmm 8 --irl 6
"""

import argparse
import hashlib
import random
import time
from dataclasses import replace
from functools import reduce

from dmm.algebra import (FiniteIRL, NotAnIRL, check_derived_laws, validate_dmm,
                         validate_irl)
from dmm.constructions import direct_product, e_free_reduct, make_named
from dmm.enumeration import DEFAULT_MAX_SIZE, SearchSpec, enumerate_algebras
from dmm.relevant import validate_ra
from dmm.terms import LAW_LIBRARY, law_statements, satisfies

CORPUS = (("S8",), ("S10",), ("S12",), ("C4ext_2",), ("C4ext_3",),
          ("C4ext_4",), ("2", "2", "2"), ("2", "2", "2", "2"), ("S3", "S3"),
          ("S3", "S3", "S3"), ("C4", "2"), ("C4", "S3"), ("C4", "C4"),
          ("C4", "D4"), ("D4", "D4"))
CORRUPTIONS = 4


def reports(A):
    """The validate_irl, validate_dmm and validate_ra report lines."""
    yield repr(validate_irl(A))
    try:
        yield repr(validate_dmm(A))
    except NotAnIRL as exc:
        yield f"NotAnIRL: {exc}"
    yield repr(validate_ra(e_free_reduct(A)))


def corruptions(name, A):
    """CORRUPTIONS symmetric corruptions of A, seeded by name.  One that
    leaves meet and join alone is built on A's own meet and join objects,
    so its checks reuse the lattice stage of A's."""
    rnd = random.Random(name)
    n = A.size
    for _ in range(CORRUPTIONS):
        d = A.to_dict()
        edited = set()
        for _ in range(rnd.randint(1, 2)):
            k = rnd.choice(("meet", "join", "fusion", "neg", "e"))
            edited.add(k)
            if k == "e":
                d["e"] = rnd.randrange(n)
            elif k == "neg":
                i, j = rnd.randrange(n), rnd.randrange(n)
                d["neg"][i], d["neg"][j] = d["neg"][j], d["neg"][i]
            else:
                a, b, v = rnd.randrange(n), rnd.randrange(n), rnd.randrange(n)
                d[k][a][b] = d[k][b][a] = v
        B = FiniteIRL.from_dict(d)
        if not edited & {"meet", "join"}:
            B = replace(B, meet=A.meet, join=A.join)
        yield B


def answers(A):
    """The lines the digest covers for one algebra."""
    yield from reports(A)
    for law in LAW_LIBRARY:
        for s in law_statements(law):
            yield f"{law}: {satisfies(A, s)!r}"


def battery(A):
    """The check_derived_laws report line; its bounds clause raises
    NotAnIRL on a meet table without a least or greatest element."""
    try:
        return repr(check_derived_laws(A))
    except NotAnIRL as exc:
        return f"NotAnIRL: {exc}"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dmm", type=int, default=8,
                    help="largest dmm catalog size (0 for none)")
    ap.add_argument("--irl", type=int, default=6,
                    help="largest irl catalog size (0 for none)")
    ap.add_argument("--no-corpus", action="store_true")
    args = ap.parse_args()
    for flag in ("dmm", "irl"):
        if not 0 <= getattr(args, flag) <= DEFAULT_MAX_SIZE:
            ap.error(f"--{flag} must be between 0 and {DEFAULT_MAX_SIZE}")
    algebras = [(f"{klass}{n}-{i}", A)
                for klass in ("dmm", "irl")
                for n in range(1, getattr(args, klass) + 1)
                for i, A in enumerate(enumerate_algebras(
                    SearchSpec.for_class(klass, n)).algebras)]
    if not args.no_corpus:
        algebras += [("x".join(f), reduce(direct_product, map(make_named, f)))
                     for f in CORPUS]
    digest = hashlib.sha256()
    results = 0
    t0 = time.perf_counter()
    for name, A in algebras:
        for line in answers(A):
            digest.update(f"{name}\t{line}\n".encode())
            results += 1
    print(f"{len(algebras)} algebras, {results} results, "
          f"sha256 {digest.hexdigest()}, "
          f"checks {time.perf_counter() - t0:.2f}s")
    bad = [(f"{name}~{i}", B) for name, A in algebras
           for i, B in enumerate(corruptions(name, A))]
    digest = hashlib.sha256()
    results = 0
    t0 = time.perf_counter()
    for name, B in bad:
        for line in reports(B):
            digest.update(f"{name}\t{line}\n".encode())
            results += 1
    print(f"{len(bad)} corruptions, {results} reports, "
          f"sha256 {digest.hexdigest()}, "
          f"checks {time.perf_counter() - t0:.2f}s")
    digest = hashlib.sha256()
    t0 = time.perf_counter()
    for name, B in algebras + bad:
        digest.update(f"{name}\t{battery(B)}\n".encode())
    print(f"{len(algebras) + len(bad)} law batteries, "
          f"sha256 {digest.hexdigest()}, "
          f"checks {time.perf_counter() - t0:.2f}s")


if __name__ == "__main__":
    main()
