#!/usr/bin/env python3
"""Build every quotient, homomorphism list and HS answer on the catalogs
and a fixed corpus, and print one SHA-256 digest over them: the
projection and tables of A/F for every deductive filter F of each input A,
homs(A, X) and homs(X, A) for each basic algebra X, is_isomorphic of a
seeded relabelling of A with every catalog entry of A's size (and with A
itself for a corpus input), and hs_contains(A, X) for the trivial algebra
and each X.  Two versions of the quotient and embedding searches agree
when they print the same digest; the time is the searches' own.

A second line gives a SHA-256 digest over canonical_form(A).data for every
input A, and the time of those forms.  The form of A's seeded relabelling
must be A's own; the script stops with an error naming A if it is not.

The inputs are the dmm catalogs of sizes 1..--dmm, the irl catalogs of sizes
1..--irl, and, unless --no-corpus, the corpus of scripts/law_digest.py.

Example:
    python3 scripts/hs_digest.py --dmm 8 --irl 6
"""

import argparse
import hashlib
import random
import sys
import time
from functools import reduce

from dmm.constructions import (NAMED_BASIC, canonical_form, direct_product,
                               homs, hs_contains, is_isomorphic, make_named)
from dmm.enumeration import DEFAULT_MAX_SIZE, SearchSpec, enumerate_algebras
from dmm.filters import deductive_filters, quotient
from law_digest import CORPUS

BASIC = [make_named(nm) for nm in NAMED_BASIC]
TRIVIAL = make_named("S1")


def tables(A):
    return (A.meet, A.join, A.fusion, A.neg, A.e)


def relabelled(name, A):
    """A under a permutation of its elements seeded by its name."""
    perm = list(A.elements)
    random.Random(name).shuffle(perm)
    return A.relabel(perm)


def answers(name, A, peers):
    """The lines the digest covers for one algebra; peers are the algebras
    its relabelling is compared with."""
    for G in deductive_filters(A):
        Q, proj = quotient(A, G)
        yield f"quotient {sorted(G.members)}: {proj} {tables(Q)}"
    for X in BASIC:
        yield f"homs to {X.name}: {[h.mapping for h in homs(A, X)]}"
        yield f"homs from {X.name}: {[h.mapping for h in homs(X, A)]}"
    B = relabelled(name, A)
    yield f"isomorphic: {[is_isomorphic(B, C) for C in peers]}"
    for X in (TRIVIAL, *BASIC):
        yield f"hs {X.name}: {hs_contains(A, X)}"


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
    algebras = []
    for klass in ("dmm", "irl"):
        for n in range(1, getattr(args, klass) + 1):
            peers = enumerate_algebras(SearchSpec.for_class(klass, n)).algebras
            algebras += [(f"{klass}{n}-{i}", A, peers)
                         for i, A in enumerate(peers)]
    if not args.no_corpus:
        for f in CORPUS:
            A = reduce(direct_product, map(make_named, f))
            algebras.append(("x".join(f), A, [A]))
    digest = hashlib.sha256()
    results = 0
    t0 = time.perf_counter()
    for name, A, peers in algebras:
        for line in answers(name, A, peers):
            digest.update(f"{name}\t{line}\n".encode())
            results += 1
    print(f"{len(algebras)} algebras, {results} results, "
          f"sha256 {digest.hexdigest()}, "
          f"searches {time.perf_counter() - t0:.2f}s")
    digest = hashlib.sha256()
    t0 = time.perf_counter()
    for name, A, _ in algebras:
        form = canonical_form(A).data
        if canonical_form(relabelled(name, A)).data != form:
            sys.exit(f"error: the seeded relabelling of {name} has another "
                     "canonical form")
        digest.update(form)
    print(f"{len(algebras)} forms, sha256 {digest.hexdigest()}, "
          f"canonical {time.perf_counter() - t0:.2f}s")


if __name__ == "__main__":
    main()
