#!/usr/bin/env python3
"""Run the relevant-algebra checks on the e-free reducts of the catalogs,
a fixed corpus and seeded corruptions of each, and print one SHA-256
digest over their answers: meet_property_check, dfg_oracle and dfg_ra_set
on the empty set, every singleton and every pair, dfg_ra on every element,
ra_classify, reconstruct_neutral and contains_two_reduct (or
TrivialAlgebra, which it raises on one element).  Two versions of the checks
agree when they print the same digest; the time is the checks' own.

The inputs are the reducts of the dmm catalogs of sizes 1..--dmm, of the
irl catalogs of sizes 1..--irl and, unless --no-corpus, of the corpus of
scripts/law_digest.py, then of the seeded symmetric corruptions
law_digest.py makes of each of those algebras, which are mostly not
lattices or not residuated.

Example:
    python3 scripts/ra_digest.py --dmm 8 --irl 6
"""

import argparse
import hashlib
import time
from functools import reduce
from itertools import combinations

from dmm.constructions import direct_product, e_free_reduct, make_named
from dmm.enumeration import DEFAULT_MAX_SIZE, SearchSpec, enumerate_algebras
from dmm.relevant import (TrivialAlgebra, contains_two_reduct, dfg_oracle,
                          dfg_ra, dfg_ra_set, meet_property_check,
                          ra_classify, reconstruct_neutral)
from law_digest import CORPUS, corruptions


def members(F):
    return sorted(F.members)


def answers(R):
    """The lines the digest covers for one reduct."""
    yield f"meet-property: {meet_property_check(R)!r}"
    for X in [(), *combinations(R.elements, 1),
              *combinations(R.elements, 2)]:
        yield (f"dfg {list(X)}: oracle {members(dfg_oracle(R, X))}"
               f" set {members(dfg_ra_set(R, X))}")
    for a in R.elements:
        yield f"dfg_ra {a}: {members(dfg_ra(R, a))}"
    yield f"classify: {ra_classify(R)!r}"
    yield f"neutral: {reconstruct_neutral(R)!r}"
    try:
        two = repr(contains_two_reduct(R))
    except TrivialAlgebra:
        two = "TrivialAlgebra"
    yield f"two: {two}"


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
    algebras += [(f"{name}~{i}", B) for name, A in list(algebras)
                 for i, B in enumerate(corruptions(name, A))]
    digest = hashlib.sha256()
    results = 0
    t0 = time.perf_counter()
    for name, A in algebras:
        for line in answers(e_free_reduct(A)):
            digest.update(f"{name}\t{line}\n".encode())
            results += 1
    print(f"{len(algebras)} reducts, {results} results, "
          f"sha256 {digest.hexdigest()}, "
          f"checks {time.perf_counter() - t0:.2f}s")


if __name__ == "__main__":
    main()
