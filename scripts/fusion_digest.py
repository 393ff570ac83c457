#!/usr/bin/env python3
"""Run the fusion DFS on every (lattice, involution, e) triple the
enumerator searches at one size, and print the number of tables, the prune
total, a SHA-256 digest of the tables and the DFS time.  Two versions of
the DFS agree at a size when they print the same digest and prune total.
It runs only the search layers and checks no size ceiling.

Example:
    python3 scripts/fusion_digest.py --class dmm --size 11
"""

import argparse
import hashlib
import time

from dmm.enumeration import (SearchSpec, _automorphisms, _fusion_tables,
                             _involutions, _lattices, _orbit_first_es)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--class", dest="klass", default="dmm",
                    choices=["dmm", "irl"])
    ap.add_argument("--size", type=int, required=True)
    args = ap.parse_args()
    if args.size < 1:
        ap.error(f"--size must be at least 1, got {args.size}")
    spec, n = SearchSpec(args.size, args.klass), args.size
    digest = hashlib.sha256()
    stats = {"pruned": 0}
    triples = tables = 0
    dfs = 0.0
    for meet, _ in _lattices(n, spec.distributive):
        auts = [(s, sorted(range(n), key=s.__getitem__))
                for s in _automorphisms(meet, n)]
        for neg in _involutions(meet, n):
            for e in _orbit_first_es(neg, auts):
                triples += 1
                t0 = time.perf_counter()
                out = list(_fusion_tables(n, meet, neg, e,
                                          spec.square_increasing, stats))
                dfs += time.perf_counter() - t0
                tables += len(out)
                for fus in out:
                    digest.update(bytes(v for row in fus for v in row))
    print(f"{args.klass}-{n}: {triples} triples, {tables} tables, "
          f"{stats['pruned']} pruned, sha256 {digest.hexdigest()}, "
          f"dfs {dfs:.2f}s")


if __name__ == "__main__":
    main()
