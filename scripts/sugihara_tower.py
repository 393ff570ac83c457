#!/usr/bin/env python3
"""Tabulate the finite Sugihara chains and how each even chain collapses
onto the odd chain one step below.

Example:
    python3 scripts/sugihara_tower.py --max 10
"""

import argparse

from dmm.constructions import MAX_NAMED_SIZE, Homomorphism, make_sugihara
from dmm.filters import classify, deductive_filters, quotient


def surjections(S, T):
    """The surjections S -> T, sorted by mapping, for chains S and T.  Each
    one is the projection onto S/G for the deductive filter G of its kernel
    followed by an isomorphism S/G -> T, and between chains the only
    candidate is the rank map r.  It is one exactly when relabelling S/G
    by r gives T's meet, join, fusion, neg and e."""
    def ranks(C):
        return [sum(C.leq(c, x) for c in C.elements) - 1 for x in C.elements]

    def tables(C):
        return C.meet, C.join, C.fusion, C.neg, C.e

    by_rank = sorted(T.elements, key=ranks(T).__getitem__)
    out = []
    for G in deductive_filters(S):
        Q, proj = quotient(S, G)
        if Q.size != T.size:
            continue
        r = [by_rank[k] for k in ranks(Q)]
        if tables(Q.relabel(r)) == tables(T):
            out.append(Homomorphism(S, T, tuple(r[proj[a]]
                                                for a in S.elements)))
    return sorted(out, key=lambda h: h.mapping)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max", type=int, default=8)
    args = ap.parse_args()
    if args.max > MAX_NAMED_SIZE:
        ap.error(f"--max {args.max} is above the limit of {MAX_NAMED_SIZE} "
                 "elements")

    for n in range(1, args.max + 1):
        S = make_sugihara(n)
        c = classify(S)
        odd = S.e == S.f
        print(f"S{n}: size {n}, e={S.e}, f={S.f}, "
              f"{'odd' if odd else 'even'}, "
              f"simple={c.simple}, si={c.si}")
        if n % 2 == 0 and n >= 4:
            tgt = make_sugihara(n - 1)
            surjs = surjections(S, tgt)
            print(f"    maps onto S{n - 1}: {len(surjs)} surjection(s)")
            for h in surjs:
                pairs = [(a, b) for a in S.elements for b in S.elements
                         if a < b and h.mapping[a] == h.mapping[b]]
                print(f"    surjection {h.mapping}, identifies {pairs}")


if __name__ == "__main__":
    main()
