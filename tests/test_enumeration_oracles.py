"""Full-recheck oracles for the enumerator's involution and fusion layers,
compared against the incremental forms in dmm.enumeration.

The involution oracle filters every permutation of the elements.  The
fusion oracle runs the same depth-first search over the same cells as the
library, but after each assignment it rechecks every constraint over every
decided cell, residual existence on completed rows included.  The library
checks only the constraint instances that mention the new cell and leaves
residual existence to the involution law, so both must emit the same
tables in the same order and prune the same number of values.
"""

from itertools import permutations

from dmm.enumeration import (_fusion_tables, _involutions,
                             _lattice_distributive, _lattices)


# ---- oracles -----------------------------------------------------------------


def oracle_involutions(meet, n):
    for p in permutations(range(n)):
        if any(p[p[a]] != a for a in range(n)):
            continue
        if all((meet[a][b] == a) == (meet[p[b]][p[a]] == p[b])
               for a in range(n) for b in range(n)):
            yield p


def oracle_fusion_tables(n, meet, neg, e, square_increasing, stats):
    def leq(a, b):
        return meet[a][b] == a

    bot = next(a for a in range(n) if all(leq(a, b) for b in range(n)))
    if e == bot and n > 1:
        return
    fus = [[-1] * n for _ in range(n)]
    for x in range(n):
        fus[e][x] = fus[x][e] = x
        fus[bot][x] = fus[x][bot] = bot
    cells = [(a, b) for a in range(n) for b in range(a, n)
             if fus[a][b] < 0]
    rng = range(n)

    def ok_after(a, b, v):
        # monotonicity against every decided cell
        for c in rng:
            rowc = fus[c]
            for d in rng:
                w = rowc[d]
                if w < 0:
                    continue
                if leq(c, a) and leq(d, b) and not leq(w, v):
                    return False
                if leq(a, c) and leq(b, d) and not leq(v, w):
                    return False
        if square_increasing and a == b and not leq(a, v):
            return False
        # involution law on decided pairs: x*y <= z iff ~z*y <= ~x
        for x in rng:
            rowx = fus[x]
            for y in rng:
                p = rowx[y]
                if p < 0:
                    continue
                for z in rng:
                    q = fus[neg[z]][y]
                    if q >= 0 and leq(p, z) != leq(q, neg[x]):
                        return False
        # associativity on fully decided triples
        for x in rng:
            for y in rng:
                p = fus[x][y]
                if p < 0:
                    continue
                for z in rng:
                    q = fus[y][z]
                    if q < 0:
                        continue
                    l, r = fus[p][z], fus[x][q]
                    if l >= 0 and r >= 0 and l != r:
                        return False
        # residual existence on completed rows
        for x in rng:
            rowx = fus[x]
            if any(w < 0 for w in rowx):
                continue
            for y in rng:
                sols = [c for c in rng if leq(rowx[c], y)]
                if not any(all(leq(c, m) for c in sols) for m in sols):
                    return False
        return True

    def rec(k):
        if k == len(cells):
            yield tuple(tuple(row) for row in fus)
            return
        a, b = cells[k]
        for v in rng:
            fus[a][b] = fus[b][a] = v
            if ok_after(a, b, v):
                yield from rec(k + 1)
            else:
                stats["pruned"] += 1
        fus[a][b] = fus[b][a] = -1

    yield from rec(0)


# ---- the library against the oracles -----------------------------------------


def _compare(n, distributive, square_increasing):
    triples = 0
    for meet, join in _lattices(n):
        if distributive and not _lattice_distributive(meet, join, n):
            continue
        invs = list(_involutions(meet, n))
        assert invs == list(oracle_involutions(meet, n)), meet
        for neg in invs:
            for e in range(n):
                got, want = {"pruned": 0}, {"pruned": 0}
                tables = list(_fusion_tables(n, meet, neg, e,
                                             square_increasing, got))
                assert tables == list(oracle_fusion_tables(
                    n, meet, neg, e, square_increasing, want)), (meet, neg, e)
                assert got == want, (meet, neg, e)
                triples += 1
    return triples


def test_dmm_layers_match_full_recheck():
    # square-increasing, distributive lattices
    assert [_compare(n, True, True) for n in range(1, 8)] == \
        [1, 2, 3, 12, 5, 48, 21]


def test_irl_layers_match_full_recheck():
    # no square-increasing pruning, every lattice
    assert [_compare(n, False, False) for n in range(1, 6)] == \
        [1, 2, 3, 12, 40]

