"""Unpruned and full-recheck oracles for the enumerator's lattice,
involution and fusion layers, compared against the pruned and incremental
forms in dmm.enumeration.

The lattice oracle yields every natural labelling of every lattice,
where the library keeps the first labelling of each isomorphism class
and, on request, builds only the distributive ones from posets.  It
builds meet and join itself, each join by a scan, so no oracle shares
the library's up-set lookup.  The library's lattice record is compared
on every natural labelling with the brute-force cover relation and the
down-sets of meet and join (brute_covers, down_set_masks), which share
none of its code.  The involution oracle filters every permutation of
the elements.  The fusion oracle runs the same depth-first search
over the same cells as the library, but after each assignment it
rechecks every constraint over every decided cell, residual existence
on completed rows included.  The library checks only
the constraint instances that mention the new cell and leaves residual
existence to the involution law, so both must emit the same tables in
the same order and prune the same number of values.

The automorphism oracle tries every permutation that fixes bottom and top;
_lattices' groups meet it up to 7 elements.  The two walks of the linear
extensions check each other: the distributive groups, composed from
_least_labellings, against the depth-first _relabellings up to 10
elements, and _least_labellings' vector and relabellings against that walk
on seeded relabellings of lattices.
The orbit-counting certificate checks the enumerator's orbit pruning and
dedup on each kept lattice L: the labelled tables it searched, each
weighted by the size of its (neg, e)-orbit under Aut(L), the labelled tables
of an unpruned search over every (neg, e), and the sum over the classes
found on L of |Aut(L)| / |Aut(A)| must be the same number, since each
class's labelled tables on L form one Aut(L)-orbit whose stabilizer is
Aut(A).  |Aut(A)| is counted independently, as the injective maps in
homs(A, A).

The slow recount re-counts small sizes with no search pruning at all, from
raw binary relations and every permutation and table, so that catalog
counts can be frozen only once the two agree.

The least-encoding oracle builds every relabelled encoding of a table cell
by cell and takes the minimum, as the enumerator did before it gathered
rows at C level and encoded only the relabellings with the least sigma(e).
It is compared with the library's _least_encoding on every table the
enumerator searches at small sizes, over the full automorphism list, and on
canonical_form's relabellings of seeded relabellings of corpus algebras.

The canonical form oracle is the color refinement that the library's
canonical_form ran before it became the enumerator's dedup key.  The slow
recount, the HS oracle in test_constructions.py and the CATALOG_SHA256
re-sort use it, so no oracle shares _relabellings or _least_encoding with
the enumerator.
"""

import random
from collections import defaultdict
from fractions import Fraction
from itertools import permutations, product

from dmm import enumeration
from dmm.algebra import FiniteIRL, _Lattice, validate_dmm, validate_irl
from dmm.constructions import direct_product, homs, make_named
from dmm.enumeration import (SearchSpec, _fusion_tables, _gathers,
                             _involutions, _lattice_distributive, _lattices,
                             _least_encoding, _least_labellings,
                             _orbit_first_es, _relabellings,
                             _tables_from_below, enumerate_algebras)
from test_enumeration import GOLDEN_DMM_COUNTS, GOLDEN_IRL_COUNTS


# ---- oracles -----------------------------------------------------------------


def oracle_tables(below, n):
    """meet and join of a naturally labelled lattice with down-set vector
    below; a v b is the upper bound with the least label, as it lies below
    the others.  Joins are found by a scan, not by the library's up-set
    lookup."""
    idx = {b: k for k, b in enumerate(below)}
    meet = tuple(tuple(idx[below[a] & below[b]] for b in range(n))
                 for a in range(n))
    join = tuple(tuple(next(k for k, d in enumerate(below) if d & u == u)
                       for u in (below[a] | below[b] for b in range(n)))
                 for a in range(n))
    return meet, join


def down_set_masks(meet, n):
    """The down-set vector of a lattice: bit c of entry a is c <= a."""
    return [sum(1 << c for c in range(n) if meet[c][a] == c)
            for a in range(n)]


def brute_covers(meet, n):
    """Cover pairs (a, b), a covered by b, in increasing order: a < b with
    no c strictly between them, every c tried."""
    def lt(a, b):
        return a != b and meet[a][b] == a

    return [(a, b) for a in range(n) for b in range(n)
            if lt(a, b) and not any(lt(a, c) and lt(c, b) for c in range(n))]


def oracle_lattices(n):
    """(meet, join) of every natural labelling of every lattice on 0..n-1,
    in the order of oracle_labellings."""
    for below in oracle_labellings(n):
        yield oracle_tables(below, n)


def oracle_labellings(n):
    """The down-set vector of every natural labelling (a linear extension
    with 0 = bottom and n-1 = top) of every lattice on 0..n-1, in
    lexicographic order."""
    full = (1 << n) - 1
    below = [1]  # element 0 is the bottom

    def down_closed(i):
        return [mask for mask in range(1 << i)
                if all(not (mask >> j) & 1 or (below[j] & mask) == below[j]
                       for j in range(i))]

    def rec():
        i = len(below)
        if i == n:
            yield list(below)
            return
        for mask in down_closed(i):
            nb = mask | (1 << i)
            if i == n - 1 and nb != full:
                continue
            known = set(below)
            if all((nb & below[j]) in known for j in range(i)):
                below.append(nb)
                yield from rec()
                below.pop()

    yield from rec()


def lattice_isomorphic(m1, m2, n):
    """Brute force over the permutations that fix bottom (0) and top
    (n-1), which every isomorphism of naturally labelled lattices does."""
    if n <= 2:
        return True
    for mid in permutations(range(1, n - 1)):
        p = (0,) + mid + (n - 1,)
        if all(p[m1[a][b]] == m2[p[a]][p[b]]
               for a in range(n) for b in range(n)):
            return True
    return False


def first_of_each_class(lattices, n):
    """The subsequence of first lattices of each isomorphism class.  Only
    lattices with the same multiset of (down-set, up-set) sizes are tried
    for isomorphism."""
    reps, by_shape = [], {}
    for meet, join in lattices:
        shape = tuple(sorted(
            (sum(meet[a][x] == a for a in range(n)),
             sum(meet[x][b] == x for b in range(n))) for x in range(n)))
        same = by_shape.setdefault(shape, [])
        if not any(lattice_isomorphic(r, meet, n) for r in same):
            same.append(meet)
            reps.append((meet, join))
    return reps


def oracle_automorphisms(meet, n):
    """Every permutation that preserves meet.  Brute force over the
    permutations that fix bottom (0) and top (n-1), which every
    automorphism of a naturally labelled lattice does."""
    for mid in permutations(range(1, n - 1)):
        p = (0, *mid, n - 1) if n > 1 else (0,)
        if all(p[meet[a][b]] == meet[p[a]][p[b]]
               for a in range(n) for b in range(n)):
            yield p


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


# ---- the slow recount (no search pruning) ------------------------------------


def _slow_lattices(n):
    """All lattice orders on 0..n-1, from raw binary relations.  Quadratic
    blowup on purpose: this path must not share the fast path's generator."""
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    for bits in product((False, True), repeat=len(pairs)):
        rel = [[a == b for b in range(n)] for a in range(n)]
        for (a, b), v in zip(pairs, bits):
            if v:
                rel[a][b] = True
        if any(rel[a][b] and rel[b][a] for a, b in pairs):
            continue
        if any(rel[a][b] and rel[b][c] and not rel[a][c]
               for a in range(n) for b in range(n) for c in range(n)):
            continue
        meet = [[-1] * n for _ in range(n)]
        join = [[-1] * n for _ in range(n)]
        ok = True
        for a in range(n):
            for b in range(n):
                lbs = [c for c in range(n) if rel[c][a] and rel[c][b]]
                glb = [c for c in lbs if all(rel[d][c] for d in lbs)]
                ubs = [c for c in range(n) if rel[a][c] and rel[b][c]]
                lub = [c for c in ubs if all(rel[c][d] for d in ubs)]
                if len(glb) != 1 or len(lub) != 1:
                    ok = False
                    break
                meet[a][b], join[a][b] = glb[0], lub[0]
            if not ok:
                break
        if ok:
            yield (tuple(tuple(r) for r in meet),
                   tuple(tuple(r) for r in join))


def _slow_fusion_ok(n, meet, neg, e, fus, square_increasing):
    def leq(a, b):
        return meet[a][b] == a

    for a in range(n):
        if square_increasing and not leq(a, fus[a][a]):
            return False
        for b in range(n):
            for c in range(n):
                if fus[fus[a][b]][c] != fus[a][fus[b][c]]:
                    return False
                if leq(fus[a][b], c) != leq(fus[neg[c]][b], neg[a]):
                    return False
    return True


def oracle_least_encoding(fus, neg, e, pairs) -> bytes:
    """The least encoding of sigma.(e, fusion, neg) over the relabellings
    (sigma, sigma^-1) in pairs, each encoding built cell by cell."""
    return min(bytes([s[e], *(s[fus[a][b]] for a in inv for b in inv),
                      *(s[neg[a]] for a in inv)])
               for s, inv in pairs)


def _refine_colors(A: FiniteIRL) -> list[int]:
    n = A.size
    below = [sum(1 for b in range(n) if A.leq(b, a)) for a in range(n)]
    above = [sum(1 for b in range(n) if A.leq(a, b)) for a in range(n)]
    colors = [(a == A.e, below[a], above[a], A.fusion[a][a] == a)
              for a in range(n)]
    colors = _rank(colors)
    while True:
        sig = []
        for a in range(n):
            row = sorted((colors[b], colors[A.meet[a][b]],
                          colors[A.join[a][b]], colors[A.fusion[a][b]])
                         for b in range(n))
            sig.append((colors[a], colors[A.neg[a]], tuple(row)))
        new = _rank(sig)
        if new == colors:
            return colors
        colors = new


def _rank(keys) -> list[int]:
    order = {k: i for i, k in enumerate(sorted(set(keys), key=repr))}
    return [order[k] for k in keys]


def _encode(A: FiniteIRL, perm) -> bytes:
    n = A.size
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old
    out = [perm[A.e]]
    for t in (A.meet, A.join, A.fusion):
        for i in range(n):
            row = t[inv[i]]
            out.extend(perm[row[inv[j]]] for j in range(n))
    out.extend(perm[A.neg[inv[i]]] for i in range(n))
    return bytes(out)


def oracle_canonical_form(A: FiniteIRL) -> bytes:
    """Isomorphism-invariant encoding by color refinement: the minimum
    table encoding over all relabelings respecting the stable color
    partition.  It shares no search with the library's canonical_form, and
    it does not return on S12, 2^4 and most dmm-11 entries."""
    n = A.size
    colors = _refine_colors(A)
    classes: dict[int, list[int]] = {}
    for a, c in enumerate(colors):
        classes.setdefault(c, []).append(a)
    blocks = [classes[c] for c in sorted(classes)]
    best: bytes | None = None
    for choice in product(*(permutations(block) for block in blocks)):
        perm = [0] * n
        new = 0
        for block in choice:
            for a in block:
                perm[a] = new
                new += 1
        enc = _encode(A, perm)
        if best is None or enc < best:
            best = enc
    return bytes([n]) + best


def slow_count(n: int, square_increasing: bool = True,
               distributive: bool = True) -> int:
    """Isomorphism-class count by the pruning-free path.  Exponential; meant
    for n <= 4 cross-checks of the fast enumerator."""
    seen = set()
    for meet, join in _slow_lattices(n):
        if distributive and not _lattice_distributive(meet, join, n):
            continue
        for negp in permutations(range(n)):
            if any(negp[negp[a]] != a for a in range(n)):
                continue
            if not all((meet[a][b] == a) == (meet[negp[b]][negp[a]] == negp[b])
                       for a in range(n) for b in range(n)):
                continue
            for e in range(n):
                free = [(a, b) for a in range(n) for b in range(a, n)
                        if a != e and b != e]
                for vals in product(range(n), repeat=len(free)):
                    fus = [[-1] * n for _ in range(n)]
                    for x in range(n):
                        fus[e][x] = fus[x][e] = x
                    for (a, b), v in zip(free, vals):
                        fus[a][b] = fus[b][a] = v
                    if not _slow_fusion_ok(n, meet, negp, e, fus,
                                           square_increasing):
                        continue
                    A = FiniteIRL(n, meet, join,
                                  tuple(tuple(r) for r in fus),
                                  tuple(negp), e)
                    rep = (validate_dmm(A) if square_increasing and distributive
                           else validate_irl(A))
                    if rep.ok:
                        seen.add(oracle_canonical_form(A))
    return len(seen)


# ---- the library against the oracles -----------------------------------------


def _compare(n, distributive, square_increasing):
    triples = 0
    for meet, join in oracle_lattices(n):
        if distributive and not _lattice_distributive(meet, join, n):
            continue
        lat = _Lattice(n, meet, join)
        invs = list(_involutions(lat, n))
        assert invs == list(oracle_involutions(meet, n)), meet
        for neg in invs:
            for e in range(n):
                got, want = {"pruned": 0}, {"pruned": 0}
                tables = list(_fusion_tables(n, lat, neg, e,
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


def test_tables_from_below_match_oracle():
    for n in range(1, 8):
        for below in oracle_labellings(n):
            assert _tables_from_below(below, n) == oracle_tables(below, n), \
                below


def test_order_record_matches_brute_force():
    # the lower covers against brute_covers, which tries every c between a
    # and b, and the masks against the down-sets of meet and of the dual
    # order, whose meet is join; FiniteIRL.covers reads the record
    for n in range(1, 8):
        for meet, join in oracle_lattices(n):
            o = _Lattice(n, meet, join)
            A = FiniteIRL(n, meet, join, meet, tuple(range(n)), n - 1)
            covers = brute_covers(meet, n)
            assert sorted((c, a) for a in range(n) for c in o.covers[a]) \
                == covers == A.covers(), meet
            assert o.below == down_set_masks(meet, n), meet
            assert o.above == down_set_masks(join, n), meet
            assert o.L == [[A.leq(a, b) for b in range(n)]
                           for a in range(n)], meet
            assert o.bot == A.bottom == 0, meet


def test_lattices_are_first_of_each_class():
    for n in range(1, 8):
        every = list(oracle_lattices(n))
        dist = [(m, j) for m, j in every if _lattice_distributive(m, j, n)]
        assert [(m, j) for m, j, _ in _lattices(n)] == \
            first_of_each_class(every, n), n
        assert [(m, j) for m, j, _ in _lattices(n, True)] == \
            first_of_each_class(dist, n), n


def test_lattice_counts_match_oeis():
    # A006966 (lattices), n = 1..8, and A006982 (distributive lattices),
    # n = 1..12
    assert [sum(1 for _ in _lattices(n)) for n in range(1, 9)] == \
        [1, 1, 1, 2, 5, 15, 53, 222]
    assert [sum(1 for _ in _lattices(n, True)) for n in range(1, 13)] == \
        [1, 1, 1, 2, 3, 5, 8, 15, 26, 47, 82, 151]


def test_distributive_lattices_are_the_distributive_subsequence():
    # the O(P) construction yields the distributive lattices of the generic
    # search, with the same labellings and in the same order
    for n in range(1, 9):
        assert [(m, j) for m, j, _ in _lattices(n, True)] == \
            [(m, j) for m, j, _ in _lattices(n)
             if _lattice_distributive(m, j, n)], n


def test_automorphisms_match_brute_force():
    for n in range(1, 8):
        for distributive in (False, True):
            for meet, join, auts in _lattices(n, distributive):
                assert sorted(auts) == \
                    sorted(oracle_automorphisms(meet, n)), meet
                assert auts[0] == tuple(range(n)), meet


def test_distributive_groups_match_depth_first_walk():
    # the groups composed from _least_labellings' relabellings of each O(P)
    # against the depth-first walk of each lattice onto its own vector
    for n in range(1, 11):
        for meet, join, auts in _lattices(n, True):
            b = down_set_masks(meet, n)
            assert sorted(auts) == \
                sorted(filter(None, _relabellings(b, b))), meet
            assert auts[0] == tuple(range(n)), meet


def test_least_labellings_match_depth_first_walk():
    # on seeded relabellings of every lattice of up to 7 elements and of
    # products with many automorphisms, the vector is least (the
    # depth-first walk onto it meets no smaller one) and the relabellings
    # onto it are the walk's
    rnd = random.Random(30)
    orders = []
    for n in range(1, 8):
        for meet, _, _ in _lattices(n):
            orders.append(down_set_masks(meet, n))
    for names in (("2",) * 3, ("2",) * 4, ("2",) * 5, ("D4", "D4"),
                  ("C4", "D4")):
        P = make_named(names[0])
        for nm in names[1:]:
            P = direct_product(P, make_named(nm))
        orders.append(P.lattice.below)
    for b in orders:
        n = len(b)
        for _ in range(2):
            p = rnd.sample(range(n), n)
            pb = [0] * n
            for a in range(n):
                pb[p[a]] = sum(1 << p[c] for c in range(n) if b[a] >> c & 1)
            v, maps = _least_labellings(pb)
            walk = list(_relabellings(pb, v))
            assert None not in walk, pb
            assert sorted(maps) == sorted(walk), pb


def test_involutions_match_brute_force_on_every_class():
    # _compare reaches only the distributive lattices at n = 6 and 7
    for n in range(1, 8):
        for meet, join, _ in _lattices(n):
            assert list(_involutions(_Lattice(n, meet, join), n)) == \
                list(oracle_involutions(meet, n)), meet


def test_dual_search_counts_automorphisms_or_nothing():
    # the relabellings of the dual L^op onto L are the isomorphisms
    # L^op -> L: |Aut(L)| of them when L is self-dual, none otherwise
    for n in range(1, 8):
        for meet, join, auts in _lattices(n):
            r = range(n)
            dual = tuple(tuple(n - 1 - join[n - 1 - a][n - 1 - b] for b in r)
                         for a in r)
            maps = list(filter(None, _relabellings(
                down_set_masks(dual, n), down_set_masks(meet, n))))
            self_dual = lattice_isomorphic(dual, meet, n)
            assert len(maps) == (len(auts) if self_dual else 0), meet


def test_least_encoding_matches_oracle_on_searched_tables():
    # every (fus, neg, e) the enumerator searches, over the full
    # automorphism list; n = 1 included
    for klass, top in (("dmm", 7), ("irl", 6)):
        spec = SearchSpec.for_class(klass, top)
        for n in range(1, top + 1):
            for meet, join, group in _lattices(n, spec.distributive):
                lat = _Lattice(n, meet, join)
                auts = [(s, sorted(range(n), key=s.__getitem__))
                        for s in group]
                gathers = _gathers(auts, n)
                for neg in _involutions(lat, n):
                    for e in _orbit_first_es(neg, auts):
                        for fus in _fusion_tables(n, lat, neg, e,
                                                  spec.square_increasing,
                                                  {"pruned": 0}):
                            assert _least_encoding(fus, neg, e, gathers) \
                                == oracle_least_encoding(fus, neg, e, auts), \
                                (klass, meet, neg, e, fus)


def test_least_encoding_matches_oracle_on_relabelled_corpus():
    # canonical_form's relabellings onto the least down-set vector, read
    # off seeded relabellings of corpus algebras, n = 1 and n = 2 included
    rnd = random.Random(7)
    corpus = [make_named(nm) for nm in ("S1", "2", "S3", "C4", "D4", "S8",
                                        "C4ext_2")]
    for names in (("2", "2", "2"), ("2", "2", "2", "2"), ("S3", "S3"),
                  ("C4", "2"), ("C4", "D4"), ("D4", "D4")):
        P = make_named(names[0])
        for nm in names[1:]:
            P = direct_product(P, make_named(nm))
        corpus.append(P)
    for A in corpus:
        n = A.size
        for _ in range(3):
            B = A.relabel(rnd.sample(range(n), n))
            b = B.lattice.below
            pairs = [(s, sorted(range(n), key=s.__getitem__))
                     for s in _least_labellings(b)[1]]
            assert _least_encoding(B.fusion, B.neg, B.e,
                                   _gathers(pairs, n)) \
                == oracle_least_encoding(B.fusion, B.neg, B.e, pairs), \
                (A.name, B.fusion)


def orbit(neg, e, auts):
    """The orbit of (neg, e) under sigma.(neg, e) = (sigma neg sigma^-1,
    sigma(e))."""
    out = set()
    for s in auts:
        moved = [0] * len(neg)
        for a, b in enumerate(neg):
            moved[s[a]] = s[b]
        out.add((tuple(moved), s[e]))
    return out


def orbit_certificate(klass, n, monkeypatch, unsafe=False):
    """Run the orbit-counting certificate on every kept lattice of the
    class at size n and return the number of classes found.  With
    unsafe=True it runs above the enumerator's size ceiling."""
    spec = SearchSpec.for_class(klass, n)
    searched = defaultdict(list)  # meet -> [(neg, e, tables)]

    def recorded(n, lat, neg, e, square_increasing, stats):
        tables = list(_fusion_tables(n, lat, neg, e, square_increasing,
                                     stats))
        searched[lat.meet].append((neg, e, len(tables)))
        yield from tables

    with monkeypatch.context() as mp:
        mp.setattr(enumeration, "_fusion_tables", recorded)
        cat = enumerate_algebras(spec, unsafe=unsafe)
    classes = defaultdict(list)
    for A in cat.algebras:
        classes[A.meet].append(A)
    for meet, join, auts in _lattices(n, spec.distributive):
        lat = _Lattice(n, meet, join)
        weighted = sum(k * len(orbit(neg, e, auts))
                       for neg, e, k in searched[meet])
        unpruned = sum(1 for neg in _involutions(lat, n)
                       for e in range(n)
                       for _ in _fusion_tables(n, lat, neg, e,
                                               spec.square_increasing,
                                               {"pruned": 0}))
        orbits = sum(Fraction(len(auts),
                              sum(h.injective for h in homs(A, A)))
                     for A in classes[meet])
        assert weighted == unpruned == orbits, (klass, n, meet)
    return len(cat.algebras)


def test_orbit_counting_certificate(monkeypatch):
    assert {n: orbit_certificate("dmm", n, monkeypatch)
            for n in range(1, 9)} == GOLDEN_DMM_COUNTS
    assert {n: orbit_certificate("irl", n, monkeypatch)
            for n in range(1, 7)} == GOLDEN_IRL_COUNTS
