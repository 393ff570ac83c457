"""Unpruned and full-recheck oracles for the enumerator's lattice,
involution and fusion layers, compared against the pruned and incremental
forms in dmm.enumeration.

The lattice oracle yields every natural labelling of every lattice, where
the library keeps the first labelling of each isomorphism class and prunes
non-distributive branches on request.  The involution oracle filters every
permutation of the elements.  The fusion oracle runs the same depth-first
search over the same cells as the library, but after each assignment it
rechecks every constraint over every decided cell, residual existence on
completed rows included.  The library checks only the constraint instances
that mention the new cell and leaves residual existence to the involution
law, so both must emit the same tables in the same order and prune the same
number of values.

The automorphism oracle tries every permutation that fixes bottom and top.
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
"""

from collections import defaultdict
from fractions import Fraction
from itertools import permutations, product

from dmm import enumeration
from dmm.algebra import FiniteIRL, validate_dmm, validate_irl
from dmm.constructions import canonical_form, homs
from dmm.enumeration import (SearchSpec, _automorphisms, _fusion_tables,
                             _involutions, _lattice_distributive, _lattices,
                             _tables_from_below, enumerate_algebras)
from test_enumeration import GOLDEN_DMM_COUNTS, GOLDEN_IRL_COUNTS


# ---- oracles -----------------------------------------------------------------


def oracle_lattices(n):
    """Every natural labelling (a linear extension with 0 = bottom and
    n-1 = top) of every lattice on 0..n-1, in lexicographic order of the
    down-set vector."""
    full = (1 << n) - 1
    if n == 1:
        yield ((0,),), ((0,),)
        return
    below = [1]  # element 0 is the bottom

    def down_closed(i):
        return [mask for mask in range(1 << i)
                if all(not (mask >> j) & 1 or (below[j] & mask) == below[j]
                       for j in range(i))]

    def rec():
        i = len(below)
        if i == n:
            yield _tables_from_below(below, n)
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
                        seen.add(canonical_form(A).data)
    return len(seen)


# ---- the library against the oracles -----------------------------------------


def _compare(n, distributive, square_increasing):
    triples = 0
    for meet, join in oracle_lattices(n):
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


def test_lattices_are_first_of_each_class():
    for n in range(1, 8):
        every = list(oracle_lattices(n))
        dist = [(m, j) for m, j in every if _lattice_distributive(m, j, n)]
        assert list(_lattices(n)) == first_of_each_class(every, n), n
        assert list(_lattices(n, True)) == first_of_each_class(dist, n), n


def test_lattice_counts_match_oeis():
    # A006966 (lattices) and A006982 (distributive lattices), n = 1..8
    assert [sum(1 for _ in _lattices(n)) for n in range(1, 9)] == \
        [1, 1, 1, 2, 5, 15, 53, 222]
    assert [sum(1 for _ in _lattices(n, True)) for n in range(1, 9)] == \
        [1, 1, 1, 2, 3, 5, 8, 15]


def test_automorphisms_match_brute_force():
    for n in range(1, 8):
        for distributive in (False, True):
            for meet, _ in _lattices(n, distributive):
                assert _automorphisms(meet, n) == \
                    sorted(oracle_automorphisms(meet, n)), meet


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

    def recorded(n, meet, neg, e, square_increasing, stats):
        tables = list(_fusion_tables(n, meet, neg, e, square_increasing,
                                     stats))
        searched[meet].append((neg, e, len(tables)))
        yield from tables

    with monkeypatch.context() as mp:
        mp.setattr(enumeration, "_fusion_tables", recorded)
        cat = enumerate_algebras(spec, unsafe=unsafe)
    classes = defaultdict(list)
    for A in cat.algebras:
        classes[A.meet].append(A)
    for meet, _ in _lattices(n, spec.distributive):
        auts = _automorphisms(meet, n)
        weighted = sum(k * len(orbit(neg, e, auts))
                       for neg, e, k in searched[meet])
        unpruned = sum(1 for neg in _involutions(meet, n)
                       for e in range(n)
                       for _ in _fusion_tables(n, meet, neg, e,
                                               spec.square_increasing))
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
