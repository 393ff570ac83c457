"""Brute-force oracles for deductive filters, congruences, quotients and
the simple/SI/FSI flags, compared against the principal-filter forms in
dmm.filters and dmm.relevant.

The oracles enumerate every subset that could be a filter, build each
filter's congruence by union-find or by a search for residuals in the
filter, check the quotient order law pair by pair, and classify from the
congruence lattice: a monolith for SI, no two non-identity congruences
meeting in the identity for FSI, exactly two congruences for simple.  They
share no code with the library routes they check.
"""

import hashlib
from itertools import combinations

import pytest

from dmm.algebra import square_increasing_witness
from dmm.constructions import direct_product, e_free_reduct, make_named
from dmm.enumeration import SearchSpec, enumerate_algebras
from dmm.filters import (DeductiveFilter, NotAFilter, classify,
                         deductive_filters, dfg, omega, quotient)
from dmm.relevant import ra_classify
from test_relevant import ra_deductive_filters


# ---- oracles -----------------------------------------------------------------


def _is_filter(A, members, base, fusion_closed):
    if not base <= members:
        return False
    for a in members:
        for b in A.elements:
            if A.leq(a, b) and b not in members:
                return False
        for b in members:
            if A.meet[a][b] not in members:
                return False
            if fusion_closed and A.fusion[a][b] not in members:
                return False
    return True


def _subset_filters(A, base, fusion_closed):
    """Every subset containing base that is a filter, sorted by (size,
    sorted membership)."""
    rest = [a for a in A.elements if a not in base]
    found = []
    for k in range(len(rest) + 1):
        for extra in combinations(rest, k):
            mem = frozenset(base) | frozenset(extra)
            if _is_filter(A, mem, base, fusion_closed):
                found.append(mem)
    found.sort(key=lambda m: (len(m), sorted(m)))
    return found


def is_deductive_filter(A, members):
    """Whether members is an up-set containing e closed under meet and
    fusion."""
    return _is_filter(A, members, {A.e}, True)


def oracle_filters(A):
    """Deductive filters of an IRL: up-sets containing e closed under meet
    and fusion."""
    return _subset_filters(A, {A.e}, True)


def oracle_ra_filters(R):
    """Deductive filters of an RA: lattice filters containing every |a|."""
    return _subset_filters(R, {R.abs_value(a) for a in R.elements}, False)


def oracle_dfg(A, X):
    """Least fixpoint of X and e under up-closure, meet and fusion."""
    cur = set(X) | {A.e}
    while True:
        new = set(cur)
        for a in cur:
            new.update(b for b in A.elements if A.leq(a, b))
            for b in cur:
                new.add(A.meet[a][b])
                new.add(A.fusion[a][b])
        if new == cur:
            return frozenset(cur)
        cur = new


def oracle_congruence(A, F):
    """Blocks of {(a, b) : a->b, b->a in F} by union-find, renumbered by
    least member."""
    n = A.size
    raw = list(range(n))
    for a in range(n):
        for b in range(a + 1, n):
            if A.residual(a, b) in F and A.residual(b, a) in F:
                ra, rb = raw[a], raw[b]
                if ra != rb:
                    raw = [ra if r == rb else r for r in raw]
    first = {}
    for a in range(n):
        first.setdefault(raw[a], a)
    rank = {least: i for i, least in enumerate(sorted(first.values()))}
    return tuple(rank[first[raw[a]]] for a in range(n))


def _kernel(A, members):
    """Blocks of {(a, b) : a->b and b->a in members}, numbered by least
    member.  members must be a deductive filter, which makes the relation
    an equivalence."""
    blocks = []
    ids = {}
    for a in range(A.size):
        least = next(b for b in range(a + 1)
                     if A.residual(a, b) in members
                     and A.residual(b, a) in members)
        blocks.append(ids.setdefault(least, len(ids)))
    return tuple(blocks)


def order_law_failure(A, members, Q, proj):
    """The first pair (a, b) at which the law of quotient orders, a->b in
    members iff a/F <= b/F in Q, fails; None if it holds."""
    for a in A.elements:
        for b in A.elements:
            if (A.residual(a, b) in members) != Q.leq(proj[a], proj[b]):
                return a, b
    return None


def _finer(c1, c2, n):
    return all(c2[a] == c2[b] for a in range(n) for b in range(a + 1, n)
               if c1[a] == c1[b])


def _meet_is_identity(c1, c2, n):
    return not any(c1[a] == c1[b] and c2[a] == c2[b]
                   for a in range(n) for b in range(a + 1, n))


def oracle_classify(A, filters):
    """(trivial, simple, si, fsi, least member of the monolith's filter)
    from the congruence lattice of the filters' congruences."""
    n = A.size
    cons = [oracle_congruence(A, F) for F in filters]
    if n == 1:
        return True, False, False, True, None
    nonid = [(c, F) for c, F in zip(cons, filters) if max(c) != n - 1]
    monolith = [F for c, F in nonid
                if all(_finer(c, d, n) for d, _ in nonid)]
    fsi = not any(_meet_is_identity(c1, c2, n)
                  for i, (c1, _) in enumerate(nonid)
                  for c2, _ in nonid[i:])
    sub = None
    if monolith:
        (F,) = monolith
        sub = next(m for m in F if all(A.leq(m, b) for b in F))
    return False, len(set(cons)) == 2, bool(monolith), fsi, sub


# ---- inputs ------------------------------------------------------------------


@pytest.fixture(scope="module")
def dmm_inputs(named, dmm_catalogs):
    """Every DMM with n <= 6, the named algebras and 2x2."""
    out = [A for n in range(1, 7) for A in dmm_catalogs[n].algebras]
    out += list(named.values())
    out.append(direct_product(named["2"], named["2"]))
    return out


def _catalog(klass, top):
    return [A for n in range(1, top + 1)
            for A in enumerate_algebras(SearchSpec.for_class(klass, n)).algebras]


@pytest.fixture(scope="module")
def irl_inputs():
    """Every IRL with n <= 5."""
    return _catalog("irl", 5)


@pytest.fixture(scope="module")
def pinned_entries():
    """Every entry of the pinned catalogs dmm n <= 8 and irl n <= 6."""
    return _catalog("dmm", 8) + _catalog("irl", 6)


def _label(A):
    return A.name or f"size-{A.size}"


# ---- the library against the oracles -----------------------------------------


def test_deductive_filters_match_subset_oracle(dmm_inputs, irl_inputs):
    for A in dmm_inputs + irl_inputs:
        got = [F.members for F in deductive_filters(A)]
        assert got == oracle_filters(A), _label(A)


def test_omega_matches_kernel_oracle(pinned_entries):
    # each entry also reversed, so that index order is not a linear
    # extension of the lattice order
    for A in pinned_entries + [A.relabel(A.elements[::-1])
                               for A in pinned_entries]:
        for G in deductive_filters(A):
            blocks = omega(A, G).blocks
            assert blocks == _kernel(A, G.members), (_label(A), G.members)
            Q, proj = quotient(A, G)
            assert proj == list(blocks)
            assert order_law_failure(A, G.members, Q, proj) is None, \
                (_label(A), G.members)


def test_omega_rejects_exactly_the_non_filters():
    # every subset of every dmm n <= 7 and irl n <= 6 entry
    seen = []
    for A in _catalog("dmm", 7) + _catalog("irl", 6):
        for bits in range(1 << A.size):
            mem = frozenset(a for a in A.elements if bits >> a & 1)
            try:
                omega(A, DeductiveFilter(mem, A))
                seen.append(True)
            except NotAFilter:
                seen.append(False)
            assert seen[-1] == is_deductive_filter(A, mem), (_label(A), mem)
    assert len(seen) == 10484 and True in seen


# sha256 over the projection and the tables of A/F for every deductive
# filter F of every dmm n <= 8 entry A, frozen while quotients were built
# by a search for residuals in F
QUOTIENTS_SHA256 = \
    "9375fe1277f862535438e12c7d90b1fce0291942c39fde808df84432ddf6279c"


def test_quotients_pinned():
    digest = hashlib.sha256()
    for A in _catalog("dmm", 8):
        for G in deductive_filters(A):
            Q, proj = quotient(A, G)
            line = (proj, Q.meet, Q.join, Q.fusion, Q.neg, Q.e)
            digest.update(f"{line}\n".encode())
    assert digest.hexdigest() == QUOTIENTS_SHA256


def test_dfg_matches_closure_oracle(dmm_inputs, irl_inputs):
    for A in dmm_inputs + irl_inputs:
        gens = [()] + [(a,) for a in A.elements] + list(
            combinations(A.elements, 2))
        for X in gens:
            assert dfg(A, X).members == oracle_dfg(A, X), (_label(A), X)


def test_classify_matches_congruence_oracle(dmm_inputs, irl_inputs):
    for A in dmm_inputs + irl_inputs:
        c = classify(A)
        want = oracle_classify(A, oracle_filters(A))
        assert (c.trivial, c.simple, c.si, c.fsi, c.subcover) == want, \
            _label(A)


def test_subcover_is_largest_element_below_e_when_square_increasing(
        dmm_inputs, irl_inputs):
    # the value classify reported before filters were read as principal
    for A in dmm_inputs + irl_inputs:
        c = classify(A)
        if c.si and square_increasing_witness(A) is None:
            below = [a for a in A.elements if A.lt(a, A.e)]
            assert all(A.leq(b, c.subcover) for b in below), _label(A)


def test_ra_filters_match_subset_oracle(dmm_inputs, irl_inputs):
    for A in dmm_inputs + irl_inputs:
        R = e_free_reduct(A)
        got = [F.members for F in ra_deductive_filters(R)]
        assert got == oracle_ra_filters(R), _label(A)


def test_ra_classify_matches_congruence_oracle(dmm_inputs):
    for A in dmm_inputs:
        R = e_free_reduct(A)
        c = ra_classify(R)
        filters = oracle_ra_filters(R)
        want = oracle_classify(R, filters)[:4] + (len(filters),)
        got = (c.trivial, c.simple, c.si, c.fsi, c.filter_count)
        assert got == want, _label(A)


def test_ra_and_pointed_classifications_agree(dmm_catalogs):
    for n in range(1, 7):
        for A in dmm_catalogs[n].algebras:
            c, r = classify(A), ra_classify(e_free_reduct(A))
            assert (c.trivial, c.simple, c.si, c.fsi) == \
                (r.trivial, r.simple, r.si, r.fsi), A.name


# ---- beyond the oracles' reach -----------------------------------------------


def test_s3_cubed():
    # 2^26 candidate subsets; S3 has the two filters of sizes 2 and 3, and
    # the filters of a product of S3s are the products of S3's filters
    S3 = make_named("S3")
    A = direct_product(direct_product(S3, S3), S3)
    assert sorted(len(F.members) for F in deductive_filters(A)) == \
        [8, 12, 12, 12, 18, 18, 18, 27]
    c = classify(A)
    assert not (c.trivial or c.simple or c.si or c.fsi)
    r = ra_classify(e_free_reduct(A))
    assert not (r.trivial or r.simple or r.si or r.fsi)
    assert r.filter_count == 8
