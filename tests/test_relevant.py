from functools import reduce
from itertools import combinations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmm import relevant
from dmm.algebra import (FiniteIRL, NotAnIRL, ValidationReport, _Collector,
                         is_distributive, is_rigorously_compact, validate_irl)
from dmm.constructions import e_free_reduct, make_named
from dmm.enumeration import SearchSpec, enumerate_algebras
from dmm.filters import DeductiveFilter, _up_sets, classify, congruence_lattice
from dmm.relevant import (FiniteRA, TrivialAlgebra, contains_two_reduct,
                          dfg_oracle, dfg_ra, dfg_ra_set, meet_property_check,
                          ra_classify, reconstruct_neutral, validate_ra)
from conftest import (corrupted_tables, symmetric_corrupted_tables,
                      symmetric_corruption)


def ra_deductive_filters(A: FiniteRA) -> list[DeductiveFilter]:
    """All deductive filters: [m) for each m <= t, sorted by (size, sorted
    membership).  The library counts them as |down-set of t| instead."""
    return [DeductiveFilter(F, A)
            for F in _up_sets(A, [m for m in A.elements if A.leq(m, A.t)])]


@pytest.fixture(scope="module")
def reducts(named):
    return {nm: e_free_reduct(named[nm]) for nm in named}


def test_validate_ra_on_reducts(reducts):
    for nm, R in reducts.items():
        assert validate_ra(R).ok, nm


def test_validate_ra_catches_broken_fusion():
    R = e_free_reduct(make_named("2"))
    bad = [list(r) for r in R.fusion]
    bad[0][1] = 1            # makes fusion non-commutative: a*b != b*a
    B = FiniteRA.from_tables(R.size, R.meet, R.join, bad, R.neg)
    rep = validate_ra(B)
    assert not rep.ok
    assert "fusion-commutative" in rep.laws_violated()


def oracle_validate_ra(A: FiniteRA) -> ValidationReport:
    """Reference: the RA axioms in one loop of their own, as validate_ra
    checked them before it shared the IRL checks."""
    A.check_well_formed()
    n = A.size
    meet, join, fus, neg = A.meet, A.join, A.fusion, A.neg
    col = _Collector()

    def leq(a, b):
        return meet[a][b] == a

    for a in range(n):
        if meet[a][a] != a or join[a][a] != a:
            col.add("lattice-idempotent", (a,))
        if neg[neg[a]] != a:
            col.add("involution-period-2", (a,))
        if not leq(a, fus[a][a]):
            col.add("square-increasing", (a,))
        for b in range(n):
            if meet[a][b] != meet[b][a] or join[a][b] != join[b][a]:
                col.add("lattice-commutative", (a, b))
            if fus[a][b] != fus[b][a]:
                col.add("fusion-commutative", (a, b))
            if meet[a][join[a][b]] != a or join[a][meet[a][b]] != a:
                col.add("absorption", (a, b))
            if (join[a][b] == b) != (meet[a][b] == a):
                col.add("order-agreement", (a, b))
            if leq(a, b) != leq(neg[b], neg[a]):
                col.add("neg-antitone", (a, b))
            for c in range(n):
                if meet[meet[a][b]][c] != meet[a][meet[b][c]]:
                    col.add("meet-associative", (a, b, c))
                if join[join[a][b]][c] != join[a][join[b][c]]:
                    col.add("join-associative", (a, b, c))
                if fus[fus[a][b]][c] != fus[a][fus[b][c]]:
                    col.add("fusion-associative", (a, b, c))
                if leq(fus[a][b], c) != leq(fus[a][neg[c]], neg[b]):
                    col.add("contraposition a*b<=c iff a*~c<=~b", (a, b, c))
                # a <= a * (~(b*~b) /\ ~(c*~c))
                t = meet[neg[fus[b][neg[b]]]][neg[fus[c][neg[c]]]]
                if not leq(a, fus[a][t]):
                    col.add("identity-bound a <= a*(~(b*~b)/\\~(c*~c))",
                            (a, b, c))
    d = is_distributive(A)
    if d is not None:
        col.add("distributive", d)
    return col.report()


# Each oracle law name and the validate_ra names that check the same law;
# the others keep their names.  Contraposition is involution-fusion only
# when fusion is commutative.
ORACLE_LAWS = {
    "lattice-idempotent": {"meet-idempotent", "join-idempotent"},
    "lattice-commutative": {"meet-commutative", "join-commutative"},
    "absorption": {"absorption-meet-join", "absorption-join-meet"},
    "contraposition a*b<=c iff a*~c<=~b": {"involution-fusion"},
    **{law: {law} for law in (
        "involution-period-2", "square-increasing", "fusion-commutative",
        "order-agreement", "neg-antitone", "meet-associative",
        "join-associative", "fusion-associative", "distributive",
        "identity-bound a <= a*(~(b*~b)/\\~(c*~c))")}}

@settings(max_examples=600, deadline=None, derandomize=True)
@given(d=corrupted_tables())
def test_validate_ra_matches_oracle(d):
    R = FiniteRA.from_dict(d)       # e is not read
    new, old = validate_ra(R), oracle_validate_ra(R)
    assert new.ok == old.ok
    if all(R.fusion[a][b] == R.fusion[b][a]
           for a in R.elements for b in R.elements):
        laws = set(new.laws_violated())
        assert laws <= set().union(*ORACLE_LAWS.values())
        for law, names in ORACLE_LAWS.items():
            assert (law in old.laws_violated()) == bool(names & laws), law


@settings(max_examples=600, deadline=None, derandomize=True)
@given(d=symmetric_corrupted_tables())
def test_validate_ra_matches_oracle_on_symmetric_corruptions(d):
    # fusion stays commutative, so every law is compared
    R = FiniteRA.from_dict(d)
    new, old = validate_ra(R), oracle_validate_ra(R)
    assert new.ok == old.ok
    laws = set(new.laws_violated())
    assert laws <= set().union(*ORACLE_LAWS.values())
    for law, names in ORACLE_LAWS.items():
        assert (law in old.laws_violated()) == bool(names & laws), law


def assert_antitone_exact(d):
    """The byte test of neg-antitone holds just when the pair walk finds
    no violation, and validate_ra reports the same with the byte test
    forced to fail, so that the walk alone decides."""
    R = FiniteRA.from_dict(d)
    meet, neg = R.meet, R.neg
    walked = all((meet[a][b] == a) == (meet[neg[b]][neg[a]] == neg[b])
                 for a in R.elements for b in R.elements)
    assert relevant._neg_antitone(R) == walked
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relevant, "_neg_antitone", lambda A: False)
        slow = validate_ra(FiniteRA.from_dict(d))
    assert validate_ra(FiniteRA.from_dict(d)) == slow
    return walked


@settings(max_examples=300, deadline=None, derandomize=True)
@given(d=st.one_of(symmetric_corrupted_tables(), corrupted_tables()))
def test_neg_antitone_bytes_match_walk(d):
    assert_antitone_exact(d)


def test_neg_antitone_bytes_match_walk_on_catalogs():
    # every reduct of the dmm n <= 6 and irl n <= 5 catalogs, and four
    # seeded symmetric corruptions of each, which swap values of neg
    rnd = random.Random(80)
    seen = set()
    for klass, top in (("dmm", 6), ("irl", 5)):
        for n in range(1, top + 1):
            for A in enumerate_algebras(SearchSpec(n, klass)).algebras:
                assert assert_antitone_exact(e_free_reduct(A).to_dict())
                for _ in range(4):
                    seen.add(assert_antitone_exact(
                        symmetric_corruption(A.to_dict(), rnd)))
    assert seen == {True, False}


def test_dfg_ra_examples(reducts):
    S3 = reducts["S3"]                 # indices 0,1,2 for -1,0,1
    assert dfg_ra(S3, 2).sorted_members() == [1, 2]
    assert dfg_ra(S3, 0).sorted_members() == [0, 1, 2]
    two = reducts["2"]
    assert dfg_ra(two, two.top).sorted_members() == [1]


def test_dfg_ra_matches_fixpoint_oracle(reducts, dmm_upto):
    # every element of every dmm n <= 8 reduct; generator sets to n <= 6
    small = [*reducts.values(),
             *(e_free_reduct(A) for A in dmm_upto(6).algebras)]
    larger = [e_free_reduct(A) for n in (7, 8)
              for A in enumerate_algebras(SearchSpec(n)).algebras]
    for R in [*small, *larger]:
        for a in R.elements:
            assert dfg_ra(R, a).members == dfg_oracle(R, {a}).members
    for R in small:
        gens = [(), *combinations(R.elements, 1),
                *combinations(R.elements, 2), tuple(R.elements)]
        for X in gens:
            assert dfg_ra_set(R, X).members == dfg_oracle(R, X).members, \
                (R.name, X)


def round_by_round_oracle(A: FiniteRA, X) -> frozenset[int]:
    """Reference: the least fixpoint of X plus all |a| under meet and
    upward closure, every pair recomputed each round, so it shares no
    bookkeeping with dfg_oracle's worklist."""
    cur = set(X) | {A.abs_value(a) for a in A.elements}
    while True:
        new = set(cur)
        for a in cur:
            for b in A.elements:
                if A.leq(a, b):
                    new.add(b)
            for b in cur:
                new.add(A.meet[a][b])
        if new == cur:
            return frozenset(cur)
        cur = new


def test_dfg_oracle_and_dfg_ra_set_match_round_by_round(dmm_upto):
    irl = [A for n in range(1, 6)
           for A in enumerate_algebras(SearchSpec.for_class("irl", n)).algebras]
    reducts = [e_free_reduct(A) for A in [*dmm_upto(6).algebras, *irl]]
    # dfg_ra_set is [t /\ /\X) on every table; that is the least filter
    # on every RA, and here on every table but the non-commutative meet of
    # FAILING_RAS[1], where [t /\ 1) is empty
    for R in [*reducts, *FAILING_RAS]:
        for X in [(), *combinations(R.elements, 1),
                  *combinations(R.elements, 2)]:
            want = round_by_round_oracle(R, X)
            assert dfg_oracle(R, X).members == want, (R.name, X)
            m = reduce(lambda x, y: R.meet[x][y], X, R.t)
            got = dfg_ra_set(R, X).members
            assert got == _up_sets(R, [m])[0], (R.name, X)
            assert got == want or R is FAILING_RAS[1], (R.name, X)


@st.composite
def junk_tables(draw):
    """The table object of any four tables on at most 4 elements."""
    n = draw(st.integers(1, 4))
    row = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    tab = st.lists(row, min_size=n, max_size=n)
    return {"size": n, "meet": draw(tab), "join": draw(tab),
            "fusion": draw(tab), "neg": draw(row)}


@settings(max_examples=400, deadline=None, derandomize=True)
@given(d=st.one_of(corrupted_tables(), junk_tables()))
def test_ra_checks_match_references_off_lattices(d):
    # one entry of a small IRL set anywhere, or any tables at all, so meet
    # may be non-commutative and no lattice: the worklist meets both ways
    # and the masks read meet as leq does, so both match the references
    R = FiniteRA.from_dict(d)
    for X in [(), *combinations(R.elements, 1),
              *combinations(R.elements, 2)]:
        assert dfg_oracle(R, X).members == round_by_round_oracle(R, X), X
    assert meet_property_check(R) == oracle_meet_property_check(R)


def test_e_free_reduct_shares_tables_and_reports(dmm_upto):
    irl = enumerate_algebras(SearchSpec.for_class("irl", 4)).algebras
    for A in [*dmm_upto(5).algebras, *irl]:
        R = e_free_reduct(A)
        for field in ("meet", "join", "fusion", "neg"):
            assert getattr(R, field) is getattr(A, field), field
        checked = FiniteRA.from_tables(A.size, [list(r) for r in A.meet],
                                       [list(r) for r in A.join],
                                       [list(r) for r in A.fusion],
                                       list(A.neg))
        assert validate_ra(R) == validate_ra(checked), A.name


def _checked_reduct(A) -> FiniteRA:
    """The reduct of A made afresh from its tables, with no verdict."""
    return FiniteRA.from_tables(A.size, *(list(map(list, t)) for t in (
        A.meet, A.join, A.fusion)), list(A.neg))


def test_reduct_is_handed_a_passed_irl_check_only(dmm_catalogs):
    # a reduct skips the shared laws only when its algebra's IRL check ran
    # and passed; a corrupted-fusion algebra's reduct still reports every
    # witness, and every report is that of a reduct with no verdict
    rnd = random.Random(35)
    for A in dmm_catalogs[6].algebras:
        B = FiniteIRL(A.size, A.meet, A.join, A.fusion, A.neg, A.e)
        assert not e_free_reduct(B)._shared_passed  # not checked yet
        assert validate_irl(B).ok
        R = e_free_reduct(B)
        assert R._shared_passed
        assert validate_ra(R) == validate_ra(_checked_reduct(B))
        n = A.size
        fus = [list(r) for r in A.fusion]
        a, b = rnd.randrange(1, n), rnd.randrange(1, n)
        fus[a][b] = fus[b][a] = (fus[a][b] + 1) % n
        C = FiniteIRL(n, A.meet, A.join, tuple(map(tuple, fus)), A.neg, A.e)
        if validate_irl(C).ok:
            continue
        R = e_free_reduct(C)
        assert not R._shared_passed
        report = validate_ra(R)
        assert report == validate_ra(_checked_reduct(C))
        assert not report.ok


def test_meet_property(reducts):
    for nm, R in reducts.items():
        assert meet_property_check(R), nm


def oracle_meet_property_check(A: FiniteRA) -> bool:
    """Reference: three dfg_ra calls per pair of elements."""
    for a in A.elements:
        for b in A.elements:
            m = A.meet[A.abs_value(a)][A.abs_value(b)]
            if not A.leq(A.abs_value(m), m):
                return False
            lhs = dfg_ra(A, a).members & dfg_ra(A, b).members
            if lhs != dfg_ra(A, A.join[a][b]).members:
                return False
    return True


# Both fail the meet property.  The 3-element chain with a -> 2 - a fails
# only the ||a| /\ |b|| clause (at a = b = 1).  The 2-element junk table
# has a meet that is not commutative, and fails only when DFg{a} is taken
# from meet[t][a], as dfg_ra_set takes it, not from meet[a][t].
FAILING_RAS = [
    FiniteRA.from_tables(3, [[0, 0, 0], [0, 1, 1], [0, 1, 2]],
                         [[0, 1, 2], [1, 1, 2], [2, 2, 2]],
                         [[0, 0, 0], [0, 2, 0], [0, 0, 2]], [2, 1, 0]),
    FiniteRA.from_tables(2, [[0, 1], [0, 0]], [[0, 0], [0, 0]],
                         [[0, 0], [0, 0]], [0, 1]),
]


def test_meet_property_matches_oracle(dmm_upto):
    irl = [A for n in range(1, 6)
           for A in enumerate_algebras(SearchSpec.for_class("irl", n)).algebras]
    reducts = [e_free_reduct(A) for A in [*dmm_upto(6).algebras, *irl]]
    for R in reducts:
        assert meet_property_check(R) == oracle_meet_property_check(R), R.name
    # the irl entries of size 5 fail it, so both answers are compared
    assert not all(meet_property_check(R) for R in reducts)
    for R in FAILING_RAS:
        assert not oracle_meet_property_check(R)
        assert not meet_property_check(R)


def test_reconstruct_neutral_recovers_e(named, reducts):
    for nm, R in reducts.items():
        assert reconstruct_neutral(R) == named[nm].e, nm


def test_to_irl_roundtrip(named, reducts):
    for nm, R in reducts.items():
        A = FiniteIRL.from_tables(R.size, R.meet, R.join, R.fusion, R.neg,
                                  reconstruct_neutral(R))
        B = named[nm]
        assert (A.size, A.meet, A.join, A.fusion, A.neg, A.e) == \
            (B.size, B.meet, B.join, B.fusion, B.neg, B.e), nm


def test_contains_two_reduct(reducts):
    assert contains_two_reduct(reducts["2"]) == (0, 1)
    assert contains_two_reduct(reducts["C4"]) == (0, 3)
    assert contains_two_reduct(reducts["D4"]) == (0, 3)
    assert contains_two_reduct(reducts["S5"]) == (0, 4)
    # the odd chain still has one: {-1, 1}
    assert contains_two_reduct(reducts["S3"]) == (0, 2)


def test_contains_two_reduct_trivial():
    T = FiniteRA.from_tables(1, [[0]], [[0]], [[0]], [0])
    with pytest.raises(TrivialAlgebra):
        contains_two_reduct(T)


def test_every_nontrivial_reduct_has_two(dmm_upto):
    for A in dmm_upto(6).algebras:
        if A.size > 1:
            assert contains_two_reduct(e_free_reduct(A)) is not None


def test_ra_classify(reducts):
    for nm in ("2", "S3", "C4", "D4"):
        c = ra_classify(reducts[nm])
        assert c.simple and c.si and c.fsi and not c.trivial
    c5 = ra_classify(reducts["S5"])
    assert c5.si and not c5.simple
    assert c5.filter_count == 3


def _ra_congruences(R):
    """Every partition of R's carrier that meet, join, fusion and neg
    respect, as a block array numbered by least member (a restricted
    growth string)."""
    def partitions(blocks):
        if len(blocks) == R.size:
            yield tuple(blocks)
            return
        for b in range(max(blocks, default=-1) + 2):
            yield from partitions(blocks + [b])

    return {blk for blk in partitions([])
            if all(blk[R.neg[a]] == blk[R.neg[b]]
                   and all(blk[t[a][c]] == blk[t[b][c]]
                           for t in (R.meet, R.join, R.fusion)
                           for c in R.elements)
                   for a in R.elements for b in R.elements
                   if blk[a] == blk[b])}


def test_ra_congruences_match_pointed(named, reducts, dmm_upto):
    pairs = [(named[nm], reducts[nm])
             for nm in ("2", "S3", "C4", "D4", "S4", "S5")]
    pairs += [(A, e_free_reduct(A)) for A in dmm_upto(5).algebras]
    for A, R in pairs:
        cong = _ra_congruences(R)
        assert {c.blocks for c in congruence_lattice(A)} == cong
        # one deductive filter per congruence
        assert len(ra_deductive_filters(R)) == len(cong)


def test_filter_counts(reducts):
    assert len(ra_deductive_filters(reducts["C4"])) == 2
    assert len(ra_deductive_filters(reducts["S5"])) == 3


def test_rigorous_compactness_on_fsi(dmm_upto):
    for A in dmm_upto(6).algebras:
        if A.size > 1 and classify(A).fsi:
            assert is_rigorously_compact(e_free_reduct(A)), A.name


def test_ra_without_extrema_raises_not_an_irl():
    # well-shaped tables whose meet orders 0 and 1 as an antichain
    R = FiniteRA.from_tables(2, [[0, 1], [0, 1]], [[0, 0], [0, 0]],
                             [[0, 0], [0, 0]], [0, 1])
    with pytest.raises(NotAnIRL, match=r"^no least element \(meet table "
                                        r"is not a lattice\)$"):
        R.bottom
    with pytest.raises(NotAnIRL, match=r"^no greatest element \(meet table "
                                        r"is not a lattice\)$"):
        R.top


def test_ra_json_format(reducts):
    d = reducts["C4"].to_dict()
    assert d["signature"] == "RA"
    assert "e" not in d
    back = FiniteRA.from_dict(d)
    assert back.fusion == reducts["C4"].fusion
