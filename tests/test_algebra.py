import json
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmm import algebra
from dmm.algebra import (FiniteIRL, LawReport, MalformedTable, NotAnIRL,
                         ValidationReport, Violation, _check_shared,
                         _Collector, check_derived_laws, is_distributive,
                         predicates, square_increasing_witness, validate_dmm,
                         validate_irl)
from dmm.constructions import e_free_reduct, make_named
from dmm.enumeration import Catalog, SearchSpec, _lattices, enumerate_algebras
from dmm.relevant import FiniteRA, validate_ra
from conftest import (corrupted_tables, symmetric_corrupted_tables,
                      symmetric_corruption)
from test_enumeration import M3, N5


def chain_meet(n):
    return [[min(a, b) for b in range(n)] for a in range(n)]


def chain_join(n):
    return [[max(a, b) for b in range(n)] for a in range(n)]


def lukasiewicz4():
    """4-element MV-chain: an IRL that is not square-increasing."""
    n = 4
    fus = [[max(a + b - 3, 0) for b in range(n)] for a in range(n)]
    return FiniteIRL.from_tables(n, chain_meet(n), chain_join(n), fus,
                                 [3 - a for a in range(n)], 3, name="L4")


def test_malformed_tables_rejected():
    with pytest.raises(MalformedTable):
        FiniteIRL.from_tables(2, [[0, 0], [0, 5]], chain_join(2),
                              chain_meet(2), [1, 0], 1)
    with pytest.raises(MalformedTable):
        FiniteIRL.from_tables(2, [[0, 0]], chain_join(2), chain_meet(2),
                              [1, 0], 1)
    with pytest.raises(MalformedTable):
        FiniteIRL.from_tables(2, chain_meet(2), chain_join(2),
                              chain_meet(2), [1, 0], 7)


@pytest.mark.parametrize("bad", [3.9, True, "3", None])
@pytest.mark.parametrize("where", ["size", "meet", "fusion", "neg", "e"])
def test_from_dict_accepts_only_int_entries(bad, where):
    # entries are never coerced: 3.9 is not read as 3, nor true as 1
    d = make_named("C4").to_dict()
    if where in ("meet", "fusion"):
        d[where][1][2] = bad
    elif where == "neg":
        d["neg"][0] = bad
    else:
        d[where] = bad
    with pytest.raises(MalformedTable):
        FiniteIRL.from_dict(d)
    if where != "e":
        with pytest.raises(MalformedTable):
            FiniteRA.from_dict(d)
    C4 = make_named("C4")
    cat = json.loads(Catalog(SearchSpec(4), [C4], True).to_json())
    cat["algebras"] = [d]
    with pytest.raises(MalformedTable):
        Catalog.from_json(json.dumps(cat))


@pytest.mark.parametrize("edit,message", [
    (dict(meet=[[0, 0], [0, 7]], neg=[1]), "meet entry 7 out of range"),
    (dict(join=[[0, 1]], fusion=[[0, -1], [0, 1]]), "join table is not 2x2"),
    (dict(fusion=[[0, 0], [-1, 2]]), "fusion entry -1 out of range"),
    (dict(neg=[1, 2]), "neg table malformed"),
    (dict(neg=[1, 0, 0]), "neg table malformed"),
    (dict(size=0), "size must be >= 1, got 0"),
])
def test_malformed_table_names_the_first_defect(edit, message):
    # the range and shape checks run in a few set operations; the message
    # still names the first defect in the order meet, join, fusion, neg
    d = {**make_named("2").to_dict(), **edit}
    with pytest.raises(MalformedTable) as exc:
        FiniteIRL.from_dict(d)
    assert str(exc.value) == message


def test_from_dict_rejects_bad_shapes():
    C4 = make_named("C4").to_dict()
    no_e = {k: v for k, v in C4.items() if k != "e"}
    for d in (None, [1, 2], "C4", {"size": 4}, no_e, {**C4, "name": 3},
              {**C4, "meet": "abcd"}, {**C4, "neg": 5},
              {**C4, "join": [[0, 1, 2, 3]] * 3 + [5]}):
        with pytest.raises(MalformedTable):
            FiniteIRL.from_dict(d)


def test_trivial_algebra_passes_everything():
    T = FiniteIRL.from_tables(1, [[0]], [[0]], [[0]], [0], 0)
    assert validate_irl(T).ok
    assert validate_dmm(T).ok
    assert check_derived_laws(T).ok


def test_validate_irl_named(named):
    for nm in ("2", "S3", "C4", "D4"):
        assert validate_irl(named[nm]).ok


def oracle_check_irl(A: FiniteIRL) -> ValidationReport:
    """Reference: the IRL axioms in the loops validate_irl ran before it
    shared them with validate_ra; same law names, witnesses and order."""
    A.check_well_formed()
    n = A.size
    meet, join, fus, neg, e = A.meet, A.join, A.fusion, A.neg, A.e
    col = _Collector()

    for a in range(n):
        if meet[a][a] != a:
            col.add("meet-idempotent", (a,))
        if join[a][a] != a:
            col.add("join-idempotent", (a,))
        if neg[neg[a]] != a:
            col.add("involution-period-2", (a,))
        if fus[e][a] != a or fus[a][e] != a:
            col.add("e-neutral", (a,))
        for b in range(n):
            if meet[a][b] != meet[b][a]:
                col.add("meet-commutative", (a, b))
            if join[a][b] != join[b][a]:
                col.add("join-commutative", (a, b))
            if fus[a][b] != fus[b][a]:
                col.add("fusion-commutative", (a, b))
            if meet[a][join[a][b]] != a:
                col.add("absorption-meet-join", (a, b))
            if join[a][meet[a][b]] != a:
                col.add("absorption-join-meet", (a, b))
            # join must agree with the meet-derived order
            if (join[a][b] == b) != (meet[a][b] == a):
                col.add("order-agreement", (a, b))
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if meet[meet[a][b]][c] != meet[a][meet[b][c]]:
                    col.add("meet-associative", (a, b, c))
                if join[join[a][b]][c] != join[a][join[b][c]]:
                    col.add("join-associative", (a, b, c))
                if fus[fus[a][b]][c] != fus[a][fus[b][c]]:
                    col.add("fusion-associative", (a, b, c))

    def leq(a, b):
        return meet[a][b] == a

    # involution-fusion law: x*y <= z  iff  ~z*y <= ~x
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if leq(fus[x][y], z) != leq(fus[neg[z]][y], neg[x]):
                    col.add("involution-fusion", (x, y, z))

    if not col.violations:
        # Sanity: with the axioms in place, a -> b must be max{c : a*c <= b}.
        for a in range(n):
            for b in range(n):
                r = A.residual(a, b)
                sols = [c for c in range(n) if leq(fus[a][c], b)]
                if r not in sols or any(not leq(c, r) for c in sols):
                    col.add("residual-is-max", (a, b))
    return col.report()


@settings(max_examples=600, deadline=None, derandomize=True)
@given(d=corrupted_tables())
def test_validate_irl_matches_oracle(d):
    A = FiniteIRL.from_dict(d)
    assert validate_irl(A) == oracle_check_irl(A)


@settings(max_examples=600, deadline=None, derandomize=True)
@given(d=symmetric_corrupted_tables())
def test_validate_irl_matches_oracle_on_symmetric_corruptions(d):
    A = FiniteIRL.from_dict(d)
    assert validate_irl(A) == oracle_check_irl(A)


def three_reports(d):
    """validate_irl, validate_dmm (or its NotAnIRL) and validate_ra of the
    e-free reduct, on fresh instances, as the reports are memoized."""
    A = FiniteIRL.from_dict(d)
    try:
        dmm = validate_dmm(A)
    except NotAnIRL as exc:
        dmm = f"NotAnIRL: {exc}"
    return validate_irl(A), dmm, validate_ra(e_free_reduct(A))


def assert_byte_tests_exact(d) -> set[str]:
    """The byte-string tests change no report: the reports are the same
    when both tests are forced to fail, so that the element walks alone
    decide.  And the shared-law test is exact: it holds just when the walk
    finds no violation.  Returns the laws the walk finds violated."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(algebra, "_shared_laws_hold", lambda A, fb: False)
        mp.setattr(algebra, "_residuated", lambda A, fb: False)
        walked = three_reports(d)
        col = _Collector()
        for _ in _check_shared(FiniteIRL.from_dict(d), col, None):
            pass
    assert three_reports(d) == walked
    A = FiniteIRL.from_dict(d)
    assert algebra._shared_laws_hold(A, algebra._fusion_bytes(A)) == (
        not col.violations)
    return {v.law for v in col.violations}


@settings(max_examples=600, deadline=None, derandomize=True)
@given(d=st.one_of(symmetric_corrupted_tables(), corrupted_tables()))
def test_byte_tests_match_walk(d):
    assert_byte_tests_exact(d)


def two_chain_with(**tables):
    d = make_named("2").to_dict()     # 0 < 1 = e, fusion = meet
    return {**d, **tables}


SQUARE = {"size": 4, "e": 1, "neg": [3, 1, 2, 0],      # 0 < 1, 2 < 3
          "meet": [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]],
          "join": [[0, 1, 2, 3], [1, 1, 3, 3], [2, 3, 2, 3], [3, 3, 3, 3]]}


# M3 (0 < 1, 2, 3 < 4) with 1 \/ 1 = 4; fusion and neg from an IRL on M3
M3_BAD_JOIN = {
    "size": 5, "e": 1, "neg": [4, 1, 3, 2, 0],
    "meet": [[0, 0, 0, 0, 0], [0, 1, 0, 0, 1], [0, 0, 2, 0, 2],
             [0, 0, 0, 3, 3], [0, 1, 2, 3, 4]],
    "join": [[0, 1, 2, 3, 4], [1, 4, 4, 4, 4], [2, 4, 2, 4, 4],
             [3, 4, 4, 3, 4], [4, 4, 4, 4, 4]],
    "fusion": [[0, 0, 0, 0, 0], [0, 4, 2, 3, 4], [0, 2, 2, 0, 2],
               [0, 3, 0, 3, 3], [0, 4, 2, 3, 4]]}


@pytest.mark.parametrize("laws,d", [
    ({"involution-period-2"},
     two_chain_with(neg=[1, 1], fusion=[[0, 0], [0, 0]])),
    ({"fusion-commutative"}, two_chain_with(fusion=[[0, 0], [1, 1]])),
    ({"involution-fusion"}, two_chain_with(neg=[0, 1])),
    ({"join-commutative", "order-agreement"},
     two_chain_with(join=[[0, 0], [1, 1]], fusion=[[0, 0], [0, 0]])),
    ({"absorption-meet-join", "meet-idempotent", "order-agreement"},
     two_chain_with(meet=[[0, 0], [0, 0]], fusion=[[0, 0], [0, 0]])),
    ({"absorption-join-meet", "join-idempotent", "order-agreement"},
     M3_BAD_JOIN),
    ({"join-commutative"}, {**SQUARE, "neg": [3, 2, 1, 0],
                            "join": [[0, 1, 2, 3], [1, 1, 1, 3],
                                     [2, 2, 2, 3], [3, 3, 3, 3]],
                            "fusion": [[0, 0, 0, 0], [0, 1, 2, 3],
                                       [0, 2, 3, 3], [0, 3, 3, 3]]}),
    ({"fusion-associative"}, {**SQUARE, "fusion": [[0, 0, 0, 0], [0, 3, 2, 3],
                                                   [0, 2, 1, 3],
                                                   [0, 3, 3, 3]]}),
])
def test_byte_test_catches_each_stage(laws, d):
    # most corruptions break several laws, so that one stage of the byte
    # test stands in for another; in each of these the laws that fail are
    # seen by one stage only
    assert assert_byte_tests_exact(d) == laws


@pytest.mark.parametrize("klass,top", [("dmm", 6), ("irl", 5)])
def test_byte_tests_match_walk_on_catalogs(klass, top):
    # every entry, from n = 1 up, and four seeded symmetric corruptions of
    # each
    rnd = random.Random(top)
    for n in range(1, top + 1):
        for A in enumerate_algebras(SearchSpec.for_class(klass, n)).algebras:
            assert_byte_tests_exact(A.to_dict())
            for _ in range(4):
                assert_byte_tests_exact(symmetric_corruption(A.to_dict(), rnd))


def test_bad_two_chain_fails_involution_fusion_law():
    # e at the bottom, f = top, f*f = f: the contraposition law breaks at
    # the all-f triple
    A = FiniteIRL.from_tables(2, chain_meet(2), chain_join(2),
                              [[0, 1], [1, 1]], [1, 0], 0)
    rep = validate_irl(A)
    assert not rep.ok
    assert Violation("involution-fusion", (1, 1, 1)) in rep.violations


def test_lukasiewicz_is_irl_but_not_square_increasing():
    A = lukasiewicz4()
    assert validate_irl(A).ok
    rep = validate_dmm(A)
    assert not rep.ok
    [v] = [v for v in rep.violations if v.law == "square-increasing"]
    a = v.witness[0]
    assert A.lt(A.fusion[a][a], a)


def test_order_is_derived_from_meet(named):
    C4 = named["C4"]
    assert [a for a in C4.elements if C4.leq(a, C4.e)] == [0, 1]
    assert C4.covers() == [(0, 1), (1, 2), (2, 3)]
    assert C4.bottom == 0 and C4.top == 3


def test_residual_matches_bruteforce_max(named):
    for nm in ("C4", "D4", "S5"):
        A = named[nm]
        for a in A.elements:
            for b in A.elements:
                sols = [c for c in A.elements if A.leq(A.fusion[a][c], b)]
                r = A.residual(a, b)
                assert r in sols and all(A.leq(c, r) for c in sols)


def test_residual_not_stored_in_files(named):
    d = named["C4"].to_dict()
    assert set(d) == {"name", "size", "meet", "join", "fusion", "neg", "e"}


def test_predicates_c4(named):
    p = predicates(named["C4"])
    assert p.anti_idempotent and p.rigorously_compact and p.semilinear
    assert not (p.odd or p.idempotent or p.integral)
    assert p.extrema == (0, 3)


def test_predicates_s3_and_2(named):
    p3 = predicates(named["S3"])
    assert p3.odd and p3.idempotent and p3.semilinear
    assert not p3.anti_idempotent  # top is not below f * f = e
    p2 = predicates(named["2"])
    assert p2.integral and p2.idempotent and not p2.odd


def test_d4_not_semilinear(named):
    assert not predicates(named["D4"]).semilinear


def test_derived_laws_on_named(named):
    for A in named.values():
        rep = check_derived_laws(A)
        assert rep.ok, (A.name, rep.failures())


def test_derived_laws_skip_sq_laws_on_mv_chain():
    rep = check_derived_laws(lukasiewicz4())
    assert rep.ok
    assert not any(k.startswith("law-13") for k in rep.results)


def oracle_distributivity_witness(A):
    for a, b, c in product(A.elements, repeat=3):
        if A.meet[a][A.join[b][c]] != A.join[A.meet[a][b]][A.meet[a][c]]:
            return (a, b, c)
    return None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(d=corrupted_tables())
def test_distributivity_witness_matches_triple_loop(d):
    A = FiniteIRL.from_dict(d)
    assert is_distributive(A) == oracle_distributivity_witness(A)


def test_distributivity_witness():
    # M3: bottom, three atoms, top -- modular, not distributive
    n = 5
    meet = [[0] * n for _ in range(n)]
    join = [[4] * n for _ in range(n)]
    for a in range(n):
        meet[a][a] = join[a][a] = a
        meet[4][a] = meet[a][4] = a
        join[0][a] = join[a][0] = a
    A = FiniteIRL.from_tables(n, meet, join, meet, list(range(n)), 4)
    assert is_distributive(A) is not None


def lattice_corruptions(meet, join, rnd, k):
    """k copies of (meet, join) as lists, each with one or two entries of
    meet or join set to any element, at (a, b) alone or at (b, a) too."""
    n = len(meet)
    for _ in range(k):
        tabs = {"meet": [list(r) for r in meet],
                "join": [list(r) for r in join]}
        for _ in range(rnd.randint(1, 2)):
            t = tabs[rnd.choice(["meet", "join"])]
            a, b, v = rnd.randrange(n), rnd.randrange(n), rnd.randrange(n)
            t[a][b] = v
            if rnd.random() < 0.5:
                t[b][a] = v
        yield tabs["meet"], tabs["join"]


def test_distributive_bytes_match_walk():
    # the byte test of the lattice stage against the triple loop, and the
    # witness is_distributive walks to when that test fails: every lattice
    # the lattice layer yields up to 8 elements (M3 and N5 among them), M3
    # and N5 as written, and three seeded corruptions of meet and join of
    # each
    rnd = random.Random(448)
    lattices = [M3, N5, *(t[:2] for n in range(1, 9) for t in _lattices(n))]
    assert M3 in lattices[2:] and N5 in lattices[2:]
    seen = set()
    for meet, join in lattices:
        n = len(meet)
        for m, j in [(meet, join), *lattice_corruptions(meet, join, rnd, 3)]:
            A = FiniteIRL.from_tables(n, m, j, m, list(range(n)), 0)
            want = oracle_distributivity_witness(A)
            assert algebra._Lattice(n, A.meet, A.join).distributive == (
                want is None)
            assert is_distributive(A) == want
            seen.add(want is None)
    assert seen == {True, False}
    for meet, join in (M3, N5):
        A = FiniteIRL.from_tables(5, meet, join, meet, list(range(5)), 0)
        assert is_distributive(A) is not None


def all_reports(A):
    """validate_irl, validate_dmm (or its NotAnIRL), validate_ra of the
    e-free reduct and is_distributive, on the instance A."""
    try:
        dmm = validate_dmm(A)
    except NotAnIRL as exc:
        dmm = f"NotAnIRL: {exc}"
    return (validate_irl(A), dmm, validate_ra(e_free_reduct(A)),
            is_distributive(A))


def fresh(A):
    """A copy of A on new table objects, with no report computed."""
    return FiniteIRL.from_dict(A.to_dict())


def test_memo_reuses_lattice_for_corrupted_fusion():
    # tables on a validated algebra's own meet and join objects, with
    # fusion, neg or e corrupted and handed the algebra's lattice record,
    # read its lattice stage and get the reports of fresh copies
    rnd = random.Random(22)
    failed = 0
    for A in enumerate_algebras(SearchSpec(8)).algebras[::3]:
        n = A.size
        for _ in range(3):
            d = A.to_dict()
            k = rnd.choice(["fusion", "neg", "e"])
            a, b, v = rnd.randrange(n), rnd.randrange(n), rnd.randrange(n)
            if k == "fusion":
                d["fusion"][a][b] = d["fusion"][b][a] = v
            elif k == "neg":
                d["neg"][a], d["neg"][b] = d["neg"][b], d["neg"][a]
            else:
                d["e"] = v
            B = FiniteIRL(n, A.meet, A.join,
                          tuple(map(tuple, d["fusion"])), tuple(d["neg"]),
                          d["e"])
            B.lattice = A.lattice
            shared = all_reports(B)
            assert B.lattice is A.lattice
            # the reduct is handed the record too, so validate_ra reads the
            # same stage
            R = e_free_reduct(B)
            assert R.meet is A.meet and R.join is A.join
            assert R.lattice is B.lattice
            assert shared == all_reports(fresh(B))
            failed += not shared[0].ok
    assert failed > 50


def test_memo_misses_new_join_tuples():
    # meet shared, join a new tuple with one wrong entry: every changed
    # join entry breaks a lattice law, as meet fixes the order
    rnd = random.Random(5)
    for A in enumerate_algebras(SearchSpec(6)).algebras:
        n = A.size
        join = [list(r) for r in A.join]
        a, b = rnd.randrange(n), rnd.randrange(n)
        join[a][b] = join[b][a] = (join[a][b] + 1) % n
        B = FiniteIRL(n, A.meet, tuple(map(tuple, join)), A.fusion, A.neg,
                      A.e)
        assert not validate_irl(B).ok
        assert all_reports(B) == all_reports(fresh(B))


def test_memo_misses_another_size(named):
    # A's meet and join under a smaller size are malformed
    A = named["C4"]
    n = A.size - 1
    B = FiniteIRL(n, A.meet, A.join, tuple(map(tuple, chain_meet(n))),
                  tuple(range(n)), 0)
    with pytest.raises(MalformedTable, match=f"meet table is not {n}x{n}"):
        B.check_well_formed()


@pytest.mark.parametrize("rows", [list, tuple])
def test_list_tables_mutated_in_place_get_fresh_verdicts(named, rows):
    # each instance reads its own tables, so an edit to list rows, or to a
    # list of rows, between two instances is always seen
    for A in named.values():
        n = A.size
        meet = rows(list(r) for r in A.meet)
        join = rows(list(r) for r in A.join)
        first = FiniteIRL(n, meet, join, A.fusion, A.neg, A.e)
        assert all_reports(first) == all_reports(fresh(A))
        if n < 3:
            continue
        first = FiniteIRL(n, meet, join, A.fusion, A.neg, A.e)
        assert validate_dmm(first).ok
        join[1][2] = join[2][1] = (join[1][2] + 1) % n
        meet[0][n - 1] = meet[n - 1][0] = n - 1
        again = FiniteIRL(n, meet, join, A.fusion, A.neg, A.e)
        assert not validate_irl(again).ok
        assert all_reports(again) == all_reports(fresh(again))


def test_fusion_bytes_made_once_per_class(monkeypatch, named):
    # the shared-law and residuation tests read one conversion of the
    # fusion table
    made = []
    real = algebra._byte_rows

    def counted(tab, pad):
        made.append(tab)
        return real(tab, pad)

    monkeypatch.setattr(algebra, "_byte_rows", counted)
    for A in named.values():
        B = fresh(A)
        assert validate_irl(B).ok
        assert sum(tab is B.fusion for tab in made) == 1, A.name


def _holds_bytes(v) -> bool:
    return isinstance(v, bytes) or (isinstance(v, (list, tuple))
                                    and any(map(_holds_bytes, v)))


def test_validated_algebras_keep_no_fusion_bytes():
    # catalog entries outlive their validation, and the padded byte rows
    # of their fusion tables would triple what a catalog holds; the same
    # for validated reducts
    for spec in (SearchSpec(8), SearchSpec(6, "irl")):
        for A in enumerate_algebras(spec).algebras:
            assert not any(map(_holds_bytes, vars(A).values())), A.name
            R = e_free_reduct(A)
            assert validate_ra(R).ok or spec.klass == "irl"
            assert not any(map(_holds_bytes, vars(R).values())), A.name


@pytest.mark.parametrize("rows", [list, tuple])
def test_list_fusion_mutated_in_place_gets_fresh_verdicts(named, rows):
    # each instance reads its own fusion table, so an edit to list rows
    # between two validations is always seen
    for A in named.values():
        n = A.size
        if n < 3:
            continue
        fus = rows(list(r) for r in A.fusion)
        first = FiniteIRL(n, A.meet, A.join, fus, A.neg, A.e)
        assert validate_irl(first).ok
        fus[1][2] = fus[2][1] = (fus[1][2] + 1) % n
        again = FiniteIRL(n, A.meet, A.join, fus, A.neg, A.e)
        assert not validate_irl(again).ok
        assert all_reports(again) == all_reports(fresh(again))


def test_shared_and_fresh_reports_agree_on_catalogs():
    # every dmm n <= 8 and irl n <= 6 entry, first on the enumerator's own
    # table objects, handed the lattice record that the entries of one
    # lattice share, then on fresh copies
    algs = [A for klass, top in (("dmm", 8), ("irl", 6))
            for n in range(1, top + 1)
            for A in enumerate_algebras(SearchSpec(n, klass)).algebras]

    def on_shared_record(A):
        B = FiniteIRL(A.size, A.meet, A.join, A.fusion, A.neg, A.e)
        B.lattice = A.lattice
        return B

    shared = [all_reports(on_shared_record(A)) for A in algs]
    assert shared == [all_reports(fresh(A)) for A in algs]


def test_json_roundtrip(named):
    for A in named.values():
        B = FiniteIRL.from_dict(json.loads(json.dumps(A.to_dict())))
        assert (B.size, B.meet, B.join, B.fusion, B.neg, B.e) == \
            (A.size, A.meet, A.join, A.fusion, A.neg, A.e)


def test_relabel_is_isomorphic_action(named):
    A = named["D4"]
    perm = [2, 0, 3, 1]
    B = A.relabel(perm)
    assert validate_dmm(B).ok
    assert B.e == perm[A.e]
    for a in A.elements:
        for b in A.elements:
            assert B.fusion[perm[a]][perm[b]] == perm[A.fusion[a][b]]


def test_validate_dmm_requires_irl():
    A = FiniteIRL.from_tables(2, chain_meet(2), chain_join(2),
                              [[0, 1], [1, 1]], [1, 0], 0)
    # the failing IRL report is memoized; the error is raised every time
    for _ in range(2):
        with pytest.raises(NotAnIRL):
            validate_dmm(A)


# ---- the derived-law battery against its hand-coded oracle ------------------


def fuse_power(A, a: int, k: int) -> int:
    v = A.e
    for _ in range(k):
        v = A.fusion[v][a]
    return v


def oracle_derived_laws(A: FiniteIRL) -> LawReport:
    """Reference: the derived-law battery as hand-coded loops, before
    check_derived_laws ran the law library through satisfies."""
    n = A.size
    meet, join, fus, neg, e = A.meet, A.join, A.fusion, A.neg, A.e
    res = A.residual_table
    leq = A.leq
    f = A.f
    out: dict[str, tuple[int, ...] | None] = {}

    def first(name, it):
        out[name] = next(it, None)

    rng = range(n)
    first("law-4a x*(x->y) <= y",
          ((x, y) for x in rng for y in rng if not leq(fus[x][res[x][y]], y)))
    first("law-4b x <= (x->y)->y",
          ((x, y) for x in rng for y in rng if not leq(x, res[res[x][y]][y])))
    first("law-5 (x*y)->z = y->(x->z) = x->(y->z)",
          ((x, y, z) for x in rng for y in rng for z in rng
           if not res[fus[x][y]][z] == res[y][res[x][z]] == res[x][res[y][z]]))
    first("law-6 (x->y)*(y->z) <= x->z",
          ((x, y, z) for x in rng for y in rng for z in rng
           if not leq(fus[res[x][y]][res[y][z]], res[x][z])))
    first("law-7 x*(y|z) = x*y | x*z",
          ((x, y, z) for x in rng for y in rng for z in rng
           if fus[x][join[y][z]] != join[fus[x][y]][fus[x][z]]))
    first("law-8 isotonicity",
          ((x, y, z) for x in rng for y in rng for z in rng
           if leq(x, y) and not (leq(fus[x][z], fus[y][z])
                                 and leq(res[z][x], res[z][y])
                                 and leq(res[y][z], res[x][z]))))
    first("law-9 x<=y iff e<=x->y",
          ((x, y) for x in rng for y in rng
           if leq(x, y) != leq(e, res[x][y])))
    first("law-10 x=y iff e<=x<->y",
          ((x, y) for x in rng for y in rng
           if (x == y) != leq(e, meet[res[x][y]][res[y][x]])))
    first("law-11 e<=x->x and e->x=x",
          ((x,) for x in rng if not (leq(e, res[x][x]) and res[e][x] == x)))
    first("law-12 e<=x iff x->x<=x",
          ((x,) for x in rng if leq(e, x) != leq(res[x][x], x)))

    # De Morgan duality for the involution
    first("de-morgan ~(x&y)=~x|~y",
          ((x, y) for x in rng for y in rng
           if neg[meet[x][y]] != join[neg[x]][neg[y]]
           or neg[join[x][y]] != meet[neg[x]][neg[y]]))

    # bounds behaviour (every finite lattice is bounded)
    bot, top = A.bottom, A.top
    first("bounds bot*x=bot, x->top=top, top^2=top, top->bot=bot",
          ((x,) for x in rng
           if not (fus[bot][x] == bot and res[x][top] == top
                   and fus[top][top] == top and res[top][bot] == bot)))

    first("3-conditions [e<=a=a^2] iff [a*~a=~a] iff [a=a->a]",
          ((a,) for a in rng
           if not ((leq(e, a) and fus[a][a] == a)
                   == (fus[a][neg[a]] == neg[a])
                   == (res[a][a] == a))))

    if square_increasing_witness(A) is None:
        first("law-13 x&y <= x*y",
              ((x, y) for x in rng for y in rng
               if not leq(meet[x][y], fus[x][y])))
        first("law-14 x,y<=e implies x*y=x&y",
              ((x, y) for x in rng for y in rng
               if leq(x, e) and leq(y, e) and fus[x][y] != meet[x][y]))
        first("law-15 e <= x|~x",
              ((x,) for x in rng if not leq(e, join[x][neg[x]])))
        first("cube f<=a implies a^3=a^2",
              ((a,) for a in rng
               if leq(f, a) and fuse_power(A, a, 3) != fuse_power(A, a, 2)))
        f2 = fus[f][f]
        idem_all = all(fus[a][a] == a for a in rng)
        triple = (f2 == f) == leq(f, e) == idem_all
        out["idempotence-triple [f^2=f] iff [f<=e] iff idempotent"] = (
            None if triple else (f,))
    return LawReport(out)


def _law_names(results) -> set[str]:
    """'law-4a x*(x->y) <= y' and 'law-4: x * (x -> y) <= y' name law-4."""
    return {k.split()[0].rstrip(":ab") for k in results}


def _corrupted(A, rng):
    """A with one fusion or neg entry, or e, set to a random element; the
    lattice tables are kept, so bottom and top exist."""
    n = A.size
    fus = [list(row) for row in A.fusion]
    neg, e = list(A.neg), A.e
    which = rng.randrange(3)
    if which == 0:
        fus[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
    elif which == 1:
        neg[rng.randrange(n)] = rng.randrange(n)
    else:
        e = rng.randrange(n)
    return FiniteIRL.from_tables(n, A.meet, A.join, fus, neg, e)


def test_derived_laws_match_hand_coded_oracle(dmm_upto, named):
    rng = random.Random(13)
    algebras = list(dmm_upto(6).algebras) + [
        named[nm] for nm in ("D4", "S5", "C4ext_1")]
    flagged = 0
    for A in algebras:
        for B in [A] + [_corrupted(A, rng) for _ in range(20)]:
            new, old = check_derived_laws(B), oracle_derived_laws(B)
            assert new.ok == old.ok, B.to_dict()
            assert (_law_names(new.failures())
                    == _law_names(old.failures())), B.to_dict()
            flagged += not old.ok
    assert flagged > len(algebras)  # most corruptions break some law


def test_derived_laws_report_satisfies_counterexamples(dmm_upto, named):
    # each statement's entry is the first counterexample satisfies finds,
    # as the values of its own sorted variables, in the library's order
    from dmm.terms import LAW_LIBRARY, law_statements, satisfies
    laws = [f"law-{i}" for i in range(4, 13)] + ["de-morgan", "3-conditions"]
    sq_laws = ["law-13", "law-14", "law-15", "cube", "idempotence-triple"]
    rng = random.Random(29)
    algebras = list(dmm_upto(6).algebras) + [
        named[nm] for nm in ("D4", "S5", "C4ext_1")]
    failed = 0
    for A in algebras:
        for B in [A] + [_corrupted(A, rng) for _ in range(20)]:
            want = {}
            for law in laws + (sq_laws if square_increasing_witness(B) is None
                               else []):
                for text, s in zip(LAW_LIBRARY[law], law_statements(law)):
                    r = satisfies(B, s)
                    want[f"{law}: {text}"] = (
                        None if r.holds else tuple(r.counterexample.values()))
            got = list(check_derived_laws(B).results.items())
            assert got[-1][0].startswith("bounds: ")
            assert got[:-1] == list(want.items()), B.to_dict()
            failed += sum(v is not None for v in want.values())
    assert failed > 3 * len(algebras)  # corruptions give counterexamples
