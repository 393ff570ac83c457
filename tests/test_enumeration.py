import hashlib
import inspect
import json
import sys
from itertools import permutations

import pytest

from dmm import __version__, algebra, constructions, enumeration, filters
from dmm.algebra import FiniteIRL, ValidationReport, validate_irl
from dmm.constructions import (NAMED_BASIC, canonical_form, direct_product,
                               is_isomorphic, make_named)
from dmm.enumeration import (AXIOM_SETS, Catalog, IncompleteCatalog,
                             SearchSpec, SizeTooLarge, axiomatization_check,
                             enumerate_algebras, relevant_harness,
                             theorem_harness)

# n <= 4 independently recounted by the pruning-free slow path, and every
# count certified by orbit counting (test_enumeration_oracles.py), before
# freezing
GOLDEN_DMM_COUNTS = {1: 1, 2: 1, 3: 1, 4: 4, 5: 3, 6: 18, 7: 15, 8: 92}
GOLDEN_IRL_COUNTS = {1: 1, 2: 1, 3: 2, 4: 9, 5: 21, 6: 100}

# the two five-element lattices that are not distributive, as (meet, join)
# tuples, naturally labelled: M3 is 0 < 1, 2, 3 < 4, and N5 is
# 0 < 1 < 3 < 4 with 0 < 2 < 4
M3 = (((0, 0, 0, 0, 0), (0, 1, 0, 0, 1), (0, 0, 2, 0, 2), (0, 0, 0, 3, 3),
       (0, 1, 2, 3, 4)),
      ((0, 1, 2, 3, 4), (1, 1, 4, 4, 4), (2, 4, 2, 4, 4), (3, 4, 4, 3, 4),
       (4, 4, 4, 4, 4)))
N5 = (((0, 0, 0, 0, 0), (0, 1, 0, 1, 1), (0, 0, 2, 0, 2), (0, 1, 0, 3, 3),
       (0, 1, 2, 3, 4)),
      ((0, 1, 2, 3, 4), (1, 1, 4, 3, 4), (2, 4, 2, 4, 4), (3, 3, 4, 3, 4),
       (4, 4, 4, 4, 4)))


def test_golden_counts_small(dmm_catalogs):
    for n in range(1, 7):
        cat = dmm_catalogs[n]
        assert cat.complete
        assert len(cat.algebras) == GOLDEN_DMM_COUNTS[n], n


# sha256 of the catalog re-sorted by the color-refinement canonical form
# (oracle_canonical_form) and renamed {klass}{n}-{i} (_canonically_sorted):
# the bytes `dmm enumerate` wrote while it sorted its output by that form,
# recorded before the lattice layer kept one lattice per isomorphism class.
# They show that sorting by the dedup key changed only the order of the
# entries.  The JSON holds tool_version, so a version bump changes every
# digest.
CATALOG_SHA256 = {
    ("dmm", 1):
        "490254bc19da1ffa2a538b6dcfdffc845b33d9783e3d0f4444b089ed05522a84",
    ("dmm", 2):
        "7a9413dcf2b0f2fd1caea6b2bc37e291cd84b8659acc5f2c75ce667f5679cae7",
    ("dmm", 3):
        "16e8e7c7468f635254e1f0ac7f96898bd6893bd2225fb425bf6f2f10ec7bd8db",
    ("dmm", 4):
        "453dc96e8fcacd09ce7db6e206b3e35b2e120e6ad4aa85fe4a32b4059cedcc2d",
    ("dmm", 5):
        "f191f5d15f1da6a56d34569106498fdb988e02b9857d95d8c3b1b40746c3f9da",
    ("dmm", 6):
        "6225e1d94ca6d5c4a1bad144e8d2dae4a6615fa871f56af4663b9a6397e5268d",
    ("dmm", 7):
        "5faf5fdb1f79c80d2657185bfaa2d5272110c246ced5c5675e5877243316415a",
    ("dmm", 8):
        "25d59ac9bc07d12136af8baafa9814fc1030e8233ee9963c4b72ef3a620dcba4",
    ("irl", 1):
        "9e7957afc14423e5be80b33fbcf2f25d2ff57ea631642bfbd15af662ef38b2a1",
    ("irl", 2):
        "ca34fccbcc69c3bef90559bfd63191d169de91eae17d6b079cfa40c9ae0739ca",
    ("irl", 3):
        "7738e6ce2540cea95d8b17f4dbe4da7e2975619cc930a5bc6587e753ff0e94f6",
    ("irl", 4):
        "001f00ecd10dbaf1d168be6fbbddde8c714981a73ab42cd04396e4e9a4c76c2c",
    ("irl", 5):
        "bb108522e153cfd8bfe9d32f8c502efe14312a85ee8a2d618add9777a6de7212",
    ("irl", 6):
        "32ca43c39a3b8664c491e3b4001948590d5ad679170c5d90c6958c5f11217725",
    # above the size ceiling, recorded before the lattice layer's three
    # relabelling searches became one; the orbit-counting certificate
    # agrees with their counts, 95 and 276
    ("dmm", 9):
        "5c479ba1381a04a16b4767aed347481d4a6efb5f344624d4874b3bdc6ab3c6f3",
    ("irl", 7):
        "f7c06eb5cbd0d4343d4cd2133628c936eab51c4b9ea55f899b76ed8515829ada",
    # recorded before distributive lattices were built from their posets of
    # join-irreducibles
    ("dmm", 10):
        "3461639aa83dd907d69179875ae4dec22740597ac0f635aa829f694026cdc781",
}


# sha256 of enumerate_algebras(SearchSpec.for_class(c, n)).to_json(), the
# bytes `dmm enumerate` writes, in the order of the enumerator's dedup key
ENUMERATED_SHA256 = {
    ("dmm", 1):
        "490254bc19da1ffa2a538b6dcfdffc845b33d9783e3d0f4444b089ed05522a84",
    ("dmm", 2):
        "7a9413dcf2b0f2fd1caea6b2bc37e291cd84b8659acc5f2c75ce667f5679cae7",
    ("dmm", 3):
        "16e8e7c7468f635254e1f0ac7f96898bd6893bd2225fb425bf6f2f10ec7bd8db",
    ("dmm", 4):
        "b07e231058d07f0a48361f93cca8c070c38abd5a5c7f402231018a4a9c240ce4",
    ("dmm", 5):
        "1d70dfed3f59b635092a9b346d3c0fd007c266222be3a6786fdb6c61c316b2db",
    ("dmm", 6):
        "7b63ccb0f15eead15daf5d6523541329c5c9a73138d33b72ae85391fa334432f",
    ("dmm", 7):
        "6e917af4fb1e6fb79bc029f2539954ee22b65ac747ffbd77c45f56ab1d2ac3ec",
    ("dmm", 8):
        "52f511a7d5af155d4dc96b330e7917479041e7a77bff1f9ea654b7617dd27714",
    ("irl", 1):
        "9e7957afc14423e5be80b33fbcf2f25d2ff57ea631642bfbd15af662ef38b2a1",
    ("irl", 2):
        "ca34fccbcc69c3bef90559bfd63191d169de91eae17d6b079cfa40c9ae0739ca",
    ("irl", 3):
        "6410f1524318b17b8848952b2b0a2ef7e4bdacb1018a50db3c724c0006435f27",
    ("irl", 4):
        "bd14c0250d7049c9e62bc237929b9989e4a7957f3af48df27034bc918d1fb560",
    ("irl", 5):
        "82815045def0ac230d30e3d146b4f5ff847408705ac5ed196c4faf6acd2244d3",
    ("irl", 6):
        "af9e41cedadb2af4154c47f99a530cf11ff6f6ca3f627f5c532210be312ff984",
    ("dmm", 9):
        "4c0ed7c89085921a66c9c97c309ae8b1c6d8200e4e7db3e808ddca4255357803",
    ("irl", 7):
        "f0709dfe7a3a2fcda07600dd3f49ecb0fa52afb18e560bd85f277b851d8ddfbe",
    ("dmm", 10):
        "0662cbcd3ad1e4386de03bbdcb0a0a791da6dc8b51f09958655821bb0bf2098a",
    # the orbit-counting certificate (orbit_certificate in
    # test_enumeration_oracles.py, run once with unsafe=True) agrees with
    # its 637 classes.  oracle_canonical_form does not return on most of
    # its entries, so it has no CATALOG_SHA256 digest; the library
    # canonical_form still checks its order (test_catalog_bytes_pinned).
    ("dmm", 11):
        "4f4bca5e61b098d87325f9f35f32233d1adeba6dc553b4a9156fe0b59bf1ec9c",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _canonically_sorted(cat: Catalog) -> Catalog:
    """cat's entries sorted by the color-refinement canonical form and
    renamed by position, the order enumerate_algebras gave before it sorted
    by its dedup key."""
    # imported here: test_enumeration_oracles imports this module
    from test_enumeration_oracles import oracle_canonical_form
    algs = sorted(cat.algebras, key=oracle_canonical_form)
    for i, A in enumerate(algs):
        A.name = f"{cat.spec.klass}{cat.spec.size}-{i}"
    return Catalog(cat.spec, algs, cat.complete)


def test_catalog_bytes_pinned():
    for klass, n in dict.fromkeys([*ENUMERATED_SHA256, *CATALOG_SHA256]):
        cat = enumerate_algebras(SearchSpec.for_class(klass, n), unsafe=True)
        # canonical_form is the dedup key: distinct per class, in catalog
        # order
        forms = [canonical_form(A).data for A in cat.algebras]
        assert forms == sorted(set(forms)), (klass, n)
        if (klass, n) in ENUMERATED_SHA256:
            assert _sha256(cat.to_json()) == ENUMERATED_SHA256[klass, n], \
                (klass, n)
        if (klass, n) in CATALOG_SHA256:
            assert (_sha256(_canonically_sorted(cat).to_json())
                    == CATALOG_SHA256[klass, n]), (klass, n)


def test_enumeration_never_calls_canonical_form(monkeypatch):
    def refuse(A):
        raise AssertionError("canonical_form called")

    for klass, n in (("dmm", 8), ("irl", 6)):
        spec = SearchSpec.for_class(klass, n)
        want = enumerate_algebras(spec).to_json()
        with monkeypatch.context() as mp:
            mp.setattr(enumeration, "canonical_form", refuse)
            mp.setattr(constructions, "canonical_form", refuse)
            assert enumerate_algebras(spec).to_json() == want, (klass, n)


def test_slow_recount_agrees(slow_counts):
    for n in range(1, 5):
        assert slow_counts[n] == GOLDEN_DMM_COUNTS[n], n


def _search_counters(monkeypatch, klass, n):
    """(involutions, (lattice, neg, e) triples, tables, pruned values) summed
    over what enumerate_algebras visits."""
    counts = [0, 0, 0, 0]
    involutions, fusion_tables = (enumeration._involutions,
                                  enumeration._fusion_tables)

    def counted_involutions(lat, n):
        for neg in involutions(lat, n):
            counts[0] += 1
            yield neg

    def counted_fusion_tables(n, lat, neg, e, square_increasing, stats):
        counts[1] += 1
        before = stats["pruned"]
        for fus in fusion_tables(n, lat, neg, e, square_increasing, stats):
            counts[2] += 1
            yield fus
        counts[3] += stats["pruned"] - before

    monkeypatch.setattr(enumeration, "_involutions", counted_involutions)
    monkeypatch.setattr(enumeration, "_fusion_tables", counted_fusion_tables)
    enumerate_algebras(SearchSpec.for_class(klass, n))
    return tuple(counts)


def test_search_counters_pinned(monkeypatch):
    # measured with the oracle (full-recheck) search over the oracle's first
    # lattice of each isomorphism class, on the (neg, e) that come first in
    # their orbit under the brute-force automorphisms of the lattice; the
    # incremental checks over _lattices must visit and prune exactly the
    # same nodes
    assert _search_counters(monkeypatch, "dmm", 6) == (4, 22, 19, 949)
    assert _search_counters(monkeypatch, "dmm", 7) == (3, 12, 15, 1369)
    assert _search_counters(monkeypatch, "irl", 5) == (6, 17, 22, 459)
    # the enumerate benchmark workload's largest sizes
    assert _search_counters(monkeypatch, "dmm", 8) == (12, 62, 103, 14573)
    assert _search_counters(monkeypatch, "irl", 6) == (19, 56, 110, 4729)


@pytest.mark.parametrize("klass, n, validator", [
    ("dmm", 6, "validate_dmm"), ("irl", 5, "validate_irl")])
def test_validates_each_class_once(monkeypatch, klass, n, validator):
    calls = []
    real = getattr(enumeration, validator)

    def counted(A):
        calls.append(A)
        return real(A)

    monkeypatch.setattr(enumeration, validator, counted)
    cat = enumerate_algebras(SearchSpec.for_class(klass, n))
    # each kept representative, once, and nothing else
    assert len(calls) == len(cat.algebras)
    assert {id(A) for A in calls} == {id(A) for A in cat.algebras}


def test_invalid_representative_raises(monkeypatch):
    monkeypatch.setattr(enumeration, "validate_dmm",
                        lambda A: ValidationReport(False))
    with pytest.raises(AssertionError, match="invalid algebra"):
        enumerate_algebras(SearchSpec(4))


def test_non_associative_fusion_raises(monkeypatch):
    # the real validators, on a table the search never yields: 0*0 = 1 on
    # the chain 0 < 1 = e < 2, so (0*0)*2 = 2 but 0*(0*2) = 0*0 = 1
    bad = ((1, 0, 0), (0, 1, 2), (0, 2, 2))
    monkeypatch.setattr(
        enumeration, "_fusion_tables",
        lambda n, lat, neg, e, sq, stats=None: iter([bad] if e == 1 else []))
    laws = validate_irl(FiniteIRL.from_tables(
        3, [[min(a, b) for b in range(3)] for a in range(3)],
        [[max(a, b) for b in range(3)] for a in range(3)], bad, [2, 1, 0],
        1)).laws_violated()
    assert "fusion-associative" in laws
    for klass in ("dmm", "irl"):
        with pytest.raises(AssertionError, match="invalid algebra") as info:
            enumerate_algebras(SearchSpec(3, klass))
        assert str(info.value).endswith(": " + ", ".join(laws))


def test_non_distributive_lattice_raises(monkeypatch):
    # N5 carries no square-increasing IRL, so the dmm search finds no table
    # on it; M3 carries some, and validate_dmm names the failed law.  Each
    # lattice comes with its automorphisms, as _lattices yields them: N5
    # has the identity alone, M3 every permutation of its three atoms
    n5 = (*N5, [(0, 1, 2, 3, 4)])
    m3 = (*M3, [(0, *p, 4) for p in permutations((1, 2, 3))])
    monkeypatch.setattr(enumeration, "_lattices",
                        lambda n, distributive=False: iter([n5]))
    assert enumerate_algebras(SearchSpec(5)).algebras == []
    monkeypatch.setattr(enumeration, "_lattices",
                        lambda n, distributive=False: iter([n5, m3]))
    with pytest.raises(AssertionError,
                       match="^search produced an invalid algebra: "
                             "distributive$"):
        enumerate_algebras(SearchSpec(5))


def test_lattice_record_reads_any_meet_rows():
    # a record reads meet alone: records on an equal copy of a tuple meet
    # and on list-of-lists rows give the same order facts, and the fusion
    # layer gives the same tables on a record of list rows as on one of
    # the tuple meet
    meet, n = M3[0], 5
    o = algebra._Lattice(n, meet)
    copy = tuple(tuple(list(row)) for row in meet)
    o2 = algebra._Lattice(n, copy)
    assert o2.below == o.below
    rows = [list(row) for row in meet]
    assert algebra._Lattice(n, rows).covers == o2.covers
    rows[:] = [list(row) for row in N5[0]]
    o4 = algebra._Lattice(n, rows)
    assert o4.covers == [[], [0], [0], [1], [2, 3]]
    neg = (4, 3, 2, 1, 0)
    tables = list(enumeration._fusion_tables(n, o4, neg, 1, False,
                                             {"pruned": 0}))
    assert len(tables) == 2
    assert tables == list(enumeration._fusion_tables(
        n, algebra._Lattice(n, N5[0]), neg, 1, False, {"pruned": 0}))


def test_one_lattice_record_per_lattice(monkeypatch):
    # the enumerator makes each lattice's record once, with meet and join,
    # and hands it to every class it keeps there, so the layers and the
    # validation of those classes read that record; nothing builds another
    made = []
    init = algebra._Lattice.__init__

    def counted(self, n, meet, join=None):
        made.append(self)
        init(self, n, meet, join)

    monkeypatch.setattr(algebra._Lattice, "__init__", counted)
    for spec in (SearchSpec(8), SearchSpec(6, "irl")):
        made.clear()
        cat = enumerate_algebras(spec)
        assert cat.algebras
        lattices = [meet for meet, _, _ in enumeration._lattices(
            spec.size, spec.distributive)]
        assert [lat.meet for lat in made] == lattices, spec
        record = {id(lat.meet): lat for lat in made}
        for A in cat.algebras:
            assert A.lattice is record[id(A.meet)], A.name
            assert A.lattice.join is A.join, A.name


def test_layer_argument_positions():
    # perfbench's span hooks read n at position 1 of _involutions and stats
    # at position 5 of _fusion_tables, and skip a count they cannot find,
    # so a moved parameter would quietly zero the counters they feed
    inv = list(inspect.signature(enumeration._involutions).parameters)
    fus = list(inspect.signature(enumeration._fusion_tables).parameters)
    assert inv[1] == "n"
    assert fus[5] == "stats"


def test_size4_catalog_contents(dmm_catalogs):
    cat = dmm_catalogs[4]
    expected = [direct_product(make_named("2"), make_named("2")),
                make_named("C4"), make_named("D4"), make_named("S4")]
    for X in expected:
        assert any(is_isomorphic(A, X) for A in cat.algebras)


def test_entries_named_and_sorted(dmm_catalogs):
    cat = dmm_catalogs[5]
    assert [A.name for A in cat.algebras] == [
        f"dmm5-{i}" for i in range(len(cat.algebras))]


def test_size_ceiling(monkeypatch):
    with pytest.raises(SizeTooLarge):
        enumerate_algebras(SearchSpec(9))
    # the ceiling is read at call time, and unsafe=True goes past it
    monkeypatch.setattr(enumeration, "DEFAULT_MAX_SIZE", 2)
    with pytest.raises(SizeTooLarge):
        enumerate_algebras(SearchSpec(3))
    assert len(enumerate_algebras(SearchSpec(3), unsafe=True).algebras) == 1


def test_determinism_byte_identical():
    a = enumerate_algebras(SearchSpec(4)).to_json()
    b = enumerate_algebras(SearchSpec(4)).to_json()
    assert a == b


def test_catalog_roundtrip(tmp_path, dmm_catalogs):
    cat = dmm_catalogs[4]
    p = tmp_path / "cat4.json"
    cat.save(p)
    back = Catalog.from_json(p.read_text())
    assert back.spec == cat.spec and back.complete
    assert len(back.algebras) == len(cat.algebras)
    for A, B in zip(back.algebras, cat.algebras):
        assert A.to_dict() == B.to_dict()


def oracle_catalog_json(cat: Catalog) -> str:
    """json.dumps of the catalog's to_dict forms, the text Catalog.to_json
    assembles from per-table pieces."""
    return json.dumps(
        {"spec": cat.spec.to_dict(), "tool_version": __version__,
         "complete": cat.complete, "count": len(cat.algebras),
         "algebras": [A.to_dict() for A in cat.algebras]},
        sort_keys=True, separators=(",", ":"))


def test_catalog_text_matches_json_dumps():
    # enumerated catalogs share each lattice's meet and join objects
    # among its classes; a loaded catalog shares none
    for klass, top in (("dmm", 8), ("irl", 6)):
        for n in range(1, top + 1):
            cat = enumerate_algebras(SearchSpec.for_class(klass, n))
            text = cat.to_json()
            assert text == oracle_catalog_json(cat), (klass, n)
            back = Catalog.from_json(text)
            assert back.to_json() == oracle_catalog_json(back) == text
    empty = Catalog(SearchSpec(3, "irl"), [], False)
    assert empty.to_json() == oracle_catalog_json(empty)
    cat = enumerate_algebras(SearchSpec(4))
    for A, name in zip(cat.algebras, ['q"uote', "back\\slash", "caf\u00e9",
                                      "new\nline"]):
        A.name = name
    assert cat.to_json() == oracle_catalog_json(cat)
    assert [A.name for A in Catalog.from_json(cat.to_json()).algebras] == \
        ['q"uote', "back\\slash", "caf\u00e9", "new\nline"]


def test_irl_catalog_roundtrip_and_unknown_class():
    cat = enumerate_algebras(SearchSpec.for_class("irl", 3))
    text = cat.to_json()
    back = Catalog.from_json(text)
    assert back.spec == SearchSpec(3, "irl") and back.to_json() == text
    with pytest.raises(ValueError):
        SearchSpec(4, "ra")
    # the two flags name a class only when they agree
    d = json.loads(text)
    d["spec"]["distributive"] = True
    with pytest.raises(ValueError):
        Catalog.from_json(json.dumps(d))


def test_irl_class_counts_at_least_dmm():
    for n in range(1, 5):
        irl = enumerate_algebras(SearchSpec.for_class("irl", n))
        assert len(irl.algebras) >= GOLDEN_DMM_COUNTS[n]


def test_harness_rejects_incomplete(dmm_catalogs):
    algs = dmm_catalogs[4].algebras
    for harness in (theorem_harness, relevant_harness):
        with pytest.raises(IncompleteCatalog):
            harness(Catalog(SearchSpec(4), [], True))
        with pytest.raises(IncompleteCatalog):
            harness(Catalog(SearchSpec(4), algs[:2], False))


def test_theorem_harness_passes(dmm_upto):
    rep = theorem_harness(dmm_upto(6))
    assert rep.ok, rep.text()
    assert rep.checks["law-suite"].instances == sum(
        GOLDEN_DMM_COUNTS[n] for n in range(1, 7))
    assert rep.checks["zero-generated-simples"].instances > 0
    assert "[PASS]" in rep.text()


# (instances, ok) per check on the dmm catalogs n <= 6, in report order,
# recorded before the structure checks shared one validation per algebra
HARNESS_VERDICTS = {
    "law-suite": (28, True), "filter-congruence-bijection": (28, True),
    "splitting": (24, True), "rigorous-compactness": (24, True),
    "lollipop": (24, True), "zero-generated-simples": (3, True),
    "minimality-shadow": (27, True),
    "surjections-onto-zero-generated": (24, True),
    "fusion-pattern": (19, True), "odd-sugihara-quotient": (19, True),
    "idempotents-above-f": (19, True)}
AXIOM_VERDICTS = {"axioms-2": (24, True), "axioms-S3": (24, True),
                  "axioms-D4": (24, True), "axioms-C4": (24, True)}
# the trivial entry has no two-element subreduct to look for
RELEVANT_VERDICTS = {
    "ra-axioms": (28, True), "ra-meet-property": (28, True),
    "ra-neutral-reconstructed": (28, True),
    "ra-two-element-subreduct": (27, True)}


def test_harness_verdicts_pinned(dmm_upto):
    cat = dmm_upto(6)
    for run, want in ((theorem_harness, HARNESS_VERDICTS),
                      (axiomatization_check, AXIOM_VERDICTS),
                      (relevant_harness, RELEVANT_VERDICTS)):
        got = [(name, (c.instances, c.ok))
               for name, c in run(cat).checks.items()]
        assert got == list(want.items()), run.__name__


# With no isomorphism and no HS membership, the checks that ask for them
# fail; their payloads as to_dict() reports them for dmm n <= 6.
FAILURE_PAYLOADS = {
    "zero-generated-simples": {
        "instances": 3, "ok": False,
        "counterexamples": ["dmm2-0", "dmm4-0", "dmm4-2"]},
    "minimality-shadow": {
        "instances": 27, "ok": False,
        "counterexamples": ["dmm2-0", "dmm3-0", "dmm4-0", "dmm4-1", "dmm4-2",
                            "dmm4-3", "dmm5-0", "dmm5-1", "dmm5-2"]
        + [f"dmm6-{i}" for i in range(18)]},
    "surjections-onto-zero-generated": {
        "instances": 24, "ok": False,
        "counterexamples": [("dmm6-10", [1, 2, 3, 4, 5]),
                            ("dmm6-16", [1, 2, 3, 4, 5])]}}


def test_harness_failure_payloads_pinned(dmm_upto, monkeypatch):
    monkeypatch.setattr(enumeration, "is_isomorphic", lambda A, B: False)
    monkeypatch.setattr(enumeration, "embeds_in_some", lambda X, Qs: False)
    got = theorem_harness(dmm_upto(6)).to_dict()
    assert list(got) == list(HARNESS_VERDICTS)
    assert {name: got[name] for name in FAILURE_PAYLOADS} == FAILURE_PAYLOADS
    assert all(got[name]["ok"] for name in got if name not in FAILURE_PAYLOADS)


def test_harness_builds_each_quotient_once(dmm_upto, monkeypatch):
    # one A/F per deductive filter of each entry, read by every filter
    # check, plus the quotient odd_sugihara_quotient builds for itself
    cat = dmm_upto(6)
    real = filters.quotient
    calls = []

    def counted(A, G):
        calls.append((A.name, G.members))
        return real(A, G)

    for name, mod in list(sys.modules.items()):
        if name.startswith("dmm") and getattr(mod, "quotient", None) is real:
            monkeypatch.setattr(mod, "quotient", counted)
    rep = theorem_harness(cat)
    n_filters = sum(len(filters.deductive_filters(A)) for A in cat.algebras)
    odd = rep.checks["odd-sugihara-quotient"].instances
    assert (n_filters, odd) == (70, 19)
    assert len(calls) == n_filters + odd == 89


def test_relevant_harness_names_reducts_that_are_not_ras():
    # the IRLs of size 4 that are not square-increasing
    rep = relevant_harness(enumerate_algebras(SearchSpec.for_class("irl", 4)))
    assert not rep.ok
    assert [(name, c.instances, c.counterexamples)
            for name, c in rep.checks.items() if not c.ok] == [
        ("ra-axioms", 9, ["irl4-0", "irl4-1", "irl4-2", "irl4-7", "irl4-8"])]


def test_harness_validates_each_algebra_once(monkeypatch):
    for nm in NAMED_BASIC:
        enumeration._basic(nm)      # built and validated before counting
    # a fresh copy: make_named already validated its own instance
    A = FiniteIRL.from_dict(make_named("C4ext_1").to_dict())
    calls = {"irl": [], "dmm": []}
    for kind in calls:
        real = getattr(algebra, f"_check_{kind}")

        def counted(B, real=real, seen=calls[kind]):
            seen.append(B)
            return real(B)

        monkeypatch.setattr(algebra, f"_check_{kind}", counted)
    rep = theorem_harness(Catalog(SearchSpec(A.size), [A], True))
    assert rep.ok and rep.checks["odd-sugihara-quotient"].instances == 1
    # A itself, then its odd Sugihara quotient A/[~(f^2))
    for seen in calls.values():
        assert len(seen) == 2
        assert seen[0] is A and seen[1].size < A.size


def test_axiomatization_check_passes(dmm_upto):
    rep = axiomatization_check(dmm_upto(5))
    assert rep.ok, rep.text()
    assert set(rep.checks) == {f"axioms-{nm}" for nm in AXIOM_SETS}


def test_axiomatization_check_decides_own_axioms_once(dmm_upto, monkeypatch):
    # after one call, a second one reports the same without evaluating any
    # statement on the basic algebras themselves
    from dmm import terms
    cat = dmm_upto(5)
    first = axiomatization_check(cat).to_dict()
    basics = {id(enumeration._basic(nm)) for nm in AXIOM_SETS}
    seen, real = [], terms.first_counterexamples
    monkeypatch.setattr(terms, "first_counterexamples",
                        lambda A, ss: seen.append(id(A)) or real(A, ss))
    assert axiomatization_check(cat).to_dict() == first
    assert seen and not basics & set(seen)
