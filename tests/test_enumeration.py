import pytest

from dmm import enumeration
from dmm.constructions import direct_product, is_isomorphic, make_named
from dmm.enumeration import (AXIOM_SETS, Catalog, IncompleteCatalog,
                             SearchSpec, SizeTooLarge, axiomatization_check,
                             enumerate_algebras, theorem_harness)

# independently recounted by the pruning-free slow path before freezing
GOLDEN_DMM_COUNTS = {1: 1, 2: 1, 3: 1, 4: 4, 5: 3, 6: 18}


def test_golden_counts_small(dmm_catalogs):
    for n in range(1, 7):
        cat = dmm_catalogs[n]
        assert cat.complete
        assert len(cat.algebras) == GOLDEN_DMM_COUNTS[n], n


def test_slow_recount_agrees(slow_counts):
    for n in range(1, 5):
        assert slow_counts[n] == GOLDEN_DMM_COUNTS[n], n


def _search_counters(monkeypatch, klass, n):
    """(involutions, (lattice, neg, e) triples, tables, pruned values) summed
    over what enumerate_algebras visits."""
    counts = [0, 0, 0, 0]
    involutions, fusion_tables = (enumeration._involutions,
                                  enumeration._fusion_tables)

    def counted_involutions(meet, n):
        for neg in involutions(meet, n):
            counts[0] += 1
            yield neg

    def counted_fusion_tables(n, meet, neg, e, square_increasing, stats):
        counts[1] += 1
        before = stats["pruned"]
        for fus in fusion_tables(n, meet, neg, e, square_increasing, stats):
            counts[2] += 1
            yield fus
        counts[3] += stats["pruned"] - before

    monkeypatch.setattr(enumeration, "_involutions", counted_involutions)
    monkeypatch.setattr(enumeration, "_fusion_tables", counted_fusion_tables)
    enumerate_algebras(SearchSpec.for_class(klass, n))
    return tuple(counts)


def test_search_counters_pinned(monkeypatch):
    # measured with the full-recheck search; the incremental checks must
    # visit and prune exactly the same nodes
    assert _search_counters(monkeypatch, "dmm", 6) == (8, 48, 41, 2159)
    assert _search_counters(monkeypatch, "dmm", 7) == (3, 21, 24, 2262)
    assert _search_counters(monkeypatch, "irl", 5) == (8, 40, 62, 1314)


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


def test_size_ceiling():
    with pytest.raises(SizeTooLarge):
        enumerate_algebras(SearchSpec(9))
    # the ceiling can be lowered or raised explicitly
    with pytest.raises(SizeTooLarge):
        enumerate_algebras(SearchSpec(3), max_size=2)
    assert len(enumerate_algebras(SearchSpec(3), max_size=2,
                                  unsafe=True).algebras) == 1


def test_determinism_byte_identical():
    a = enumerate_algebras(SearchSpec(4)).to_json()
    b = enumerate_algebras(SearchSpec(4)).to_json()
    assert a == b


def test_catalog_roundtrip(tmp_path, dmm_catalogs):
    cat = dmm_catalogs[4]
    p = tmp_path / "cat4.json"
    cat.save(p)
    back = Catalog.load(p)
    assert back.spec == cat.spec and back.complete
    assert len(back.algebras) == len(cat.algebras)
    for A, B in zip(back.algebras, cat.algebras):
        assert A.tables_equal(B)


def test_limit_marks_incomplete():
    cat = enumerate_algebras(SearchSpec(4, limit=2))
    assert not cat.complete and len(cat.algebras) == 2


def test_predicate_filters():
    cat = enumerate_algebras(SearchSpec(4, predicate_filters=("semilinear",)))
    assert all(not is_isomorphic(A, make_named("D4")) for A in cat.algebras)
    assert any(is_isomorphic(A, make_named("C4")) for A in cat.algebras)


def test_irl_class_counts_at_least_dmm():
    for n in range(1, 5):
        irl = enumerate_algebras(SearchSpec.for_class("irl", n))
        assert len(irl.algebras) >= GOLDEN_DMM_COUNTS[n]


def test_harness_rejects_incomplete():
    with pytest.raises(IncompleteCatalog):
        theorem_harness(Catalog(SearchSpec(4), [], True))
    with pytest.raises(IncompleteCatalog):
        theorem_harness(enumerate_algebras(SearchSpec(4, limit=2)))


def test_theorem_harness_passes(dmm_upto):
    rep = theorem_harness(dmm_upto(6))
    assert rep.ok, rep.text()
    assert rep.checks["law-suite"].instances == sum(
        GOLDEN_DMM_COUNTS.values())
    assert rep.checks["zero-generated-simples"].instances > 0
    assert "[PASS]" in rep.text()


def test_axiomatization_check_passes(dmm_upto):
    rep = axiomatization_check(dmm_upto(5))
    assert rep.ok, rep.text()
    assert set(rep.checks) == {f"axioms-{nm}" for nm in AXIOM_SETS}
