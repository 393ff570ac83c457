import hashlib

import pytest

from dmm import enumeration
from dmm.algebra import ValidationReport
from dmm.constructions import direct_product, is_isomorphic, make_named
from dmm.enumeration import (AXIOM_SETS, Catalog, IncompleteCatalog,
                             SearchSpec, SizeTooLarge, axiomatization_check,
                             enumerate_algebras, theorem_harness)

# n <= 4 independently recounted by the pruning-free slow path, and every
# count certified by orbit counting (test_enumeration_oracles.py), before
# freezing
GOLDEN_DMM_COUNTS = {1: 1, 2: 1, 3: 1, 4: 4, 5: 3, 6: 18, 7: 15, 8: 92}
GOLDEN_IRL_COUNTS = {1: 1, 2: 1, 3: 2, 4: 9, 5: 21, 6: 100}


def test_golden_counts_small(dmm_catalogs):
    for n in range(1, 7):
        cat = dmm_catalogs[n]
        assert cat.complete
        assert len(cat.algebras) == GOLDEN_DMM_COUNTS[n], n


# sha256 of enumerate_algebras(SearchSpec.for_class(c, n)).to_json(), the
# bytes `dmm enumerate` writes, recorded before the lattice layer kept one
# lattice per isomorphism class.  The JSON holds tool_version, so a version
# bump changes every digest.
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
}


def test_catalog_bytes_pinned():
    for (klass, n), digest in CATALOG_SHA256.items():
        text = enumerate_algebras(SearchSpec.for_class(klass, n)).to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == digest, (klass, n)


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
    # measured with the oracle (full-recheck) search over the oracle's first
    # lattice of each isomorphism class, on the (neg, e) that come first in
    # their orbit under the brute-force automorphisms of the lattice; the
    # incremental checks over _lattices must visit and prune exactly the
    # same nodes
    assert _search_counters(monkeypatch, "dmm", 6) == (4, 22, 19, 949)
    assert _search_counters(monkeypatch, "dmm", 7) == (3, 12, 15, 1369)
    assert _search_counters(monkeypatch, "irl", 5) == (6, 17, 22, 459)


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
        GOLDEN_DMM_COUNTS[n] for n in range(1, 7))
    assert rep.checks["zero-generated-simples"].instances > 0
    assert "[PASS]" in rep.text()


def test_axiomatization_check_passes(dmm_upto):
    rep = axiomatization_check(dmm_upto(5))
    assert rep.ok, rep.text()
    assert set(rep.checks) == {f"axioms-{nm}" for nm in AXIOM_SETS}
