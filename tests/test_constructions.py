import hashlib
import json
import random
import time
from functools import cache
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmm import constructions, enumeration
from dmm.algebra import FiniteIRL, NotAnIRL, validate_dmm
from dmm.constructions import (NAMED_BASIC, UnknownName, canonical_form,
                               direct_product, e_free_reduct, homs,
                               hs_contains, is_isomorphic, is_named,
                               make_named, make_sugihara, rigorous_extension,
                               sg, subuniverse, zero_generated)
from dmm.enumeration import SearchSpec, enumerate_algebras
from dmm.filters import deductive_filters, quotient
from test_enumeration_oracles import oracle_canonical_form


# ---- oracles -----------------------------------------------------------------


def oracle_is_homomorphism(h):
    """True iff h.mapping sends e to e and commutes with neg, meet, join
    and fusion, checked element by element and pair by pair."""
    A, B, m = h.source, h.target, h.mapping
    if m[A.e] != B.e:
        return False
    for a in A.elements:
        if m[A.neg[a]] != B.neg[m[a]]:
            return False
        for b in A.elements:
            if (m[A.meet[a][b]] != B.meet[m[a]][m[b]]
                    or m[A.join[a][b]] != B.join[m[a]][m[b]]
                    or m[A.fusion[a][b]] != B.fusion[m[a]][m[b]]):
                return False
    return True


def oracle_hs_contains(A, X):
    """True iff some subalgebra of a quotient of A is isomorphic to X.

    Subalgebras are searched through generating sets of size <= |X|: a copy
    of X, if present, is generated by at most |X| elements.  Each one is
    closed, built and compared by the color-refinement canonical form, so
    the oracle shares no search with the library's embedding search through
    homs.
    """
    cx = oracle_canonical_form(X)
    for G in deductive_filters(A):
        Q, _ = quotient(A, G)
        if Q.size < X.size:
            continue
        seen: set[frozenset[int]] = set()
        for k in range(min(X.size, Q.size) + 1):
            for gen in combinations(Q.elements, k):
                u = frozenset(subuniverse(Q, gen))
                if len(u) != X.size or u in seen:
                    continue
                seen.add(u)
                S, _ = sg(Q, gen)
                if oracle_canonical_form(S) == cx:
                    return True
    return False


def _product(*names):
    P = make_named(names[0])
    for nm in names[1:]:
        P = direct_product(P, make_named(nm))
    return P


def test_named_validate(named):
    for nm in NAMED_BASIC:
        assert validate_dmm(named[nm]).ok


def test_unknown_name():
    with pytest.raises(UnknownName):
        make_named("Q7")
    assert is_named("S12") and is_named("C4ext_2") and not is_named("foo")


def test_s3_fusion_example(named):
    S3 = named["S3"]         # -1, 0, 1 as 0, 1, 2
    assert S3.fusion[0][2] == 0          # (-1) * 1 = -1
    assert S3.e == 1 and S3.f == 1       # odd


def test_c4_fusion_rigorous(named):
    C4 = named["C4"]
    assert C4.fusion[2][3] == 3          # f * f^2 = f^2
    assert C4.fusion[2][2] == 3          # f * f = f^2
    assert all(C4.fusion[0][a] == 0 for a in C4.elements)


def test_d4_diamond(named):
    D4 = named["D4"]
    assert D4.meet[1][2] == 0            # e /\ f = ~(f^2)
    assert D4.join[1][2] == 3
    assert not D4.leq(1, 2) and not D4.leq(2, 1)


def test_sugihara_even_odd_carriers():
    assert make_sugihara(6).size == 6
    S6 = make_named("S6")                # -3,-2,-1,1,2,3
    assert S6.e == 3                     # the element 1
    assert S6.f == 2                     # ~1 = -1
    S7 = make_named("S_7")
    assert S7.e == 3 and S7.f == 3       # odd: e = 0 = f



def oracle_from_order(values, leq_pairs, fusion, neg, e, name,
                      labels=None):
    """Assemble an algebra from an order relation given as the set of its
    pairs (a, b), a <= b, over abstract values, with explicit fusion/neg
    maps: each meet and join is found by listing common bounds."""
    idx = {v: i for i, v in enumerate(values)}
    n = len(values)
    leq = {(a, b): (a, b) in leq_pairs for a in values for b in values}
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for a in values:
        for b in values:
            lows = [c for c in values if leq[(c, a)] and leq[(c, b)]]
            ups = [c for c in values if leq[(a, c)] and leq[(b, c)]]
            m = [c for c in lows if all(leq[(d, c)] for d in lows)]
            j = [c for c in ups if all(leq[(c, d)] for d in ups)]
            if len(m) != 1 or len(j) != 1:
                raise NotAnIRL(f"not a lattice at ({a}, {b})")
            meet[idx[a]][idx[b]] = idx[m[0]]
            join[idx[a]][idx[b]] = idx[j[0]]
    return constructions._assemble(values, meet, join, fusion, neg, e, name,
                                   labels)


def oracle_chain(values, fusion, neg, e, name, labels=None):
    """A chain assembled by the general order construction."""
    pairs = {(a, b) for a in values for b in values
             if values.index(a) <= values.index(b)}
    return oracle_from_order(values, pairs, fusion, neg, e, name, labels)


def test_chain_tables_match_order_construction(monkeypatch):
    names = [f"S{n}" for n in range(1, 17)] + ["C4", "2"]

    def tables(A):
        return A.meet, A.join, A.fusion, A.neg, A.e, A.name, A.labels

    fast = [tables(make_named(nm)) for nm in names]
    monkeypatch.setattr(constructions, "_chain", oracle_chain)
    assert fast == [tables(make_named(nm)) for nm in names]


def test_d4_matches_order_construction():
    # the diamond bot < e, f < top from its order pairs, with the rules
    # make_d4 states for fusion and neg
    vals = ["bot", "e", "f", "top"]
    pairs = {(a, a) for a in vals} | {("bot", x) for x in vals} | {
        (x, "top") for x in vals}
    fus = constructions._rigorous_fusion("e", "bot", "top",
                                         lambda a, b: "top")
    neg = {"bot": "top", "e": "f", "f": "e", "top": "bot"}
    want = oracle_from_order(vals, pairs, fus, neg.__getitem__, "e", "D4",
                             labels=["~(f^2)", "e", "f", "f^2"])
    got = constructions.make_d4()
    assert (got.meet, got.join, got.fusion, got.neg, got.e, got.name,
            got.labels) == (want.meet, want.join, want.fusion, want.neg,
                            want.e, want.name, want.labels)

def test_sugihara_fusion_rule(named):
    S5 = named["S5"]                     # -2,-1,0,1,2
    # greater absolute value wins; ties go to the meet
    assert S5.fusion[0][3] == 0          # (-2) * 1 = -2
    assert S5.fusion[1][3] == 1          # (-1) * 1 = -1 (tie, min)
    assert S5.fusion[3][3] == 3
    assert S5.fusion[0][4] == 0          # (-2) * 2 = -2


def test_rigorous_extension_shape(named):
    E = rigorous_extension(named["C4"])
    assert E.size == 6 and validate_dmm(E).ok
    assert E.bottom == 0 and E.top == 5
    assert all(E.fusion[5][a] == 5 for a in E.elements if a != 0)
    assert all(E.fusion[0][a] == 0 for a in E.elements)


# sha256 of the sorted-key JSON of to_dict(), frozen when the extension's
# meet and join rows were built in a second pass over the new extrema.
C4EXT_SHA256 = (
    "eb9d3d6a1761d41d649e1760b8d8f90c967baab3f37b78e121e58a4ab63527d4",
    "ec9673593da250a8bc3b2abd6698a205ce8a99caf1e0be6347a67189face6bc4",
    "101dd330444da38ba5e6b73fbd23ac294192c06ae36d5080bb04ec174793704e",
    "c1e132e3fccee330cdbee62b10f7d28c2ef4778dba64f3bb857edeb863827fa0",
    "1e99756d53148f8aa91d5e69d7575b6910d0fceaa21fda4c027dd5fb007260ec",
)


def test_c4ext_tables_pinned():
    for k, digest in enumerate(C4EXT_SHA256):
        text = json.dumps(make_named(f"C4ext_{k}").to_dict(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest, k


def test_c4ext_names(named):
    assert named["C4ext_1"].size == 6
    assert is_isomorphic(make_named("C4ext_0"), named["C4"])


def test_direct_product(named):
    T = make_named("S1")
    assert is_isomorphic(direct_product(named["2"], T), named["2"])
    P = direct_product(named["2"], named["2"])
    assert P.size == 4 and validate_dmm(P).ok
    P6 = direct_product(named["S3"], named["2"])
    assert P6.size == 6 and validate_dmm(P6).ok


def test_sg_examples(named):
    S5 = named["S5"]
    S, incl = sg(S5, {4})
    assert incl == [0, 2, 4]
    assert is_isomorphic(S, named["S3"])
    assert subuniverse(named["D4"], ()) == [0, 1, 2, 3]
    S, incl = sg(named["S3"], ())
    assert S.size == 1 and incl == [1]


def test_zero_generated(named):
    assert zero_generated(named["C4"])[0].size == 4
    assert zero_generated(named["D4"])[0].size == 4
    assert zero_generated(named["2"])[0].size == 2
    assert zero_generated(named["S5"])[0].size == 1


def test_homs_s4_s3(named):
    hs = homs(named["S4"], named["S3"])
    surj = [h for h in hs if h.surjective]
    assert len(surj) == 1
    assert surj[0].mapping == (0, 1, 1, 2)
    assert all(oracle_is_homomorphism(h) for h in hs)


def test_homs_c4_to_2_empty(named):
    assert homs(named["C4"], named["2"]) == []


def test_homs_identity(named):
    for nm in ("S3", "D4"):
        A = named[nm]
        assert any(h.mapping == tuple(A.elements) for h in homs(A, A))


def test_homs_closed_under_automorphism_composition(named):
    for nm in NAMED_BASIC:
        A = named[nm]
        hs = {h.mapping for h in homs(A, A)}
        autos = [h for h in homs(A, A) if h.injective]
        for h in hs:
            for a in autos:
                assert tuple(a.mapping[h[i]] for i in A.elements) in hs


HOM_TARGETS = ("2", "S3", "C4", "D4", "S4", "S5", "C4ext_1")

# sha256 over homs(X, A) then homs(A, X), for every dmm n <= 6 and irl n <= 5
# entry A and each X of HOM_TARGETS; frozen before the embedding search got
# its own prune
HOMS_SHA256 = \
    "6f8efe0c720904fedb3d3e45fd833308a136fdef5bef3fa717df3b023c98abf4"


@pytest.fixture(scope="module")
def hom_pairs(named, dmm_catalogs):
    algebras = [A for n in range(1, 7) for A in dmm_catalogs[n].algebras]
    algebras += [A for n in range(1, 6) for A in enumerate_algebras(
        SearchSpec.for_class("irl", n)).algebras]
    return [pair for A in algebras for X in map(named.get, HOM_TARGETS)
            for pair in ((X, A), (A, X))]


def test_homs_pinned(hom_pairs):
    digest = hashlib.sha256()
    for X, A in hom_pairs:
        digest.update(f"{[h.mapping for h in homs(X, A)]}\n".encode())
    assert digest.hexdigest() == HOMS_SHA256


def test_homs_match_brute_force_on_noncommutative_tables(named):
    # fusion tables with one entry changed on one side of the diagonal: the
    # search must read each pair in both argument orders
    small = [named[nm] for nm in NAMED_BASIC]
    tables = list(small)
    for A in small:
        d = A.to_dict()
        for v in A.elements:
            d["fusion"][A.e][A.f] = v
            tables.append(FiniteIRL.from_dict(d))
    for X in tables:
        for A in tables:
            want = [m for m in product(A.elements, repeat=X.size)
                    if oracle_is_homomorphism(
                        constructions.Homomorphism(X, A, m))]
            assert [h.mapping for h in homs(X, A)] == want


def test_embedding_search_matches_homs(hom_pairs):
    # the injective search finds an embedding iff the full search lists one
    for X, A in hom_pairs:
        assert constructions._embeds(X, A) == any(
            h.injective for h in homs(X, A)), (X.name, A.name)


def test_canonical_form_invariant_under_relabeling(named):
    rng = random.Random(20260823)
    for nm in NAMED_BASIC:
        A = named[nm]
        cf = canonical_form(A)
        for _ in range(200):
            perm = list(range(A.size))
            rng.shuffle(perm)
            assert canonical_form(A.relabel(perm)) == cf


def test_canonical_form_size_limit():
    # n and every table entry take one byte of the form: 255 elements give
    # a form, 256 raise before any walk; S64 x S3 (192 elements) gives one form for
    # itself and a seeded relabelling
    big = direct_product(make_named("S64"), make_named("S4"))
    assert big.size == 256
    with pytest.raises(ValueError, match="^canonical_form takes at most 255 "
                                         "elements, got 256$"):
        canonical_form(big)
    A = _product("S5", "S3", "S17")
    assert A.size == 255
    assert canonical_form(A).data[0] == 255
    B = direct_product(make_named("S64"), make_named("S3"))
    perm = list(range(B.size))
    random.Random(20261020).shuffle(perm)
    assert canonical_form(B.relabel(perm)) == canonical_form(B)


def test_is_isomorphic_examples(named):
    assert not is_isomorphic(named["C4"], named["D4"])
    assert not is_isomorphic(named["C4"], named["S4"])
    S4 = named["S4"]
    assert is_isomorphic(S4, S4.relabel([3, 0, 2, 1]))


def test_pairwise_non_isomorphic_basics(named):
    basics = [named[nm] for nm in NAMED_BASIC]
    for i, A in enumerate(basics):
        for B in basics[i + 1:]:
            assert not is_isomorphic(A, B)


# Algebras on which canonical_form did not return while it refined colors
# (oracle_canonical_form still does not), each with a non-isomorphic
# algebra of the same size (given by its factors).
HARD = {"S12": (("S12",), ("C4", "S3")),
        "C4ext_4": (("C4ext_4",), ("S12",)),
        "C4xS3": (("C4", "S3"), ("C4ext_4",)),
        "C4xD4": (("C4", "D4"), ("2", "2", "2", "2")),
        "2^4": (("2", "2", "2", "2"), ("C4", "C4")),
        "S3^3": (("S3", "S3", "S3"), ("S3", "S9"))}


@pytest.mark.parametrize("name", list(HARD))
def test_isomorphism_returns_on_former_hangs(name):
    factors, partner = HARD[name]
    A = _product(*factors)
    perm = list(range(A.size))
    random.Random(20261018 + A.size).shuffle(perm)
    start = time.perf_counter()
    assert is_isomorphic(A, A.relabel(perm))
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    cf = canonical_form(A)
    assert time.perf_counter() - start < 1.0
    assert canonical_form(A.relabel(perm)) == cf
    B = _product(*partner)
    assert B.size == A.size
    assert not is_isomorphic(A, B) and not is_isomorphic(B, A)
    assert canonical_form(B) != cf


# Algebras on which is_isomorphic(A, A) walked every endomorphism before the
# embedding search refused taken values (2^6: 168 s); canonical_form still
# takes seconds on them, so they are not in HARD.
NEAR_HANGS = {"2^6": ("2",) * 6, "D4^3": ("D4",) * 3, "S3^3": ("S3",) * 3,
              "C4xD4xS3": ("C4", "D4", "S3")}


@pytest.mark.parametrize("name", list(NEAR_HANGS))
def test_embedding_search_returns_on_former_near_hangs(name, named):
    A = _product(*NEAR_HANGS[name])
    perm = list(range(A.size))
    random.Random(20261019 + A.size).shuffle(perm)
    start = time.perf_counter()
    assert is_isomorphic(A, A.relabel(perm))
    assert time.perf_counter() - start < 1.0
    start = time.perf_counter()
    # C4 is a quotient of C4xD4xS3; 2^k has fusion = meet, D4^k has e and
    # f incomparable and S3^k has e = f, none of which C4 has
    assert hs_contains(A, named["C4"]) == (name == "C4xD4xS3")
    assert time.perf_counter() - start < 1.0


def test_two_to_the_six_is_not_d4_cubed():
    A, B = _product(*NEAR_HANGS["2^6"]), _product(*NEAR_HANGS["D4^3"])
    start = time.perf_counter()
    assert not is_isomorphic(A, B) and not is_isomorphic(B, A)
    assert time.perf_counter() - start < 1.0


def test_bit_cache_stays_bounded():
    # canonical_form(2^6) asks the lattice walks' set-bit cache for 4,068
    # masks, more than it keeps
    enumeration._bits.cache_clear()
    canonical_form(_product(*NEAR_HANGS["2^6"]))
    info = enumeration._bits.cache_info()
    assert info.maxsize is not None
    assert info.currsize <= info.maxsize < info.misses


def test_is_isomorphic_matches_canonical_form(dmm_catalogs):
    rng = random.Random(20261018)
    for n, cat in dmm_catalogs.items():
        forms = {C.name: canonical_form(C) for C in cat.algebras}
        for A in cat.algebras:
            perm = list(range(n))
            rng.shuffle(perm)
            B = A.relabel(perm)
            for C in cat.algebras:
                assert is_isomorphic(B, C) == (forms[A.name]
                                               == forms[C.name]), (A.name,
                                                                   C.name)


CORPUS_PRODUCTS = [("2", "2", "2"), ("2", "2", "2", "2"), ("S3", "S3"),
                   ("S3", "S3", "S3"), ("C4", "2"), ("C4", "S3"),
                   ("C4", "C4"), ("C4", "D4"), ("D4", "D4")]
_corpus_product = cache(_product)


@st.composite
def _relabelled_product(draw):
    A = _corpus_product(*draw(st.sampled_from(CORPUS_PRODUCTS)))
    return A, draw(st.permutations(range(A.size)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_relabelled_product())
def test_is_isomorphic_under_random_relabelling(case):
    A, perm = case
    assert is_isomorphic(A, A.relabel(perm))
    assert canonical_form(A.relabel(perm)) == canonical_form(A)


def test_hs_contains(named):
    assert hs_contains(named["S4"], named["S3"])
    assert not hs_contains(named["D4"], named["2"])
    T = make_named("S1")
    for nm in NAMED_BASIC:
        assert hs_contains(named[nm], T)
    assert hs_contains(named["C4ext_1"], named["S3"])
    assert hs_contains(named["C4ext_1"], named["C4"])
    C4 = named["C4"]
    assert hs_contains(_product("C4", "D4"), C4)
    assert not hs_contains(_product("D4", "D4"), C4)
    assert not hs_contains(_product("2", "2", "2", "2"), C4)
    assert hs_contains(_product("S3", "2"), T)
    # HS(S3^3) satisfies e = f, which C4 fails
    S3_3 = _product("S3", "S3", "S3")
    start = time.perf_counter()
    assert not hs_contains(S3_3, C4)
    assert time.perf_counter() - start < 1.0


def test_hs_contains_matches_oracle(named, dmm_catalogs):
    targets = [make_named("S1")] + [named[nm] for nm in
                                    ("2", "S3", "C4", "D4", "S4", "S5",
                                     "C4ext_1")]
    algebras = [A for n in range(1, 7) for A in dmm_catalogs[n].algebras]
    algebras += [A for n in range(1, 6) for A in
                 enumerate_algebras(SearchSpec.for_class("irl", n)).algebras]
    pairs = [(A, X) for A in algebras for X in targets]
    products = [("2", "2", "2"), ("S3", "S3"), ("C4", "2"), ("C4", "S3"),
                ("C4", "C4"), ("C4", "D4"), ("D4", "D4")]
    pairs += [(_product(*names), named[nm]) for names in products
              for nm in ("C4", "S3")]
    for A, X in pairs:
        assert hs_contains(A, X) == oracle_hs_contains(A, X), (A.name, X.name)


def test_e_free_reduct_shape(named):
    R = e_free_reduct(named["C4"])
    assert R.to_dict()["signature"] == "RA"
    assert "e" not in R.to_dict()
    assert R.meet == named["C4"].meet
