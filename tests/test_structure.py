from dataclasses import dataclass

import pytest

from dmm.algebra import (FiniteIRL, NotAnIRL, square_increasing_witness,
                         validate_dmm, validate_irl)
from dmm.constructions import (Homomorphism, direct_product, is_isomorphic,
                               make_named, sg)
from dmm.enumeration import SearchSpec, enumerate_algebras
from dmm.structure import (NotApplicable, NotDMM, NotFSI,
                           fusion_pattern_check, hasse_text, lollipop,
                           odd_sugihara_quotient, splitting_check)
from test_constructions import oracle_is_homomorphism


# Two lemmas of the paper's proofs, checked on examples; no library code
# calls them.


@dataclass
class BoundsCertificate:
    generators: tuple[int, ...]
    c: int
    b: int            # = c * c
    lower: int        # = neg(b)
    upper: int        # = b
    generated: tuple[int, ...]


def bounds_of_generated(A: FiniteIRL, X) -> BoundsCertificate:
    """c = e | f | (a1|~a1) | ... ; b = c^2; then ~b <= x <= b on Sg(X)."""
    w = square_increasing_witness(A)
    if w is not None:
        raise NotAnIRL(f"not square-increasing at {w}")
    c = A.join[A.e][A.f]
    for a in X:
        c = A.join[c][A.join[a][A.neg[a]]]
    b = A.fusion[c][c]
    lower = A.neg[b]
    _, incl = sg(A, X)
    for x in incl:
        if not (A.leq(lower, x) and A.leq(x, b)):
            raise AssertionError(
                f"bound certificate fails at {x}: not {lower} <= {x} <= {b}")
    return BoundsCertificate(tuple(sorted(X)), c, b, lower, b,
                             tuple(sorted(incl)))


def embed_c4_if_e_below_f(A: FiniteIRL):
    """When e < f, the set {~(f^2), e, f, f^2} is a subalgebra isomorphic to
    the four-element chain; returns that embedding, else None."""
    rep = validate_dmm(A)
    if not rep.ok:
        raise NotDMM("; ".join(rep.laws_violated()))
    if not A.lt(A.e, A.f):
        return None
    f2 = A.fusion[A.f][A.f]
    image = (A.neg[f2], A.e, A.f, f2)
    if len(set(image)) != 4:
        return None
    h = Homomorphism(make_named("C4"), A, tuple(image))
    if not (oracle_is_homomorphism(h) and h.injective):
        raise AssertionError("candidate four-chain embedding is not one")
    return h


@pytest.fixture(scope="module")
def twosq(named):
    return direct_product(named["2"], named["2"])


def test_splitting_on_named(named):
    assert splitting_check(named["C4"]).ok
    assert splitting_check(named["D4"]).ok
    assert splitting_check(named["S5"]).ok


def test_splitting_rejects_non_fsi(twosq):
    with pytest.raises(NotFSI):
        splitting_check(twosq)


@pytest.mark.parametrize("check", [splitting_check, lollipop,
                                   fusion_pattern_check,
                                   odd_sugihara_quotient])
def test_structure_checks_reject_non_dmm_every_call(check):
    # an IRL that is not square-increasing: its cached DMM report fails
    irl3 = enumerate_algebras(SearchSpec.for_class("irl", 3)).algebras
    A = next(A for A in irl3 if square_increasing_witness(A) is not None)
    assert validate_irl(A).ok
    for _ in range(2):
        with pytest.raises(NotDMM):
            check(A)


def test_bounds_c4_empty(named):
    b = bounds_of_generated(named["C4"], ())
    # c = e \/ f = f, b = f*f = top, lower = bottom
    assert (b.c, b.b, b.lower) == (2, 3, 0)


def test_bounds_2_empty(named):
    b = bounds_of_generated(named["2"], ())
    assert b.c == b.b == named["2"].top


def test_bounds_s5_single_generator(named):
    S5 = named["S5"]
    b = bounds_of_generated(S5, {4})   # the element 2
    assert b.b == 4 and b.lower == 0
    assert b.generated == (0, 2, 4)    # {-2, 0, 2}


def test_lollipop_c4_d4(named):
    for nm in ("C4", "D4"):
        lp = lollipop(named[nm])
        assert lp.ok and not lp.idempotent_case
        assert lp.interval == (0, 1, 2, 3)
        assert lp.lower_chain == (0,) and lp.upper_chain == (3,)


def test_lollipop_extension(named):
    lp = lollipop(named["C4ext_2"])
    assert lp.ok
    assert lp.interval == (2, 3, 4, 5)
    assert lp.lower_chain == (0, 1, 2) and lp.upper_chain == (5, 6, 7)
    # boundary elements belong to both parts
    assert set(lp.interval) & set(lp.lower_chain) == {2}


def test_lollipop_idempotent_case(named):
    lp = lollipop(named["S5"])
    assert lp.idempotent_case and lp.totally_ordered


def test_lollipop_rejects_non_fsi(twosq):
    with pytest.raises(NotFSI):
        lollipop(twosq)


def test_fusion_pattern_named(named):
    for nm in ("C4", "D4", "C4ext_1", "C4ext_3"):
        assert fusion_pattern_check(named[nm]).ok
    C4 = named["C4"]
    assert C4.fusion[2][2] == 3          # f * f = f^2 (both below f^2)
    D4 = named["D4"]
    assert D4.fusion[2][3] == 3          # f * f^2 = f^2


def test_fusion_pattern_not_applicable_when_idempotent(named):
    with pytest.raises(NotApplicable):
        fusion_pattern_check(named["S5"])


def test_odd_quotient_c4_d4_trivial(named):
    for nm in ("C4", "D4"):
        Q, rep = odd_sugihara_quotient(named[nm])
        assert rep.ok and Q.size == 1


def test_odd_quotient_extension_is_s3(named):
    Q, rep = odd_sugihara_quotient(named["C4ext_1"])
    assert rep.ok
    assert is_isomorphic(Q, named["S3"])
    assert rep.interval_class == (1, 2, 3, 4)


def test_odd_quotient_not_applicable(named):
    with pytest.raises(NotApplicable):
        odd_sugihara_quotient(named["S4"])


def test_embed_c4(named):
    h = embed_c4_if_e_below_f(named["C4"])
    assert h.mapping == (0, 1, 2, 3)
    h = embed_c4_if_e_below_f(named["C4ext_1"])
    assert h.mapping == (1, 2, 3, 4)
    assert oracle_is_homomorphism(h) and h.injective
    assert embed_c4_if_e_below_f(named["2"]) is None
    assert embed_c4_if_e_below_f(named["S5"]) is None


def test_extension_fixture_is_validated(named):
    for k in (1, 2, 3):
        assert validate_dmm(named[f"C4ext_{k}"]).ok


def test_reports_serialize(named):
    lp = lollipop(named["C4ext_1"])
    d = lp.to_dict()
    assert d["ok"] and d["interval"] == [1, 2, 3, 4]
    text = lp.text(named["C4ext_1"])
    assert "interval" in text and "covers:" in text


def test_hasse_text_marks_e_and_f(named):
    out = hasse_text(named["C4"])
    assert "[e]" in out and "[f]" in out and "covers:" in out
