import pytest

from dmm.constructions import direct_product, is_isomorphic, make_named
from dmm.enumeration import SearchSpec, enumerate_algebras
from dmm.filters import (Congruence, DeductiveFilter, NotACongruence,
                         NotAFilter, classify, congruence_lattice,
                         deductive_filters, dfg, filter_of,
                         is_congruence, omega, quotient)
from test_constructions import oracle_is_homomorphism
from test_filter_oracles import is_deductive_filter


def members(filters):
    return [f.sorted_members() for f in filters]


def test_filters_of_s3(named):
    # carrier -1 < 0 < 1 as indices 0 < 1 < 2; e = 0 is index 1
    assert members(deductive_filters(named["S3"])) == [[1, 2], [0, 1, 2]]


def test_filters_of_2(named):
    assert members(deductive_filters(named["2"])) == [[1], [0, 1]]


def test_filters_of_c4(named):
    # lattice filters of the chain ~(f^2) < e < f < f^2 *containing e*:
    # [e) and the whole algebra (C4 is simple, so exactly two -- the up-sets
    # [f), [f^2) are fusion-closed but miss the monoid identity)
    assert members(deductive_filters(named["C4"])) == [
        [1, 2, 3], [0, 1, 2, 3]]


def test_dfg_examples(named):
    C4, S5 = named["C4"], named["S5"]
    assert dfg(C4, {0}).sorted_members() == [0, 1, 2, 3]
    assert dfg(C4, {}).sorted_members() == [1, 2, 3]       # [e)
    # S5 indices: -2,-1,0,1,2 -> 0..4; upward closure of -1
    assert dfg(S5, {1}).sorted_members() == [1, 2, 3, 4]
    assert dfg(S5, {1}).members == {b for b in S5.elements if S5.leq(1, b)}


def test_filters_in_square_increasing_are_lattice_filters(named):
    # every up-set containing e is a deductive filter here
    for nm in ("S5", "C4", "D4"):
        A = named[nm]
        for F in deductive_filters(A):
            m = F.members
            assert A.e in m
            assert all(b in m for a in m for b in A.elements if A.leq(a, b))


def test_omega_s5_kernel(named):
    S5 = named["S5"]
    theta = omega(S5, dfg(S5, {1}))
    assert theta.blocks == (0, 1, 1, 1, 2)


def test_omega_of_least_filter_is_identity(named):
    for nm in ("2", "S3", "C4", "D4", "S5"):
        A = named[nm]
        assert omega(A, dfg(A, {})).blocks == tuple(range(A.size))


def test_omega_rejects_non_filter(named):
    A = named["C4"]
    with pytest.raises(NotAFilter):
        omega(A, DeductiveFilter(frozenset({A.e, 0}), A))
    with pytest.raises(NotAFilter):
        omega(A, dfg(named["D4"], {}))  # wrong owner


def test_filter_of_is_inverse(named):
    for nm in ("2", "S3", "C4", "D4", "S4", "S5"):
        A = named[nm]
        for G in deductive_filters(A):
            assert filter_of(A, omega(A, G)).members == G.members


def test_filter_of_rejects_non_congruence(named):
    A = named["C4"]
    with pytest.raises(NotACongruence):
        filter_of(A, Congruence((0, 0, 1, 1), A))


def test_quotient_s5_is_s3(named):
    Q, proj = quotient(named["S5"], dfg(named["S5"], {1}))
    assert Q.size == 3
    assert is_isomorphic(Q, named["S3"])
    assert proj == [0, 1, 1, 1, 2]


def test_quotient_full_collapse_and_c4_bottom(named):
    A = named["C4"]
    Q, _ = quotient(A, dfg(A, {0}))
    assert Q.size == 1
    Q2, _ = quotient(A, DeductiveFilter(frozenset(A.elements), A))
    assert Q2.size == 1


def test_quotient_projection_is_homomorphism(named):
    from dmm.constructions import Homomorphism
    A = named["S5"]
    Q, proj = quotient(A, dfg(A, {1}))
    assert oracle_is_homomorphism(Homomorphism(A, Q, tuple(proj)))


def test_classify_named_simple(named):
    for nm in ("2", "S3", "C4", "D4"):
        c = classify(named[nm])
        assert c.simple and c.si and c.fsi and not c.trivial


def test_classify_s5(named):
    c = classify(named["S5"])
    assert c.si and not c.simple
    assert c.subcover == 1  # the element -1, largest strictly below e = 0


def test_classify_product_not_fsi(named):
    c = classify(direct_product(named["2"], named["2"]))
    assert not c.fsi and not c.si and not c.simple


def test_classify_is_memoized(named):
    for A in named.values():
        assert classify(A) is classify(A)


def test_classify_trivial():
    T = make_named("S1")
    c = classify(T)
    assert c.trivial and c.fsi and not c.si and not c.simple


def oracle_is_congruence(A, blocks):
    """The pairwise test: related elements have related negations and
    related rows of meet, join and fusion."""
    n = A.size
    for a in range(n):
        for b in range(n):
            if blocks[a] != blocks[b]:
                continue
            if blocks[A.neg[a]] != blocks[A.neg[b]]:
                return False
            for c in range(n):
                for op in (A.meet, A.join, A.fusion):
                    if blocks[op[a][c]] != blocks[op[b][c]]:
                        return False
    return True


def _partitions(n):
    """Every partition of range(n), as block ids numbered by least member."""
    out = [()]
    for _ in range(n):
        out = [(*p, i) for p in out for i in range(max(p, default=-1) + 2)]
    return out


def test_is_congruence_matches_pairwise_oracle(dmm_catalogs):
    seen = []
    small = [*(A for n in range(1, 6) for A in dmm_catalogs[n].algebras),
             *(A for n in range(1, 5) for A in enumerate_algebras(
                 SearchSpec.for_class("irl", n)).algebras)]
    for A in small:
        for blocks in _partitions(A.size):
            seen.append(is_congruence(A, Congruence(blocks, A)))
            assert seen[-1] == oracle_is_congruence(A, blocks), (A, blocks)
    # the quotient blocks of dmm-8, and each with one element moved to the
    # block of 0
    for A in enumerate_algebras(SearchSpec(8)).algebras:
        for G in deductive_filters(A):
            kernel = omega(A, G).blocks
            for a in (None, *A.elements):
                blocks = tuple(kernel[0] if x == a else kernel[x]
                               for x in A.elements)
                seen.append(is_congruence(A, Congruence(blocks, A)))
                assert seen[-1] == oracle_is_congruence(A, blocks)
    # ids out of range or not ints take the element walk: the partitions
    # renamed, and the last element moved to a new block named n
    for A in (A for n in range(2, 6) for A in dmm_catalogs[n].algebras):
        n = A.size
        for blocks in _partitions(n):
            for named in (tuple(b + n for b in blocks),
                          tuple(map(str, blocks)),
                          tuple(b == 1 if b < 2 else b for b in blocks),
                          (*blocks[:-1], n)):
                seen.append(is_congruence(A, Congruence(named, A)))
                assert seen[-1] == oracle_is_congruence(A, named), named
    assert True in seen and False in seen


def test_congruence_lattice_sizes(named):
    # simple algebras have exactly two congruences
    assert len(congruence_lattice(named["C4"])) == 2
    assert len(congruence_lattice(make_named("S1"))) == 1
    cons = congruence_lattice(named["S5"])
    assert len(cons) == len(deductive_filters(named["S5"]))
    blocks = [max(c.blocks) + 1 for c in cons]
    assert blocks == sorted(blocks, reverse=True)


def test_is_deductive_filter_requires_submonoid(named):
    A = named["S4"]  # f = index 2, e = index 1... check {f up-set}
    # the up-set of f: {2, 3}; f*f = top? it's a filter iff closed under *
    up_f = frozenset(a for a in A.elements if A.leq(2, a))
    assert is_deductive_filter(A, up_f) == all(
        A.fusion[a][b] in up_f for a in up_f for b in up_f)
