"""End-to-end acceptance gate.

Each test checks one headline property of the workbench and prints a single
pass/fail line (run with -s or look at captured output).
"""

import itertools
import random
import sys
import time

from dmm.algebra import check_derived_laws, predicates, validate_dmm
from dmm.constructions import (e_free_reduct, homs, hs_contains,
                               is_isomorphic, make_named, make_sugihara,
                               zero_generated)
from dmm.enumeration import (SearchSpec, axiomatization_check,
                             enumerate_algebras, theorem_harness)
from dmm.filters import classify
from dmm.relevant import (contains_two_reduct, dfg_oracle, dfg_ra,
                          meet_property_check, reconstruct_neutral,
                          validate_ra)
from dmm.structure import (NotApplicable, fusion_pattern_check, lollipop,
                           odd_sugihara_quotient, splitting_check)
from dmm.terms import (LAW_LIBRARY, Arrow, Const, Fusion, Join, Meet, Neg,
                       Var, law_statements, parse, to_text)

BASICS = ("2", "S3", "C4", "D4")


def report(label: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}", file=sys.stderr)
    assert ok, label


def subuniverses(A):
    """All subsets containing e and closed under every operation."""
    out = []
    for r in range(1, A.size + 1):
        for sub in itertools.combinations(A.elements, r):
            s = set(sub)
            if A.e not in s:
                continue
            if all(A.meet[a][b] in s and A.join[a][b] in s
                   and A.fusion[a][b] in s for a in s for b in s) \
                    and all(A.neg[a] in s for a in s):
                out.append(s)
    return out


def test_named_suite_simple_minimal_distinct(named):
    t0 = time.monotonic()
    ok = True
    for nm in BASICS:
        A = named[nm]
        ok &= validate_dmm(A).ok
        ok &= classify(A).simple
        subs = subuniverses(A)
        if nm == "S3":     # the odd chain also contains the one-element {e}
            ok &= sorted(map(len, subs)) == [1, A.size]
        else:
            ok &= [len(s) for s in subs] == [A.size]
    for a, b in itertools.combinations(BASICS, 2):
        ok &= not is_isomorphic(named[a], named[b])
    ok &= time.monotonic() - t0 < 1.0
    report("named suite: simple, no proper subalgebras, pairwise distinct",
           ok)


def test_axiom_sets_pin_down_named_algebras(dmm_upto):
    rep = axiomatization_check(dmm_upto(5))
    report("axiom sets single out their algebras among SI entries (size<=5)",
           rep.ok)


def test_zero_generated_simples(dmm_upto):
    targets = [make_named(nm) for nm in ("2", "C4", "D4")]
    ok = True
    seen = 0
    for A in dmm_upto(6).algebras:
        Z, _ = zero_generated(A)
        if Z.size == A.size and A.size > 1 and classify(A).simple:
            seen += 1
            ok &= any(is_isomorphic(A, X) for X in targets)
    ok &= seen >= 3
    report("zero-generated simple entries are 2, C4 or D4 (size<=6)", ok)


def test_every_nontrivial_entry_reaches_a_basic(dmm_upto):
    basics = [make_named(nm) for nm in BASICS]
    ok = all(any(hs_contains(A, X) for X in basics)
             for A in dmm_upto(5).algebras if A.size > 1)
    report("every nontrivial entry has a basic algebra in HS (size<=5)", ok)


def test_structure_theorems_on_catalog_and_extensions(dmm_upto, named):
    pool = list(dmm_upto(6).algebras) + [named[f"C4ext_{k}"]
                                         for k in (1, 2, 3)]
    ok = True
    for A in pool:
        if A.size == 1 or not classify(A).fsi:
            continue
        ok &= splitting_check(A).ok
        lp = lollipop(A)
        ok &= lp.ok
        ok &= predicates(A).rigorously_compact
        if not lp.idempotent_case:
            try:
                ok &= fusion_pattern_check(A).ok
                _, q = odd_sugihara_quotient(A)
                ok &= q.ok
            except NotApplicable:
                pass
    report("structure decompositions hold on catalog (size<=6) + extensions",
           ok)


def test_law_suite_on_every_entry(dmm_upto):
    ok = all(check_derived_laws(A).ok for A in dmm_upto(6).algebras)
    report("derived-law suite holds on every catalog entry (size<=6)", ok)


def test_sugihara_chains_and_collapse(named):
    t0 = time.monotonic()
    ok = True
    for n in range(1, 9):
        S = make_sugihara(n)
        ok &= validate_dmm(S).ok
        ok &= all(S.leq(a, b) or S.leq(b, a)
                  for a in S.elements for b in S.elements)
        if n > 1:
            ok &= classify(S).si
    for n in (4, 6, 8):
        src, tgt = make_sugihara(n), make_sugihara(n - 1)
        surjs = [h for h in homs(src, tgt) if h.surjective]
        ok &= len(surjs) == 1
        h = surjs[0].mapping
        collided = [(a, b) for a in src.elements for b in src.elements
                    if a < b and h[a] == h[b]]
        # the only identified pair is {-1, 1}, the two middle elements
        ok &= collided == [(n // 2 - 1, n // 2)]
    ok &= time.monotonic() - t0 < 10.0
    report("even Sugihara chains collapse onto odd ones by a unique "
           "surjection identifying only the middle pair", ok)


def test_e_free_reducts(dmm_upto):
    ok = True
    for A in dmm_upto(6).algebras:
        R = e_free_reduct(A)
        ok &= validate_ra(R).ok
        ok &= meet_property_check(R)
        for a in R.elements:
            ok &= dfg_ra(R, a).members == dfg_oracle(R, {a}).members
        ok &= reconstruct_neutral(R) == A.e
        if R.size > 1:
            ok &= contains_two_reduct(R) is not None
    report("identity-free reducts: filters, neutral recovery, two-element "
           "witness (size<=6)", ok)


def random_term(rng, depth=0):
    if depth > 4 or rng.random() < 0.3:
        return rng.choice([Var("x"), Var("y"), Var("z"),
                           Const("e"), Const("f")])
    op = rng.choice(["neg", "fus", "meet", "join", "arrow"])
    if op == "neg":
        return Neg(random_term(rng, depth + 1))
    cls = {"fus": Fusion, "meet": Meet, "join": Join, "arrow": Arrow}[op]
    return cls(random_term(rng, depth + 1), random_term(rng, depth + 1))


def test_determinism_and_roundtrip():
    ok = enumerate_algebras(SearchSpec(4)).to_json() == \
        enumerate_algebras(SearchSpec(4)).to_json()
    for name in LAW_LIBRARY:
        for s in law_statements(name):
            ok &= parse(to_text(s)) == s
    rng = random.Random(20260823)
    for _ in range(1000):
        t = random_term(rng)
        ok &= parse(to_text(t)) == t
    report("byte-identical re-runs; parse/print round-trip on law library "
           "+ 1000 random terms", ok)


def test_counts_frozen_only_with_independent_recount(dmm_catalogs,
                                                     slow_counts):
    golden = [1, 1, 1, 4]
    fast = [len(dmm_catalogs[n].algebras) for n in range(1, 5)]
    slow = [slow_counts[n] for n in range(1, 5)]
    ok = fast == slow == golden
    report("catalog counts for sizes 1-4 match an unpruned recount", ok)


def test_harness_summary(dmm_upto):
    rep = theorem_harness(dmm_upto(6))
    report("full theorem harness over the merged catalog (size<=6)", rep.ok)
