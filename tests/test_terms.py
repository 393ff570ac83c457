import io
import re
import tokenize
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corrupted_tables
from dmm.algebra import FiniteIRL, _law_battery
from dmm.terms import (_COMPILED, COMPILED_CAP, LAW_LIBRARY, MAX_DEPTH,
                       MAX_VARS, Arrow, Const, Equation, Fusion, Inequation,
                       Join, Meet, Neg, ParseError, QuasiEquation,
                       SatisfactionResult, TermTooDeep, TooManyVariables, Var,
                       _source, first_counterexamples, law_statements, parse,
                       parse_statement, satisfies, statements_from_text,
                       to_text, variables)

x, y, z = Var("x"), Var("y"), Var("z")


def test_parse_inequation_square_increasing():
    assert parse("x <= x * x") == Inequation(x, Fusion(x, x))


def test_parse_semilinearity_axiom():
    s = parse("e <= (x -> y) \\/ (y -> x)")
    assert s == Inequation(Const("e"), Join(Arrow(x, y), Arrow(y, x)))


def test_parse_quasi_equation():
    s = parse("x = y & y = z => x = z")
    assert isinstance(s, QuasiEquation)
    assert len(s.premises) == 2
    assert s.conclusion == Equation(x, z)


def test_parse_unicode_aliases():
    assert parse("¬x ∧ y ≤ x ∨ y") == parse("~x /\\ y <= x \\/ y")
    assert parse("x · y → z = e") == parse("x * y -> z = e")


def test_precedence_neg_fusion_meet_join_arrow():
    s = parse("~x * y /\\ z \\/ e -> f = f")
    lhs = s.lhs
    assert isinstance(lhs, Arrow)
    assert lhs == Arrow(Join(Meet(Fusion(Neg(x), y), z), Const("e")),
                        Const("f"))


def test_arrow_right_associative():
    assert parse("x -> y -> z = e").lhs == Arrow(x, Arrow(y, z))
    assert to_text(Arrow(x, Arrow(y, z))) == "x -> y -> z"
    assert to_text(Arrow(Arrow(x, y), z)) == "(x -> y) -> z"


def test_print_examples():
    e = Const("e")
    assert to_text(Fusion(Neg(e), Neg(e))) == "~e * ~e"
    assert to_text(Meet(Join(x, y), z)) == "(x \\/ y) /\\ z"


def test_parse_error_has_position_and_expectations():
    with pytest.raises(ParseError) as ei:
        parse("x <= ")
    assert "position 5" in str(ei.value) and "expected" in str(ei.value)
    with pytest.raises(ParseError) as ei:
        parse("x ? y")
    assert "position 2" in str(ei.value)
    with pytest.raises(ParseError):
        parse_statement("x * y")  # bare term, not a statement


def test_parse_error_names_end_of_input():
    with pytest.raises(ParseError) as ei:
        parse("x = x = x")
    assert str(ei.value) == ("unexpected token '=' at position 6 "
                             "(expected one of: end of input)")
    with pytest.raises(ParseError) as ei:
        parse("(x")
    assert "unexpected token 'end of input'" in str(ei.value)


def test_parse_error_counts_unicode_as_written():
    # the text is scanned as written: 'x ≤ y ≤' has 7 characters and its
    # bad token, named as written, is at position 6
    with pytest.raises(ParseError) as ei:
        parse("x ≤ y ≤")
    assert str(ei.value) == ("unexpected token '≤' at position 6 "
                             "(expected one of: end of input)")
    with pytest.raises(ParseError) as ei:
        parse("x ∧ ⟹ y")
    assert (ei.value.position, ei.value.message) == (
        4, "unexpected token '⟹'")
    assert parse("x ∧ y ≤ x · x") == parse("x /\\ y <= x * x")


def test_statement_file_positions_are_columns_with_unicode():
    with pytest.raises(ParseError) as ei:
        statements_from_text("x ≤ x\n  x ≤ y ≤\n")
    assert (ei.value.line, ei.value.position) == (2, 8)
    assert str(ei.value).startswith("line 2: unexpected token '≤' "
                                    "at position 8")


def test_nesting_bound():
    deep = {"parens": "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH,
            "neg": "~" * MAX_DEPTH + "x",
            "arrow": " -> ".join(["x"] * (MAX_DEPTH + 1)),
            "fusion": " * ".join(["x"] * (MAX_DEPTH + 1))}
    for text in deep.values():
        parse(text + " <= x")
    for text in ("(" + deep["parens"] + ")", "~" + deep["neg"],
                 "x -> " + deep["arrow"], "x * " + deep["fusion"],
                 # chains inside chains: the tree height is what counts
                 "((x" + " * x" * 40 + ")" + " * x" * 40 + ")"
                 + " * x" * 40):
        with pytest.raises(ParseError, match="nested deeper"):
            parse(text + " <= x")


def fusion_chain(depth):
    """x * x * ... * x built in code, depth operators deep."""
    t = x
    for _ in range(depth):
        t = Fusion(t, x)
    return t


# the parser bounds the depth of what it builds; code can build deeper, and
# past about 200 levels the compiled source would not compile, and past
# the recursion limit the tree would not hash
@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 300, 5000])
def test_satisfies_refuses_deep_code_built_terms(named, depth):
    # square-increasing: x <= x * x <= x * x * x ...
    assert satisfies(named["C4"],
                     Inequation(x, fusion_chain(MAX_DEPTH))).holds
    with pytest.raises(TermTooDeep, match="nested deeper"):
        satisfies(named["C4"], Inequation(x, fusion_chain(depth)))


@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 300, 5000])
def test_first_counterexamples_refuses_deep_code_built_terms(named, depth):
    ok = Inequation(x, fusion_chain(MAX_DEPTH))
    assert first_counterexamples(named["C4"], (ok, ok)) == (None, None)
    with pytest.raises(TermTooDeep, match="nested deeper"):
        first_counterexamples(named["C4"],
                              (ok, Inequation(x, fusion_chain(depth))))


@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 300, 5000])
def test_premise_refuses_deep_code_built_terms(named, depth):
    # a premise is walked for its depth as a conclusion is
    def guarded(t):
        return QuasiEquation((Inequation(x, t),), Inequation(x, x))

    assert satisfies(named["C4"], guarded(fusion_chain(MAX_DEPTH))).holds
    with pytest.raises(TermTooDeep, match="nested deeper"):
        satisfies(named["C4"], guarded(fusion_chain(depth)))


def test_premises_need_conclusion():
    with pytest.raises(ParseError):
        parse("x = y & y = z")


def test_variables_sorted():
    assert variables(parse("z /\\ x <= y")) == ["x", "y", "z"]


def test_satisfies_examples(named):
    assert satisfies(named["2"], parse("x <= e")).holds
    assert satisfies(named["C4"], parse("e <= f")).holds
    r = satisfies(named["D4"], parse("e <= (x -> y) \\/ (y -> x)"))
    assert not r.holds
    # first counterexample in lexicographic order: x = e, y = f
    assert r.counterexample == {"x": named["D4"].e, "y": named["D4"].f}


def test_variable_cap():
    assert MAX_VARS == 4
    s = parse("x1 /\\ x2 /\\ x3 /\\ x4 /\\ x5 <= x1")
    from dmm.constructions import make_named
    with pytest.raises(TooManyVariables, match="5 variables exceeds the cap"):
        satisfies(make_named("2"), s)
    assert satisfies(make_named("2"), parse("x1 /\\ x2 /\\ x3 <= x4")) \
        == SatisfactionResult(False, {"x1": 1, "x2": 1, "x3": 1, "x4": 0})
    # a battery's cap bounds the union of its statements' variables
    battery = (parse("x1 /\\ x2 <= x1"), parse("x3 /\\ x4 <= x5"))
    with pytest.raises(TooManyVariables):
        first_counterexamples(make_named("2"), battery)
    assert first_counterexamples(make_named("2"), battery[:1]) == (None,)


def test_statement_files():
    text = """
    # laws
    x <= x * x
    e <= x \\/ ~x  # excluded middle up to e
    """
    stmts = statements_from_text(text)
    assert len(stmts) == 2


def test_statement_file_parse_error_names_line():
    with pytest.raises(ParseError) as ei:
        statements_from_text("x <= x\n=> x\n")
    assert str(ei.value).startswith(
        "line 2: unexpected token '=>' at position 0")
    assert (ei.value.line, ei.value.position) == (2, 0)
    # positions count from the start of the line, indentation included,
    # and blank and comment lines still count
    with pytest.raises(ParseError) as ei:
        statements_from_text("# laws\n\n  x <= ~  # bad\n")
    assert str(ei.value).startswith("line 3: unexpected token 'end of input'"
                                    " at position 8")
    with pytest.raises(ParseError) as ei:
        statements_from_text("x <= x\n\t  => x\n")
    assert (ei.value.line, ei.value.position) == (2, 3)
    # a single statement's errors name no line
    with pytest.raises(ParseError) as ei:
        parse_statement("=> x")
    assert ei.value.line is None and not str(ei.value).startswith("line")


def test_law_library_parses_and_roundtrips():
    for name in LAW_LIBRARY:
        for s in law_statements(name):
            assert parse(to_text(s)) == s


# Laws 1-12 hold in every IRL; 13-15 need square-increasing fusion.
GENERAL_IRL_LAWS = tuple(f"law-{i}" for i in range(1, 13))
SQUARE_INCREASING_LAWS = tuple(f"law-{i}" for i in range(1, 16))


def _failing_laws(A, names):
    return [name for name in names for s in law_statements(name)
            if not satisfies(A, s).holds]


def test_general_laws_on_mv_chain():
    mv = FiniteIRL.from_tables(
        4, [[min(a, b) for b in range(4)] for a in range(4)],
        [[max(a, b) for b in range(4)] for a in range(4)],
        [[max(a + b - 3, 0) for b in range(4)] for a in range(4)],
        [3 - a for a in range(4)], 3)
    assert _failing_laws(mv, GENERAL_IRL_LAWS) == []


def test_square_increasing_laws_on_named(named):
    for nm in ("2", "S3", "C4", "D4", "S5"):
        assert _failing_laws(named[nm], SQUARE_INCREASING_LAWS) == [], nm


# ---- random round-trip ------------------------------------------------------

terms = st.recursive(
    st.sampled_from([x, y, z, Const("e"), Const("f")]),
    lambda sub: st.one_of(
        sub.map(Neg),
        st.tuples(sub, sub).map(lambda p: Fusion(*p)),
        st.tuples(sub, sub).map(lambda p: Meet(*p)),
        st.tuples(sub, sub).map(lambda p: Join(*p)),
        st.tuples(sub, sub).map(lambda p: Arrow(*p))),
    max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(terms)
def test_random_term_roundtrip(t):
    assert parse(to_text(t)) == t


@settings(max_examples=100, deadline=None)
@given(st.tuples(terms, terms))
def test_random_statement_roundtrip(pair):
    s, t = pair
    for stmt in (Equation(s, t), Inequation(s, t),
                 QuasiEquation((Equation(s, s),), Equation(s, t))):
        assert parse(to_text(stmt)) == stmt


# ---- the tree-walking interpreter, as the oracle of the compiled code -------


def oracle_evaluate(t, A, assignment):
    if isinstance(t, Var):
        return assignment[t.name]
    if isinstance(t, Const):
        return A.e if t.sym == "e" else A.f
    if isinstance(t, Neg):
        return A.neg[oracle_evaluate(t.arg, A, assignment)]
    a = oracle_evaluate(t.left, A, assignment)
    b = oracle_evaluate(t.right, A, assignment)
    if isinstance(t, Fusion):
        return A.fusion[a][b]
    if isinstance(t, Meet):
        return A.meet[a][b]
    if isinstance(t, Join):
        return A.join[a][b]
    return A.residual(a, b)


def _desugar(s):
    # s <= t  becomes  s /\ t = s
    if isinstance(s, Inequation):
        return Equation(Meet(s.lhs, s.rhs), s.lhs)
    assert isinstance(s, Equation)
    return s


def _holds(s, A, asg):
    return oracle_evaluate(s.lhs, A, asg) == oracle_evaluate(s.rhs, A, asg)


def oracle_satisfies(A, s):
    names = variables(s)
    if isinstance(s, QuasiEquation):
        prems = [_desugar(p) for p in s.premises]
        concl = _desugar(s.conclusion)
    else:
        prems = []
        concl = _desugar(s)
    for values in product(A.elements, repeat=len(names)):
        asg = dict(zip(names, values))
        if all(_holds(p, A, asg) for p in prems) and not _holds(concl, A, asg):
            return SatisfactionResult(False, asg)
    return SatisfactionResult(True, None)


SMALL_NAMED = ("2", "S3", "C4", "D4", "S4", "S5")


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SMALL_NAMED), terms, terms, terms)
def test_satisfies_matches_interpreter(named, name, s, t, u):
    A = named[name]
    for stmt in (Equation(s, t), Inequation(s, t),
                 QuasiEquation((Inequation(u, s),), Equation(s, t)),
                 QuasiEquation((Equation(s, u), Inequation(t, Const("e"))),
                               Inequation(t, u))):
        assert satisfies(A, stmt) == oracle_satisfies(A, stmt)


def test_library_matches_interpreter(named):
    for A in named.values():
        for name in LAW_LIBRARY:
            for s in law_statements(name):
                if A.size <= 6 or len(variables(s)) < 3:
                    assert satisfies(A, s) == oracle_satisfies(A, s), name


# a variable-free premise, no variable at all, a premise on the last
# variable only
EDGE_STATEMENTS = ("f * f = f => x * x = x", "f * f = f => f <= e",
                   "z <= e => x * y <= y * x")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(d=corrupted_tables())
def test_satisfies_matches_interpreter_on_corrupted_tables(d):
    A = FiniteIRL.from_dict(d)
    for s in (*(s for law in LAW_LIBRARY for s in law_statements(law)),
              *map(parse_statement, EDGE_STATEMENTS)):
        assert satisfies(A, s) == oracle_satisfies(A, s), to_text(s)


def _first(A, s):
    """The oracle's first counterexample of s, as its variables' values."""
    r = oracle_satisfies(A, s)
    return None if r.holds else tuple(r.counterexample.values())


def _statement(kind, s, t, p):
    """Equation, inequation, or a quasi-equation with premise p."""
    return (Equation(s, t), Inequation(s, t),
            QuasiEquation((p,), Inequation(s, t)))[kind]


closed_terms = st.recursive(
    st.sampled_from([Const("e"), Const("f")]),
    lambda sub: st.one_of(
        sub.map(Neg),
        st.tuples(sub, sub).map(lambda p: Fusion(*p)),
        st.tuples(sub, sub).map(lambda p: Arrow(*p))),
    max_leaves=4)
# premises with variables, and variable-free ones
premises = st.one_of(st.builds(Inequation, terms, terms),
                     st.builds(Equation, closed_terms, closed_terms))
statements = st.builds(_statement, st.integers(0, 2), terms, terms, premises)
batteries = st.lists(statements, min_size=1, max_size=4).map(tuple)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SMALL_NAMED), batteries)
def test_first_counterexamples_match_interpreter(named, name, battery):
    A = named[name]
    assert first_counterexamples(A, battery) == tuple(
        _first(A, s) for s in battery), [to_text(s) for s in battery]


# the library batteries whose statements are tested in guarded copies of
# the inner loops: law 8, the idempotence triple, and check_derived_laws'
# square-increasing battery, which holds both
GUARDED_BATTERIES = (law_statements("law-8"),
                     law_statements("idempotence-triple"),
                     _law_battery(True)[1])


@settings(max_examples=150, deadline=None, derandomize=True)
@given(d=corrupted_tables(),
       battery=st.one_of(batteries, st.sampled_from(GUARDED_BATTERIES)))
def test_first_counterexamples_match_interpreter_on_corrupted_tables(
        d, battery):
    A = FiniteIRL.from_dict(d)
    assert first_counterexamples(A, battery) == tuple(
        _first(A, s) for s in battery), [to_text(s) for s in battery]


@pytest.mark.parametrize("texts", [
    # {x, z} and {y} beside {x, y, z}: each gets its own variables' values
    ("x * z <= z", "x * y <= z", "y <= e", "x \\/ z = z \\/ x"),
    # variable-free premises, one that holds and one that fails
    ("f * f = f => x <= e", "e = f => x <= y", "e <= f => f <= e"),
    # every statement fails, in D4 at an early assignment, so the walk
    # stops early there
    ("x <= e", "z <= e", "f <= e", "x * y <= x /\\ y")])
def test_first_counterexamples_examples(named, texts):
    battery = tuple(map(parse_statement, texts))
    for A in named.values():
        got = first_counterexamples(A, battery)
        assert got == tuple(_first(A, s) for s in battery), (A.name, texts)
    if texts[0] == "x <= e":
        assert first_counterexamples(named["D4"], battery) == (
            (2,), (2,), (), (1, 2))
    assert first_counterexamples(named["D4"], ()) == ()


def test_compiled_cache_is_bounded(named):
    # statements parsed afresh on every call each get an entry; past the
    # cap the oldest are dropped, and answers stay those of fresh code
    A = named["D4"]
    battery = tuple(map(parse_statement, ("x <= e", "x * y <= x /\\ y")))
    law = law_statements("law-1")[0]
    want = (satisfies(A, law), first_counterexamples(A, battery))
    for _ in range(COMPILED_CAP + 100):
        satisfies(A, parse_statement("x * e = x"))
    assert len(_COMPILED) <= COMPILED_CAP
    assert (satisfies(A, law), first_counterexamples(A, battery)) == want
    assert first_counterexamples(A, battery) == tuple(
        _first(A, s) for s in battery)


def test_variable_names_cannot_capture_generated_names(named):
    A = named["D4"]
    texts = ("meet * neg <= rng -> run", "v1 \\/ v0 /\\ left <= ~v1",
             "run <= e & neg = f => ~rng <= run * neg",
             "o0 * t0 <= r0 -> o0", "left = e => o0 \\/ t0 <= ~left")
    for text in texts:
        s = parse(text)
        assert satisfies(A, s) == oracle_satisfies(A, s), text
    battery = tuple(map(parse, texts[3:]))
    assert first_counterexamples(A, battery) == tuple(
        _first(A, s) for s in battery)


def test_generated_source_has_a_fixed_vocabulary():
    s = parse("import * os <= exec -> x & globals = e => f <= ~breakpoint")
    battery = (s, parse("eval = len"))
    names = sorted({nm for t in battery for nm in variables(t)})
    slots = {nm: f"v{i}" for i, nm in enumerate(names)}
    for node in ((s,), battery):
        src = _source(node, slots)
        words = {tok.string for tok in tokenize.generate_tokens(
            io.StringIO(src).readline) if tok.type == tokenize.NAME}
        # the compiler's own temporaries: t<k> for a value, r<k> for a
        # row, o<k> for a statement's first counterexample
        temporaries = {w for w in words if re.fullmatch(r"[tro][0-9]+", w)}
        assert words - temporaries <= {
            "def", "run", "rng", "meet", "join", "fus", "res", "neg",
            "e", "f", "le", "left", "for", "in", "if", "and", "not", "is",
            "return", "None", *slots.values()}
        assert not words & {"import", "os", "exec", "globals", "breakpoint",
                            "eval", "len"}


def _enclosing(lines, k):
    """The lines that open the blocks around line k, innermost first."""
    out, indent = [], len(lines[k]) - len(lines[k].lstrip())
    for ln in reversed(lines[:k]):
        if (i := len(ln) - len(ln.lstrip())) < indent:
            out.append(ln.strip())
            indent = i
    return out


def test_law_8_is_tested_only_under_its_premise():
    # x <= y => ..., over x, y, z: each conclusion is tested in a copy of
    # the z loop, entered only where x <= y; the three statements share
    # their premise, so they share the copy
    law8 = law_statements("law-8")
    lines = _source(law8, {"x": "v0", "y": "v1", "z": "v2"}).splitlines()
    for k in range(len(law8)):
        (test,) = [i for i, ln in enumerate(lines)
                   if ln.strip().startswith("if not (")
                   and ln.strip().endswith(f"and o{k} is None:")]
        above = _enclosing(lines, test)
        assert above[0] == "for v2 in rng:"
        assert re.fullmatch(r"if r[0-9]+\[v1\] and "
                            r"\(o0 is None or o1 is None or o2 is None\):",
                            above[1])
        assert above[2:] == ["for v1 in rng:", "for v0 in rng:",
                             "def run(rng, meet, join, fus, res, neg, e, f, "
                             "le):"]
    # the row of the premise is le[x], read once per x
    assert any(re.fullmatch(r"r[0-9]+ = le\[v0\]", ln.strip())
               for ln in lines)
