"""Equational DSL over the IRL signature: parsing, printing, evaluation.

Grammar (loosest to tightest): ->  \\/  /\\  *  ~, with -> right-associative.
ASCII aliases: * for fusion, /\\ meet, \\/ join, ~ negation, -> residual,
<= order; the Unicode originals are accepted too.  `&` joins quasi-equation
premises and `=>` introduces the conclusion.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache
from itertools import product

from dmm.algebra import FiniteIRL


class ParseError(Exception):
    def __init__(self, message: str, position: int, expected: tuple[str, ...] = ()):
        super().__init__(f"{message} at position {position}"
                         + (f" (expected one of: {', '.join(expected)})" if expected else ""))
        self.position = position
        self.expected = expected


class UnboundVariable(Exception):
    def __init__(self, name: str):
        super().__init__(f"unbound variable {name!r}")
        self.name = name


class TooManyVariables(ValueError):
    pass


# ---- AST -------------------------------------------------------------------


@dataclass(frozen=True)
class Term:
    pass


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Const(Term):
    sym: str  # "e" or "f"


@dataclass(frozen=True)
class Neg(Term):
    arg: Term


@dataclass(frozen=True)
class Fusion(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Meet(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Join(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Arrow(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Statement:
    pass


@dataclass(frozen=True)
class Equation(Statement):
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class Inequation(Statement):
    lhs: Term
    rhs: Term


@dataclass(frozen=True)
class QuasiEquation(Statement):
    premises: tuple[Statement, ...]  # equations / inequations
    conclusion: Statement


E = Const("e")
F = Const("f")


def variables(node) -> list[str]:
    """Variable names, sorted (this fixes the assignment iteration order)."""
    seen: set[str] = set()

    def walk(t):
        if isinstance(t, Var):
            seen.add(t.name)
        elif isinstance(t, Neg):
            walk(t.arg)
        elif isinstance(t, (Fusion, Meet, Join, Arrow)):
            walk(t.left)
            walk(t.right)
        elif isinstance(t, (Equation, Inequation)):
            walk(t.lhs)
            walk(t.rhs)
        elif isinstance(t, QuasiEquation):
            for p in t.premises:
                walk(p)
            walk(t.conclusion)

    walk(node)
    return sorted(seen)


# ---- parsing ---------------------------------------------------------------

_ALIASES = [("·", "*"), ("∧", "/\\"), ("∨", "\\/"), ("¬", "~"),
            ("→", "->"), ("≤", "<="), ("⟹", "=>"), ("⇒", "=>")]

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<op>=>|<=|->|/\\|\\/|[*~&=()])|(?P<ident>[A-Za-z][A-Za-z0-9_]*))")


def _tokenize(text: str):
    for u, a in _ALIASES:
        text = text.replace(u, a)
    pos, toks = 0, []
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m or m.start("op") == m.start("ident") == -1:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = "op" if m.group("op") else "ident"
        toks.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    toks.append(("end", "", len(text)))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def take(self, value=None):
        kind, val, pos = self.toks[self.i]
        if value is not None and val != value:
            raise ParseError(f"unexpected token {val!r}", pos, (value,))
        self.i += 1
        return kind, val, pos

    def term(self) -> Term:
        return self.arrow()

    def arrow(self) -> Term:
        left = self.join()
        if self.peek()[1] == "->":
            self.take()
            return Arrow(left, self.arrow())  # right-associative
        return left

    def join(self) -> Term:
        t = self.meet()
        while self.peek()[1] == "\\/":
            self.take()
            t = Join(t, self.meet())
        return t

    def meet(self) -> Term:
        t = self.fusion()
        while self.peek()[1] == "/\\":
            self.take()
            t = Meet(t, self.fusion())
        return t

    def fusion(self) -> Term:
        t = self.unary()
        while self.peek()[1] == "*":
            self.take()
            t = Fusion(t, self.unary())
        return t

    def unary(self) -> Term:
        kind, val, pos = self.peek()
        if val == "~":
            self.take()
            return Neg(self.unary())
        if val == "(":
            self.take()
            t = self.term()
            self.take(")")
            return t
        if kind == "ident":
            self.take()
            if val == "e":
                return E
            if val == "f":
                return F
            return Var(val)
        raise ParseError(f"unexpected token {val or 'end of input'!r}", pos,
                         ("~", "(", "identifier"))

    def eqineq(self) -> Statement:
        lhs = self.term()
        kind, val, pos = self.take()
        if val == "=":
            return Equation(lhs, self.term())
        if val == "<=":
            return Inequation(lhs, self.term())
        raise ParseError(f"unexpected token {val or 'end of input'!r}", pos,
                         ("=", "<="))

    def statement_or_term(self):
        # A statement iff a relation symbol occurs at the top level.
        if any(v in ("=", "<=", "=>", "&") for _, v, _ in self.toks):
            first = self.eqineq()
            prems = [first]
            while self.peek()[1] == "&":
                self.take()
                prems.append(self.eqineq())
            if self.peek()[1] == "=>":
                self.take()
                concl = self.eqineq()
                stmt: Statement = QuasiEquation(tuple(prems), concl)
            else:
                if len(prems) > 1:
                    raise ParseError("premises without a conclusion",
                                     self.peek()[2], ("=>",))
                stmt = first
            self.take("")  # end
            return stmt
        t = self.term()
        self.take("")
        return t


def parse(text: str):
    """Parse a term or a statement (equation, inequation or quasi-equation)."""
    return _Parser(text).statement_or_term()


def parse_statement(text: str) -> Statement:
    node = parse(text)
    if not isinstance(node, Statement):
        raise ParseError("expected a statement, got a bare term", 0)
    return node


def statements_from_text(text: str) -> list[Statement]:
    """One statement per line; '#' starts a comment."""
    out = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            out.append(parse_statement(line))
    return out


# ---- printing --------------------------------------------------------------

_PREC = {Arrow: 1, Join: 2, Meet: 3, Fusion: 4, Neg: 5, Var: 6, Const: 6}
_OPSYM = {Fusion: " * ", Meet: " /\\ ", Join: " \\/ ", Arrow: " -> "}


def to_text(node) -> str:
    """Canonical minimal-parenthesis rendering; parse(to_text(x)) == x."""
    if isinstance(node, Equation):
        return f"{to_text(node.lhs)} = {to_text(node.rhs)}"
    if isinstance(node, Inequation):
        return f"{to_text(node.lhs)} <= {to_text(node.rhs)}"
    if isinstance(node, QuasiEquation):
        prem = " & ".join(to_text(p) for p in node.premises)
        return f"{prem} => {to_text(node.conclusion)}"
    return _term_text(node)


def _term_text(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return t.sym
    if isinstance(t, Neg):
        inner = _term_text(t.arg)
        if _PREC[type(t.arg)] < _PREC[Neg]:
            inner = f"({inner})"
        return "~" + inner
    prec = _PREC[type(t)]
    left, right = _term_text(t.left), _term_text(t.right)
    if isinstance(t, Arrow):
        if _PREC[type(t.left)] <= prec:
            left = f"({left})"
        if _PREC[type(t.right)] < prec:
            right = f"({right})"
    else:
        if _PREC[type(t.left)] < prec:
            left = f"({left})"
        if _PREC[type(t.right)] <= prec:
            right = f"({right})"
    return left + _OPSYM[type(t)] + right


# ---- evaluation ------------------------------------------------------------


def evaluate(t: Term, A: FiniteIRL, assignment: dict[str, int]) -> int:
    if isinstance(t, Var):
        try:
            return assignment[t.name]
        except KeyError:
            raise UnboundVariable(t.name) from None
    if isinstance(t, Const):
        return A.e if t.sym == "e" else A.f
    if isinstance(t, Neg):
        return A.neg[evaluate(t.arg, A, assignment)]
    a = evaluate(t.left, A, assignment)
    b = evaluate(t.right, A, assignment)
    if isinstance(t, Fusion):
        return A.fusion[a][b]
    if isinstance(t, Meet):
        return A.meet[a][b]
    if isinstance(t, Join):
        return A.join[a][b]
    return A.residual(a, b)


def _desugar(s: Statement) -> Equation:
    # s <= t  becomes  s /\ t = s
    if isinstance(s, Inequation):
        return Equation(Meet(s.lhs, s.rhs), s.lhs)
    assert isinstance(s, Equation)
    return s


def _holds(s: Equation, A: FiniteIRL, asg: dict[str, int]) -> bool:
    return evaluate(s.lhs, A, asg) == evaluate(s.rhs, A, asg)


@dataclass
class SatisfactionResult:
    holds: bool
    counterexample: dict[str, int] | None
    assignments_checked: int
    conclusion_evaluations: int


def satisfies(A: FiniteIRL, s: Statement, max_vars: int = 4) -> SatisfactionResult:
    """Brute-force check over all |A|^k assignments, in lexicographic order
    of (sorted variable name, element index); the first counterexample wins.
    """
    names = variables(s)
    if len(names) > max_vars:
        raise TooManyVariables(
            f"{len(names)} variables exceeds the cap of {max_vars}")
    if isinstance(s, QuasiEquation):
        prems = [_desugar(p) for p in s.premises]
        concl = _desugar(s.conclusion)
    else:
        prems = []
        concl = _desugar(s)
    checked = evals = 0
    for values in product(A.elements, repeat=len(names)):
        asg = dict(zip(names, values))
        checked += 1
        if all(_holds(p, A, asg) for p in prems):
            evals += 1
            if not _holds(concl, A, asg):
                return SatisfactionResult(False, asg, checked, evals)
    return SatisfactionResult(True, None, checked, evals)


# ---- the named law / axiom library ----------------------------------------

# Each entry is a tuple of statement sources; a law with several clauses (or
# both directions of an "iff") simply has several entries.  Laws that cannot
# be written as quasi-equations over the signature are omitted.
LAW_LIBRARY: dict[str, tuple[str, ...]] = {
    "law-1": ("x * y <= z => ~z * y <= ~x",
              "~z * y <= ~x => x * y <= z"),
    "law-2": ("x * y <= z => y <= x -> z",
              "y <= x -> z => x * y <= z"),
    "law-3": ("~x = x -> f",
              "x -> y = ~y -> ~x",
              "x * y = ~(x -> ~y)"),
    "law-4": ("x * (x -> y) <= y",
              "x <= (x -> y) -> y"),
    "law-5": ("(x * y) -> z = y -> (x -> z)",
              "(x * y) -> z = x -> (y -> z)"),
    "law-6": ("(x -> y) * (y -> z) <= x -> z",),
    "law-7": ("x * (y \\/ z) = (x * y) \\/ (x * z)",),
    "law-8": ("x <= y => x * z <= y * z",
              "x <= y => z -> x <= z -> y",
              "x <= y => y -> z <= x -> z"),
    "law-9": ("x <= y => e <= x -> y",
              "e <= x -> y => x <= y"),
    "law-10": ("x = y => e <= (x -> y) /\\ (y -> x)",
               "e <= (x -> y) /\\ (y -> x) => x = y"),
    "law-11": ("e <= x -> x",
               "e -> x = x"),
    "law-12": ("e <= x => x -> x <= x",
               "x -> x <= x => e <= x"),
    "law-13": ("x /\\ y <= x * y",),
    "law-14": ("x <= e & y <= e => x * y = x /\\ y",),
    "law-15": ("e <= x \\/ ~x",),
    "ax-x-le-e": ("x <= e",),
    "ax-e-eq-f": ("e = f",),
    "ax-e-le-f": ("e <= f",),
    "ax-semilinear": ("e <= (x -> y) \\/ (y -> x)",),
    "ax-S3": ("e <= (x -> (y \\/ ~y)) \\/ (y /\\ ~y)",),
    "ax-D41": ("x /\\ ~x <= y",),
    "ax-D42": ("e <= (f * f -> x) \\/ (x -> e) \\/ ~x",),
    "ax-C41": ("x /\\ (x -> f) <= (f -> x) \\/ (x -> e)",),
    "ax-C42": ("x -> e <= x \\/ (f * f -> ~x)",),
    "ax-anti-idem": ("x <= f * f",),
}

# Laws valid in *all* square-increasing IRLs (13-15 need square-increasing).
SQUARE_INCREASING_LAWS = tuple(f"law-{i}" for i in range(1, 16))
GENERAL_IRL_LAWS = tuple(f"law-{i}" for i in range(1, 13))


@cache
def law_statements(name: str) -> tuple[Statement, ...]:
    """The parsed statements of a LAW_LIBRARY entry, parsed once per name."""
    return tuple(parse_statement(src) for src in LAW_LIBRARY[name])
