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
from itertools import count

from dmm.algebra import FiniteIRL


class ParseError(Exception):
    def __init__(self, message: str, position: int,
                 expected: tuple[str, ...] = (), line: int | None = None):
        super().__init__((f"line {line}: " if line else "")
                         + f"{message} at position {position}"
                         + (f" (expected one of: {', '.join(expected)})" if expected else ""))
        self.message = message
        self.position = position
        self.expected = expected
        self.line = line


class TooManyVariables(ValueError):
    pass


class TermTooDeep(ValueError):
    """A term built in code, not parsed, nests deeper than MAX_DEPTH levels;
    satisfies and first_counterexamples raise it before compiling."""


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


def _walk(node):
    """Every statement and term inside node, each with its number of
    operators above it, walked without recursion."""
    todo = [(node, 0)]
    while todo:
        t, h = todo.pop()
        yield t, h
        if isinstance(t, Neg):
            todo.append((t.arg, h + 1))
        elif isinstance(t, (Equation, Inequation)):
            todo += ((t.lhs, h), (t.rhs, h))
        elif isinstance(t, QuasiEquation):
            todo += ((u, h) for u in (*t.premises, t.conclusion))
        elif not isinstance(t, (Var, Const)):
            todo += ((t.left, h + 1), (t.right, h + 1))


def variables(node) -> list[str]:
    """Variable names, sorted (this fixes the assignment iteration order)."""
    return sorted({t.name for t, _ in _walk(node) if isinstance(t, Var)})


# ---- parsing ---------------------------------------------------------------

_ALIASES = {"·": "*", "∧": "/\\", "∨": "\\/", "¬": "~", "→": "->",
            "≤": "<=", "⟹": "=>", "⇒": "=>"}

_END = "end of input"  # the value of the last token
_TOKEN_RE = re.compile(
    r"(?P<op>=>|<=|->|/\\|\\/|[*~&=()]|[" + "".join(_ALIASES) + r"])"
    r"|(?P<ident>[A-Za-z][A-Za-z0-9_]*)")


def _tokenize(text: str):
    """The tokens of text as (kind, value, position, written form).  The
    text is scanned as written, so positions count its own characters; a
    Unicode alias is one token whose value is its ASCII form, and errors
    name the written form."""
    pos, toks = 0, []
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind, word = m.lastgroup, m.group()
        toks.append((kind, _ALIASES.get(word, word), pos, word))
        pos = m.end()
    toks.append(("end", _END, len(text), _END))
    return toks


# A term nests at most MAX_DEPTH levels deep: every walk over a parsed term
# (printing, variables, hashing, the compiled code) then stays far inside the
# interpreter's recursion and nesting limits.
MAX_DEPTH = 100
_TOO_DEEP = f"term nested deeper than {MAX_DEPTH} levels"

_CHAINS = (("\\/", Join), ("/\\", Meet), ("*", Fusion))  # loosest first


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0
        self.depth = 0  # the '(', '~' and '->' the parser is inside
        self.heights: dict[Term, int] = {}  # of the operator nodes built

    def peek(self):
        return self.toks[self.i]

    def take(self, value=None):
        tok = self.toks[self.i]
        if value is not None and tok[1] != value:
            raise self.unexpected(tok, (value,))
        self.i += 1
        return tok

    @staticmethod
    def unexpected(tok, expected) -> ParseError:
        """The error for token tok, named as written."""
        return ParseError(f"unexpected token {tok[3]!r}", tok[2], expected)

    def too_deep(self) -> ParseError:
        return ParseError(_TOO_DEEP, self.peek()[2])

    def nested(self, parse) -> Term:
        """parse(), one level deeper."""
        if self.depth == MAX_DEPTH:
            raise self.too_deep()
        self.depth += 1
        t = parse()
        self.depth -= 1
        return t

    def node(self, cls, *kids: Term) -> Term:
        t = cls(*kids)
        h = self.heights[t] = 1 + max(self.heights.get(k, 0) for k in kids)
        if h > MAX_DEPTH:
            raise self.too_deep()
        return t

    def term(self) -> Term:
        left = self.chain()
        if self.peek()[1] == "->":  # right-associative
            self.take()
            return self.node(Arrow, left, self.nested(self.term))
        return left

    def chain(self, level: int = 0) -> Term:
        """A left-associative chain of _CHAINS[level]'s operator."""
        if level == len(_CHAINS):
            return self.unary()
        op, cls = _CHAINS[level]
        t = self.chain(level + 1)
        while self.peek()[1] == op:
            self.take()
            t = self.node(cls, t, self.chain(level + 1))
        return t

    def unary(self) -> Term:
        tok = kind, val, _, _ = self.peek()
        if val == "~":
            self.take()
            return self.node(Neg, self.nested(self.unary))
        if val == "(":
            self.take()
            t = self.nested(self.term)
            self.take(")")
            return t
        if kind == "ident":
            self.take()
            return {"e": E, "f": F}.get(val) or Var(val)
        raise self.unexpected(tok, ("~", "(", "identifier"))

    def eqineq(self) -> Statement:
        lhs = self.term()
        tok = self.take()
        if tok[1] == "=":
            return Equation(lhs, self.term())
        if tok[1] == "<=":
            return Inequation(lhs, self.term())
        raise self.unexpected(tok, ("=", "<="))

    def statement_or_term(self):
        # A statement iff a relation symbol occurs at the top level.
        if any(v in ("=", "<=", "=>", "&") for _, v, _, _ in self.toks):
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
            self.take(_END)
            return stmt
        t = self.term()
        self.take(_END)
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
    """One statement per line; '#' starts a comment.  A parse error names
    its line, counted from 1, and its position within that line."""
    out = []
    for number, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0]
        indent = len(line) - len(line.lstrip())
        if line := line.strip():
            try:
                out.append(parse_statement(line))
            except ParseError as exc:
                raise ParseError(exc.message, indent + exc.position,
                                 exc.expected, number) from None
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


def _operand(t: Term, above: int) -> str:
    """t's text, in parentheses unless t binds tighter than `above`."""
    text = _term_text(t)
    return text if _PREC[type(t)] > above else f"({text})"


def _term_text(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Const):
        return t.sym
    prec = _PREC[type(t)]
    if isinstance(t, Neg):
        return "~" + _operand(t.arg, prec - 1)
    arrow = isinstance(t, Arrow)  # -> associates right, the others left
    return (_operand(t.left, prec - 1 + arrow) + _OPSYM[type(t)]
            + _operand(t.right, prec - arrow))


# ---- evaluation ------------------------------------------------------------
#
# A battery, a tuple of statements, is compiled once into one Python
# function over the tables; satisfies compiles a statement as a battery of
# one.  The source is built from a fixed vocabulary only: the table names
# below, e and f, v0, v1, ... for the sorted variables, the temporaries
# t<k> (a value) and r<k> (a table row), and o<k> (statement k's first
# counterexample).  No character of a statement enters it, so user
# statements cannot inject code.
#
# A battery becomes one nested loop per variable of the sorted union of its
# statements' variables, v0 outermost, so rng^k is walked in lexicographic
# order.  Each subterm, and each row op[x] read with a later variable, is
# computed once in the loop of its last variable, and shared by every use
# with the same source text, across all the statements.  An inequation
# s <= t reads le[s][t], the order matrix of the lattice record, which is
# meet[s][t] == s on any table.  The loops are shared, so nothing
# `continue`s: each statement is tested in the loop of its last variable,
# with its premises as guards, and its first failure is kept; the walk
# returns once every statement has failed.  At most MAX_VARS variables are
# walked, so the loops nest far inside CPython's limit of 20 nested blocks.
#
# A statement whose premises are all known in an outer loop, at level p,
# and its conclusion only in an inner one, at level c > p, is tested in a
# copy of loops p+1..c, entered under `if <premises>:` at level p: law 8
# (x <= y => ..., over x, y, z) walks z only where x <= y, and
# "f * f = f => x * x = x" walks x only where f * f = f.  Statements with
# the same premises and the same p and c share one copy, as law 8's three
# do.  A copy has its own temporaries for the values it computes below
# level p and reads the shared ones known at p or above.
#
# This is exact.  The premises read v0..v(p-1) alone, so at each
# assignment of those the guard is the premises' truth at every
# assignment that extends it.  Where it holds, the copy walks the
# extensions in lexicographic order and tests the conclusion at each, as
# the shared loop did; where it fails, no extension is a counterexample.
# The outer loops are walked in lexicographic order too, so the statement
# is tested at every assignment where its premises hold, in the same
# order as before, and its first counterexample is the same.  A copy is
# not entered once all its statements have failed.

_TABLES = "meet, join, fus, res, neg, e, f, le"
_BINARY = {Fusion: "fus", Meet: "meet", Join: "join", Arrow: "res"}
MAX_VARS = 4


def _tables(A: FiniteIRL) -> tuple:
    return (A.meet, A.join, A.fusion, A.residual_table, A.neg, A.e, A.f,
            A.lattice.L)


class _Code:
    """The assignments of a compiled run, one list per loop level (0 is
    before the loops); a value is (source text, level it is known at).  A
    guarded copy of the loops below level base is a _Code of its own, with
    the walk's code as outer: a value known at base or above is the outer
    code's, and shared with it."""

    def __init__(self, where: dict[str, tuple[str, int]], levels: int,
                 outer: "_Code | None" = None, base: int = 0):
        self.where = where  # variable name -> (slot, level)
        self.lines: list[list[str]] = [[] for _ in range(levels + 1)]
        self.memo: dict[str, tuple[str, int]] = {}
        self.outer, self.base = outer, base
        self.names = outer.names if outer else count()

    def let(self, expr: str, level: int, kind: str = "t") -> tuple[str, int]:
        """A temporary holding expr, assigned at level once."""
        if self.outer is not None and level <= self.base:
            return self.outer.let(expr, level, kind)
        hit = self.memo.get(expr)
        if hit is None:
            name = f"{kind}{next(self.names)}"
            self.lines[level].append(f"{name} = {expr}")
            hit = self.memo[expr] = (name, level)
        return hit

    def row(self, op: str, left, right) -> str:
        """op[a][b], with the row op[a] hoisted when a is known in an outer
        loop."""
        (a, la), (b, lb) = left, right
        if la < lb:
            return f"{self.let(f'{op}[{a}]', la, 'r')[0]}[{b}]"
        return f"{op}[{a}][{b}]"

    def value(self, t: Term) -> tuple[str, int]:
        if isinstance(t, Var):
            return self.where[t.name]
        if isinstance(t, Const):
            return t.sym, 0
        if isinstance(t, Neg):
            a, level = self.value(t.arg)
            return self.let(f"neg[{a}]", level)
        left, right = self.value(t.left), self.value(t.right)
        return self.let(self.row(_BINARY[type(t)], left, right),
                        max(left[1], right[1]))

    def level(self, s: Statement) -> int:
        """The level s is known at: that of its last variable."""
        return max((self.where[nm][1] for nm in variables(s)), default=0)

    def test(self, s: Statement) -> tuple[str, int]:
        """The condition s and the level it is known at."""
        lhs, rhs = self.value(s.lhs), self.value(s.rhs)
        level = max(lhs[1], rhs[1])
        if isinstance(s, Inequation):
            return self.row("le", lhs, rhs), level
        return f"{lhs[0]} == {rhs[0]}", level


def _parts(s: Statement) -> tuple[tuple[Statement, ...], Statement]:
    """(premises, conclusion) of s."""
    if isinstance(s, QuasiEquation):
        return s.premises, s.conclusion
    return (), s


def _nest(lines: list[list[str]], loops: list[str], lo: int, hi: int):
    """The loops that open levels lo+1..hi, nested, each level's lines in
    its own loop, indented from level lo."""
    out = []
    for level in range(lo + 1, hi + 1):
        pad = " " * (level - lo - 1)
        out.append(pad + loops[level - 1])
        out += [f"{pad} {ln}" for ln in lines[level]]
    return out


def _source(statements: tuple[Statement, ...], slots: dict[str, str]) -> str:
    """run(rng, tables) -> each statement's first failing assignment of its
    own variables, or None: one loop per variable of slots, v0 outermost,
    and a guarded copy of inner loops per set of premises that needs one.
    See above."""
    code = _Code({nm: (v, i + 1) for i, (nm, v) in enumerate(slots.items())},
                 len(slots))
    loops = [f"for {v} in rng:" for v in slots.values()]
    found = [f"o{k}" for k in range(len(statements))]
    out = f"return ({''.join(f'{o}, ' for o in found)})"
    # (premises, p, c) -> the copy of loops p+1..c under those premises,
    # and the statements it tests
    copies: dict[tuple[str, int, int], tuple[_Code, list[str]]] = {}
    for o, s in zip(found, statements):
        premises, conclusion = _parts(s)
        own = "".join(f"{slots[nm]}, " for nm in variables(s))
        hit = [f" {o} = ({own})", " left -= 1", " if not left:", f"  {out}"]
        prems = [code.test(p) for p in premises]
        guards = "".join(f"{cond} and " for cond, _ in prems)
        base = max((level for _, level in prems), default=0)
        top = code.level(conclusion)
        if premises and base < top:
            key = (guards, base, top)
            if key not in copies:
                copies[key] = (_Code(code.where, top, code, base), [])
            inner, tested = copies[key]
            tested.append(o)
            cond = inner.test(conclusion)[0]
            inner.lines[top] += [f"if not ({cond}) and {o} is None:", *hit]
        else:
            cond, level = code.test(conclusion)
            code.lines[max(base, level)] += [
                f"if {guards}not ({cond}) and {o} is None:", *hit]
    for (guards, base, top), (inner, tested) in copies.items():
        code.lines[base] += [
            f"if {guards}({' or '.join(f'{o} is None' for o in tested)}):",
            *(f" {ln}" for ln in _nest(inner.lines, loops, base, top))]
    deepest = max((level for level, ls in enumerate(code.lines) if ls),
                  default=0)
    body = [*code.lines[0], *_nest(code.lines, loops, 0, deepest), out]
    lines = [f"def run(rng, {_TABLES}):", *(f" {o} = None" for o in found),
             f" left = {len(found)}", *(f" {ln}" for ln in body)]
    return "\n".join(lines) + "\n"


# id(node) -> (node, sorted variable names, compiled run), oldest first.
# Looking a node up by identity skips hashing the whole frozen tree on every
# call, and holding the node keeps its id from being reused while its entry
# lives.  Library callers pass long-lived nodes (law_statements returns the
# same objects on every call, and check_derived_laws and the axiom checks
# keep their batteries).
COMPILED_CAP = 1024
_COMPILED: dict[int, tuple] = {}


def _compiled(node) -> tuple[list[str], object]:
    """(sorted variable names, compiled run) of a tuple of statements, or of
    a statement as a battery of one.  A term nested deeper than MAX_DEPTH,
    which only code can build, raises TermTooDeep, and more than MAX_VARS
    variables raise TooManyVariables, both before compiling.

    At most COMPILED_CAP nodes stay compiled: past it the oldest entry is
    dropped, so a caller that parses afresh on every call does not grow
    the map without end, and a node met again after its entry is dropped
    is compiled again.  The whole law library (48 statements), both
    derived-law batteries, the two laws predicates checks and the four
    axiom sets make 56 entries, far below the cap."""
    hit = _COMPILED.get(id(node))
    if hit is None:
        parts = node if isinstance(node, tuple) else (node,)
        if max((h for p in parts for _, h in _walk(p)), default=0) > MAX_DEPTH:
            raise TermTooDeep(_TOO_DEEP)
        names = sorted({nm for p in parts for nm in variables(p)})
        if len(names) > MAX_VARS:
            raise TooManyVariables(
                f"{len(names)} variables exceeds the cap of {MAX_VARS}")
        scope = {"__builtins__": {}}
        exec(_source(parts, {nm: f"v{i}" for i, nm in enumerate(names)}),
             scope)
        # run's globals are scope, so scope must not keep run: a dropped
        # entry is then freed by reference counting, not left as a cycle
        hit = _COMPILED[id(node)] = (node, names, scope.pop("run"))
        if len(_COMPILED) > COMPILED_CAP:
            del _COMPILED[next(iter(_COMPILED))]
    return hit[1], hit[2]


@dataclass
class SatisfactionResult:
    """Whether a statement holds, and if not its first counterexample:
    its variables' values, by name."""
    holds: bool
    counterexample: dict[str, int] | None


def satisfies(A: FiniteIRL, s: Statement) -> SatisfactionResult:
    """Brute-force check over all |A|^k assignments, in lexicographic order
    of (sorted variable name, element index); the first counterexample wins.
    s is checked as a battery of one, compiled once and found again by
    the identity of s."""
    names, run = _compiled(s)
    (first,) = run(A.elements, *_tables(A))
    return SatisfactionResult(
        first is None, None if first is None else dict(zip(names, first)))


def first_counterexamples(A: FiniteIRL,
                          statements: tuple[Statement, ...]) -> tuple:
    """For each statement, the values of its own sorted variables at the
    first counterexample satisfies(A, s) finds, or None where s holds.
    The tuple is compiled once, into one walk over the sorted union of the
    variables, and is found again by identity, so pass the same tuple
    object each time.  The walk visits up to |A|^k assignments for the k
    variables of the union, against |A|^k_s for each statement alone, so
    it is meant for statements over shared variables; MAX_VARS caps k.

    The answers are satisfies' own.  Take any subset S of the walk's
    variables.  The walk is lexicographic, so the first time it visits an
    S-assignment every other variable is 0, and first visits come in the
    lexicographic order of S.  A statement over S is tested at every visit,
    in the loop of its last variable, so its first failure in the walk is
    its lexicographically first counterexample."""
    return _compiled(statements)[1](A.elements, *_tables(A))


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
    "de-morgan": ("~(x /\\ y) = ~x \\/ ~y",
                  "~(x \\/ y) = ~x /\\ ~y"),
    # [e <= x = x*x]  iff  [x * ~x = ~x]  iff  [x = x -> x]
    "3-conditions": ("e <= x & x * x = x => x * ~x = ~x",
                     "x * ~x = ~x => e <= x",
                     "x * ~x = ~x => x * x = x",
                     "x * ~x = ~x => x -> x = x",
                     "x -> x = x => x * ~x = ~x"),
    # square-increasing: [f*f = f]  iff  [f <= e]  iff  idempotent
    "idempotence-triple": ("f * f = f => f <= e",
                           "f <= e => f * f = f",
                           "f * f = f => x * x = x"),
    # square-increasing: f <= x implies x^3 = x^2, powers taken from e
    "cube": ("f <= x => e * x * x * x = e * x * x",),
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


@cache
def law_statements(name: str) -> tuple[Statement, ...]:
    """The parsed statements of a LAW_LIBRARY entry, parsed once per name."""
    return tuple(parse_statement(src) for src in LAW_LIBRARY[name])
