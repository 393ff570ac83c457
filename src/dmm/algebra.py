"""Finite involutive residuated lattices given by operation tables.

An algebra lives on the carrier 0..n-1.  The lattice order is *derived* from
the meet table (a <= b iff meet(a, b) == a); it is never stored separately.
The residual a -> b := ~(a * ~b) is computed on demand and memoized, and so
are the validate_irl and validate_dmm reports.

Validation tests whole tables before it walks elements.  Almost every
algebra checked is valid, so the laws an IRL shares with a relevant
algebra are first decided by one exact test on byte strings (each table's
rows as bytes; see _shared_laws_hold), with O(n) Python steps and the
O(n^3) work in bytes.translate and bytes.join.  Idempotence and order
agreement need no test there, as commutativity and absorption imply them.
The element walk runs only when that test fails, or when there are more
than 256 elements (a byte holds 256 values); it is the only code that
collects witnesses, so a report keeps its violations and their order.
The residual-is-max check has a test of the same kind: a*c <= b iff
c <= a -> b for all triples makes a -> b the largest c with a*c <= b,
and its walk runs only if that test fails.  So does distributivity.

The tests come in two stages.  The lattice stage reads meet and join
alone: their shapes and ranges, their lattice laws, the byte marks of the
order that the fusion laws read, and distributivity.  Its verdicts sit in
the table's lattice record (Tables.lattice, a _Lattice), beside the order
facts the enumerator's layers read: the order matrix, down-set and up-set
masks, bottom and lower covers.  Tables on the same meet and join objects
may share one record, handed on by assignment: enumerate_algebras gives
its lattice's record to every class it keeps, and e_free_reduct gives an
algebra's record to its reduct.  The other stage reads fusion, neg and e;
each validation makes the byte rows of fusion once, as a local.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from itertools import chain, repeat
from operator import itemgetter

MAX_WITNESSES_PER_LAW = 32


class AlgebraError(Exception):
    pass


class MalformedTable(AlgebraError):
    pass


class NotAnIRL(AlgebraError):
    pass


@dataclass(frozen=True)
class Violation:
    law: str
    witness: tuple[int, ...]


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...] = ()

    def laws_violated(self) -> list[str]:
        return list(dict.fromkeys(v.law for v in self.violations))


_SEQ = (list, tuple)


def _ints(row, what: str) -> tuple[int, ...]:
    """row as a tuple, if it is a list or tuple of ints (bools excluded)."""
    if not isinstance(row, _SEQ) or not set(map(type, row)) <= {int}:
        raise MalformedTable(f"{what} must be a list of integers")
    return tuple(row)


def _checked_tables(size, meet, join, fusion, neg) -> tuple:
    """The five shared fields as tuples, after the type checks; the shape and
    range checks are check_well_formed's."""
    if type(size) is not int:
        raise MalformedTable("size must be an integer")
    tabs = []
    for nm, rows in (("meet", meet), ("join", join), ("fusion", fusion)):
        if not isinstance(rows, _SEQ):
            raise MalformedTable(f"{nm} must be a list of rows")
        tabs.append(tuple(_ints(row, f"{nm} row") for row in rows))
    return (size, *tabs, _ints(neg, "neg"))


def _read_dict(d, keys: tuple[str, ...]) -> list:
    """The values of keys in a table object, then its name (default "")."""
    if not isinstance(d, dict):
        raise MalformedTable(f"expected a JSON object, got {type(d).__name__}")
    missing = [k for k in keys if k not in d]
    if missing:
        raise MalformedTable(f"missing key(s) {', '.join(missing)}")
    name = d.get("name", "")
    if not isinstance(name, str):
        raise MalformedTable("name must be a string")
    return [d[k] for k in keys] + [name]


@dataclass(eq=False)
class Tables:
    """The tables both signatures share: meet, join, fusion and neg on the
    carrier 0..n-1, with the order, the extrema and the residual derived
    from them.  Candidates are not assumed valid until checked.

    Instances are treated as immutable after construction; all derived data
    (lattice record, which holds the extrema, residual table, and in
    subclasses the validation reports and t) is memoized on the instance
    on first use, so it goes away with the instance.  The law library is
    parsed and compiled once per process instead (dmm.terms), as it
    depends on no algebra.
    """

    size: int
    meet: tuple[tuple[int, ...], ...]
    join: tuple[tuple[int, ...], ...]
    fusion: tuple[tuple[int, ...], ...]
    neg: tuple[int, ...]

    def check_well_formed(self) -> None:
        n, fus, neg = self.size, self.fusion, self.neg
        # shapes and ranges in a few C-level passes, meet and join's once
        # per lattice record; the walk below runs only to name the first
        # defect
        if (n >= 1 and len(neg) == n and len(fus) == n
                and set(map(len, fus)) == {n}
                and not set(neg).union(*fus).difference(range(n))
                and self.lattice.well_formed):
            return
        if n < 1:
            raise MalformedTable(f"size must be >= 1, got {n}")
        for nm, tab in zip(("meet", "join", "fusion"),
                           (self.meet, self.join, fus)):
            if len(tab) != n or any(len(row) != n for row in tab):
                raise MalformedTable(f"{nm} table is not {n}x{n}")
            for row in tab:
                for v in row:
                    if not 0 <= v < n:
                        raise MalformedTable(f"{nm} entry {v} out of range")
        raise MalformedTable("neg table malformed")

    @property
    def elements(self) -> range:
        return range(self.size)

    def leq(self, a: int, b: int) -> bool:
        return self.meet[a][b] == a

    def lt(self, a: int, b: int) -> bool:
        return a != b and self.meet[a][b] == a

    @cached_property
    def lattice(self) -> "_Lattice":
        """The record of meet and join (see _Lattice).  Tables on the same
        meet and join objects may be handed one record by assignment,
        X.lattice = lat, which replaces the record made on first use."""
        return _Lattice(self.size, self.meet, self.join)

    @property
    def bottom(self) -> int:
        return self.lattice.bot

    @property
    def top(self) -> int:
        return self.lattice.top

    @cached_property
    def residual_table(self) -> tuple[tuple[int, ...], ...]:
        # a -> b = ~(a * ~b); computed once, read many.
        neg, fus = self.neg, self.fusion
        return tuple(tuple(neg[fus[a][neg[b]]] for b in self.elements)
                     for a in self.elements)

    def residual(self, a: int, b: int) -> int:
        return self.residual_table[a][b]


@dataclass(eq=False)
class FiniteIRL(Tables):
    """A finite IRL candidate: the shared tables plus the neutral element e."""

    e: int
    name: str = ""
    labels: tuple[str, ...] | None = None  # display only, never serialized

    @classmethod
    def from_tables(cls, size, meet, join, fusion, neg, e, name="", labels=None):
        """The one check of table input: entries must be ints (not bools),
        tables lists or tuples of rows, and everything in range; raises
        MalformedTable otherwise.  FiniteRA.from_tables shares it."""
        if type(e) is not int:
            raise MalformedTable("e must be an integer")
        A = cls(*_checked_tables(size, meet, join, fusion, neg), e, name,
                tuple(labels) if labels else None)
        A.check_well_formed()
        return A

    def check_well_formed(self) -> None:
        super().check_well_formed()
        if not 0 <= self.e < self.size:
            raise MalformedTable(f"e={self.e} out of range")

    @cached_property
    def f(self) -> int:
        return self.neg[self.e]

    # The reports and the classification (dmm.filters.classify) depend on
    # the tables alone, never on name or labels.
    @cached_property
    def _irl_report(self) -> "ValidationReport":
        return _check_irl(self)

    @cached_property
    def _dmm_report(self) -> "ValidationReport":
        return _check_dmm(self)

    @cached_property
    def _classification(self):
        from dmm.filters import _classify
        return _classify(self)

    def label(self, a: int) -> str:
        if self.labels is not None:
            return self.labels[a]
        return str(a)

    def covers(self) -> list[tuple[int, int]]:
        """Cover pairs (a, b) with a covered by b, in increasing order, for
        Hasse output; read off the lattice record of meet."""
        lower = self.lattice.covers
        return sorted((c, b) for b in self.elements for c in lower[b])

    def relabel(self, perm: list[int] | tuple[int, ...], name: str = "") -> "FiniteIRL":
        """Image algebra under the bijection old index -> perm[old index]."""
        n = self.size
        inv = [0] * n
        for old, new in enumerate(perm):
            inv[new] = old
        def tab(t):
            return tuple(tuple(perm[t[inv[a]][inv[b]]] for b in range(n))
                         for a in range(n))
        return FiniteIRL(n, tab(self.meet), tab(self.join), tab(self.fusion),
                         tuple(perm[self.neg[inv[a]]] for a in range(n)),
                         perm[self.e], name or self.name)

    # ---- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {"name": self.name, "size": self.size,
                "meet": [list(r) for r in self.meet],
                "join": [list(r) for r in self.join],
                "fusion": [list(r) for r in self.fusion],
                "neg": list(self.neg), "e": self.e}

    @classmethod
    def from_dict(cls, d: dict) -> "FiniteIRL":
        return cls.from_tables(*_read_dict(
            d, ("size", "meet", "join", "fusion", "neg", "e")))


# ---- validation ------------------------------------------------------------


class _Collector:
    def __init__(self):
        self.violations: list[Violation] = []
        self._counts: dict[str, int] = {}

    def add(self, law: str, witness: tuple[int, ...]) -> None:
        c = self._counts.get(law, 0)
        if c < MAX_WITNESSES_PER_LAW:
            self.violations.append(Violation(law, witness))
        self._counts[law] = c + 1

    def report(self) -> ValidationReport:
        return ValidationReport(not self.violations, tuple(self.violations))


def validate_irl(A: FiniteIRL) -> ValidationReport:
    """Check every defining axiom of an involutive residuated lattice.

    All violations are collected (capped per axiom) rather than failing fast,
    since enumeration debugging needs witnesses.  The report is computed once
    per instance.
    """
    return A._irl_report


# _ONEHOT[w] maps w to 1 and every other byte to 0, so r.translate(_ONEHOT[w])
# marks the entries of r equal to w.
_ONEHOT = [bytes(w) + b"\1" + bytes(255 - w) for w in range(256)]


def _byte_rows(tab, pad: bytes) -> tuple[list[bytes], bytes, list[bytes]]:
    """A table's rows as bytes, the rows joined, and each row padded to a
    256-byte translate table.  A padding byte is never read, as every
    entry is below the size."""
    rows = list(map(bytes, tab))
    return rows, b"".join(rows), [r + pad for r in rows]


class _Lattice:
    """One lattice on 0..n-1: what the enumerator's layers and the lattice
    stage of validation read of its meet and join, each part computed on
    first use and kept as long as the record.  The order parts (L, cols,
    below, above, bot, top, covers) read meet alone, so a record made with
    join None answers them; the byte parts read both tables, assume
    n <= 256 and well-formed tables, and need a join.  well_formed assumes
    nothing."""

    def __init__(self, n: int, meet, join=None):
        self.n, self.meet, self.join = n, meet, join
        self.pad = bytes(max(256 - n, 0))

    @cached_property
    def L(self) -> list[list[bool]]:
        """L[a][b] is a <= b, that is meet[a][b] = a."""
        meet, rng = self.meet, range(self.n)
        return [[meet[a][b] == a for b in rng] for a in rng]

    @cached_property
    def cols(self) -> list[list[bool]]:
        """cols[c][q] is q <= c: column c of L, for a fixed upper bound."""
        L, rng = self.L, range(self.n)
        return [[row[c] for row in L] for c in rng]

    @cached_property
    def below(self) -> list[int]:
        """below[a] is the bitmask of the down-set of a."""
        L, rng = self.L, range(self.n)
        return [sum(1 << c for c in rng if L[c][a]) for a in rng]

    @cached_property
    def above(self) -> list[int]:
        """above[a] is the bitmask of the up-set of a."""
        L, rng = self.L, range(self.n)
        return [sum(1 << c for c in rng if L[a][c]) for a in rng]

    @cached_property
    def bot(self) -> int:
        """The least element: its up-set holds every element."""
        if (full := (1 << self.n) - 1) in self.above:
            return self.above.index(full)
        raise NotAnIRL("no least element (meet table is not a lattice)")

    @cached_property
    def top(self) -> int:
        """The greatest element: its down-set holds every element."""
        if (full := (1 << self.n) - 1) in self.below:
            return self.below.index(full)
        raise NotAnIRL("no greatest element (meet table is not a lattice)")

    @cached_property
    def covers(self) -> list[list[int]]:
        """covers[a] lists the lower covers of a in increasing order: the
        c < a with nothing strictly between c and a."""
        above, rng = self.above, range(self.n)
        strict = [d & ~(1 << a) for a, d in enumerate(self.below)]
        return [[c for c in rng if s >> c & 1 and not s & above[c] & ~(1 << c)]
                for s in strict]

    @cached_property
    def well_formed(self) -> bool:
        """meet and join are n x n with entries in range."""
        n, meet, join = self.n, self.meet, self.join
        return (len(meet) == n == len(join)
                and set(map(len, chain(meet, join))) == {n}
                and not set().union(*meet, *join).difference(range(n)))

    @cached_property
    def laws_hold(self) -> bool:
        """Whether meet and join are commutative, absorb each other and are
        associative; see _shared_laws_hold."""
        n = self.n
        tabs = [_byte_rows(t, self.pad) for t in (self.meet, self.join)]
        for _, flat, _ in tabs:
            if b"".join([flat[c::n] for c in range(n)]) != flat:
                return False
        (mrows, _, mpads), (jrows, _, jpads) = tabs
        each_a = b"".join([bytes((a,)) * n for a in range(n)])  # (a, b) is a
        if (b"".join(map(bytes.translate, jrows, mpads)) != each_a
                or b"".join(map(bytes.translate, mrows, jpads)) != each_a):
            return False
        return all(b"".join(map(rows.__getitem__, flat))
                   == b"".join(map(flat.translate, pads))
                   for rows, flat, pads in tabs)

    @cached_property
    def up(self) -> list[bytes]:
        """up[w][z] is 1 iff meet[w][z] = w, that is w <= z."""
        return list(map(bytes.translate, map(bytes, self.meet), _ONEHOT))

    @cached_property
    def down(self) -> list[bytes]:
        """down[u][v] is 1 iff join[u][v] = u, that is v <= u."""
        return list(map(bytes.translate, map(bytes, self.join), _ONEHOT))

    @cached_property
    def down_pads(self) -> list[bytes]:
        """The down rows padded to 256-byte translate tables."""
        return [d + self.pad for d in self.down]

    @cached_property
    def distributive(self) -> bool:
        """Whether a /\\ (b \\/ c) = (a /\\ b) \\/ (a /\\ c) for every
        (a, b, c), in O(n) Python steps: the flat join table translated by
        each meet row, against each meet row a, once per b, translated by
        the join row of a /\\ b."""
        n = self.n
        mrows, mflat, mpads = _byte_rows(self.meet, self.pad)
        _, jflat, jpads = _byte_rows(self.join, self.pad)
        lhs = b"".join([jflat.translate(p) for p in mpads])
        each_ab = chain.from_iterable(repeat(r, n) for r in mrows)
        return lhs == b"".join(map(bytes.translate, each_ab,
                                   map(jpads.__getitem__, mflat)))


def _fusion_bytes(A: Tables) -> tuple[list[bytes], bytes, list[bytes]] | None:
    """A's fusion table as _byte_rows, for well-formed tables of at most 256
    elements (a byte holds 256 values); None above.  _check_irl and
    validate_ra each make it once, as a local of the call, and hand it to
    the byte-string tests, so catalog entries, which outlive their
    validation, do not hold it."""
    return _byte_rows(A.fusion, A.lattice.pad) if A.size <= 256 else None


def _shared_laws_hold(A: Tables, fb) -> bool:
    """Whether _check_shared finds no violation, decided on byte strings in
    O(n) Python steps, for well-formed tables with fusion bytes fb
    (_fusion_bytes); False when fb is None.

    The lattice stage (_Lattice.laws_hold) reads meet and join only, and
    is decided once per lattice record.  Commutativity compares a table
    with its transpose, and absorption translates each join row by the
    meet row and back.  Idempotence and order agreement
    follow from these two, so they need no stage: with b = a /\\ a,
    a \\/ b = a, so a /\\ a = a /\\ (a \\/ b) = a, and dually;
    a /\\ b = a gives b \\/ a = b \\/ (b /\\ a) = b, and a \\/ b = b gives
    a /\\ b = a /\\ (a \\/ b) = a.  So the order may be read off either
    table.  Associativity compares the rows gathered by the flat table,
    (a.b).c, with the flat table translated by each row, a.(b.c).  The
    other stage reads fusion and neg: neg of period 2, fusion commutative
    and associative as above, and involution-fusion, which compares the
    up-set marks of every x*y with the down-set marks of ~x over the table
    y*~z, which is ~z*y by commutativity."""
    n, lat = A.size, A.lattice
    if fb is None or not lat.laws_hold:
        return False
    neg = bytes(A.neg)
    if neg.translate(neg + lat.pad) != bytes(range(n)):
        return False
    frows, fflat, fpads = fb
    if (b"".join([fflat[c::n] for c in range(n)]) != fflat
            or (b"".join(map(frows.__getitem__, fflat))
                != b"".join(map(fflat.translate, fpads)))):
        return False
    y_negz = b"".join(map(neg.translate, fpads))
    return (b"".join(map(lat.up.__getitem__, fflat))
            == b"".join(map(y_negz.translate,
                            map(lat.down_pads.__getitem__, neg))))


def _residuated(A: Tables, fb) -> bool:
    """Whether a*c <= b iff c <= a -> b for every (a, b, c), on byte strings,
    for tables that pass every IRL law (so the order may be read off join),
    with fusion bytes fb; False when fb is None.  It implies
    residual-is-max: a -> b is then the largest such c.  The down-set marks
    come from the lattice stage."""
    if fb is None:
        return False
    lat = A.lattice
    neg = bytes(A.neg)
    frows, fflat, _ = fb
    # entry (b, a) is ~(~b*a) = a -> b
    res_t = b"".join(map(frows.__getitem__, neg)).translate(neg + lat.pad)
    return (b"".join([fflat.translate(d) for d in lat.down_pads])
            == b"".join(map(lat.down.__getitem__, res_t)))


def _check_shared(A: Tables, col: _Collector, fb):
    """The laws an IRL and a relevant algebra share, on well-formed tables
    with fusion bytes fb: lattice laws, neg of period 2, commutative and
    associative fusion, and involution-fusion.  A generator: it yields each
    a between a's one- and two-variable laws, where a caller adds its own
    law for a.  The element walk runs only when the byte-string test finds
    a violation, or above 256 elements; it is the code that collects
    witnesses."""
    rng = range(A.size)
    if _shared_laws_hold(A, fb):
        yield from rng
        return
    meet, join, fus, neg = A.meet, A.join, A.fusion, A.neg
    for a in rng:
        if meet[a][a] != a:
            col.add("meet-idempotent", (a,))
        if join[a][a] != a:
            col.add("join-idempotent", (a,))
        if neg[neg[a]] != a:
            col.add("involution-period-2", (a,))
        yield a
        for b in rng:
            if meet[a][b] != meet[b][a]:
                col.add("meet-commutative", (a, b))
            if join[a][b] != join[b][a]:
                col.add("join-commutative", (a, b))
            if fus[a][b] != fus[b][a]:
                col.add("fusion-commutative", (a, b))
            if meet[a][join[a][b]] != a:
                col.add("absorption-meet-join", (a, b))
            if join[a][meet[a][b]] != a:
                col.add("absorption-join-meet", (a, b))
            # join must agree with the meet-derived order
            if (join[a][b] == b) != (meet[a][b] == a):
                col.add("order-agreement", (a, b))
    for a in rng:
        ma, ja, fa = meet[a], join[a], fus[a]
        for b in rng:
            mab, jab, fab = meet[ma[b]], join[ja[b]], fus[fa[b]]
            mb, jb, fb = meet[b], join[b], fus[b]
            for c in rng:
                if mab[c] != ma[mb[c]]:
                    col.add("meet-associative", (a, b, c))
                if jab[c] != ja[jb[c]]:
                    col.add("join-associative", (a, b, c))
                if fab[c] != fa[fb[c]]:
                    col.add("fusion-associative", (a, b, c))
    # involution-fusion law: x*y <= z  iff  ~z*y <= ~x
    for x in rng:
        fx, nx = fus[x], neg[x]
        for y in rng:
            xy = fx[y]
            up = meet[xy]               # up[z] == xy iff x*y <= z
            for z in rng:
                zy = fus[neg[z]][y]
                if (up[z] == xy) != (meet[zy][nx] == zy):
                    col.add("involution-fusion", (x, y, z))


def _check_irl(A: FiniteIRL) -> ValidationReport:
    A.check_well_formed()
    rng = range(A.size)
    meet, fus, e = A.meet, A.fusion, A.e
    col = _Collector()
    fb = _fusion_bytes(A)
    for a in _check_shared(A, col, fb):
        if fus[e][a] != a or fus[a][e] != a:
            col.add("e-neutral", (a,))
    if not col.violations and not _residuated(A, fb):
        # Sanity: with the axioms in place, a -> b must be max{c : a*c <= b}.
        # sols[b] is the bitmask of {c : a*c <= b}, built from the up-sets
        # of the a*c; it must hold r = a -> b and lie in the down-set of r.
        up = [[b for b in rng if meet[x][b] == x] for x in rng]
        down = A.lattice.below
        for a in rng:
            sols = [0] * A.size
            for c, ac in enumerate(fus[a]):
                for b in up[ac]:
                    sols[b] |= 1 << c
            for b, r in enumerate(A.residual_table[a]):
                if not sols[b] >> r & 1 or sols[b] & ~down[r]:
                    col.add("residual-is-max", (a, b))
    return col.report()


def is_distributive(A: Tables) -> tuple[int, int, int] | None:
    """First witness of a distributivity failure, or None, for well-formed
    tables.  The lattice stage decides it on byte strings, once per
    lattice record.  Only when that test fails, or above 256
    elements, are the elements walked: row b of a /\\ (b \\/ c) and of
    (a /\\ b) \\/ (a /\\ c) are compared whole, and c is walked only in a
    row that differs."""
    if A.size <= 256 and A.lattice.distributive:
        return None
    meet, join, rng = A.meet, A.join, range(A.size)
    by_join = [itemgetter(*row) for row in join]  # by_join[b](r)[c] = r[b\/c]
    for a in rng:
        ma = meet[a]
        by_ma = itemgetter(*ma)                   # by_ma(r)[c] = r[a/\c]
        for b in rng:
            if by_join[b](ma) != by_ma(join[ma[b]]):
                for c in rng:
                    if ma[join[b][c]] != join[ma[b]][ma[c]]:
                        return (a, b, c)
    return None


def square_increasing_witness(A: Tables) -> int | None:
    """First a with a*a < a (not square-increasing), or None."""
    for a in range(A.size):
        if not A.leq(a, A.fusion[a][a]):
            return a
    return None


def is_rigorously_compact(A: Tables) -> bool:
    """top * a = top for every a other than the bottom."""
    bot, top = A.bottom, A.top
    return all(A.fusion[top][a] == top for a in A.elements if a != bot)


def validate_dmm(A: FiniteIRL) -> ValidationReport:
    """A De Morgan monoid is a distributive square-increasing IRL.  Raises
    NotAnIRL, on every call, when A is not an IRL; the report is computed
    once per instance."""
    return A._dmm_report


def _check_dmm(A: FiniteIRL) -> ValidationReport:
    base = validate_irl(A)
    if not base.ok:
        raise NotAnIRL(
            "not an IRL: " + ", ".join(base.laws_violated()))
    return _dmm_tail(A, _Collector())


def _dmm_tail(A: Tables, col: _Collector) -> ValidationReport:
    """Add the laws a DMM adds to an IRL, which a relevant algebra has too
    (square-increasing and distributive, first witness each); report."""
    w = square_increasing_witness(A)
    if w is not None:
        col.add("square-increasing", (w,))
    d = is_distributive(A)
    if d is not None:
        col.add("distributive", d)
    return col.report()


# ---- predicates ------------------------------------------------------------


@dataclass
class PredicateRecord:
    idempotent: bool
    odd: bool
    anti_idempotent: bool
    integral: bool
    extrema: tuple[int, int]
    rigorously_compact: bool
    distributive: bool
    semilinear: bool


def predicates(A: FiniteIRL) -> PredicateRecord:
    from dmm.terms import first_counterexamples, law_statements

    def holds(law: str) -> bool:
        return all(c is None
                   for c in first_counterexamples(A, law_statements(law)))

    distributive = is_distributive(A) is None
    return PredicateRecord(
        idempotent=all(A.fusion[a][a] == a for a in A.elements),
        odd=A.e == A.f,
        anti_idempotent=holds("ax-anti-idem"),
        integral=A.e == A.top,
        extrema=(A.bottom, A.top),
        rigorously_compact=is_rigorously_compact(A),
        distributive=distributive,
        # Semilinearity is decided by the axiom; the SI-quotient oracle
        # lives in the test suite.
        semilinear=distributive and holds("ax-semilinear"),
    )


# ---- derived-law battery ---------------------------------------------------


@dataclass
class LawReport:
    """Outcome per law: first counterexample tuple or None (= passed)."""
    results: dict[str, tuple[int, ...] | None]

    @property
    def ok(self) -> bool:
        return all(v is None for v in self.results.values())

    def failures(self) -> dict[str, tuple[int, ...]]:
        return {k: v for k, v in self.results.items() if v is not None}


@cache
def _law_battery(square_increasing: bool) -> tuple[tuple[str, ...], tuple]:
    """The report keys "law: statement" of check_derived_laws' battery and
    its statements, one tuple of each, kept for the process so the
    battery is compiled once."""
    from dmm.terms import LAW_LIBRARY, law_statements
    laws = [f"law-{i}" for i in range(4, 13)] + ["de-morgan", "3-conditions"]
    if square_increasing:
        laws += ["law-13", "law-14", "law-15", "cube", "idempotence-triple"]
    return (tuple(f"{law}: {text}" for law in laws for text in LAW_LIBRARY[law]),
            tuple(s for law in laws for s in law_statements(law)))


def check_derived_laws(A: FiniteIRL) -> LawReport:
    """The derived laws of dmm.terms.LAW_LIBRARY, one result per statement,
    keyed "law: statement": laws 4-12, De Morgan duality, the 3-conditions,
    and laws 13-15, the cube law and the idempotence triple when A is
    square-increasing.  The statements are checked in one walk by
    first_counterexamples, so each result is the first counterexample
    satisfies finds.  Only the bounds clause is written out here, as no
    term names the extrema.  A valid algebra passes every law."""
    from dmm.terms import first_counterexamples
    keys, battery = _law_battery(square_increasing_witness(A) is None)
    out: dict[str, tuple[int, ...] | None] = dict(
        zip(keys, first_counterexamples(A, battery)))
    fus, res, bot, top = A.fusion, A.residual_table, A.bottom, A.top
    out["bounds: bot * x = bot, x -> top = top, top * top = top, "
        "top -> bot = bot"] = next(
        ((x,) for x in A.elements
         if not (fus[bot][x] == bot and res[x][top] == top
                 and fus[top][top] == top and res[top][bot] == bot)), None)
    return LawReport(out)
