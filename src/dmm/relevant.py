"""Finite relevant algebras: the e-free signature (fusion, meet, join, neg).

Deductive filters here are lattice filters containing |a| := a -> a for
every element a; they are in bijection with congruences just as in the
pointed case.  They are principal: a filter F is closed under meets, so it
contains m = /\\F; m <= t := /\\{|a|} because every |a| is in F; and
F = [m) because F is an up-set.  Conversely [m) is a filter for every
m <= t.  So the filters are the [m) for m <= t, the least one is [t), the
filter generated by X is [t /\\ /\\X), and classification reads the order
below t as dmm.filters reads it below e.  t is computed once per algebra.
The checks below read [m) as a row of meet or an up-set bitmask, which
answer as A.leq does on any table, lattice or not.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from dmm.algebra import (Tables, ValidationReport, _check_shared, _dmm_tail,
                         _checked_tables, _Collector, _fusion_bytes,
                         _read_dict)
from dmm.filters import DeductiveFilter, _order_flags


class TrivialAlgebra(Exception):
    pass


@dataclass(eq=False)
class FiniteRA(Tables):
    """The shared tables without a neutral element, and t, memoized.
    _shared_passed is True only on a reduct whose algebra's IRL check
    passed (dmm.constructions.e_free_reduct): validate_ra then skips the
    laws that check decided on the same tables."""

    name: str = ""
    _shared_passed = False  # not a field: only e_free_reduct sets it

    @classmethod
    def from_tables(cls, size, meet, join, fusion, neg, name=""):
        A = cls(*_checked_tables(size, meet, join, fusion, neg), name)
        A.check_well_formed()
        return A

    def abs_value(self, a) -> int:
        """|a| := a -> a."""
        return self.residual(a, a)

    @cached_property
    def t(self) -> int:
        """t = /\\{|a|}: the least element of the least deductive filter."""
        m = self.abs_value(0)
        for a in self.elements:
            m = self.meet[m][self.abs_value(a)]
        return m

    def to_dict(self) -> dict:
        return {"name": self.name, "signature": "RA", "size": self.size,
                "meet": [list(r) for r in self.meet],
                "join": [list(r) for r in self.join],
                "fusion": [list(r) for r in self.fusion],
                "neg": list(self.neg)}

    @classmethod
    def from_dict(cls, d: dict) -> "FiniteRA":
        return cls.from_tables(*_read_dict(
            d, ("size", "meet", "join", "fusion", "neg")))


def _neg_antitone(A: FiniteRA) -> bool:
    """Whether a <= b iff ~b <= ~a for every (a, b), on byte strings for
    well-formed tables: the lattice stage's up-set marks at (a, b) against
    those at (~b, ~a), read from the columns of the marks; False above 256
    elements."""
    n = A.size
    if n > 256:
        return False
    lat = A.lattice
    up, neg = b"".join(lat.up), bytes(A.neg)
    cols = [up[c::n] + lat.pad for c in range(n)]   # cols[c][x]: x <= c
    return up == b"".join(map(neg.translate, map(cols.__getitem__, neg)))


def validate_ra(A: FiniteRA) -> ValidationReport:
    """Check every defining condition of a relevant algebra, reporting
    witnesses: the laws shared with IRLs and with DMMs, then neg antitone
    and a <= a*(~(b*~b) /\\ ~(c*~c)).  With commutative fusion the RA law
    a*b <= c iff a*~c <= ~b is involution-fusion at (b, a, c).  Neg
    antitone is decided on byte strings first (_neg_antitone), and its
    pairs are walked only when that test fails.  The shared laws are not
    decided again when A._shared_passed says that its algebra's IRL
    check passed on these tables."""
    A.check_well_formed()
    rng = A.elements
    meet, fus, neg = A.meet, A.fusion, A.neg
    col = _Collector()
    antitone = _neg_antitone(A)
    u = [neg[fus[b][neg[b]]] for b in rng]      # u[b] = ~(b*~b)
    # a <= a*w depends on (a, w) only, for w in W = {u[b] /\ u[c]}; (b, c)
    # is walked only for an a that fails on some w
    W = {meet[x][y] for x in u for y in u}
    shared = (rng if A._shared_passed
              else _check_shared(A, col, _fusion_bytes(A)))
    for a in shared:
        ma, fa = meet[a], fus[a]
        fails = {w for w in W if ma[fa[w]] != a}
        if antitone and not fails:
            continue
        for b in rng:
            if not antitone and ((meet[a][b] == a)
                                 != (meet[neg[b]][neg[a]] == neg[b])):
                col.add("neg-antitone", (a, b))
            for c in (rng if fails else ()):
                if meet[u[b]][u[c]] in fails:
                    col.add("identity-bound a <= a*(~(b*~b)/\\~(c*~c))",
                            (a, b, c))
    return _dmm_tail(A, col)


def dfg_ra(A: FiniteRA, a: int) -> DeductiveFilter:
    """The least deductive filter containing a: [a /\\ t)."""
    return dfg_ra_set(A, (a,))


def dfg_ra_set(A: FiniteRA, X) -> DeductiveFilter:
    """The least deductive filter containing X: [t /\\ /\\X), the least up-set
    closed under meets that holds X and every |d|, read off row m of meet
    for m = t /\\ /\\X.  X = {} gives [t)."""
    m = A.t
    for x in X:
        m = A.meet[m][x]
    row = A.meet[m]
    return DeductiveFilter(frozenset(b for b in A.elements if row[b] == m), A)


def dfg_oracle(A: FiniteRA, X) -> DeductiveFilter:
    """Independent oracle: the least set holding X and every |a| closed
    upward and under meet, by a worklist: each element, in the round it is
    first added, is closed upward and met both ways with every member.  No
    library code calls it; the tests check dfg_ra and dfg_ra_set against
    it, and perfbench imports it from here."""
    meet, rng, rt = A.meet, A.elements, A.residual_table
    members: set[int] = set()
    new = {*X, *(rt[a][a] for a in rng)}
    while new:
        members |= new
        new = ({b for a in new for b in rng if meet[a][b] == a}
               | {meet[a][b] for a in new for b in members}
               | {meet[b][a] for a in new for b in members}) - members
    return DeductiveFilter(frozenset(members), A)


def meet_property_check(A: FiniteRA) -> bool:
    """DFg{a} Intersection DFg{b} = DFg{a \\/ b} for all pairs, plus
    ||a| /\\ |b|| <= |a| /\\ |b|.  DFg{a} is [t /\\ a), as in dfg_ra_set, read
    as the up-set bitmask above[t /\\ a] of the lattice record, which
    reads meet alone (x <= c iff meet[x][c] = x), so exact off lattices."""
    rng, meet, join = A.elements, A.meet, A.join
    above, mt = A.lattice.above, meet[A.t]
    up = [above[mt[a]] for a in rng]
    ab = [A.abs_value(a) for a in rng]
    for a in rng:
        ma, ja, ua = meet[ab[a]], join[a], up[a]
        for b in rng:
            m = ma[ab[b]]
            if meet[ab[m]][m] != ab[m] or ua & up[b] != up[ja[b]]:
                return False
    return True


def reconstruct_neutral(A: FiniteRA) -> int | None:
    """The glb of all |a|, if it acts as a fusion identity; for finite RAs
    the generating set is taken to be the whole carrier."""
    m = A.t
    if all(A.fusion[m][x] == x for x in A.elements):
        return m
    return None


def contains_two_reduct(A: FiniteRA) -> tuple[int, int] | None:
    """A pair {a, b} forming a subuniverse isomorphic to 2^- (a < b with
    a, b swapped by neg, a absorbing and b*b = b)."""
    if A.size == 1:
        raise TrivialAlgebra("trivial relevant algebra")
    fus = A.fusion
    for a in A.elements:
        b = A.neg[a]
        if (A.lt(a, b) and fus[a][a] == a and fus[a][b] == a
                and fus[b][b] == b):
            return (a, b)
    return None


@dataclass
class RAClassification:
    trivial: bool
    simple: bool
    si: bool
    fsi: bool
    filter_count: int


def ra_classify(A: FiniteRA) -> RAClassification:
    """Flags by the order facts of dmm.filters.classify, with t in place of
    e; one filter per element of the down-set of t."""
    if A.size == 1:
        return RAClassification(True, False, False, True, 1)
    t = A.t
    below = [m for m in A.elements if m != t and A.leq(m, t)]
    simple, si, fsi, _ = _order_flags(A, t, below)
    return RAClassification(False, simple, si, fsi, len(below) + 1)

