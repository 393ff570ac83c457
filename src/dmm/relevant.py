"""Finite relevant algebras: the e-free signature (fusion, meet, join, neg).

Deductive filters here are lattice filters containing |a| := a -> a for
every element a; they are in bijection with congruences just as in the
pointed case.  They are principal: a filter F is closed under meets, so it
contains m = /\\F; m <= t := /\\{|a|} because every |a| is in F; and
F = [m) because F is an up-set.  Conversely [m) is a filter for every
m <= t.  So the filters are the [m) for m <= t, the least one is [t), the
filter generated by X is [t /\\ /\\X), and classification reads the order
below t as dmm.filters reads it below e.  t is computed once per algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from dmm.algebra import (FiniteIRL, Tables, ValidationReport, _Collector,
                         _checked_tables, _read_dict, is_distributive,
                         is_rigorously_compact as is_rigorously_compact_ra)
from dmm.filters import DeductiveFilter, _kernel, _order_flags, _up_sets


class TrivialAlgebra(Exception):
    pass


@dataclass(eq=False)
class FiniteRA(Tables):
    """The shared tables without a neutral element, and t, memoized."""

    name: str = ""

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


def validate_ra(A: FiniteRA) -> ValidationReport:
    """Check every defining condition of a relevant algebra by exhaustive
    loops, reporting witnesses."""
    A.check_well_formed()
    n = A.size
    meet, join, fus, neg = A.meet, A.join, A.fusion, A.neg
    col = _Collector()

    def leq(a, b):
        return meet[a][b] == a

    for a in range(n):
        if meet[a][a] != a or join[a][a] != a:
            col.add("lattice-idempotent", (a,))
        if neg[neg[a]] != a:
            col.add("involution-period-2", (a,))
        if not leq(a, fus[a][a]):
            col.add("square-increasing", (a,))
        for b in range(n):
            if meet[a][b] != meet[b][a] or join[a][b] != join[b][a]:
                col.add("lattice-commutative", (a, b))
            if fus[a][b] != fus[b][a]:
                col.add("fusion-commutative", (a, b))
            if meet[a][join[a][b]] != a or join[a][meet[a][b]] != a:
                col.add("absorption", (a, b))
            if (join[a][b] == b) != (meet[a][b] == a):
                col.add("order-agreement", (a, b))
            if leq(a, b) != leq(neg[b], neg[a]):
                col.add("neg-antitone", (a, b))
            for c in range(n):
                if meet[meet[a][b]][c] != meet[a][meet[b][c]]:
                    col.add("meet-associative", (a, b, c))
                if join[join[a][b]][c] != join[a][join[b][c]]:
                    col.add("join-associative", (a, b, c))
                if fus[fus[a][b]][c] != fus[a][fus[b][c]]:
                    col.add("fusion-associative", (a, b, c))
                if leq(fus[a][b], c) != leq(fus[a][neg[c]], neg[b]):
                    col.add("contraposition a*b<=c iff a*~c<=~b", (a, b, c))
                # a <= a * (~(b*~b) /\ ~(c*~c))
                t = meet[neg[fus[b][neg[b]]]][neg[fus[c][neg[c]]]]
                if not leq(a, fus[a][t]):
                    col.add("identity-bound a <= a*(~(b*~b)/\\~(c*~c))",
                            (a, b, c))
    d = is_distributive(A)
    if d is not None:
        col.add("distributive", d)
    return col.report()


def ra_deductive_filters(A: FiniteRA) -> list[DeductiveFilter]:
    """All deductive filters: [m) for each m <= t, sorted by (size, sorted
    membership)."""
    return [DeductiveFilter(F, A)
            for F in _up_sets(A, [m for m in A.elements if A.leq(m, A.t)])]


def dfg_ra(A: FiniteRA, a: int) -> DeductiveFilter:
    """The least deductive filter containing a: [a /\\ t)."""
    return dfg_ra_set(A, (a,))


def dfg_ra_set(A: FiniteRA, X) -> DeductiveFilter:
    """The least deductive filter containing X: [t /\\ /\\X), the least up-set
    closed under meets that holds X and every |d|.  X = {} gives [t)."""
    m = A.t
    for x in X:
        m = A.meet[m][x]
    return DeductiveFilter(_up_sets(A, [m])[0], A)


def dfg_oracle(A: FiniteRA, X) -> DeductiveFilter:
    """Independent oracle: least fixpoint closure of X plus all |a| under
    meet and upward closure."""
    cur = set(X) | {A.abs_value(a) for a in A.elements}
    while True:
        new = set(cur)
        for a in cur:
            for b in A.elements:
                if A.leq(a, b):
                    new.add(b)
            for b in cur:
                new.add(A.meet[a][b])
        if new == cur:
            return DeductiveFilter(frozenset(cur), A)
        cur = new


def meet_property_check(A: FiniteRA) -> bool:
    """DFg{a} Intersection DFg{b} = DFg{a \\/ b} for all pairs, plus
    ||a| /\\ |b|| <= |a| /\\ |b|.  DFg{a} is [t /\\ a), as in dfg_ra_set."""
    t = A.t
    up = [frozenset(b for b in A.elements if A.leq(A.meet[t][a], b))
          for a in A.elements]
    for a in A.elements:
        for b in A.elements:
            m = A.meet[A.abs_value(a)][A.abs_value(b)]
            if not A.leq(A.abs_value(m), m):
                return False
            if up[a] & up[b] != up[A.join[a][b]]:
                return False
    return True


def reconstruct_neutral(A: FiniteRA) -> int | None:
    """The glb of all |a|, if it acts as a fusion identity; for finite RAs
    the generating set is taken to be the whole carrier."""
    m = A.t
    if all(A.fusion[m][x] == x for x in A.elements):
        return m
    return None


def to_irl(A: FiniteRA, e: int) -> FiniteIRL:
    return FiniteIRL.from_tables(A.size, A.meet, A.join, A.fusion, A.neg, e,
                                 name=f"{A.name}+" if A.name else "")


def contains_two_reduct(A: FiniteRA) -> tuple[int, int] | None:
    """A pair {a, b} forming a subuniverse isomorphic to 2^- (a < b with
    a, b swapped by neg, a absorbing and b*b = b)."""
    if A.size == 1:
        raise TrivialAlgebra("trivial relevant algebra")
    for a in A.elements:
        for b in A.elements:
            if a == b or not A.leq(a, b):
                continue
            if A.neg[a] != b:
                continue
            if (A.fusion[a][a] == a and A.fusion[a][b] == a
                    and A.fusion[b][b] == b):
                return (a, b)
    return None


@dataclass
class RAClassification:
    trivial: bool
    simple: bool
    si: bool
    fsi: bool
    filter_count: int


def ra_congruences(A: FiniteRA) -> list[tuple[int, ...]]:
    """Congruence block arrays via the deductive-filter bijection
    (theta_F = {(a,b) : a->b, b->a in F})."""
    return [_kernel(A, F.members) for F in ra_deductive_filters(A)]


def ra_classify(A: FiniteRA) -> RAClassification:
    """Flags by the order facts of dmm.filters.classify, with t in place of
    e; one filter per element of the down-set of t."""
    if A.size == 1:
        return RAClassification(True, False, False, True, 1)
    t = A.t
    below = [m for m in A.elements if m != t and A.leq(m, t)]
    simple, si, fsi, _ = _order_flags(A, t, below)
    return RAClassification(False, simple, si, fsi, len(below) + 1)

