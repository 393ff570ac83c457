"""Deductive filters, the filter/congruence bijection, quotients and the
FSI/SI/simple classification.

Filters are principal.  Let F be a deductive filter of a finite IRL and
m = /\\F.  F is closed under meets, so m is in F, and m <= e since e is
in F.  Then m <= m*m <= m*e = m, because m*m is in F and fusion is
monotone; so m is idempotent, and F = [m) because F is an up-set.
Conversely [m) is a filter for every idempotent m <= e.  So the filters are
the [m) for the negative idempotents m, among them e and the bottom.  The
congruence of [m) grows as m falls, the identity is that of [e), and the
intersection of [p) and [q) is [p \\/ q).  So no function here enumerates
subsets, and classify builds no congruence.

The same argument gives the test omega applies: a set G is a deductive
filter iff m = e /\\ /\\G is idempotent and G = [m).  If G is a filter, e
is in G, so m = /\\G and the above applies.  Conversely m <= e, so [m) is
an up-set holding e, closed under meets, and closed under fusion since
a, b >= m gives a*b >= m*m = m.

The congruence of [m) is the kernel of x |-> m*x.  By residuation a->b is
in [m) iff m*a <= b.  If m*a = m*b then m*a = m*b <= e*b = b, and likewise
m*b <= a.  Conversely m*a <= b and m*b <= a give m*a = m*m*a <= m*b and
m*b <= m*a.  So the blocks are read off row m of the fusion table, and
numbering its values by first appearance numbers them by least member.

Filters are stored as frozensets of element indices (carriers are tiny).
DeductiveFilter and the helpers that read only the tables take
dmm.algebra.Tables, so the relevant algebras of dmm.relevant share them.
Congruences are block-id arrays with blocks numbered by least member.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

from dmm.algebra import FiniteIRL, Tables


class NotAFilter(Exception):
    pass


class NotACongruence(Exception):
    pass


@dataclass(frozen=True)
class DeductiveFilter:
    members: frozenset[int]
    owner: Tables

    def sorted_members(self) -> list[int]:
        return sorted(self.members)


@dataclass(frozen=True)
class Congruence:
    blocks: tuple[int, ...]  # blocks[a] = id of a's class, ids by least member
    owner: FiniteIRL

    def related(self, a: int, b: int) -> bool:
        return self.blocks[a] == self.blocks[b]


def _negative_idempotents(A: FiniteIRL) -> list[int]:
    return [m for m in A.elements if A.leq(m, A.e) and A.fusion[m][m] == m]


def _up_sets(A: Tables, least) -> list[frozenset[int]]:
    """The up-sets [m) for m in least, sorted by (size, sorted membership)."""
    out = [frozenset(b for b in A.elements if A.leq(m, b)) for m in least]
    out.sort(key=lambda F: (len(F), sorted(F)))
    return out


def deductive_filters(A: FiniteIRL) -> list[DeductiveFilter]:
    """All deductive filters: [m) for each negative idempotent m, sorted by
    (size, sorted membership)."""
    return [DeductiveFilter(F, A)
            for F in _up_sets(A, _negative_idempotents(A))]


def dfg(A: FiniteIRL, X) -> DeductiveFilter:
    """Least deductive filter containing X: [m) for the largest negative
    idempotent m below e and every element of X.  It exists because the
    bottom is a negative idempotent and negative idempotents are closed
    under joins: (p \\/ q)^2 = p \\/ q \\/ p*q = p \\/ q when p, q <= e."""
    c = A.e
    for x in X:
        c = A.meet[c][x]
    m = A.bottom
    for p in _negative_idempotents(A):
        if A.leq(p, c):
            m = A.join[m][p]
    return DeductiveFilter(_up_sets(A, [m])[0], A)


def omega(A: FiniteIRL, G: DeductiveFilter) -> Congruence:
    """The congruence {(a,b) : a->b in G and b->a in G}: the kernel of
    x |-> m*x for m = e /\\ /\\G, after the principal test that G is a
    deductive filter (see the module docstring); raises NotAFilter
    otherwise."""
    if G.owner is not A:
        raise NotAFilter("not a deductive filter of this algebra")
    m = A.e
    for a in G.members:
        m = A.meet[m][a]
    row = A.fusion[m]
    if row[m] != m or G.members != {b for b, x in enumerate(A.meet[m])
                                    if x == m}:
        raise NotAFilter("not a deductive filter of this algebra")
    ids: dict[int, int] = {}
    return Congruence(tuple(ids.setdefault(v, len(ids)) for v in row), A)


def is_congruence(A: FiniteIRL, theta: Congruence) -> bool:
    """Whether related elements have related negations and related rows of
    meet, join and fusion.  Each element's rows, mapped to block ids, are
    compared with those of the least member of its block, which by
    transitivity compares every related pair.

    When every block id is an int in range and 2 <= n <= 256, this is one
    comparison of byte strings: neg and the flat meet, join and fusion
    tables, translated by the block ids, against the same tables with
    each row (each entry of neg) taken from the least member of its
    element's block, gathered by one itemgetter.  Other ids take the
    element walk."""
    blk, n = theta.blocks, A.size
    if len(blk) != n:
        return False
    if 2 <= n <= 256 and set(map(type, blk)) == {int} and (
            0 <= min(blk) and max(blk) < n):
        least: dict[int, int] = {}
        lead = itemgetter(*(least.setdefault(i, a) for a, i in enumerate(blk)))
        ids = bytes(blk) + bytes(256 - n)
        return (bytes(chain(A.neg, *A.meet, *A.join, *A.fusion)).translate(ids)
                == bytes(chain(lead(A.neg), *lead(A.meet), *lead(A.join),
                               *lead(A.fusion))).translate(ids))
    ids = blk.__getitem__
    first: dict[int, tuple] = {}
    for a in A.elements:
        rows = (ids(A.neg[a]), *(tuple(map(ids, op[a]))
                                 for op in (A.meet, A.join, A.fusion)))
        if first.setdefault(blk[a], rows) != rows:
            return False
    return True


def filter_of(A: FiniteIRL, theta: Congruence) -> DeductiveFilter:
    """Inverse map: {a : (a /\\ e, e) in theta}."""
    if theta.owner is not A or not is_congruence(A, theta):
        raise NotACongruence("not a congruence of this algebra")
    mem = frozenset(a for a in A.elements
                    if theta.related(A.meet[a][A.e], A.e))
    return DeductiveFilter(mem, A)


def quotient(A: FiniteIRL, G: DeductiveFilter) -> tuple[FiniteIRL, list[int]]:
    """Block algebra with induced tables, blocks numbered by least member
    as omega numbers them; each block is represented by its least member.
    The projection is returned as an element map."""
    proj = list(omega(A, G).blocks)
    reps = [proj.index(b) for b in range(max(proj) + 1)]

    def tab(t):
        return tuple(tuple(map(proj.__getitem__, map(t[r].__getitem__, reps)))
                     for r in reps)

    Q = FiniteIRL(len(reps), tab(A.meet), tab(A.join), tab(A.fusion),
                  tuple(proj[A.neg[r]] for r in reps),
                  proj[A.e], name=f"{A.name}/G" if A.name else "")
    return Q, proj


@dataclass(frozen=True)
class Classification:
    trivial: bool
    simple: bool
    si: bool
    fsi: bool
    subcover: int | None = None  # largest negative idempotent below e, if SI


def congruence_lattice(A: FiniteIRL) -> list[Congruence]:
    """All congruences, via the filter bijection, ordered like the filters
    (by size of the filter, so refinement-compatible)."""
    return [omega(A, G) for G in deductive_filters(A)]


def classify(A: FiniteIRL) -> Classification:
    """FSI / SI / simple flags, from the negative idempotents strictly
    below e (see the module docstring).  Memoized per instance, like the
    validation reports: every call on A returns the one frozen record."""
    return A._classification


def _classify(A: FiniteIRL) -> Classification:
    if A.size == 1:
        return Classification(True, False, False, True)
    below = [m for m in _negative_idempotents(A) if m != A.e]
    return Classification(False, *_order_flags(A, A.e, below))


def _order_flags(A: Tables, e, below) -> tuple[bool, bool, bool, int | None]:
    """(simple, si, fsi, subcover) of a nontrivial algebra whose filters are
    [e), the identity congruence's, and [m) for each m < e in below.  The
    algebra is simple iff below holds the bottom alone, SI iff below has a
    largest element (the subcover), and FSI iff no two elements of below
    join to e.  dmm.relevant passes t in place of e."""
    sub = next((a for a in below if all(A.leq(b, a) for b in below)), None)
    fsi = not any(A.join[p][q] == e for p in below for q in below)
    return len(below) == 1, sub is not None, fsi, sub
