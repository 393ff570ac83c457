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

Filters are stored as frozensets of element indices (carriers are tiny).
DeductiveFilter and the helpers that read only the tables take
dmm.algebra.Tables, so the relevant algebras of dmm.relevant share them.
Congruences are block-id arrays with blocks numbered by least member.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def is_deductive_filter(A: FiniteIRL, members: frozenset[int]) -> bool:
    if A.e not in members:
        return False
    for a in members:
        for b in A.elements:
            if A.leq(a, b) and b not in members:
                return False
        for b in members:
            if A.meet[a][b] not in members or A.fusion[a][b] not in members:
                return False
    return True


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


def _kernel(A: Tables, members) -> tuple[int, ...]:
    """Blocks of {(a, b) : a->b and b->a in members}, numbered by least
    member.  members must be a deductive filter, which makes the relation
    an equivalence."""
    blocks: list[int] = []
    ids: dict[int, int] = {}
    for a in range(A.size):
        least = next(b for b in range(a + 1)
                     if A.residual(a, b) in members
                     and A.residual(b, a) in members)
        blocks.append(ids.setdefault(least, len(ids)))
    return tuple(blocks)


def omega(A: FiniteIRL, G: DeductiveFilter) -> Congruence:
    """The congruence {(a,b) : a->b in G and b->a in G}."""
    if G.owner is not A or not is_deductive_filter(A, G.members):
        raise NotAFilter("not a deductive filter of this algebra")
    return Congruence(_kernel(A, G.members), A)


def is_congruence(A: FiniteIRL, theta: Congruence) -> bool:
    """Whether related elements have related negations and related rows of
    meet, join and fusion.  Each element's rows, mapped to block ids, are
    compared with those of the least member of its block, which by
    transitivity compares every related pair."""
    blk = theta.blocks
    if len(blk) != A.size:
        return False
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
    """Block algebra with induced tables; blocks are numbered by least
    member.  The projection is returned as an element map."""
    theta = omega(A, G)
    proj = list(theta.blocks)
    m = max(proj) + 1
    reps = [0] * m
    for a in reversed(range(A.size)):
        reps[proj[a]] = a

    def tab(t):
        return tuple(tuple(proj[t[reps[i]][reps[j]]] for j in range(m))
                     for i in range(m))

    Q = FiniteIRL(m, tab(A.meet), tab(A.join), tab(A.fusion),
                  tuple(proj[A.neg[reps[i]]] for i in range(m)),
                  proj[A.e], name=f"{A.name}/G" if A.name else "")
    # law of quotient orders: a->b in G  iff  a/G <= b/G
    for a in A.elements:
        for b in A.elements:
            if (A.residual(a, b) in G.members) != Q.leq(proj[a], proj[b]):
                raise AssertionError(
                    f"quotient order law fails at ({a}, {b})")
    return Q, proj


@dataclass
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
    below e (see the module docstring)."""
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
