"""Exhaustive enumeration of small algebras up to isomorphism, catalog
persistence, and the theorem harness run over a catalog.

The fast path layers the search: naturally-labeled lattices (down-set
construction), antitone involutions, a choice of neutral element, then a
constraint-propagating DFS over fusion tables.  Only one (involution,
neutral element) pair per orbit of the lattice's automorphisms is searched.

One search, _relabellings, serves the lattice layer: it walks the linear
extensions of an order against a target down-set vector.  The
least-labelling test asks it for no smaller vector.  Aut(L) is the
relabellings of L onto its own vector b: one that gives b induces L's
order, and an automorphism keeps a natural labelling natural and keeps b.
The relabellings of the dual L^op onto b are the isomorphisms L^op -> L,
that is the antitone bijections of L, and the involutions are read off
them.  Both are exact on every natural labelling.

The lattice layer yields one labelled lattice per isomorphism class: the
first one the unpruned down-set search would yield, which is the
lexicographically least down-set vector.  For every lattice that search
runs, and a prefix that another labelling of itself makes smaller is cut,
since it cannot grow into a least labelling.  A distributive lattice is
built instead by Birkhoff's representation, as the down-sets O(P) of its
poset P of join-irreducibles: the posets with n down-sets are grown one
maximal point at a time, one per isomorphism class by the same cut, each
O(P) is labelled by its least vector, and the sorted least vectors are the
search's output.  Searching only the first lattice of each class keeps the
catalog's bytes: the first table of every class of algebras lies on the
first lattice of its lattice class, since an isomorphic lattice met earlier
would carry the same class, and the search there would find it sooner.
_lattices gives the details.

The DFS runs over per-cell domains and checks incrementally: a value of a
cell is checked only against the constraint instances (monotonicity,
square-increasingness, the involution law, associativity) that mention that
cell.  The instances that read the new cell only as its value are checked
once per cell, as a bitmask of the allowed values, the way finite-model
searchers such as SEM and Mace4 keep cell domains; a value outside the
domain fails one of them.  Only the associativity instances that read the
value somewhere else in the table are checked value by value.  This is
exact, not a relaxation.  The prefilled e and bottom rows satisfy every
constraint on their own, and every node above passed the check of all its
decided cells, so a constraint that does not mention the new cell was
already checked and holds.  The search therefore keeps and prunes exactly
the nodes a full recheck after every assignment would; _fusion_tables gives
the details, and tests/test_enumeration_oracles.py compares every layer
against an unpruned or full-recheck oracle.

Isomorphism is decided on each lattice by its automorphism group Aut(L),
computed once per lattice.  The kept lattices are pairwise non-isomorphic,
so tables on different kept lattices are never isomorphic, and two tables
on the same labelled lattice L are isomorphic iff some sigma in Aut(L)
carries one onto the other (an isomorphism of the algebras is one of their
lattices, and the lattice is the same labelled L on both sides).  Aut(L)
acts on the choices (neg, e) by sigma.(neg, e) = (sigma neg sigma^-1,
sigma(e)), and only the first choice of each orbit in iteration order
(neg lexicographic, then e) is searched.  That keeps the first table of
every class, and so the catalog's bytes: if sigma moved the choice
carrying it earlier, sigma would carry the table onto one of the same
class on that earlier choice, which the search (it is complete on each
choice) would have found sooner.  A table's dedup key is
the index of its lattice together with its least encoding over Aut(L).
The encoding holds e, the fusion table and neg but not meet and join,
which every sigma fixes, so without the lattice index two tables on
different lattices could share a key.  The catalog is sorted by this key,
which is exact for isomorphism, so no other canonical form is computed.

Only the first table of each class is validated, and an invalid one still
raises AssertionError.  A later table of the class is isomorphic to a
validated one, so it is valid too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache
from dmm import __version__
from dmm.algebra import (FiniteIRL, check_derived_laws, is_rigorously_compact,
                         validate_dmm, validate_irl)
from dmm.constructions import (NAMED_BASIC, e_free_reduct, embeds_in_some,
                               is_isomorphic, make_named, zero_generated)
# perfbench's test_wrappers_restore_every_namespace reads this binding
from dmm.constructions import canonical_form  # noqa: F401
from dmm.filters import (Congruence, classify, deductive_filters, filter_of,
                         quotient)
from dmm.relevant import (contains_two_reduct, dfg_oracle, dfg_ra,
                          meet_property_check, reconstruct_neutral, validate_ra)

DEFAULT_MAX_SIZE = 8


class SizeTooLarge(Exception):
    pass


class SizeTooSmall(Exception):
    pass


class IncompleteCatalog(Exception):
    pass


@dataclass(frozen=True)
class SearchSpec:
    """A search: every algebra of one class and size, up to isomorphism.
    The class is "dmm" (De Morgan monoids, the square-increasing
    distributive IRLs) or "irl" (all IRLs); the enumerator reads it through
    square_increasing and distributive."""
    size: int
    klass: str = "dmm"

    def __post_init__(self):
        if self.klass not in ("dmm", "irl"):
            raise ValueError(f"unknown algebra class {self.klass!r}")

    @property
    def square_increasing(self) -> bool:
        return self.klass == "dmm"

    @property
    def distributive(self) -> bool:
        return self.klass == "dmm"

    @classmethod
    def for_class(cls, name: str, size: int) -> "SearchSpec":
        return cls(size, name)

    def to_dict(self) -> dict:
        # predicate_filters and limit are constants of the file format
        return {"size": self.size,
                "square_increasing": self.square_increasing,
                "distributive": self.distributive,
                "predicate_filters": [], "limit": None}


@dataclass
class Catalog:
    spec: SearchSpec
    algebras: list[FiniteIRL]
    complete: bool

    def to_json(self) -> str:
        return json.dumps(
            {"spec": self.spec.to_dict(), "tool_version": __version__,
             "complete": self.complete, "count": len(self.algebras),
             "algebras": [A.to_dict() for A in self.algebras]},
            sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "Catalog":
        d = json.loads(text)
        s = d["spec"]
        flags = (s["square_increasing"], s["distributive"])
        spec = SearchSpec(s["size"], {(True, True): "dmm",
                                      (False, False): "irl"}.get(flags))
        return cls(spec, [FiniteIRL.from_dict(a) for a in d["algebras"]],
                   d["complete"])

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path) -> "Catalog":
        with open(path) as fh:
            return cls.from_json(fh.read())


# ---- layer 1: naturally-labeled lattices, one per isomorphism class --------


def _with_point(downs: list[int], strict: int, i: int) -> list[int]:
    """The down-sets, as bitmasks, of an order on 0..i-1 with down-sets
    downs once element i is added as a maximal element with strict down-set
    strict.  The new down-sets hold bit i, so ascending downs stay
    ascending."""
    return downs + [d | 1 << i for d in downs if d & strict == strict]


@cache
def _bits(mask: int) -> tuple[int, ...]:
    """The set bits of mask, in increasing order; the masks are subsets of
    one lattice's elements, so the cache holds at most 2^n of them."""
    return tuple(k for k in range(mask.bit_length()) if mask >> k & 1)


def _relabellings(below: list[int], target: list[int]):
    """Walk the linear extensions of the order on 0..m-1 in which element x
    has down-set bitmask below[x], against the down-set vector target of a
    natural labelling.  Position k takes an element whose strict down-set
    is placed, and its down-set under the new positions is compared with
    target[k]: a larger value closes the branch, a smaller one yields None
    and closes the branch, and an equal one goes on to position k + 1.

    Each complete extension is yielded as the tuple element -> position:
    these are exactly the isomorphisms of below's order onto target's, as
    only branches that cannot reach target's vector are closed."""
    m = len(below)
    new = [0] * m

    def rec(k, placed):
        if k == m:
            yield tuple(new)
            return
        t = target[k]
        for x in _bits(((1 << m) - 1) & ~placed):
            strict = below[x] & ~(1 << x)
            if strict & ~placed:
                continue
            w = 1 << k
            for y in _bits(strict):
                w |= 1 << new[y]
            if w == t:
                new[x] = k
                yield from rec(k + 1, placed | (1 << x))
            elif w < t:
                yield None

    return rec(0, 0)


def _least_vector(below: list[int]) -> list[int]:
    """The least down-set vector over the linear extensions of the order in
    which element x has down-set bitmask below[x].  The extensions are
    walked position by position, as in _relabellings; at each position only
    the elements that give the least entry are kept, and only ties
    branch."""
    m = len(below)
    vector, states = [], [((0,) * m, 0)]  # (element -> position, placed)
    for k in range(m):
        least, ties = None, []
        for new, placed in states:
            for x in _bits(((1 << m) - 1) & ~placed):
                strict = below[x] & ~(1 << x)
                if strict & ~placed:
                    continue
                w = 1 << k
                for y in _bits(strict):
                    w |= 1 << new[y]
                if least is None or w < least:
                    least, ties = w, []
                if w == least:
                    ties.append((new, placed, x))
        vector.append(least)
        states = [(new[:x] + (k,) + new[x + 1:], placed | 1 << x)
                  for new, placed, x in ties]
    return vector


def _posets(n: int):
    """Yield O(P), the down-sets of P as ascending bitmasks, for each poset
    P with n down-sets, one P per isomorphism class.

    P grows one maximal point at a time: point i's strict down-set is a
    down-set of the points before it, tried in ascending order, so P's
    down-set vector is a natural labelling.  A prefix that another
    labelling of itself makes smaller is cut, as in _lattices, which keeps
    the least labelling of each class.  Adding a point adds the down-set of
    all points and removes none, so a branch is cut once it has more than
    n down-sets."""
    below: list[int] = []

    def rec(downs):
        i = len(below)
        if len(downs) == n:
            yield downs
            return
        for mask in downs:
            grown = _with_point(downs, mask, i)
            if len(grown) > n:
                continue
            below.append(mask | 1 << i)
            if None not in _relabellings(below, below):
                yield from rec(grown)
            below.pop()

    yield from rec([0])


def _lattices(n: int, distributive: bool = False):
    """Yield (meet, join) tables of the lattices on 0..n-1, one per
    isomorphism class (only the distributive ones if asked), each with its
    least natural labelling: a linear extension with 0 = bottom and
    n-1 = top whose down-set vector (below[0], ..., below[n-1]) of bitmasks
    is lexicographically least.  They come in ascending order of that
    vector.

    - Every lattice.  Elements are added one at a time; element i's strict
      down-set is a down-set of the existing order, tried in ascending
      order, and pairwise meets must stay principal at every step (top
      arrives last, so joins then exist for free).  Without pruning every
      natural labelling of every lattice would come out in ascending order
      of its vector.  A prefix that some other linear extension of itself
      makes smaller cannot grow into a least labelling: relabelling that
      prefix (a down-set) and keeping the later labels gives a natural
      labelling of the same lattice that is smaller at an earlier position.
      So the test, that _relabellings(below, below) yields no None, runs at
      every node, and at the leaf it decides exactly.  The same search
      gives a kept lattice's automorphisms and antitone involutions, as
      _automorphisms and _involutions say.
    - Distributive.  By Birkhoff's representation a finite distributive
      lattice is O(P), the down-sets of its poset P of join-irreducibles
      ordered by inclusion, and P is unique up to isomorphism.  So the
      classes are O(P) for the posets P with n down-sets, one per class
      (_posets).  Each O(P) gets its least vector (_least_vector), and the
      sorted least vectors are the vectors the search above would keep.

    Why the catalog does not change when only these lattices are searched:
    suppose a class of algebras first appears on a labelled lattice L_j
    and an isomorphic labelled lattice L_i comes earlier.  The lattice
    isomorphism carries that algebra onto L_i, where the search (which is
    complete on each lattice) finds it sooner, contradicting "first
    appears".  So the first table of every class lies on the first lattice
    of its lattice class, the kept lattices come in the old order, and the
    first table of each class, which the catalog keeps, is the same.
    """
    if distributive:
        # O(P) in ascending mask order is a natural labelling, since a
        # down-set inside another has the smaller mask
        vectors = sorted(
            _least_vector([sum(1 << j for j, d in enumerate(downs)
                               if d & D == d) for D in downs])
            for downs in _posets(n))
        for below in vectors:
            yield _tables_from_below(below, n)
        return
    full = (1 << n) - 1
    below: list[int] = [1]  # element 0 is the bottom

    def rec(downs):
        i = len(below)
        if i == n:
            yield _tables_from_below(below, n)
            return
        known = set(below)
        for mask in downs:
            nb = mask | (1 << i)
            if i == n - 1 and nb != full:
                continue
            if not all((nb & below[j]) in known for j in range(i)):
                continue
            below.append(nb)
            if None not in _relabellings(below, below):
                yield from rec(_with_point(downs, mask, i))
            below.pop()

    yield from rec([0, 1])


def _tables_from_below(below: list[int], n: int):
    """meet and join of a naturally labelled lattice; a v b is the upper
    bound with the least label, as it lies below the others."""
    idx = {b: k for k, b in enumerate(below)}
    meet = tuple(tuple(idx[below[a] & below[b]] for b in range(n))
                 for a in range(n))
    join = tuple(tuple(next(k for k, d in enumerate(below) if d & u == u)
                       for u in (below[a] | below[b] for b in range(n)))
                 for a in range(n))
    return meet, join


def _lattice_distributive(meet, join, n) -> bool:
    """Distributivity by its definition; a test oracle.  perfbench/spans.py
    traces this name and its tests expect it to be bound here."""
    return all(meet[a][join[b][c]] == join[meet[a][b]][meet[a][c]]
               for a in range(n) for b in range(n) for c in range(n))


def _down_sets(meet, n) -> list[int]:
    """The down-set vector of a lattice: bit c of entry a is c <= a."""
    return [sum(1 << c for c in range(n) if meet[c][a] == c) for a in range(n)]


def _automorphisms(meet, n):
    """The automorphisms of a naturally labelled lattice, as tuples in
    lexicographic order (the identity first): its relabellings onto its own
    down-set vector, which induce its own order."""
    b = _down_sets(meet, n)
    return sorted(filter(None, _relabellings(b, b)))


# ---- layer 2: antitone involutions ------------------------------------------


def _involutions(meet, n):
    """Antitone involutions of a naturally labelled lattice L, as tuples in
    lexicographic order, the order itertools.permutations lists them in.

    An antitone bijection of L is an isomorphism of the dual L^op onto L.
    Labelled x -> n-1-x, L^op is naturally labelled with down-set vector up
    (L's up-sets, reversed), so the relabellings lambda of up onto L's
    vector give every antitone bijection nu(a) = lambda(n-1-a) exactly
    once, on any natural labelling: |Aut(L)| of them when L is self-dual,
    none otherwise.  The nu with nu.nu = id are kept.
    """
    up = [sum(1 << (n - 1 - c) for c in range(n) if meet[a][c] == a)
          for a in reversed(range(n))]
    nus = (lam[::-1] for lam in filter(None, _relabellings(
        up, _down_sets(meet, n))))
    yield from sorted(nu for nu in nus if all(nu[nu[a]] == a for a in range(n)))


# ---- layer 3: fusion tables by constraint-propagating DFS -------------------


def _fusion_tables(n, meet, neg, e, square_increasing, stats=None):
    """All commutative, associative, e-neutral fusion tables compatible with
    the involution law over the given lattice, generated depth-first.

    The e row is fixed by neutrality and the bottom row by absorption (both
    forced in any residuated lattice).  Cells (a, b), a <= b, are then filled
    in a fixed order, and a value v of the new cell (a, b) = (b, a) must
    pass the constraint instances that mention that cell:

    - monotonicity against the decided cells in down(a) x down(b) and
      up(a) x up(b);
    - square-increasingness of a new diagonal cell, when requested;
    - the involution law x*y <= z iff ~z*y <= ~x on the triples whose x*y is
      the new cell.  The triple (~z, y, ~x) states the same equivalence with
      the two sides swapped, so this also covers the triples whose ~z*y is
      the new cell;
    - associativity (x*y)*z = x*(y*z) on the decided triples whose x*y or
      (x*y)*z is the new cell.  By commutativity the triple (z, y, x) is the
      same equation with y*z and x*(y*z) in those places.

    These instances are checked in two parts.  The domain of the cell, a
    bitmask computed once on entering it, holds the values that pass every
    instance that reads the new cell only as v:

    - all the monotonicity, square-increasingness and involution-law
      instances (the involution instance that also reads the new cell as
      ~z*y holds for every v);
    - the associativity instances whose (x*y)*z is the new cell and whose
      x*y, y*z and x*(y*z) are other cells: v = x*(y*z).  Their x*y is a or
      b, so they are read off where[a] and where[b], the cells assigned by
      the search indexed by value; where is updated when a cell is assigned
      and when the assignment is undone.

    The per-value check, run on the values in the domain only, covers the
    associativity instances that read v somewhere else:

    - v*z = x*(y*z) on the triples whose x*y is the new cell, where
      x*(y*z) is the new cell itself when y*z = y.  These include the
      mirror images of the triples whose y*z and (x*y)*z are the new cell;
    - for v in {a, b} and o the other argument, (v*o)*o = v*(o*o), whose
      v*o and (v*o)*o are both the new cell: v*(o*o) = v.

    A value outside the domain fails an instance that reads the new cell
    only as v, and the per-value check covers every instance that reads it
    elsewhere, so a value passes both parts exactly when it passes every
    instance that mentions the cell.  Each value outside the domain counts
    as one prune, as does each value that fails the per-value check.
    Instances over prefilled cells that hold for every v are not visited:
    the bottom row in down(a) x down(b), u*y with u = bot in the involution
    law, z in {e, bot} in v*z = x*(y*z), and an e-row x*y, whose triples read
    the new cell as y*z or as x*(y*z).

    The result is exactly that of rechecking every constraint over every
    decided cell after each assignment:

    - The prefilled cells satisfy every constraint on their own.  With
      e != bot, a cell with a bot argument holds bot and a cell with an e
      argument holds its other argument.  So monotonicity there is that of
      the order, the involution law reduces to ~ being an antitone
      involution with ~bot = top, and associativity reduces to neutrality
      and absorption.
    - Each node passed the check of everything decided above it, and cells
      are not revised below it, so the only constraints a new value can
      break are the ones that mention its cell.
    - Residual existence on a completed row a needs no check of its own.
      With row a decided, the involution law at (c, a, y) says
      c*a <= y iff c <= ~(~y*a), so the solutions of a*c <= y are the
      down-set of ~(~y*a), which has a largest element.

    Hence the search keeps and prunes the same nodes in the same order.
    """
    rng = range(n)
    L = [[meet[a][b] == a for b in rng] for a in rng]
    down = [[c for c in rng if L[c][a]] for a in rng]
    up = [[c for c in rng if L[a][c]] for a in rng]
    below = [sum(1 << c for c in down[a]) for a in rng]
    above = [sum(1 << c for c in up[a]) for a in rng]
    bot = next(a for a in rng if len(up[a]) == n)
    if e == bot and n > 1:
        # e neutral and bottom absorbing collapse the algebra; no tables
        return
    fus = [[-1] * n for _ in rng]
    for x in rng:
        fus[e][x] = fus[x][e] = x
        fus[bot][x] = fus[x][bot] = bot
    cells = [(a, b) for a in rng for b in range(a, n)
             if fus[a][b] < 0]
    lower = [[c for c in down[a] if c != bot] for a in rng]
    dual = [(u, below[neg[u]]) for u in rng if u != bot]
    inner = [z for z in rng if z != e and z != bot]
    where = [[] for _ in rng]

    def domain(a, b, pairs):
        dom = (1 << n) - 1
        for c in lower[a]:
            rowc = fus[c]
            for d in lower[b]:
                w = rowc[d]
                if w >= 0:
                    dom &= above[w]
        for c in up[a]:
            rowc = fus[c]
            for d in up[b]:
                w = rowc[d]
                if w >= 0:
                    dom &= below[w]
        if square_increasing and a == b:
            dom &= above[a]
        # involution law at (x, y, ~u): v <= ~u iff u*y <= ~x
        for x, y in pairs:
            rowy, nx = fus[y], neg[x]
            for u, m in dual:
                q = rowy[u]
                if q >= 0:
                    dom &= m if L[q][nx] else ~m
        # associativity at (x, y, z) with (x*y)*z new: v = x*(y*z)
        for p, z in pairs:
            rowz = fus[z]
            for x, y in where[p]:
                q = rowz[y]
                if q >= 0:
                    r = fus[x][q]
                    if r >= 0:
                        dom &= 1 << r
        return dom

    def fits(a, b, v, known, fixed):
        # the instances that read v somewhere other than the new cell
        rowv = fus[v]
        for z, r in known:
            q = rowv[z]
            if q >= 0 and q != r:
                return False
        for z in fixed:
            q = rowv[z]
            if q >= 0 and q != v:
                return False
        if a != b and (v == a or v == b):
            # associativity at (v, o, o): v*(o*o) = v
            q = fus[a + b - v][a + b - v]
            if q >= 0 and rowv[q] >= 0 and rowv[q] != v:
                return False
        return True

    def rec(k):
        if k == len(cells):
            yield tuple(tuple(row) for row in fus)
            return
        a, b = cells[k]
        pairs = ((a, b),) if a == b else ((a, b), (b, a))
        dom = domain(a, b, pairs)
        if stats is not None:
            stats["pruned"] += n - dom.bit_count()
        # associativity at (x, y, z) with x*y new: v*z = x*(y*z), listed as
        # (z, x*(y*z)) when x*(y*z) is decided and as z when y*z = y
        known, fixed = [], []
        for x, y in pairs:
            rowx, rowy = fus[x], fus[y]
            for z in inner:
                q = rowy[z]
                if q == y:
                    fixed.append(z)
                elif q >= 0 and rowx[q] >= 0:
                    known.append((z, rowx[q]))
        for v in _bits(dom):
            fus[a][b] = fus[b][a] = v
            if fits(a, b, v, known, fixed):
                where[v].extend(pairs)
                yield from rec(k + 1)
                del where[v][-len(pairs):]
            elif stats is not None:
                stats["pruned"] += 1
        fus[a][b] = fus[b][a] = -1

    yield from rec(0)


# ---- the fast enumerator ----------------------------------------------------


def _orbit_first_es(neg, auts):
    """The e for which (neg, e) comes first in its Aut(L)-orbit, in the
    enumerator's order (neg lexicographic, then e).  auts holds each sigma
    with its inverse."""
    stab = []
    for s, inv in auts:
        moved = tuple(s[neg[a]] for a in inv)  # sigma neg sigma^-1
        if moved < neg:
            return []
        if moved == neg:
            stab.append(s)
    return [e for e in range(len(neg)) if all(s[e] >= e for s in stab)]


def _least_encoding(fus, neg, e, auts) -> bytes:
    """The least encoding of sigma.(e, fusion, neg) over sigma in Aut(L)."""
    return min(bytes([s[e], *(s[fus[a][b]] for a in inv for b in inv),
                      *(s[neg[a]] for a in inv)])
               for s, inv in auts)


def enumerate_algebras(spec: SearchSpec, unsafe: bool = False) -> Catalog:
    """Layered exhaustive search; output sorted by the dedup key, so two
    runs with the same spec are byte-identical.

    On each lattice L only the first (neg, e) of each Aut(L)-orbit is
    searched, and the first table of each class is kept and validated.  A
    table's key is (lattice index, least encoding over Aut(L)): the lattices
    are pairwise non-isomorphic and Aut(L) fixes meet and join, so equal
    keys mean isomorphic tables, and the index keeps tables on different
    lattices apart.  The module docstring gives the orbit argument.  A
    change to the order of _lattices or to _least_encoding reorders the
    catalog and renames its entries, so the pinned digests in
    tests/test_enumeration.py must be recorded again."""
    n = spec.size
    if n < 1:
        raise SizeTooSmall(f"size {n} below 1")
    if n > DEFAULT_MAX_SIZE and not unsafe:
        raise SizeTooLarge(f"size {n} above ceiling {DEFAULT_MAX_SIZE}")
    stats = {"pruned": 0}
    seen: dict[tuple[int, bytes], FiniteIRL] = {}
    for li, (meet, join) in enumerate(_lattices(n, spec.distributive)):
        auts = [(s, sorted(range(n), key=s.__getitem__))
                for s in _automorphisms(meet, n)]
        for neg in _involutions(meet, n):
            for e in _orbit_first_es(neg, auts):
                for fus in _fusion_tables(n, meet, neg, e,
                                          spec.square_increasing, stats):
                    key = (li, _least_encoding(fus, neg, e, auts))
                    if key in seen:
                        continue
                    A = FiniteIRL(n, meet, join, fus, tuple(neg), e)
                    rep = (validate_dmm(A) if spec.klass == "dmm"
                           else validate_irl(A))
                    if not rep.ok:
                        raise AssertionError(
                            "search produced an invalid algebra: "
                            + ", ".join(rep.laws_violated()))
                    seen[key] = A
    out = [seen[k] for k in sorted(seen)]
    for i, A in enumerate(out):
        A.name = f"{spec.klass}{n}-{i}"
    return Catalog(spec, out, True)


# ---- theorem harness --------------------------------------------------------


@dataclass
class CheckOutcome:
    instances: int = 0
    counterexamples: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.counterexamples


@dataclass
class HarnessReport:
    checks: dict[str, CheckOutcome] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks.values())

    def check(self, name: str, *counterexamples) -> None:
        """Count one instance of check `name` and record its counterexamples,
        dropping the Nones."""
        c = self.checks.setdefault(name, CheckOutcome())
        c.instances += 1
        c.counterexamples.extend(x for x in counterexamples if x is not None)

    def to_dict(self) -> dict:
        return {name: {"instances": c.instances, "ok": c.ok,
                       "counterexamples": c.counterexamples}
                for name, c in self.checks.items()}

    def text(self) -> str:
        lines = []
        for name, c in self.checks.items():
            mark = "PASS" if c.ok else "FAIL"
            lines.append(f"  [{mark}] {name}: {c.instances} instance(s)"
                         + ("" if c.ok else f"  counterexamples: "
                            f"{c.counterexamples}"))
        return "\n".join(lines)


@cache
def _basic(name: str) -> FiniteIRL:
    """A basic named algebra, built and validated once per process.  Only
    the harnesses call this, and they only read the algebra."""
    return make_named(name)


def theorem_harness(catalog: Catalog) -> HarnessReport:
    """Run the structural checks over every applicable entry of a catalog
    of DMMs.  Each entry's quotients A/F are built once, one per deductive
    filter F, and every filter check reads them."""
    from dmm.structure import (fusion_pattern_check, lollipop,
                               odd_sugihara_quotient, splitting_check)
    if not catalog.complete or not catalog.algebras:
        raise IncompleteCatalog("harness needs a complete, nonempty catalog")
    report = HarnessReport()
    for A in catalog.algebras:
        cls = classify(A)
        lr = check_derived_laws(A)
        report.check("law-suite", None if lr.ok else (A.name, lr.failures()))
        # (F, A/F, projection); the projection's blocks are omega(A, F)'s
        quots = [(G, *quotient(A, G)) for G in deductive_filters(A)]
        report.check("filter-congruence-bijection", next(
            ((A.name, sorted(G.members)) for G, _, proj in quots
             if filter_of(A, Congruence(tuple(proj), A)).members != G.members),
            None))

        if cls.fsi and not cls.trivial:
            r = splitting_check(A)
            report.check("splitting", None if r.ok else (A.name, r.witness))
            report.check("rigorous-compactness",
                         None if is_rigorously_compact(A) else A.name)
            lp = lollipop(A)
            report.check("lollipop",
                         None if lp.ok else (A.name, lp.violations))
            if not all(A.fusion[a][a] == a for a in A.elements):
                r = fusion_pattern_check(A)
                report.check("fusion-pattern",
                             None if r.ok else (A.name, r.witness, r.detail))
                _, q = odd_sugihara_quotient(A)
                report.check("odd-sugihara-quotient",
                             None if q.ok else (A.name, q.violations))
                # f^2 > e and idempotents at or above f are linearly ordered
                f2 = A.fusion[A.f][A.f]
                idems = [a for a in A.elements
                         if A.leq(A.f, a) and A.fusion[a][a] == a]
                report.check("idempotents-above-f", None if (
                    A.lt(A.e, f2)
                    and all(A.leq(a, b) or A.leq(b, a)
                            for a in idems for b in idems)
                    and all(A.fusion[a][a] == a for a in A.elements
                            if A.leq(A.f, a) and not A.lt(a, f2)))
                    else A.name)

        if (cls.simple and not cls.trivial
                and zero_generated(A)[0].size == A.size):
            report.check("zero-generated-simples", None if any(
                is_isomorphic(A, _basic(nm)) for nm in ("2", "C4", "D4"))
                else A.name)

        if not cls.trivial:
            report.check("minimality-shadow", None if any(
                embeds_in_some(_basic(nm), (Q for _, Q, _ in quots))
                for nm in NAMED_BASIC) else A.name)

        if cls.fsi and not cls.trivial:
            # every proper nontrivial zero-generated quotient is C4
            report.check("surjections-onto-zero-generated", *(
                (A.name, sorted(G.members)) for G, B, _ in quots
                if 1 < B.size < A.size
                and zero_generated(B)[0].size == B.size
                and not is_isomorphic(B, _basic("C4"))))
    return report


def relevant_harness(catalog: Catalog) -> HarnessReport:
    """The relevant-algebra checks on the e-free reduct R of every catalog
    entry A: R satisfies the RA axioms and the meet property, dfg_ra agrees
    with the fixpoint oracle, t is A's e, and R has a 2-element subreduct
    when nontrivial."""
    if not catalog.complete or not catalog.algebras:
        raise IncompleteCatalog("harness needs a complete, nonempty catalog")
    report = HarnessReport()
    for A in catalog.algebras:
        R = e_free_reduct(A)
        report.check("ra-axioms", None if validate_ra(R).ok else A.name)
        report.check("ra-meet-property",
                     None if meet_property_check(R) else A.name)
        report.check("ra-dfg-oracle", None if all(
            dfg_ra(R, a).members == dfg_oracle(R, {a}).members
            for a in R.elements) else A.name)
        report.check("ra-neutral-reconstructed",
                     None if reconstruct_neutral(R) == A.e else A.name)
        if R.size > 1:
            report.check("ra-two-element-subreduct",
                         None if contains_two_reduct(R) else A.name)
    return report


AXIOM_SETS = {
    "2": ("ax-x-le-e",),
    "S3": ("ax-e-eq-f", "ax-semilinear", "ax-S3"),
    "D4": ("ax-anti-idem", "ax-D41", "ax-D42"),
    "C4": ("ax-anti-idem", "ax-e-le-f", "ax-semilinear", "ax-C41", "ax-C42"),
}


def axiomatization_check(catalog: Catalog) -> HarnessReport:
    """On the SI part of a catalog: the axiom set of each small named
    algebra must pin down exactly that algebra."""
    from dmm.terms import law_statements, satisfies
    if not catalog.complete or not catalog.algebras:
        raise IncompleteCatalog("axiomatization check needs a complete catalog")
    report = HarnessReport()
    si_entries = [A for A in catalog.algebras if classify(A).si]
    for name, laws in AXIOM_SETS.items():
        X = _basic(name)
        stmts = [s for law in laws for s in law_statements(law)]

        def holds(A):
            return all(satisfies(A, s).holds for s in stmts)

        # a check with no SI entry still reports, with 0 instances
        own = report.checks[f"axioms-{name}"] = CheckOutcome()
        if not holds(X):
            own.counterexamples.append(f"{name} fails its own axioms")
        for A in si_entries:
            report.check(f"axioms-{name}", A.name if holds(A)
                         and not is_isomorphic(A, X) else None)
    return report
