"""Exhaustive enumeration of small algebras up to isomorphism, catalog
persistence, and the theorem harness run over a catalog.

The fast path layers the search: naturally-labeled lattices (down-set
construction), antitone involutions, a choice of neutral element, then a
constraint-propagating DFS over fusion tables.  Only one (involution,
neutral element) pair per orbit of the lattice's automorphisms is searched.

Two walks over the linear extensions of an order serve the lattice layer.
_relabellings walks them depth first against a target down-set vector: the
least-labelling test asks it for no smaller vector, and its relabellings
of the dual L^op onto L's vector are the antitone bijections of L, off
which the involutions are read.  _least_labellings walks them breadth
first and returns the least vector with every relabelling onto it.  Aut(L)
is the relabellings of L onto its own vector b (one that gives b induces
L's order, and an automorphism keeps b), so the walk that finds a least
labelling gives Aut(L) too, and _lattices yields it with the lattice.

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
_lattices gives the details.  Each kept lattice gets one record
(dmm.algebra._Lattice), made by enumerate_algebras: its order facts (order
matrix, down-set and up-set masks, lower covers, bottom and top) are
computed once there, and the involution and fusion layers take the record
for all its (neg, e) triples.

The DFS takes one plain recursive step per cell, and a value of a cell is
checked only against the constraint instances (monotonicity,
square-increasingness, the involution law, associativity) that mention that
cell.  The step first computes the cell's domain, a bitmask of the values
that pass every instance reading the new cell only as its value, the way
finite-model searchers such as SEM and Mace4 keep cell domains.  It then
writes each value of the domain into the cell and tests it, in one scan,
against the associativity instances that read the cell somewhere else.
This is exact, not a relaxation.  The prefilled e and bottom rows satisfy
every constraint on their own, and every node above passed the check of
all its decided cells, so a constraint that does not mention the new cell
was already checked and holds.  The search therefore keeps and prunes
exactly the nodes a full recheck after every assignment would;
_fusion_tables gives the details, and tests/test_enumeration_oracles.py
compares every layer against an unpruned or full-recheck oracle.

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
which is exact for isomorphism.  dmm.constructions.canonical_form computes
the same key from any labelling of an algebra, with the lattice's least
down-set vector in place of its index, so sorting by it gives this order.

Only the first table of each class is validated, and an invalid one still
raises AssertionError, naming the laws it breaks (a table that is not an
IRL too, under the dmm class).  A later table of the class is isomorphic
to a validated one, so it is valid too.  All tables on one lattice share
its meet and join tuples, and each kept class is handed the lattice's
record as its own (FiniteIRL.lattice), so validation reads the record the
layers read: the lattice laws, the order marks and distributivity are
computed once per lattice, while the laws that read fusion, neg and e are
decided for every kept class.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache, lru_cache
from itertools import chain
from operator import itemgetter
from dmm import __version__
from dmm.algebra import (FiniteIRL, NotAnIRL, _Lattice, check_derived_laws,
                         is_rigorously_compact, validate_dmm, validate_irl)
from dmm.constructions import (NAMED_BASIC, e_free_reduct, embeds_in_some,
                               is_isomorphic, make_named, zero_generated)
# perfbench's test_wrappers_restore_every_namespace reads this binding
from dmm.constructions import canonical_form  # noqa: F401
from dmm.filters import (Congruence, classify, deductive_filters, filter_of,
                         quotient)
from dmm.relevant import (contains_two_reduct, meet_property_check,
                          reconstruct_neutral, validate_ra)

DEFAULT_MAX_SIZE = 8

# compact JSON text, as Catalog.to_json writes it
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


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
        """The catalog as compact JSON with sorted keys, byte for byte
        json.dumps of the to_dict forms with sort_keys=True and separators
        (",", ":").  The entries are assembled in sorted-key order, and each
        table object's text is made once per call: the classes on one
        lattice share its meet and join tuples (enumerate_algebras), so
        their text is written once per lattice, not once per class.  e,
        size and count are ints, which JSON writes as Python does."""
        texts: dict[int, str] = {}

        def text(t) -> str:
            # t stays alive through the call, so its id is not reused
            out = texts.get(id(t))
            if out is None:
                out = texts[id(t)] = _dumps(t)
            return out

        entries = ",".join(
            f'{{"e":{A.e},"fusion":{_dumps(A.fusion)},'
            f'"join":{text(A.join)},"meet":{text(A.meet)},'
            f'"name":{_dumps(A.name)},"neg":{_dumps(A.neg)},'
            f'"size":{A.size}}}' for A in self.algebras)
        return (f'{{"algebras":[{entries}],'
                f'"complete":{_dumps(self.complete)},'
                f'"count":{len(self.algebras)},'
                f'"spec":{_dumps(self.spec.to_dict())},'
                f'"tool_version":{_dumps(__version__)}}}')

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


# ---- layer 1: naturally-labeled lattices, one per isomorphism class --------


def _with_point(downs: list[int], strict: int, i: int) -> list[int]:
    """The down-sets, as bitmasks, of an order on 0..i-1 with down-sets
    downs once element i is added as a maximal element with strict down-set
    strict.  The new down-sets hold bit i, so ascending downs stay
    ascending."""
    return downs + [d | 1 << i for d in downs if d & strict == strict]


@lru_cache(maxsize=1024)
def _bits(mask: int) -> tuple[int, ...]:
    """The set bits of mask, in increasing order.  The walks ask for the
    same masks in runs, so a bounded cache hits as often as an unbounded
    one: canonical_form(2^6) asks for 4,068 masks and misses each once, and
    enumeration up to dmm-11 and irl-8 asks for 257."""
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


def _least_labellings(below: list[int]):
    """The least down-set vector over the linear extensions of the order in
    which element x has down-set bitmask below[x], and the relabellings
    onto it, as tuples element -> position.  The extensions are walked
    position by position, as in _relabellings; at each position only the
    elements that give the least entry are kept, and only ties branch, so
    the states left at the end are exactly the relabellings onto it."""
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
    return vector, [new for new, _ in states]


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
    """Yield (meet, join, auts) for the lattices on 0..n-1, one per
    isomorphism class (only the distributive ones if asked), each with its
    least natural labelling: a linear extension with 0 = bottom and
    n-1 = top whose down-set vector (below[0], ..., below[n-1]) of bitmasks
    is lexicographically least.  They come in ascending order of that
    vector.  auts lists the automorphisms of the labelled lattice as tuples
    element -> element, the identity first.

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
      every node, and at the leaf it decides exactly; the relabellings it
      walked at a kept leaf are Aut(L).  At n = 1 the root is the leaf, and
      its one-element prefix has the identity alone.
    - Distributive.  By Birkhoff's representation a finite distributive
      lattice is O(P), the down-sets of its poset P of join-irreducibles
      ordered by inclusion, and P is unique up to isomorphism.  So the
      classes are O(P) for the posets P with n down-sets, one per class
      (_posets).  Each O(P) gets its least vector and the relabellings r
      onto it (_least_labellings), and the sorted least vectors are the
      vectors the search above would keep.  Each r is an isomorphism of
      O(P) onto the lattice L so labelled, so with r0 the first of them,
      sigma = r . r0^-1 runs once over each element of Aut(L).

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
        found = []
        for downs in _posets(n):
            # O(P) in ascending mask order is a natural labelling, since a
            # down-set inside another has the smaller mask
            v, maps = _least_labellings([sum(1 << j for j, d in
                                             enumerate(downs) if d & D == d)
                                         for D in downs])
            inv = sorted(range(n), key=maps[0].__getitem__)  # r0^-1
            found.append((v, [tuple(r[x] for x in inv) for r in maps]))
        for below, auts in sorted(found, key=itemgetter(0)):
            yield (*_tables_from_below(below, n), auts)
        return
    full = (1 << n) - 1
    below: list[int] = [1]  # element 0 is the bottom

    def rec(downs, auts):
        i = len(below)
        if i == n:
            yield (*_tables_from_below(below, n), auts)
            return
        known = set(below)
        for mask in downs:
            nb = mask | (1 << i)
            if i == n - 1 and nb != full:
                continue
            if not all((nb & below[j]) in known for j in range(i)):
                continue
            below.append(nb)
            maps = []
            for s in _relabellings(below, below):
                if s is None:
                    break
                maps.append(s)
            else:
                yield from rec(_with_point(downs, mask, i), maps)
            below.pop()

    yield from rec([0, 1], [(0,)])


def _tables_from_below(below: list[int], n: int):
    """meet and join of a naturally labelled lattice, read off the down-sets
    and up-sets by dict lookup: down(a) & down(b) = down(a /\\ b) and
    up(a) & up(b) = up(a \\/ b)."""
    rng = range(n)
    above = [sum(1 << k for k in rng if below[k] >> a & 1) for a in rng]
    idx = {d: k for k, d in enumerate(below)}
    idx_up = {u: k for k, u in enumerate(above)}
    meet = tuple(tuple(idx[below[a] & below[b]] for b in rng) for a in rng)
    join = tuple(tuple(idx_up[above[a] & above[b]] for b in rng) for a in rng)
    return meet, join


def _lattice_distributive(meet, join, n) -> bool:
    """Distributivity by its definition; a test oracle.  perfbench/spans.py
    traces this name and its tests expect it to be bound here."""
    return all(meet[a][join[b][c]] == join[meet[a][b]][meet[a][c]]
               for a in range(n) for b in range(n) for c in range(n))


# ---- layer 2: antitone involutions ------------------------------------------


def _involutions(lat, n):
    """Antitone involutions of the naturally labelled lattice L with record
    lat, as tuples in lexicographic order, the order itertools.permutations
    lists them in.

    An antitone bijection of L is an isomorphism of the dual L^op onto L.
    Labelled x -> n-1-x, L^op is naturally labelled with down-set vector up
    (L's up-sets, reversed), so the relabellings lambda of up onto L's
    vector give every antitone bijection nu(a) = lambda(n-1-a) exactly
    once, on any natural labelling: |Aut(L)| of them when L is self-dual,
    none otherwise.  The nu with nu.nu = id are kept.  Both vectors are
    read off lat.
    """
    up = [sum(1 << (n - 1 - c) for c in _bits(u)) for u in reversed(lat.above)]
    nus = (lam[::-1] for lam in filter(None, _relabellings(up, lat.below)))
    yield from sorted(nu for nu in nus if all(nu[nu[a]] == a for a in range(n)))


# ---- layer 3: fusion tables by constraint-propagating DFS -------------------


def _fusion_tables(n, lat, neg, e, square_increasing, stats):
    """All commutative, associative, e-neutral fusion tables compatible with
    the involution law over the lattice with record lat, generated
    depth-first.

    The order matrix, masks, lower covers and bottom are read off lat, made
    once per lattice.  The e row is fixed by neutrality and the bottom row
    by absorption (both forced in any residuated lattice).  Cells (a, b),
    a <= b, are then filled in a fixed order, and a value v of the new cell
    (a, b) = (b, a) must pass the constraint instances that mention that
    cell:

    - monotonicity against the decided cells in down(a) x down(b) and
      up(a) x up(b), which the lower covers of a and b and the e row
      decide.  The labelling is natural (c <= a makes c the smaller label)
      and cells are filled row by row, so on entering (a, b) every other
      cell of down(a) x down(b) is decided: as (min, max) it lies in an
      earlier row or left of b in row a.  The decided cells are monotone
      among themselves, and any (c, d) there has c <= c' for a lower cover
      c' of a, giving c*d <= c'*d <= c'*b, or c = a and d <= d' for a lower
      cover d' of b, giving a*d <= a*d'.  So v >= c'*b and v >= a*d' over
      the lower covers decide that part.  Every cell of up(a) x up(b) other
      than (a, b) lies in a later row or right of b in row a, so only its
      prefilled e-row cells are decided: e*d = d for d >= b when a <= e,
      and c*e = c for c >= a when b <= e, which read v <= b and v <= a;
    - square-increasingness of a new diagonal cell, when requested;
    - the involution law x*y <= z iff ~z*y <= ~x on the triples whose x*y is
      the new cell.  The triple (~z, y, ~x) states the same equivalence with
      the two sides swapped, so this also covers the triples whose ~z*y is
      the new cell;
    - associativity (x*y)*z = x*(y*z) on the decided triples whose x*y or
      (x*y)*z is the new cell.  By commutativity the triple (z, y, x) is the
      same equation with y*z and x*(y*z) in those places.

    One plain recursive step per cell checks them in two parts.  It first
    computes the domain of the cell, a bitmask of the values that pass
    every instance that reads the new cell only as v:

    - all the monotonicity, square-increasingness and involution-law
      instances (the involution instance that also reads the new cell as
      ~z*y holds for every v).  q <= ~x is read off column ~x of the order
      matrix (lat.cols);
    - the associativity instances whose (x*y)*z is the new cell and whose
      x*y, y*z and x*(y*z) are other cells: v = x*(y*z).  Their x*y is a or
      b, so they are read off where[a] and where[b], the cells assigned by
      the search indexed by value; where is updated when a cell is assigned
      and when the assignment is undone.

    Then each value v of the domain, in increasing order, is written into
    the cell and tested in one scan over z, which reads the instances
    v*z = x*(y*z) whose x*y is the new cell, (x, y) = (a, b) and (b, a),
    and stops at the first that fails.  These are the mirror images of the
    triples whose y*z and (x*y)*z are the new cell.  The scan reads the
    table with v in the cell, so it also decides the instances that read
    v somewhere else: where y*z = y, x*(y*z) is the new cell itself, and
    for v in {a, b} and o the other argument, (v*o)*o = v*(o*o) reads v at
    v*o and at (v*o)*o.  The only other instance in which the scan reads
    the cell is (x, y, x), whose y*z is the new cell too; it states
    v*x = x*v, which the symmetric table satisfies.

    A value outside the domain fails an instance that reads the new cell
    only as v, and the scan covers every instance that reads it
    elsewhere, so a value passes both parts exactly when it passes every
    instance that mentions the cell.  Each value outside the domain counts
    as one prune, as does each value that fails the scan; the step keeps
    the count and adds it to stats["pruned"] once per triple.  Instances
    over prefilled cells that hold for every v are not visited: u*y with
    u = bot in the involution law, z in {e, bot} in v*z = x*(y*z), and an
    e-row x*y, whose triples read the new cell as y*z or as x*(y*z).

    The step appends each complete table to a list.  The first next of
    this generator runs the whole search and then yields the tables in
    the order found, so a caller that reads stats after the first next
    sees the triple's full prune count.

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
    L, cols, below, above, covers, bot = (lat.L, lat.cols, lat.below,
                                          lat.above, lat.covers, lat.bot)
    if e == bot and n > 1:
        # e neutral and bottom absorbing collapse the algebra; no tables
        return
    fus = [[-1] * n for _ in rng]
    for x in rng:
        fus[e][x] = fus[x][e] = x
        fus[bot][x] = fus[x][bot] = bot
    cells = [(a, b) for a in rng for b in range(a, n)
             if fus[a][b] < 0]
    last, full = len(cells), (1 << n) - 1
    dual = [(u, below[neg[u]], ~below[neg[u]]) for u in rng if u != bot]
    inner = [z for z in rng if z != e and z != bot]
    below_neg = [cols[c] for c in neg]  # [x][q]: q <= ~x
    where = [[] for _ in rng]
    tables, pruned = [], 0

    def step(k):
        nonlocal pruned
        if k == last:
            tables.append(tuple(map(tuple, fus)))
            return
        a, b = cells[k]
        rowa, rowb = fus[a], fus[b]
        # the domain: monotonicity, v >= c*b and v >= a*d over the lower
        # covers c of a and d of b, v <= b if a <= e and v <= a if b <= e
        dom = full
        for c in covers[a]:
            dom &= above[fus[c][b]]
        for d in covers[b]:
            dom &= above[rowa[d]]
        if L[a][e]:
            dom &= below[b]
        if L[b][e]:
            dom &= below[a]
        if a == b:
            pairs = ((a, a),)
            if square_increasing:
                dom &= above[a]
        else:
            pairs = ((a, b), (b, a))
        # the involution law at (x, y, ~u): v <= ~u iff u*y <= ~x
        for x, y in pairs:
            rowy, le = fus[y], below_neg[x]
            for u, m, nm in dual:
                q = rowy[u]
                if q >= 0:
                    dom &= m if le[q] else nm
        # associativity at (x, y, z) with (x*y)*z new: v = x*(y*z)
        for p, z in pairs:
            rowz = fus[z]
            for x, y in where[p]:
                q = rowz[y]
                if q >= 0:
                    r = fus[x][q]
                    if r >= 0:
                        dom &= 1 << r
        pruned += n - dom.bit_count()
        while dom:
            v = (dom & -dom).bit_length() - 1
            dom &= dom - 1
            rowa[b] = rowb[a] = v
            # associativity at (x, y, z) with x*y new: v*z = x*(y*z)
            rowv = fus[v]
            for z in inner:
                t = rowv[z]
                if t >= 0:
                    q = rowb[z]
                    if q >= 0 and (r := rowa[q]) >= 0 and r != t:
                        break
                    q = rowa[z]
                    if q >= 0 and (r := rowb[q]) >= 0 and r != t:
                        break
            else:
                where[v] += pairs
                step(k + 1)
                del where[v][-len(pairs):]
                continue
            pruned += 1
        rowa[b] = rowb[a] = -1

    step(0)
    stats["pruned"] += pruned
    yield from tables


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


def _gathers(pairs, n):
    """Per relabelling (sigma, sigma^-1) in pairs, the pair (g, t) that
    _least_encoding reads: g = itemgetter(*sigma^-1) gathers a row, or the
    rows of a table, in the relabelled order (position i holds entry
    sigma^-1(i)), and t is sigma as a 256-byte translate table, which
    renames the gathered values.  At n = 1 sigma is the identity and
    itemgetter with one index would return a bare item, so g is the whole
    slice."""
    pad = bytes(256 - n)
    return [(itemgetter(*inv) if n > 1 else itemgetter(slice(None)),
             bytes(s) + pad) for s, inv in pairs]


def _least_encoding(fus, neg, e, gathers) -> bytes:
    """The least encoding of sigma.(e, fusion, neg) over the relabellings
    sigma of gathers (made by _gathers): the bytes sigma(e), then the n^2
    cells sigma(fus[sigma^-1 a][sigma^-1 b]) row by row, then the n entries
    sigma(neg[sigma^-1 a]).  Every encoding starts with sigma(e) and bytes
    compare lexicographically, so the least one is among the sigma with
    the least sigma(e), and only those are encoded, each by C-level gathers
    and one translate."""
    lo = min(t[e] for _, t in gathers)
    return bytes((lo,)) + min(
        (bytes(chain.from_iterable(map(g, g(fus)))) + bytes(g(neg)))
        .translate(t) for g, t in gathers if t[e] == lo)


def enumerate_algebras(spec: SearchSpec, unsafe: bool = False) -> Catalog:
    """Layered exhaustive search; output sorted by the dedup key, so two
    runs with the same spec are byte-identical.

    On each lattice L only the first (neg, e) of each Aut(L)-orbit is
    searched, and the first table of each class is kept and validated.  A
    table's key is (lattice index, least encoding over Aut(L)): the lattices
    are pairwise non-isomorphic and Aut(L) fixes meet and join, so equal
    keys mean isomorphic tables, and the index keeps tables on different
    lattices apart.  The module docstring gives the orbit argument.  Aut(L)
    comes from _lattices, its gathers (_gathers) are made once per lattice,
    and each key encodes only the automorphisms with the least sigma(e), since
    every encoding starts with sigma(e).  The kept classes on one lattice
    share its meet and join tuples, so Catalog.to_json writes their text
    once per lattice.  A change to the order of _lattices or to
    _least_encoding reorders the catalog, renames its entries and changes
    canonical_form, so the pinned digests in tests/test_enumeration.py must
    be recorded again."""
    n = spec.size
    if n < 1:
        raise SizeTooSmall(f"size {n} below 1")
    if n > DEFAULT_MAX_SIZE and not unsafe:
        raise SizeTooLarge(f"size {n} above ceiling {DEFAULT_MAX_SIZE}")
    stats = {"pruned": 0}
    seen: dict[tuple[int, bytes], FiniteIRL] = {}
    for li, (meet, join, group) in enumerate(_lattices(n, spec.distributive)):
        # the one record of this lattice, for its layers and its classes
        lat = _Lattice(n, meet, join)
        auts = [(s, sorted(range(n), key=s.__getitem__)) for s in group]
        gathers = _gathers(auts, n)
        for neg in _involutions(lat, n):
            for e in _orbit_first_es(neg, auts):
                for fus in _fusion_tables(n, lat, neg, e,
                                          spec.square_increasing, stats):
                    key = (li, _least_encoding(fus, neg, e, gathers))
                    if key in seen:
                        continue
                    A = FiniteIRL(n, meet, join, fus, tuple(neg), e)
                    A.lattice = lat
                    try:
                        rep = (validate_dmm(A) if spec.klass == "dmm"
                               else validate_irl(A))
                    except NotAnIRL as exc:
                        raise AssertionError(
                            f"search produced an invalid algebra: {exc}"
                        ) from exc
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


@cache
def _axioms(name: str) -> tuple:
    """The statements of basic algebra name's AXIOM_SETS, one tuple kept
    for the process, so they are compiled once as one battery."""
    from dmm.terms import law_statements
    return tuple(s for law in AXIOM_SETS[name] for s in law_statements(law))


def _holds_axioms(A: FiniteIRL, name: str) -> bool:
    """Whether A satisfies the axiom set of basic algebra name.  A failing
    variable-free axiom reports the counterexample (), so each result is
    compared with None."""
    from dmm.terms import first_counterexamples
    return all(c is None for c in first_counterexamples(A, _axioms(name)))


@cache
def _holds_own_axioms(name: str) -> bool:
    """Whether basic algebra name satisfies its AXIOM_SETS, once a process."""
    return _holds_axioms(_basic(name), name)


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
    entry A: R satisfies the RA axioms and the meet property, t is A's e,
    and R has a 2-element subreduct when nontrivial."""
    if not catalog.complete or not catalog.algebras:
        raise IncompleteCatalog("harness needs a complete, nonempty catalog")
    report = HarnessReport()
    for A in catalog.algebras:
        R = e_free_reduct(A)
        report.check("ra-axioms", None if validate_ra(R).ok else A.name)
        report.check("ra-meet-property",
                     None if meet_property_check(R) else A.name)
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
    if not catalog.complete or not catalog.algebras:
        raise IncompleteCatalog("axiomatization check needs a complete catalog")
    report = HarnessReport()
    si_entries = [A for A in catalog.algebras if classify(A).si]
    for name in AXIOM_SETS:
        X = _basic(name)
        # a check with no SI entry still reports, with 0 instances
        own = report.checks[f"axioms-{name}"] = CheckOutcome()
        if not _holds_own_axioms(name):
            own.counterexamples.append(f"{name} fails its own axioms")
        for A in si_entries:
            report.check(f"axioms-{name}", A.name if _holds_axioms(A, name)
                         and not is_isomorphic(A, X) else None)
    return report
