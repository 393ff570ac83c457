"""Exhaustive enumeration of small algebras up to isomorphism, catalog
persistence, and the theorem harness run over a catalog.

The fast path layers the search: naturally-labeled lattices (down-set
construction), antitone involutions built as matchings, a choice of neutral
element, then a constraint-propagating DFS over fusion tables.  Only one
(involution, neutral element) pair per orbit of the lattice's automorphisms
is searched.

The lattice layer yields one labelled lattice per isomorphism class: the
first one the unpruned down-set search would yield, which is the
lexicographically least down-set vector.  A prefix that another labelling
of itself makes smaller is cut, since it cannot grow into a least
labelling.  When the class is distributive the layer also cuts a branch as
soon as the new element's principal ideal is not distributive, checked by
Birkhoff's criterion (the join-irreducibles below a v b are those below a
or b) on the pairs whose join is the new element.  Searching only the first
lattice of each class keeps the catalog's bytes: the first table of every
class of algebras lies on the first lattice of its lattice class, since an
isomorphic lattice met earlier would carry the same class, and the search
there would find it sooner.  _lattices gives the details.

The DFS checks incrementally: after assigning a cell it checks only the
constraint instances (monotonicity, square-increasingness, the involution
law, associativity) that mention that cell.  This is exact, not a
relaxation.  The prefilled e and bottom rows satisfy every constraint on
their own, and every node above passed the check of all its decided cells,
so a constraint that does not mention the new cell was already checked and
holds.  The search therefore keeps and prunes exactly the nodes a full
recheck after every assignment would; _fusion_tables gives the details, and
tests/test_enumeration_oracles.py compares every layer against an unpruned
or full-recheck oracle.

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
different lattices could share a key.  canonical_form runs only on the
class representatives, to sort the catalog.

Only the first table of each class is validated, and an invalid one still
raises AssertionError.  A later table of the class is isomorphic to a
validated one, so it is valid too.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from dmm import __version__
from dmm.algebra import (FiniteIRL, check_derived_laws, predicates,
                         validate_dmm, validate_irl)
from dmm.constructions import (NAMED_BASIC, canonical_form, hs_contains,
                               is_isomorphic, make_named, sg, zero_generated)
from dmm.filters import classify, deductive_filters, filter_of, omega, quotient

DEFAULT_MAX_SIZE = 8


class SizeTooLarge(Exception):
    pass


class SizeTooSmall(Exception):
    pass


class IncompleteCatalog(Exception):
    pass


@dataclass(frozen=True)
class SearchSpec:
    size: int
    square_increasing: bool = True
    distributive: bool = True
    predicate_filters: tuple[str, ...] = ()
    limit: int | None = None

    @property
    def class_name(self) -> str:
        if self.square_increasing and self.distributive:
            return "dmm"
        if not self.square_increasing and not self.distributive:
            return "irl"
        return "irl+" + ("sq" if self.square_increasing else "dist")

    @classmethod
    def for_class(cls, name: str, size: int, **kw) -> "SearchSpec":
        if name == "dmm":
            return cls(size, True, True, **kw)
        if name == "irl":
            return cls(size, False, False, **kw)
        raise ValueError(f"unknown algebra class {name!r}")

    def to_dict(self) -> dict:
        return {"size": self.size,
                "square_increasing": self.square_increasing,
                "distributive": self.distributive,
                "predicate_filters": list(self.predicate_filters),
                "limit": self.limit}


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
        spec = SearchSpec(s["size"], s["square_increasing"],
                          s["distributive"], tuple(s["predicate_filters"]),
                          s["limit"])
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


def _down_closed_subsets(below: list[int], i: int) -> list[int]:
    """Bitmask subsets of {0..i-1} closed downward in the current order."""
    out = []
    for mask in range(1 << i):
        if all(not (mask >> j) & 1 or (below[j] & mask) == below[j]
               for j in range(i)):
            out.append(mask)
    return out


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _least_labelling(below: list[int]) -> bool:
    """True iff no linear extension of the order on 0..m-1 (element x has
    down-set bitmask below[x]) gives a lexicographically smaller down-set
    vector than the identity labelling."""
    return _none_smaller(below, [0] * len(below), 0, 0)


def _none_smaller(below, new, k, placed) -> bool:
    """The search behind _least_labelling, at position k.  The relabelling
    is built position by position: position k takes an element whose strict
    down-set is placed (new maps the placed elements to their positions),
    and its new down-set is compared with below[k].  A larger value closes
    the branch, a smaller one answers False, and an equal one goes on to
    position k + 1."""
    m = len(below)
    if k == m:
        return True
    target = below[k]
    for x in _bits(((1 << m) - 1) & ~placed):
        strict = below[x] & ~(1 << x)
        if strict & ~placed:
            continue
        w = 1 << k
        for y in _bits(strict):
            w |= 1 << new[y]
        if w > target:
            continue
        if w < target:
            return False
        new[x] = k
        if not _none_smaller(below, new, k + 1, placed | (1 << x)):
            return False
    return True


def _distributive_ideal(below: list[int], ji: int, i: int) -> bool:
    """Whether the ideal down(i) is distributive, given that every down(j),
    j < i, is.  ji is the bitmask of the join-irreducible elements.

    Birkhoff: a finite lattice is distributive iff x -> J(x), the
    join-irreducibles below x, sends joins to unions (it always sends meets
    to intersections, and x is the join of J(x)).  Pairs whose join lies
    below i were checked in smaller ideals, so only the pairs a, b < i with
    a v b = i are left: those with no common upper bound strictly below i.
    """
    elems = list(_bits(below[i] & ~(1 << i)))
    downs = [below[c] for c in elems]
    j_i = below[i] & ji
    for x, a in enumerate(elems):
        for b in elems[x + 1:]:
            pair = (1 << a) | (1 << b)
            if any(d & pair == pair for d in downs):
                continue
            if (below[a] | below[b]) & ji != j_i:
                return False
    return True


def _lattices(n: int, distributive: bool = False):
    """Yield (meet, join) tables of the lattices on 0..n-1, one per
    isomorphism class (only the distributive ones if asked), each with a
    natural labelling: a linear extension with 0 = bottom and n-1 = top.

    Elements are added one at a time; element i's strict down-set is a
    down-closed subset of the existing order, and pairwise meets must stay
    principal at every step (top arrives last, so joins then exist for
    free).  The labelling is recorded as the down-set vector
    (below[0], ..., below[n-1]) of bitmasks, and subsets are tried in
    increasing order, so without pruning every natural labelling of every
    lattice would come out in lexicographic order of that vector.

    Two prunes cut that search, each exact:

    - Distributivity.  Every prefix 0..i is a down-set of the final
      lattice, so down(i) is already final when i is added.  A lattice is
      distributive iff each principal ideal is (down(top) is the lattice),
      so a branch is cut as soon as the new down(i) is not; see
      _distributive_ideal.  Join-irreducibility is final on arrival too:
      i is join-irreducible iff its strict down-set is some down(j).
    - First of its class.  Only the lexicographically least labelling of
      each lattice is kept, which is the first one the unpruned search
      would yield.  A prefix that some other linear extension of itself
      makes smaller cannot grow into a least labelling: relabelling that
      prefix (a down-set) and keeping the later labels gives a natural
      labelling of the same lattice that is smaller at an earlier position.
      So the test in _least_labelling runs at every node, and at the leaf
      it decides exactly.

    Why the catalog does not change when only these lattices are searched:
    suppose a class of algebras first appears on a labelled lattice L_j
    and an isomorphic labelled lattice L_i comes earlier.  The lattice
    isomorphism carries that algebra onto L_i, where the search (which is
    complete on each lattice) finds it sooner, contradicting "first
    appears".  So the first table of every class lies on the first lattice
    of its lattice class, the kept lattices come in the old order, and the
    first table of each class, which the catalog keeps, is the same.
    """
    full = (1 << n) - 1
    if n == 1:
        yield ((0,),), ((0,),)
        return
    below: list[int] = [1]  # element 0 is the bottom

    def rec(ji):
        i = len(below)
        if i == n:
            yield _tables_from_below(below, n)
            return
        known = set(below)
        for mask in _down_closed_subsets(below, i):
            nb = mask | (1 << i)
            if i == n - 1 and nb != full:
                continue
            if not all((nb & below[j]) in known for j in range(i)):
                continue
            below.append(nb)
            nji = ji | (1 << i) if mask in known else ji
            if ((not distributive or _distributive_ideal(below, nji, i))
                    and _least_labelling(below)):
                yield from rec(nji)
            below.pop()

    yield from rec(0)


def _tables_from_below(below: list[int], n: int):
    idx = {b: k for k, b in enumerate(below)}
    meet = tuple(tuple(idx[below[a] & below[b]] for b in range(n))
                 for a in range(n))
    join_rows = []
    for a in range(n):
        row = []
        for b in range(n):
            u = below[a] | below[b]
            m = (1 << n) - 1
            for k in range(n):
                if below[k] & u == u:
                    m &= below[k]
            row.append(idx[m])
        join_rows.append(tuple(row))
    return meet, tuple(join_rows)


def _lattice_distributive(meet, join, n) -> bool:
    """Distributivity by its definition; a test oracle.  perfbench/spans.py
    traces this name and its tests expect it to be bound here."""
    return all(meet[a][join[b][c]] == join[meet[a][b]][meet[a][c]]
               for a in range(n) for b in range(n) for c in range(n))


def _automorphisms(meet, n):
    """The order automorphisms of the lattice, which are its lattice
    automorphisms, as tuples in lexicographic order (the identity first).

    Backtracking: a takes a free image v that has the same number of
    elements below and above it as a, and the pair is kept if a and v
    compare alike with every element placed so far and its image.
    """
    rng = range(n)
    L = [[meet[a][b] == a for b in rng] for a in rng]
    shape = [(sum(L[b][a] for b in rng), sum(L[a])) for a in rng]
    images = [[v for v in rng if shape[v] == shape[a]] for a in rng]
    s = [-1] * n
    used = [False] * n
    out = []

    def rec(a):
        if a == n:
            out.append(tuple(s))
            return
        for v in images[a]:
            if used[v] or not all(L[b][a] == L[s[b]][v]
                                  and L[a][b] == L[v][s[b]]
                                  for b in range(a)):
                continue
            s[a], used[v] = v, True
            rec(a + 1)
            used[v] = False
        s[a] = -1

    rec(0)
    return out


# ---- layer 2: antitone involutions ------------------------------------------


def _involutions(meet, n):
    """Antitone involutions of the lattice, as tuples in lexicographic order.

    Built as matchings: the least unmatched position i takes a free partner
    v >= i, tried in increasing order, and the new pair is kept if
    a <= b iff ~b <= ~a holds between i and every element already placed.
    That covers every pair: the condition for (v, u) is the one for
    (~u, i) read through ~, and ~u is placed with u.  Branching happens only
    at the least open position, so the output is exactly the involutive
    antitone permutations in the order itertools.permutations lists them.
    """
    L = [[meet[a][b] == a for b in range(n)] for a in range(n)]
    p = [-1] * n

    def rec(i):
        while i < n and p[i] >= 0:
            i += 1
        if i == n:
            yield tuple(p)
            return
        Li = L[i]
        for v in range(i, n):
            if p[v] >= 0:
                continue
            p[i], p[v] = v, i
            if all(p[u] < 0 or (Li[u] == L[p[u]][v] and L[u][i] == L[v][p[u]])
                   for u in range(n)):
                yield from rec(i + 1)
            p[i] = p[v] = -1

    yield from rec(0)


# ---- layer 3: fusion tables by constraint-propagating DFS -------------------


def _fusion_tables(n, meet, neg, e, square_increasing, stats=None):
    """All commutative, associative, e-neutral fusion tables compatible with
    the involution law over the given lattice, generated depth-first.

    The e row is fixed by neutrality and the bottom row by absorption (both
    forced in any residuated lattice).  Cells (a, b), a <= b, are then filled
    in a fixed order, and each value v is screened by the constraint
    instances that mention the new cell (a, b) = (b, a):

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

    def ok_after(a, b, v):
        Lv = L[v]
        for c in down[a]:
            rowc = fus[c]
            for d in down[b]:
                w = rowc[d]
                if w >= 0 and not L[w][v]:
                    return False
        for c in up[a]:
            rowc = fus[c]
            for d in up[b]:
                w = rowc[d]
                if w >= 0 and not Lv[w]:
                    return False
        if square_increasing and a == b and not L[a][v]:
            return False
        rowv = fus[v]
        for x, y in ((a, b),) if a == b else ((a, b), (b, a)):
            rowx, rowy, nx = fus[x], fus[y], neg[x]
            # involution law at (x, y, ~u): v <= ~u iff u*y <= ~x
            for u in rng:
                q = rowy[u]
                if q >= 0 and Lv[neg[u]] != L[q][nx]:
                    return False
            # associativity at (x, y, z): v*z = x*(y*z)
            for z in rng:
                q = rowy[z]
                if q >= 0:
                    l, r = rowv[z], rowx[q]
                    if l >= 0 and r >= 0 and l != r:
                        return False
        # associativity at (x, y, z) with (x*y)*z new: x*(y*z) = v
        for x in rng:
            rowx = fus[x]
            for y in rng:
                p = rowx[y]
                if p == a:
                    z = b
                elif p == b:
                    z = a
                else:
                    continue
                q = fus[y][z]
                if q >= 0:
                    r = rowx[q]
                    if r >= 0 and r != v:
                        return False
        return True

    def rec(k):
        if k == len(cells):
            yield tuple(tuple(row) for row in fus)
            return
        a, b = cells[k]
        for v in rng:
            fus[a][b] = fus[b][a] = v
            if ok_after(a, b, v):
                yield from rec(k + 1)
            else:
                if stats is not None:
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


def enumerate_algebras(spec: SearchSpec, max_size: int = DEFAULT_MAX_SIZE,
                       unsafe: bool = False, progress=None) -> Catalog:
    """Layered exhaustive search; output sorted by canonical form, so two
    runs with the same spec are byte-identical.

    On each lattice L only the first (neg, e) of each Aut(L)-orbit is
    searched, and the first table of each class is kept and validated.  A
    table's key is (lattice index, least encoding over Aut(L)): the lattices
    are pairwise non-isomorphic and Aut(L) fixes meet and join, so equal
    keys mean isomorphic tables, and the index keeps tables on different
    lattices apart.  The module docstring gives the orbit argument."""
    n = spec.size
    if n < 1:
        raise SizeTooSmall(f"size {n} below 1")
    if n > max_size and not unsafe:
        raise SizeTooLarge(f"size {n} above ceiling {max_size}")
    stats = {"pruned": 0, "found": 0}
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
                    rep = (validate_dmm(A) if spec.class_name == "dmm"
                           else validate_irl(A))
                    if not rep.ok:
                        raise AssertionError(
                            "search produced an invalid algebra: "
                            + ", ".join(rep.laws_violated()))
                    seen[key] = A
                    stats["found"] += 1
                    if progress:
                        print(f"found {stats['found']} "
                              f"(pruned {stats['pruned']})",
                              file=sys.stderr)
    out = sorted(seen.values(), key=lambda A: canonical_form(A).data)
    for i, A in enumerate(out):
        A.name = f"{spec.class_name}{n}-{i}"
    complete = True
    if spec.predicate_filters:
        keep = []
        for A in out:
            rec = predicates(A)
            if all(getattr(rec, p) for p in spec.predicate_filters):
                keep.append(A)
        out = keep
    if spec.limit is not None and len(out) > spec.limit:
        out = out[:spec.limit]
        complete = False
    return Catalog(spec, out, complete)


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
    checks: dict[str, CheckOutcome]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks.values())

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


def theorem_harness(catalog: Catalog) -> HarnessReport:
    """Run the structural checks over every applicable catalog entry."""
    from dmm.structure import (NotApplicable, fusion_pattern_check, lollipop,
                               odd_sugihara_quotient, splitting_check)
    if not catalog.complete or not catalog.algebras:
        raise IncompleteCatalog("harness needs a complete, nonempty catalog")
    checks: dict[str, CheckOutcome] = {}

    def rec(name) -> CheckOutcome:
        return checks.setdefault(name, CheckOutcome())

    basics = {nm: make_named(nm) for nm in NAMED_BASIC}
    for A in catalog.algebras:
        cls = classify(A)
        c = rec("law-suite")
        c.instances += 1
        lr = check_derived_laws(A)
        if not lr.ok:
            c.counterexamples.append((A.name, lr.failures()))

        c = rec("filter-congruence-bijection")
        c.instances += 1
        for G in deductive_filters(A):
            if filter_of(A, omega(A, G)).members != G.members:
                c.counterexamples.append((A.name, sorted(G.members)))
                break

        if cls.fsi and not cls.trivial:
            idem = all(A.fusion[a][a] == a for a in A.elements)
            c = rec("splitting")
            c.instances += 1
            r = splitting_check(A)
            if not r.ok:
                c.counterexamples.append((A.name, r.witness))
            c = rec("rigorous-compactness")
            c.instances += 1
            if not predicates(A).rigorously_compact:
                c.counterexamples.append(A.name)
            c = rec("lollipop")
            c.instances += 1
            lp = lollipop(A)
            if not lp.ok:
                c.counterexamples.append((A.name, lp.violations))
            if not idem:
                c = rec("fusion-pattern")
                c.instances += 1
                try:
                    r = fusion_pattern_check(A)
                    if not r.ok:
                        c.counterexamples.append((A.name, r.witness, r.detail))
                except NotApplicable:
                    c.counterexamples.append((A.name, "unexpected NotApplicable"))
                c = rec("odd-sugihara-quotient")
                c.instances += 1
                _, q = odd_sugihara_quotient(A)
                if not q.ok:
                    c.counterexamples.append((A.name, q.violations))
                # f^2 > e and idempotents at or above f are linearly ordered
                c = rec("idempotents-above-f")
                c.instances += 1
                f2 = A.fusion[A.f][A.f]
                idems = [a for a in A.elements
                         if A.leq(A.f, a) and A.fusion[a][a] == a]
                if not (A.lt(A.e, f2)
                        and all(A.leq(a, b) or A.leq(b, a)
                                for a in idems for b in idems)
                        and all(A.fusion[a][a] == a for a in A.elements
                                if A.leq(A.f, a) and not A.lt(a, f2))):
                    c.counterexamples.append(A.name)

        if cls.simple and not cls.trivial:
            Z, _ = sg(A, ())
            if Z.size == A.size:
                c = rec("zero-generated-simples")
                c.instances += 1
                if not any(is_isomorphic(A, basics[nm])
                           for nm in ("2", "C4", "D4")):
                    c.counterexamples.append(A.name)

        if not cls.trivial:
            c = rec("minimality-shadow")
            c.instances += 1
            if not any(hs_contains(A, basics[nm]) for nm in NAMED_BASIC):
                c.counterexamples.append(A.name)

        if cls.fsi and not cls.trivial:
            c = rec("surjections-onto-zero-generated")
            c.instances += 1
            for G in deductive_filters(A):
                B, _ = quotient(A, G)
                if B.size == 1:
                    continue
                if zero_generated(B)[0].size != B.size:
                    continue
                if B.size != A.size and not is_isomorphic(B, basics["C4"]):
                    c.counterexamples.append((A.name, sorted(G.members)))
    return HarnessReport(checks)


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
    checks: dict[str, CheckOutcome] = {}
    si_entries = [A for A in catalog.algebras if classify(A).si]
    for name, laws in AXIOM_SETS.items():
        X = make_named(name)
        out = CheckOutcome()
        stmts = [s for law in laws for s in law_statements(law)]
        if not all(satisfies(X, s).holds for s in stmts):
            out.counterexamples.append(f"{name} fails its own axioms")
        for A in si_entries:
            out.instances += 1
            if all(satisfies(A, s).holds for s in stmts):
                if not is_isomorphic(A, X):
                    out.counterexamples.append(A.name)
        checks[f"axioms-{name}"] = out
    return HarnessReport(checks)
