"""Named algebras and closure constructions: products, subalgebras,
homomorphisms, isomorphism, HS membership, reducts.

Isomorphism and HS membership are one embedding search, _embeds, which
walks injective partial maps only and stops at the first homomorphism
found: A = B up to isomorphism iff
|A| = |B| and A embeds in B, and X is in HS(A) = SH(A) (congruence
extension) iff X embeds in some A/F.  canonical_form is the enumerator's
dedup key (dmm.enumeration's lattice layer) computed from any labelling.

The named C4/D4 tables are *derived* from the stated rules (e-neutrality,
absorbing bottom, rigorous compactness, f*f = f^2) and then validated,
rather than hard-coded.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from dmm.algebra import FiniteIRL, NotAnIRL, validate_dmm, validate_irl
from dmm.filters import deductive_filters, quotient


class UnknownName(Exception):
    pass


@dataclass(frozen=True)
class Homomorphism:
    source: FiniteIRL
    target: FiniteIRL
    mapping: tuple[int, ...]

    @property
    def injective(self) -> bool:
        return len(set(self.mapping)) == self.source.size

    @property
    def surjective(self) -> bool:
        return len(set(self.mapping)) == self.target.size


@dataclass(frozen=True)
class CanonicalForm:
    data: bytes


# ---- named algebras --------------------------------------------------------


def _chain(values, fusion, neg, e, name, labels=None):
    """Assemble an algebra on the chain values, listed from the bottom up:
    meet and join are min and max of positions."""
    rng = range(len(values))
    return _assemble(values, [[min(i, j) for j in rng] for i in rng],
                     [[max(i, j) for j in rng] for i in rng],
                     fusion, neg, e, name, labels)


def _assemble(values, meet, join, fusion, neg, e, name, labels):
    """The algebra with the given lattice tables over the positions of
    values, and fusion, neg and e over the values themselves."""
    idx = {v: i for i, v in enumerate(values)}
    fus = [[idx[fusion(a, b)] for b in values] for a in values]
    ng = [idx[neg(a)] for a in values]
    return FiniteIRL.from_tables(len(values), meet, join, fus, ng, idx[e],
                                 name=name,
                                 labels=labels or [str(v) for v in values])


def make_sugihara(n: int) -> FiniteIRL:
    """S_n on the integer chain: S_{2m} on {-m..-1, 1..m} with e = 1,
    S_{2m+1} on {-m..m} with e = 0."""
    if n < 1:
        raise UnknownName(f"S_{n} undefined")
    m = n // 2
    if n % 2 == 0:
        vals = list(range(-m, 0)) + list(range(1, m + 1))
        e = 1
    else:
        vals = list(range(-m, m + 1))
        e = 0

    def fus(a, b):
        if abs(a) != abs(b):
            return a if abs(a) > abs(b) else b
        return min(a, b)

    return _chain(vals, fus, lambda a: -a, e, f"S{n}")


def _rigorous_fusion(e, bot, top, inner_fusion):
    """Fusion fixed by: e neutral, bot absorbing, top*a = top for a != bot,
    and inner_fusion on the remaining pairs."""
    def fus(a, b):
        if a == bot or b == bot:
            return bot
        if a == top or b == top:
            return top
        if a == e:
            return b
        if b == e:
            return a
        return inner_fusion(a, b)
    return fus


def make_c4() -> FiniteIRL:
    # chain bot < e < f < top, with top = f^2 and bot = ~(f^2)
    vals = ["bot", "e", "f", "top"]
    # only f*f remains
    fus = _rigorous_fusion("e", "bot", "top", lambda a, b: "top")
    neg = {"bot": "top", "e": "f", "f": "e", "top": "bot"}
    return _chain(vals, fus, neg.__getitem__, "e", "C4",
                  labels=["~(f^2)", "e", "f", "f^2"])


def make_d4() -> FiniteIRL:
    # diamond: bot < e, f < top with e and f incomparable; the down-sets
    # {bot}, {bot, e}, {bot, f} and all four give meet and join
    from dmm.enumeration import _tables_from_below
    vals = ["bot", "e", "f", "top"]
    meet, join = _tables_from_below([1, 3, 5, 15], 4)
    fus = _rigorous_fusion("e", "bot", "top", lambda a, b: "top")
    neg = {"bot": "top", "e": "f", "f": "e", "top": "bot"}
    return _assemble(vals, meet, join, fus, neg.__getitem__, "e", "D4",
                     labels=["~(f^2)", "e", "f", "f^2"])


def make_two() -> FiniteIRL:
    vals = ["f", "e"]  # f = bottom, e = top; fusion = meet
    return _chain(vals, lambda a, b: "f" if "f" in (a, b) else "e",
                  lambda a: "e" if a == "f" else "f", "e", "2",
                  labels=["f", "e"])


def rigorous_extension(A: FiniteIRL) -> FiniteIRL:
    """Wrap A in one rigorously compact two-point extension: a new bottom
    below and a new top above, with top*a = top for a != bottom."""
    n = A.size
    # new indices: 0 = new bottom, 1..n = old shifted, n+1 = new top
    sh = lambda a: a + 1
    bot, top = 0, n + 1
    m = n + 2

    def tab(old, edge):
        """old on the shifted carrier, edge(i, j) on the new extrema's
        rows and columns."""
        return [[edge(i, j) if bot in (i, j) or top in (i, j)
                 else sh(old[i - 1][j - 1]) for j in range(m)]
                for i in range(m)]

    meet = tab(A.meet, lambda i, j: bot if bot in (i, j) else min(i, j))
    join = tab(A.join, lambda i, j: top if top in (i, j) else max(i, j))
    fusion = tab(A.fusion, lambda i, j: bot if bot in (i, j) else top)
    neg = [top] + [sh(A.neg[a]) for a in range(n)] + [bot]
    labels = None
    if A.labels:
        labels = ["bot'"] + list(A.labels) + ["top'"]
    return FiniteIRL.from_tables(m, meet, join, fusion, neg, sh(A.e),
                                 name=f"ext({A.name})" if A.name else "",
                                 labels=labels)


# a numeral of ten or more digits is no name, so int() reads each at once
_NAMED_RE = re.compile(r"^(2|S(\d{1,9})|S_(\d{1,9})|C4|D4|C4ext_(\d{1,9}))$")

MAX_NAMED_SIZE = 64  # S64 builds and validates in about a second

NAMED_FORMS = "2, S3, C4, D4, Sn, S_n, C4ext_k"


def make_named(name: str) -> FiniteIRL:
    """Construct and validate one of the named algebras: "2", "S3", "C4",
    "D4", "S_n"/"Sn" (n >= 1), "C4ext_k" (k >= 0, 4 + 2k elements).  A name
    of more than MAX_NAMED_SIZE elements raises UnknownName at once."""
    m = _NAMED_RE.match(name)
    if not m:
        raise UnknownName(f"unknown algebra name {name!r} (the names are "
                          f"{NAMED_FORMS})")
    size = 4 + 2 * int(m[4]) if m[4] else int(m[2] or m[3] or 0)
    if size > MAX_NAMED_SIZE:
        raise UnknownName(f"{name} has {size} elements, above the limit of "
                          f"{MAX_NAMED_SIZE}")
    if name == "2":
        A = make_two()
    elif name == "C4":
        A = make_c4()
    elif name == "D4":
        A = make_d4()
    elif name.startswith("C4ext_"):
        A = make_c4()
        for _ in range(int(m.group(4))):
            A = rigorous_extension(A)
        A.name = name
    else:
        A = make_sugihara(size)
    rep = validate_dmm(A)
    if not rep.ok:
        raise NotAnIRL(f"{name} failed validation: {rep.laws_violated()}")
    return A


NAMED_BASIC = ("2", "S3", "C4", "D4")


def is_named(name: str) -> bool:
    return bool(_NAMED_RE.match(name))


# ---- closure constructions -------------------------------------------------


def direct_product(A: FiniteIRL, B: FiniteIRL) -> FiniteIRL:
    na, nb = A.size, B.size
    n = na * nb
    enc = lambda a, b: a * nb + b

    def tab(ta, tb):
        t = [[0] * n for _ in range(n)]
        for a1 in range(na):
            for b1 in range(nb):
                for a2 in range(na):
                    for b2 in range(nb):
                        t[enc(a1, b1)][enc(a2, b2)] = enc(ta[a1][a2], tb[b1][b2])
        return t

    neg = [0] * n
    for a in range(na):
        for b in range(nb):
            neg[enc(a, b)] = enc(A.neg[a], B.neg[b])
    name = f"{A.name}x{B.name}" if A.name and B.name else ""
    return FiniteIRL.from_tables(n, tab(A.meet, B.meet), tab(A.join, B.join),
                                 tab(A.fusion, B.fusion), neg,
                                 enc(A.e, B.e), name=name)


def subuniverse(A: FiniteIRL, X) -> list[int]:
    """Least subuniverse containing X and e (sorted element list)."""
    cur = set(X) | {A.e}
    while True:
        new = set(cur)
        for a in cur:
            new.add(A.neg[a])
            for b in cur:
                new.add(A.meet[a][b])
                new.add(A.join[a][b])
                new.add(A.fusion[a][b])
        if new == cur:
            return sorted(cur)
        cur = new


def sg(A: FiniteIRL, X) -> tuple[FiniteIRL, list[int]]:
    """Generated subalgebra plus its inclusion map (sub index -> A index)."""
    elems = subuniverse(A, X)
    idx = {a: i for i, a in enumerate(elems)}
    n = len(elems)

    def tab(t):
        return [[idx[t[a][b]] for b in elems] for a in elems]

    labels = [A.label(a) for a in elems] if A.labels else None
    S = FiniteIRL.from_tables(n, tab(A.meet), tab(A.join), tab(A.fusion),
                              [idx[A.neg[a]] for a in elems], idx[A.e],
                              name=f"Sg({A.name})" if A.name else "",
                              labels=labels)
    return S, elems


def zero_generated(A: FiniteIRL) -> tuple[FiniteIRL, list[int]]:
    return sg(A, ())


def _maps(A: FiniteIRL, B: FiniteIRL, injective: bool = False):
    """Element maps of the homomorphisms A -> B, by backtracking with
    closure propagation.  The map is a list h with -1 for unmapped
    elements, and order lists the mapped elements in the order they were
    mapped.  Closing order[i] reads its negation and its meet, join and
    fusion, in both argument orders, with each of order[:i + 1], and maps
    or checks every image so found; so each pair of mapped elements is read
    once per node.  A branch undoes its own mappings off the end of order.

    With injective, a value already taken is refused, both when a value is
    forced and when the search branches, so only the embeddings are walked.
    It is private because only _embeds wants a yes/no answer over those:
    homs lists every homomorphism, injective or not."""
    h = [-1] * A.size
    taken = [False] * B.size
    order: list[int] = []
    ops = ((A.meet, B.meet), (A.join, B.join), (A.fusion, B.fusion))

    def put(c: int, w: int) -> bool:
        if h[c] >= 0:
            return h[c] == w
        if injective and taken[w]:
            return False
        h[c] = w
        taken[w] = True
        order.append(c)
        return True

    def close(i: int) -> bool:
        while i < len(order):
            a = order[i]
            v = h[a]
            if not put(A.neg[a], B.neg[v]):
                return False
            for b in order[:i + 1]:
                w = h[b]
                for ta, tb in ops:
                    c, x = ta[a][b], tb[v][w]
                    if h[c] != x and not put(c, x):
                        return False
                    c, x = ta[b][a], tb[w][v]
                    if h[c] != x and not put(c, x):
                        return False
            i += 1
        return True

    def undo(mark: int) -> None:
        while len(order) > mark:
            c = order.pop()
            taken[h[c]] = False
            h[c] = -1

    def search():
        if -1 not in h:
            yield tuple(h)
            return
        a, mark = h.index(-1), len(order)
        for v in B.elements:
            if put(a, v) and close(mark):
                yield from search()
            undo(mark)

    if put(A.e, B.e) and close(0):
        yield from search()


def homs(A: FiniteIRL, B: FiniteIRL) -> list[Homomorphism]:
    """All homomorphisms A -> B, sorted by mapping."""
    return [Homomorphism(A, B, m) for m in sorted(_maps(A, B))]


def _embeds(X: FiniteIRL, Q: FiniteIRL) -> bool:
    """True iff X is isomorphic to a subalgebra of Q: the first map of the
    injective search, which refuses a value already taken and so never
    walks the non-injective homomorphisms X -> Q."""
    return any(True for _ in _maps(X, Q, injective=True))


# ---- canonical forms and isomorphism ---------------------------------------


def canonical_form(A: FiniteIRL) -> CanonicalForm:
    """Isomorphism-invariant encoding, the enumerator's dedup key read off
    any labelling: n, the least down-set vector v of A's lattice (entries as
    fixed-width big-endian integers) and the least encoding of (e, fusion,
    neg) over the |Aut(L)| relabellings of A onto v.  An isomorphism of
    IRLs is one of their lattices, so isomorphic algebras have the same v
    and the same relabelled tables, and equal forms share one relabelled
    algebra.  Sorting a catalog by the form gives the catalog's order: v
    orders the lattices as their index does, and the encoding is
    _least_encoding's, read through the _gathers of these relabellings, so
    only those with the least sigma(e) are encoded.  One walk
    (_least_labellings) gives v and the relabellings together; it is most
    of the cost on a lattice with many automorphisms (2^6: 720).  n and
    every table entry take one byte, so A has at most 255 elements; a
    larger A raises ValueError before any walk."""
    from dmm.enumeration import _gathers, _least_encoding, _least_labellings
    n = A.size
    if n > 255:
        raise ValueError(f"canonical_form takes at most 255 elements, "
                         f"got {n}")
    v, maps = _least_labellings(A.lattice.below)
    pairs = [(s, sorted(range(n), key=s.__getitem__)) for s in maps]
    width = (n + 7) // 8
    return CanonicalForm(bytes([n])
                         + b"".join(x.to_bytes(width, "big") for x in v)
                         + _least_encoding(A.fusion, A.neg, A.e,
                                           _gathers(pairs, n)))


def is_isomorphic(A: FiniteIRL, B: FiniteIRL) -> bool:
    """One size and an injective (so bijective) homomorphism A -> B."""
    return A.size == B.size and _embeds(A, B)


def embeds_in_some(X: FiniteIRL, quotients) -> bool:
    """True iff X embeds in some algebra of quotients (an iterable)."""
    return any(Q.size >= X.size and _embeds(X, Q) for Q in quotients)


def hs_contains(A: FiniteIRL, X: FiniteIRL) -> bool:
    """True iff X embeds in a quotient A/F by some deductive filter F."""
    return embeds_in_some(X, (quotient(A, G)[0] for G in deductive_filters(A)))


def e_free_reduct(A: FiniteIRL):
    """Drop the distinguished neutral element, yielding a relevant-algebra
    candidate over the signature fusion, meet, join, neg, on A's own
    tables, which were checked when A was made, and with A's lattice
    record."""
    from dmm.relevant import FiniteRA
    R = FiniteRA(A.size, A.meet, A.join, A.fusion, A.neg,
                 f"{A.name}-" if A.name else "")
    R.lattice = A.lattice
    return R
