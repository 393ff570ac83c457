"""Checks computed from raw tables, without calling the library.

An algebra here is the dict that ``FiniteIRL.to_dict`` writes: ``size``,
``meet``, ``join``, ``fusion``, ``neg`` and ``e``.  Everything in this module
is isomorphism-invariant or checks a property directly, so the benchmark's
verdicts survive a change of the library's canonical encoding or catalog
order.
"""

from __future__ import annotations

import random


def relabel(d: dict, perm: list[int]) -> dict:
    """Image of ``d`` under the bijection old index -> ``perm[old]``."""
    n = d["size"]
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old

    def tab(t):
        return [[perm[t[inv[a]][inv[b]]] for b in range(n)] for a in range(n)]

    return {"name": d.get("name", ""), "size": n, "meet": tab(d["meet"]),
            "join": tab(d["join"]), "fusion": tab(d["fusion"]),
            "neg": [perm[d["neg"][inv[a]]] for a in range(n)],
            "e": perm[d["e"]]}


def random_perm(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _masks(d: dict):
    """Bitmask of the up-set of each element."""
    n, meet = d["size"], d["meet"]
    return [sum(1 << b for b in range(n) if meet[a][b] == a) for a in range(n)]


def deductive_filters(d: dict) -> list[int]:
    """Every deductive filter as a bitmask, by brute force over the subsets
    that contain e (exponential: meant for sizes up to about 10)."""
    n, meet, fus, e = d["size"], d["meet"], d["fusion"], d["e"]
    up = _masks(d)
    rest = [a for a in range(n) if a != e]
    out = []
    for bits in range(1 << len(rest)):
        mask = 1 << e
        for i, a in enumerate(rest):
            if bits >> i & 1:
                mask |= 1 << a
        members = [a for a in range(n) if mask >> a & 1]
        if all(up[a] & mask == up[a] for a in members) and all(
                mask >> meet[a][b] & 1 and mask >> fus[a][b] & 1
                for a in members for b in members):
            out.append(mask)
    return out


def classify_from_filters(n: int,
                          filters: list[int]) -> tuple[bool, bool, bool]:
    """(simple, SI, FSI) from the filter lattice, which is isomorphic to the
    congruence lattice (the least filter is the identity congruence)."""
    if n == 1:
        return (False, False, True)
    least = min(filters, key=lambda m: bin(m).count("1"))
    rest = [m for m in filters if m != least]
    simple = len(filters) == 2
    si = any(all(m & other == m for other in rest) for m in rest)
    fsi = not any(a & b == least for a in rest for b in rest)
    return (simple, si, fsi)


def fingerprint(d: dict) -> str:
    """An isomorphism-invariant summary of one algebra: size, e = f, number
    of idempotents, the multiset of (down-degree, up-degree) pairs, the
    number of deductive filters and the simple/SI/FSI flags."""
    n, meet, fus, neg, e = (d["size"], d["meet"], d["fusion"], d["neg"],
                            d["e"])
    degrees = sorted((sum(meet[b][a] == b for b in range(n)),
                      sum(meet[a][b] == a for b in range(n)))
                     for a in range(n))
    idem = sum(fus[a][a] == a for a in range(n))
    filters = deductive_filters(d)
    flags = classify_from_filters(n, filters)
    ssf = "".join(str(int(v)) for v in flags)
    return (f"n={n} ef={int(neg[e] == e)} idem={idem} "
            f"deg={';'.join(f'{x},{y}' for x, y in degrees)} "
            f"filters={len(filters)} ssf={ssf}")


def generated_filter(d: dict, gens) -> int:
    """Least deductive filter containing ``gens``, as a bitmask."""
    n, meet, fus, e = d["size"], d["meet"], d["fusion"], d["e"]
    up = _masks(d)
    mask = 1 << e
    for g in gens:
        mask |= 1 << g
    while True:
        members = [a for a in range(n) if mask >> a & 1]
        new = mask
        for a in members:
            new |= up[a]
            for b in members:
                new |= 1 << meet[a][b] | 1 << fus[a][b]
        if new == mask:
            return mask
        mask = new


def quotient_problems(d: dict, gens, size: int, proj, tables) -> list[str]:
    """Why (``size``, ``proj``, ``tables``) is not the quotient of ``d`` by
    the filter generated by ``gens``; empty when it is.  ``tables`` is
    (meet, join, fusion, neg, e) of the claimed quotient."""
    n, fus, neg = d["size"], d["fusion"], d["neg"]
    F = generated_filter(d, gens)

    def res(a, b):
        return neg[fus[a][neg[b]]]

    problems = []
    if sorted(set(proj)) != list(range(size)):
        problems.append("projection is not onto")
    for a in range(n):
        for b in range(n):
            related = bool(F >> res(a, b) & 1 and F >> res(b, a) & 1)
            if related != (proj[a] == proj[b]):
                problems.append(f"kernel differs at ({a}, {b})")
                return problems
    qmeet, qjoin, qfus, qneg, qe = tables
    if proj[d["e"]] != qe:
        problems.append("e not preserved")
    for a in range(n):
        if proj[neg[a]] != qneg[proj[a]]:
            problems.append(f"neg not preserved at {a}")
            return problems
        for b in range(n):
            for name, t, qt in (("meet", d["meet"], qmeet),
                                ("join", d["join"], qjoin),
                                ("fusion", fus, qfus)):
                if proj[t[a][b]] != qt[proj[a]][proj[b]]:
                    problems.append(f"{name} not preserved at ({a}, {b})")
                    return problems
    return problems


def is_homomorphism(src: dict, dst: dict, h) -> bool:
    if h[src["e"]] != dst["e"]:
        return False
    n = src["size"]
    for a in range(n):
        if h[src["neg"][a]] != dst["neg"][h[a]]:
            return False
        for b in range(n):
            for key in ("meet", "join", "fusion"):
                if h[src[key][a][b]] != dst[key][h[a]][h[b]]:
                    return False
    return True
