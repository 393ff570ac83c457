"""Structure analysis of a single algebra: the splitting property, the
lollipop decomposition, the fusion pattern above f and the odd Sugihara
quotient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from dmm.algebra import FiniteIRL, validate_dmm
from dmm.filters import classify, dfg, quotient


class NotDMM(Exception):
    pass


class NotFSI(Exception):
    pass


class NotApplicable(Exception):
    pass


def _require_fsi_dmm(A: FiniteIRL) -> None:
    rep = validate_dmm(A)
    if not rep.ok:
        raise NotDMM("; ".join(rep.laws_violated()))
    if not classify(A).fsi:
        raise NotFSI(A.name or "algebra")


def _is_idempotent(A: FiniteIRL) -> bool:
    return all(A.fusion[a][a] == a for a in A.elements)


def _is_chain(A: FiniteIRL, xs) -> bool:
    xs = list(xs)
    return all(A.leq(a, b) or A.leq(b, a) for a in xs for b in xs)


# ---- Hasse rendering --------------------------------------------------------


def hasse_text(A: FiniteIRL, mark: dict[int, str] | None = None) -> str:
    """ASCII Hasse diagram: elements grouped by height (longest chain from
    the bottom), top level first, followed by the cover relation."""
    mark = mark or {}
    covers = A.covers()
    height = {a: 0 for a in A.elements}
    changed = True
    while changed:
        changed = False
        for lo, hi in covers:
            if height[hi] < height[lo] + 1:
                height[hi] = height[lo] + 1
                changed = True

    def show(a):
        s = A.label(a)
        extra = []
        if a == A.e:
            extra.append("e")
        if a == A.f and A.f != A.e:
            extra.append("f")
        if a in mark:
            extra.append(mark[a])
        return s + ("[" + ",".join(extra) + "]" if extra else "")

    lines = []
    for h in sorted(set(height.values()), reverse=True):
        row = "  ".join(show(a) for a in sorted(A.elements)
                        if height[a] == h)
        lines.append(f"  level {h}: {row}")
    lines.append("  covers: " + ", ".join(
        f"{A.label(lo)}<{A.label(hi)}" for lo, hi in covers))
    return "\n".join(lines)


# ---- splitting --------------------------------------------------------------


@dataclass
class SplittingResult:
    ok: bool
    witness: int | None = None

    def to_dict(self):
        return {"check": "splitting", "ok": self.ok, "witness": self.witness}


def splitting_check(A: FiniteIRL) -> SplittingResult:
    """Every element is above e or below f."""
    _require_fsi_dmm(A)
    for a in A.elements:
        if not (A.leq(A.e, a) or A.leq(a, A.f)):
            return SplittingResult(False, a)
    return SplittingResult(True)


# ---- lollipop ---------------------------------------------------------------


@dataclass
class LollipopReport:
    idempotent_case: bool
    totally_ordered: bool | None = None          # idempotent case only
    interval: tuple[int, ...] = ()
    lower_chain: tuple[int, ...] = ()
    upper_chain: tuple[int, ...] = ()
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self):
        return {"check": "lollipop", "ok": self.ok,
                "idempotent_case": self.idempotent_case,
                "totally_ordered": self.totally_ordered,
                "interval": list(self.interval),
                "lower_chain": list(self.lower_chain),
                "upper_chain": list(self.upper_chain),
                "violations": self.violations}

    def text(self, A: FiniteIRL) -> str:
        mark = {}
        for a in self.interval:
            mark[a] = "I"
        for a in self.lower_chain:
            mark[a] = mark.get(a, "") + "L"
        for a in self.upper_chain:
            mark[a] = mark.get(a, "") + "U"
        head = ("lollipop: idempotent case, totally ordered="
                f"{self.totally_ordered}" if self.idempotent_case else
                f"lollipop: interval={sorted(self.interval)} "
                f"lower={sorted(self.lower_chain)} "
                f"upper={sorted(self.upper_chain)}")
        tail = "" if self.ok else "\n  VIOLATIONS: " + "; ".join(self.violations)
        return head + "\n" + hasse_text(A, mark) + tail


def lollipop(A: FiniteIRL) -> LollipopReport:
    """Decompose an FSI algebra into the interval [~(f^2), f^2] plus the two
    chains of idempotents below and above it; an idempotent input instead
    gets a total-orderedness report."""
    _require_fsi_dmm(A)
    if _is_idempotent(A):
        return LollipopReport(True, totally_ordered=_is_chain(A, A.elements))
    f2 = A.fusion[A.f][A.f]
    nf2 = A.neg[f2]
    interval = tuple(a for a in A.elements
                     if A.leq(nf2, a) and A.leq(a, f2))
    lower = tuple(a for a in A.elements if A.leq(a, nf2))
    upper = tuple(a for a in A.elements if A.leq(f2, a))
    viol: list[str] = []
    if set(interval) | set(lower) | set(upper) != set(A.elements):
        viol.append("parts do not cover the carrier")
    for nm, chain in (("lower", lower), ("upper", upper)):
        if not _is_chain(A, chain):
            viol.append(f"{nm} part is not a chain")
        for a in chain:
            if A.fusion[a][a] != a:
                viol.append(f"{nm} part has non-idempotent {a}")
    # the interval must be a subuniverse
    iv = set(interval)
    if A.e not in iv:
        viol.append("e outside the interval")
    for a in interval:
        if A.neg[a] not in iv:
            viol.append(f"interval not closed under neg at {a}")
        for b in interval:
            for nm, op in (("meet", A.meet), ("join", A.join),
                           ("fusion", A.fusion)):
                if op[a][b] not in iv:
                    viol.append(f"interval not closed under {nm} at ({a},{b})")
    return LollipopReport(False, None, interval, lower, upper, viol)


# ---- fusion pattern ---------------------------------------------------------


@dataclass
class FusionPatternResult:
    ok: bool
    witness: tuple[int, ...] | None = None
    detail: str = ""

    def to_dict(self):
        return {"check": "fusion-pattern", "ok": self.ok,
                "witness": self.witness, "detail": self.detail}


def fusion_pattern_check(A: FiniteIRL) -> FusionPatternResult:
    """Above f, fusion is f^2 inside [f, f^2] and max outside; the mixed
    products around an upper idempotent b >= f^2 collapse as ~b does."""
    _require_fsi_dmm(A)
    if _is_idempotent(A):
        raise NotApplicable("idempotent algebra")
    f = A.f
    f2 = A.fusion[f][f]
    for a in A.elements:
        if not A.leq(f, a):
            continue
        for b in A.elements:
            if not A.leq(f, b):
                continue
            if A.leq(a, f2) and A.leq(b, f2):
                want = f2
            elif A.leq(a, b):
                want = b
            elif A.leq(b, a):
                want = a
            else:
                return FusionPatternResult(
                    False, (a, b), "incomparable pair above f outside the interval")
            if A.fusion[a][b] != want:
                return FusionPatternResult(False, (a, b),
                                           f"a*b = {A.fusion[a][b]} != {want}")
    for a in A.elements:
        if not A.leq(f, a):
            continue
        for b in A.elements:
            if A.lt(a, b) and A.leq(f2, b):
                nb, na = A.neg[b], A.neg[a]
                if not (A.fusion[a][nb] == nb == A.fusion[b][nb]
                        and A.fusion[b][na] == b):
                    return FusionPatternResult(
                        False, (a, b), "negation products around upper b fail")
    return FusionPatternResult(True)


# ---- odd Sugihara quotient --------------------------------------------------


@dataclass
class OddQuotientReport:
    ok: bool
    quotient_size: int
    interval_class: tuple[int, ...]
    violations: list[str] = field(default_factory=list)

    def to_dict(self):
        return {"check": "odd-sugihara-quotient", "ok": self.ok,
                "quotient_size": self.quotient_size,
                "interval_class": list(self.interval_class),
                "violations": self.violations}


def odd_sugihara_quotient(A: FiniteIRL) -> tuple[FiniteIRL, OddQuotientReport]:
    """Quotient by the filter [~(f^2)): the result must be an odd Sugihara
    monoid whose e-class is exactly [~(f^2), f^2], all other classes
    singletons."""
    return _odd_sugihara_quotient(A, {})


def _odd_sugihara_quotient(A: FiniteIRL, quotients: dict) -> tuple[
        FiniteIRL, OddQuotientReport]:
    """odd_sugihara_quotient, reading A/G from quotients, which maps the
    members of a deductive filter G to (A/G, projection), where the caller
    has built it already; quotient builds it otherwise.  The theorem
    harness hands over the quotients it built of every filter of A, and
    [~(f^2)) is always one of them."""
    _require_fsi_dmm(A)
    if _is_idempotent(A):
        raise NotApplicable("idempotent algebra")
    f2 = A.fusion[A.f][A.f]
    nf2 = A.neg[f2]
    G = dfg(A, {nf2})
    viol: list[str] = []
    if G.members != frozenset(a for a in A.elements if A.leq(nf2, a)):
        viol.append("[~(f^2)) is not the up-set of ~(f^2)")
    built = quotients.get(G.members)
    Q, proj = built if built is not None else quotient(A, G)
    rep = validate_dmm(Q)
    if not rep.ok:
        viol.append("quotient is not a De Morgan monoid")
    if Q.e != Q.f:
        viol.append("quotient is not odd")
    if not _is_idempotent(Q):
        viol.append("quotient is not idempotent")
    interval = tuple(a for a in A.elements
                     if A.leq(nf2, a) and A.leq(a, f2))
    ecls = tuple(a for a in A.elements if proj[a] == proj[A.e])
    if ecls != interval:
        viol.append(f"e-class {ecls} differs from the interval {interval}")
    for a in A.elements:
        if proj[a] != proj[A.e]:
            cls = [b for b in A.elements if proj[b] == proj[a]]
            if len(cls) != 1:
                viol.append(f"non-singleton outer class {cls}")
    return Q, OddQuotientReport(not viol, Q.size, ecls, viol)
