"""Command-line surface.

Exit codes: 0 = success / property holds; 1 = a check failed (with a
machine-readable report on stdout); 2 = usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from dmm import __version__
from dmm.algebra import (AlgebraError, FiniteIRL, MalformedTable, predicates,
                         validate_dmm, validate_irl)
from dmm.constructions import (NAMED_FORMS, UnknownName, e_free_reduct,
                               homs, is_isomorphic, is_named, make_named)
from dmm.enumeration import (DEFAULT_MAX_SIZE, IncompleteCatalog, SearchSpec,
                             SizeTooLarge, SizeTooSmall, axiomatization_check,
                             enumerate_algebras, relevant_harness,
                             theorem_harness)
from dmm.filters import classify, dfg, quotient
from dmm.relevant import (FiniteRA, TrivialAlgebra, dfg_ra_set,
                          ra_classify, validate_ra)
from dmm.structure import (NotDMM, NotFSI, fusion_pattern_check, hasse_text,
                           lollipop, odd_sugihara_quotient, splitting_check)
from dmm.terms import (ParseError, TooManyVariables, parse_statement,
                       satisfies, statements_from_text, to_text)


class UsageError(Exception):
    pass


def _read_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: not a text file ({exc.reason})") from exc
    except ValueError as exc:  # a NUL byte in the path
        raise UsageError(f"{path!r}: {exc}") from exc


def _load_algebra(spec: str, klass: str = "dmm"):
    """Resolve --algebra: a named constructor wins over a file of the same
    name (with a warning); otherwise read a JSON table file.  With --class ra
    a named algebra is replaced by its e-free reduct, as a file is read as a
    relevant algebra."""
    if is_named(spec):
        if os.path.exists(spec):
            print(f"warning: {spec!r} is both a named algebra and a file; "
                  "using the named algebra", file=sys.stderr)
        A = make_named(spec)
        return e_free_reduct(A) if klass == "ra" else A
    if not os.path.exists(spec):
        raise UsageError(f"no such algebra or file: {spec}")
    d = json.loads(_read_text(spec))
    ra = (isinstance(d, dict) and d.get("signature") == "RA") or klass == "ra"
    try:
        return (FiniteRA if ra else FiniteIRL).from_dict(d)
    except MalformedTable as exc:
        raise UsageError(f"{spec}: {exc}") from exc


def _load_pointed(spec: str, args):
    A = _load_algebra(spec)
    if isinstance(A, FiniteRA):
        raise UsageError(f"{args.command} expects a pointed algebra")
    return A


def _require_class(A):
    """A, if it is an IRL (a relevant algebra, for a FiniteRA); an
    AlgebraError naming the laws it breaks otherwise."""
    ra = isinstance(A, FiniteRA)
    rep = validate_ra(A) if ra else validate_irl(A)
    if not rep.ok:
        raise AlgebraError(("not a relevant algebra: " if ra else
                            "not an IRL: ") + ", ".join(rep.laws_violated()))
    return A


def _load_statements(spec: str):
    if spec.startswith("@"):
        statements = statements_from_text(_read_text(spec[1:]))
        if not statements:
            raise UsageError(f"{spec[1:]}: no statements")
        return statements
    return [parse_statement(spec)]


def _json_text(o, pad: str = "\n") -> str:
    """json.dumps(o, indent=2, sort_keys=True, default=str), written without
    the standard library's indenting encoder: its recursive closures refer
    to each other, so every call it serves leaves a reference cycle.  A
    list or dict with no nonempty list or dict inside is written by one
    call of the C encoder, with the line break and indent in its item
    separator."""
    nested = (list, tuple, dict)
    if not isinstance(o, nested) or not o:
        return json.dumps(o, default=str)
    inner = pad + "  "
    if not any(isinstance(v, nested) and v
               for v in (o.values() if isinstance(o, dict) else o)):
        text = json.dumps(o, sort_keys=True, default=str,
                          separators=("," + inner, ": "))
        return text[0] + inner + text[1:-1] + pad + text[-1]
    if isinstance(o, dict):
        # a key that is not a string is written as its JSON text, quoted
        parts = (json.dumps(k if isinstance(k, str) else json.dumps(k)) + ": "
                 + _json_text(v, inner) for k, v in sorted(o.items()))
        return "{" + inner + ("," + inner).join(parts) + pad + "}"
    return ("[" + inner + ("," + inner).join(_json_text(v, inner) for v in o)
            + pad + "]")


def _emit(payload, args, text_fn=None):
    if text_fn is not None and args.format == "text":
        body = text_fn()
    else:
        body = _json_text(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(body + "\n")
    else:
        print(body)


def _cmd_validate(args) -> int:
    A = _load_algebra(args.algebra, args.klass)
    if isinstance(A, FiniteRA):
        rep = validate_ra(A)
    else:
        rep = validate_irl(A)
        if rep.ok and args.klass == "dmm":
            rep = validate_dmm(A)
    payload = {"algebra": getattr(A, "name", "") or args.algebra,
               "class": "ra" if isinstance(A, FiniteRA) else args.klass,
               "ok": rep.ok,
               "violations": [{"law": v.law, "witness": list(v.witness)}
                              for v in rep.violations]}
    _emit(payload, args,
          lambda: ("pass" if rep.ok else
                   "FAIL: " + "; ".join(rep.laws_violated())))
    return 0 if rep.ok else 1


def _cmd_classify(args) -> int:
    A = _require_class(_load_algebra(args.algebra, args.klass))
    if isinstance(A, FiniteRA):
        c = ra_classify(A)
        payload = {"algebra": A.name or args.algebra, "trivial": c.trivial,
                   "simple": c.simple, "si": c.si, "fsi": c.fsi,
                   "deductive_filters": c.filter_count}
    else:
        c = classify(A)
        p = predicates(A)
        payload = {"algebra": A.name or args.algebra, "trivial": c.trivial,
                   "simple": c.simple, "si": c.si, "fsi": c.fsi,
                   "subcover": c.subcover,
                   "idempotent": p.idempotent, "odd": p.odd,
                   "anti_idempotent": p.anti_idempotent,
                   "integral": p.integral,
                   "rigorously_compact": p.rigorously_compact,
                   "distributive": p.distributive, "semilinear": p.semilinear}
    _emit(payload, args,
          lambda: "\n".join(f"{k}: {v}" for k, v in payload.items()))
    return 0


def _cmd_analyze(args) -> int:
    A = _load_pointed(args.algebra, args)
    reports = []
    ok = True
    try:
        r = splitting_check(A)
        reports.append(r.to_dict())
        ok &= r.ok
        lp = lollipop(A)
        reports.append(lp.to_dict())
        ok &= lp.ok
        if not lp.idempotent_case:
            fp = fusion_pattern_check(A)
            reports.append(fp.to_dict())
            ok &= fp.ok
            _, q = odd_sugihara_quotient(A)
            reports.append(q.to_dict())
            ok &= q.ok
    except (NotFSI, NotDMM) as exc:
        reports.append({"note": f"structure checks skipped: "
                        f"{type(exc).__name__}({exc})"})
        lp = None

    def text():
        parts = []
        if args.hasse or args.format == "text":
            parts.append(hasse_text(A))
        if lp is not None:
            parts.append(lp.text(A))
        for r in reports:
            if "check" in r and r["check"] != "lollipop":
                parts.append(json.dumps(r, sort_keys=True))
            elif "note" in r:
                parts.append(r["note"])
        return "\n".join(parts)

    payload = {"algebra": A.name or args.algebra, "ok": ok, "reports": reports}
    if args.hasse:
        payload["hasse"] = hasse_text(A)
    _emit(payload, args, text)
    return 0 if ok else 1


def _cmd_satisfies(args) -> int:
    A = _load_pointed(args.algebra, args)
    results = []
    ok = True
    for s in _load_statements(args.statement):
        r = satisfies(A, s)
        results.append({"statement": to_text(s), "holds": r.holds,
                        "counterexample": r.counterexample})
        ok &= r.holds
    payload = {"algebra": A.name or args.algebra, "ok": ok,
               "results": results}
    _emit(payload, args, lambda: "\n".join(
        f"{'pass' if r['holds'] else 'FAIL'}: {r['statement']}"
        + (f"  at {r['counterexample']}" if not r["holds"] else "")
        for r in results))
    return 0 if ok else 1


def _cmd_construct(args) -> int:
    A = make_named(args.algebra)
    _emit(A.to_dict(), args, lambda: hasse_text(A))
    return 0


def _cmd_enumerate(args) -> int:
    spec = SearchSpec.for_class(args.klass, args.size)
    # a missing directory fails before the search, not after it
    if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
        raise UsageError(f"{args.out}: no such directory")
    cat = enumerate_algebras(spec, unsafe=args.unsafe_size)
    if args.out:
        cat.save(args.out)
        print(f"{len(cat.algebras)} algebra(s) -> {args.out}")
    else:
        print(cat.to_json())
    return 0


def _cmd_homs(args) -> int:
    A = _load_pointed(args.algebra, args)
    B = _load_pointed(args.algebra2, args)
    hs = homs(A, B)
    payload = [{"map": list(h.mapping), "injective": h.injective,
                "surjective": h.surjective} for h in hs]
    _emit(payload, args, lambda: "\n".join(str(p["map"]) for p in payload)
          or "(none)")
    return 0


def _cmd_iso(args) -> int:
    A = _load_pointed(args.algebra, args)
    B = _load_pointed(args.algebra2, args)
    ok = is_isomorphic(A, B)
    _emit({"isomorphic": ok}, args, lambda: "isomorphic" if ok else
          "not isomorphic")
    return 0 if ok else 1


def _parse_generators(text: str, size: int) -> list[int]:
    try:
        gens = [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"bad generator list {text!r}") from exc
    bad = [g for g in gens if not 0 <= g < size]
    if bad:
        raise UsageError(f"generators {bad} not elements of an algebra "
                         f"of size {size}")
    return gens


def _cmd_quotient(args) -> int:
    A = _require_class(_load_pointed(args.algebra, args))
    gens = _parse_generators(args.generators or "", A.size)
    G = dfg(A, gens)
    Q, proj = quotient(A, G)
    payload = {"filter": G.sorted_members(), "projection": proj,
               "quotient": Q.to_dict()}
    _emit(payload, args, lambda: hasse_text(Q))
    return 0


def _cmd_reduct(args) -> int:
    R = e_free_reduct(_load_pointed(args.algebra, args))
    _emit(R.to_dict(), args)
    return 0


def _cmd_dfg(args) -> int:
    A = _require_class(_load_algebra(args.algebra, args.klass))
    gens = _parse_generators(args.generators or "", A.size)
    F = (dfg_ra_set if isinstance(A, FiniteRA) else dfg)(A, gens)
    _emit({"generators": gens, "filter": F.sorted_members()}, args,
          lambda: " ".join(map(str, F.sorted_members())))
    return 0


def _cmd_suite(args) -> int:
    """Enumerate the DMMs up to --size (default 4), then run every harness."""
    top = 4 if args.size is None else args.size
    if top < 1:
        raise UsageError(f"suite needs --size >= 1, got {top}")
    if top > DEFAULT_MAX_SIZE and not args.unsafe_size:
        raise SizeTooLarge(f"size {top} above ceiling {DEFAULT_MAX_SIZE}")
    ok = True
    rows = []
    for n in range(1, top + 1):
        cat = enumerate_algebras(SearchSpec(n), unsafe=args.unsafe_size)
        reports = [theorem_harness(cat)]
        if any(classify(A).si for A in cat.algebras):
            reports.append(axiomatization_check(cat))
        reports.append(relevant_harness(cat))
        row_ok = all(r.ok for r in reports)
        ok &= row_ok
        rows.append((n, len(cat.algebras), row_ok, reports))
    print(f"suite (dmm, sizes 1..{top}), tool {__version__}")
    for n, count, row_ok, reports in rows:
        print(f"size {n}: {count} algebra(s) "
              f"[{'PASS' if row_ok else 'FAIL'}]")
        for r in reports:
            print(r.text())
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once; each parse_args call fills a new namespace."""
    p = argparse.ArgumentParser(
        prog="dmm",
        description="finite-model workbench for residuated structures")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    flags = {"algebra": dict(help="named algebra or JSON file"),
             "algebra2": dict(help="second algebra"),
             "statement": dict(help="statement text or @file"),
             "size": dict(type=int),
             "format": dict(default="json", choices=["json", "text"]),
             "out": dict(help="write to this file instead of stdout"),
             "unsafe-size": dict(action="store_true"),
             "generators": dict(help="comma-separated element list"),
             "hasse": dict(action="store_true"),
             ("construct", "algebra"): dict(
                 help=f"named algebra: {NAMED_FORMS}")}

    def add(name, fn, needs, takes, classes=("irl", "dmm", "ra"), **kw):
        """A subcommand that accepts only the flags its handler reads: the
        ones in needs, which main requires, and the ones in takes.  A
        (subcommand, flag) entry of flags replaces the flag's shared one."""
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(fn=fn, needs=needs)
        for f in needs + takes:
            if f == "class":
                sp.add_argument("--class", dest="klass", default="dmm",
                                choices=classes)
            else:
                sp.add_argument("--" + f, **flags.get((name, f), flags[f]))

    alg = ("algebra",)
    emit = ("format", "out")
    add("validate", _cmd_validate, alg, ("class",) + emit,
        help="check the axioms of a class")
    add("classify", _cmd_classify, alg, ("class",) + emit,
        help="simple/SI/FSI flags and predicates")
    add("analyze", _cmd_analyze, alg, emit + ("hasse",),
        help="structure decomposition reports")
    add("satisfies", _cmd_satisfies, alg + ("statement",), emit,
        help="evaluate statements on an algebra")
    add("construct", _cmd_construct, alg, emit, help="build a named algebra")
    add("enumerate", _cmd_enumerate, ("size",), ("class", "out", "unsafe-size"),
        ("irl", "dmm"), help="catalog all algebras of a size")
    homs_help = ("all homomorphisms between two algebras; the cost grows "
                 "with the number of maps returned (2^5 -> 2^5 has 3,125, "
                 "about 1 s; 2^6 -> 2^6 has 46,656, about 40 s), and on "
                 "Sugihara chains too: S2m -> S2m-1 has 2^(m-1) (128, 512 "
                 "and 2,048 for S16, S20 and S24; S32 -> S31 ran 22.3 s)")
    add("homs", _cmd_homs, alg + ("algebra2",), emit, help=homs_help,
        description=homs_help)
    add("iso", _cmd_iso, alg + ("algebra2",), emit, help="isomorphism test")
    add("quotient", _cmd_quotient, alg, emit + ("generators",),
        help="quotient by a generated filter")
    add("reduct", _cmd_reduct, alg, ("out",),
        help="drop e (relevant-algebra reduct)")
    add("dfg", _cmd_dfg, alg, ("class",) + emit + ("generators",),
        help="generated deductive filter")
    add("suite", _cmd_suite, (), ("size", "unsafe-size"),
        help="enumerate the DMMs + all theorem harnesses")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for f in args.needs:
            if getattr(args, f) is None:
                raise UsageError(f"{args.command} needs --{f}")
        return args.fn(args)
    except (UsageError, UnknownName, ParseError, SizeTooLarge, SizeTooSmall,
            IncompleteCatalog, AlgebraError, TrivialAlgebra,
            NotFSI, NotDMM, TooManyVariables, OSError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
