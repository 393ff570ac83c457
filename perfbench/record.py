#!/usr/bin/env python3
"""Record the benchmark's reference answers and its harness inputs.

    python3 perfbench/record.py

writes ``perfbench/data/dmm_catalogs.json`` (the complete DMM catalogs of
sizes 1..8, the harness's inputs) and ``perfbench/data/reference.json``
(class counts and invariant fingerprints per size, harness verdicts, and
the invariant summary of every query that returns).  The committed files
were recorded from the commit that defined the benchmark; re-recording from
a later commit would bless whatever that commit answers, so do it only
together with an independent check of the new answers.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import workloads as wl  # noqa: E402

EXPECTED_COUNTS = {"dmm": [1, 1, 1, 4, 3, 18, 15, 92],
                   "irl": [1, 1, 2, 9, 21, 100]}


def record_enum() -> tuple[dict, dict]:
    from dmm.enumeration import SearchSpec, enumerate_algebras
    enum, catalogs = {}, {}
    for klass, sizes in wl.ENUM_SIZES.items():
        enum[klass] = {}
        for n in sizes:
            cat = enumerate_algebras(SearchSpec.for_class(klass, n))
            algs = [A.to_dict() for A in cat.algebras]
            assert len(algs) == EXPECTED_COUNTS[klass][n - 1], (klass, n)
            enum[klass][str(n)] = {
                "count": len(algs),
                "fingerprints": sorted(oracle.fingerprint(d) for d in algs)}
            if klass == "dmm":
                catalogs[str(n)] = algs
    return enum, catalogs


def record_harness(catalogs: dict) -> dict:
    from dmm.algebra import FiniteIRL
    return wl.tally([wl.harness_entry(FiniteIRL.from_dict(d), int(n))
                     for n, algs in catalogs.items() for d in algs])


def record_queries() -> dict:
    from dmm.algebra import FiniteIRL
    from dmm.terms import law_statements
    corpus = wl.build_corpus(wl.CORPUS)
    helpers = {k: FiniteIRL.from_dict(d)
               for k, d in wl.build_corpus(["S3", "S5", "C4"]).items()}
    helpers["semilinear"] = law_statements("ax-semilinear")[0]
    out = {}
    for name, d in corpus.items():
        A = FiniteIRL.from_dict(d)
        out[name] = {}
        for call, thunk in wl.query_calls(A, A, helpers, [A.e]):
            if call in ("canonical_form", "is_isomorphic", "quotient") \
                    or (name, call) in wl.KNOWN_HANGS:
                continue
            out[name][call] = wl.summarize(call, thunk())
    return out


def main() -> int:
    enum, catalogs = record_enum()
    reference = {"enum": enum, "harness": record_harness(catalogs),
                 "queries": record_queries()}
    wl.DATA.mkdir(exist_ok=True)
    with open(wl.DATA / "dmm_catalogs.json", "w") as fh:
        json.dump(catalogs, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    with open(wl.DATA / "reference.json", "w") as fh:
        json.dump(reference, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
