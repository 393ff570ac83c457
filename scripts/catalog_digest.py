#!/usr/bin/env python3
"""Enumerate one catalog and print its class count, the SHA-256 digest of
Catalog.to_json() (the bytes `dmm enumerate` writes) and the wall time of
the enumeration and the text together.  Two versions of the enumerator
agree at a size when they print the same count and digest.  It checks no
size ceiling, so it runs at sizes `dmm enumerate` refuses.

Example:
    python3 scripts/catalog_digest.py --class irl --size 9
"""

import argparse
import hashlib
import time

from dmm.enumeration import SearchSpec, enumerate_algebras


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--class", dest="klass", default="dmm",
                    choices=["dmm", "irl"])
    ap.add_argument("--size", type=int, required=True)
    args = ap.parse_args()
    if args.size < 1:
        ap.error(f"--size must be at least 1, got {args.size}")
    t0 = time.perf_counter()
    cat = enumerate_algebras(SearchSpec(args.size, args.klass), unsafe=True)
    text = cat.to_json()
    wall = time.perf_counter() - t0
    digest = hashlib.sha256(text.encode()).hexdigest()
    print(f"{args.klass}-{args.size}: {len(cat.algebras)} classes, "
          f"sha256 {digest}, wall {wall:.2f}s")


if __name__ == "__main__":
    main()
