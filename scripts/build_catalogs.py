#!/usr/bin/env python3
"""Enumerate complete catalogs for a range of sizes and write them to disk.

Example:
    python3 scripts/build_catalogs.py --max-size 6 --out-dir catalogs/
"""

import argparse
import pathlib
import time

from dmm.enumeration import DEFAULT_MAX_SIZE, SearchSpec, enumerate_algebras


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--class", dest="klass", default="dmm",
                    choices=["dmm", "irl"])
    ap.add_argument("--min-size", type=int, default=1)
    ap.add_argument("--max-size", type=int, default=6)
    ap.add_argument("--out-dir", default="catalogs")
    ap.add_argument("--unsafe-size", action="store_true",
                    help="allow sizes above the built-in ceiling")
    args = ap.parse_args()
    if args.min_size < 1:
        ap.error(f"--min-size must be at least 1, got {args.min_size}")
    if args.max_size > DEFAULT_MAX_SIZE and not args.unsafe_size:
        ap.error(f"--max-size {args.max_size} is above the ceiling "
                 f"{DEFAULT_MAX_SIZE}; pass --unsafe-size to go past it")

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for n in range(args.min_size, args.max_size + 1):
        t0 = time.monotonic()
        cat = enumerate_algebras(SearchSpec.for_class(args.klass, n),
                                 unsafe=args.unsafe_size)
        path = out / f"{args.klass}-{n}.json"
        cat.save(path)
        print(f"size {n}: {len(cat.algebras):4d} algebra(s) "
              f"in {time.monotonic() - t0:6.2f}s -> {path}")


if __name__ == "__main__":
    main()
