#!/usr/bin/env python3
"""Regenerate (or, with --check, drift-check) the EXPERIMENTS.md metric catalog.

The block between `<!-- metric-catalog:begin -->` and
`<!-- metric-catalog:end -->` is the output of the `metric_catalog`
binary, which renders the metric family table in
src/obs/metric_families.hpp. Edit the table, rebuild, then run

    python3 tools/gen_metric_catalog.py build/tools/metric_catalog

The ctest `metric_catalog_drift` runs this with --check, so a hand edit of
the block (or a table change without a regenerate) fails the suite.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

import tablelib

EXPERIMENTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                           "EXPERIMENTS.md")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("catalog_binary", help="path to the built metric_catalog binary")
    ap.add_argument("--check", action="store_true",
                    help="fail on drift instead of rewriting the catalog")
    args = ap.parse_args()

    body = subprocess.run([args.catalog_binary], check=True, capture_output=True,
                          text=True).stdout.rstrip("\n")
    diff = tablelib.sync_blocks(EXPERIMENTS, {"metric-catalog": body}, update=not args.check)
    if not diff:
        print("metric catalog matches the family table")
    elif args.check:
        sys.exit("EXPERIMENTS.md metric catalog drifted:\n" + "\n".join(diff)
                 + "\nRegenerate with tools/gen_metric_catalog.py")
    else:
        print(f"updated {EXPERIMENTS}")


if __name__ == "__main__":
    main()
