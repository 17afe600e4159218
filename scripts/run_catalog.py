#!/usr/bin/env python3
"""Analyze the whole built-in catalog and print a summary table.

Reproduces the worked numbers for every entry: index, c, the degree of
the fundamental semi-invariant, the non-regular codimension, generator
degrees and the criterion verdicts.  Writes JSON reports next to the
table when --json-dir is given.
"""

import argparse
import sys
import time
from pathlib import Path

from coregular.catalog import (abelian, example32, filiform, heisenberg,
                               panyushev, sl2, two_dim_nonabelian)
from coregular.report import AnalysisOptions, analyze

ENTRIES = [
    (filiform(3), 3),
    (filiform(4), 4),
    (filiform(5), 5),
    (filiform(6), 6),
    (filiform(7), 7),
    (abelian(4), 4),
    (panyushev(), 2),
    (example32(), 3),
    (two_dim_nonabelian(), 2),
    (sl2(), 3),
    (heisenberg([[0, 1], [0, 0]]), 2),
    (heisenberg([[1, 0], [0, 1]]), 2),
]

SHORT = {
    "semi-invariant-degree-sum-bound": "sum<=c",
    "index-center-bound": "3i<=n+2z",
    "invariant-degree-sum-equality": "sum=(n+i-d)/2",
    "equality-iff-codim-ge-2": "eq<->d=0",
    "singular-codim-bound": "codim<=3",
    "kernel-freeness": "ker free",
}

MARK = {"holds": "yes", "fails": "NO", "unknown": "-"}


def json_name(g) -> str:
    """File name of an entry's report under --json-dir."""
    stem = g.label.replace("(", "_").replace(")", "").replace(
        ";", "_").replace(",", "_")
    return f"{stem}.json"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json-dir", metavar="DIR",
                        help="also write one JSON report per entry")
    args = parser.parse_args()

    out_dir = Path(args.json_dir) if args.json_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    header = (f"{'algebra':<22} {'dim':>3} {'i':>2} {'c':>2} {'d':>2} "
              f"{'codim':>5} {'gen degs':<12} "
              + " ".join(f"{s:>13}" for s in SHORT.values()))
    print(header)
    print("-" * len(header))
    total = time.perf_counter()
    for g, bound in ENTRIES:
        t0 = time.perf_counter()
        report = analyze(g, AnalysisOptions(max_degree=bound))
        verdicts = {v.criterion: MARK.get(v.status, "?")
                    for v in report.criteria}
        degs = ",".join(str(d) for d in report.semi_generators.degrees)
        print(f"{g.label:<22} {g.dim:>3} {report.geometry.index:>2} "
              f"{report.geometry.c:>2} {report.geometry.fsi.degree:>2} "
              f"{report.singular_codim_text():>5} {degs:<12} "
              + " ".join(f"{verdicts.get(k, '?'):>13}" for k in SHORT)
              + f"   ({time.perf_counter() - t0:.2f}s)")
        if out_dir:
            (out_dir / json_name(g)).write_text(report.to_json() + "\n")
    print(f"\ntotal {time.perf_counter() - total:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
