"""Command line front end.

Subcommands: analyze, catalog, reduce, invariants, kernel.  Mathematical
failures (a criterion that does not hold) are results and exit 0;
malformed input exits nonzero.  When the reader of standard output
goes away early (``coregular analyze ... | head``), the command stops
quietly with exit code 141, as a process ended by SIGPIPE reports in a
shell.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .catalog import CATALOG, build_catalog_algebra
from .invariants import minimal_generators
from .kernel import freeness_verdict, kernel_of_rho, reduce_one_step
from .lie import LieAlgebra, LieAlgebraError
from .pfaffian import DEFAULT_PROBE_SEED
from .poly import ORDERS, format_polynomial
from .report import (AnalysisOptions, _generator_entry, _weight_text,
                     analyze, generator_line)

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_BROKEN_PIPE = 141


def _add_input_flags(p: argparse.ArgumentParser):
    p.add_argument("--catalog", metavar="NAME[:PARAM]",
                   help="use a built-in algebra (see the catalog subcommand)")
    p.add_argument("--file", metavar="PATH",
                   help="read an algebra from a JSON structure-constant file")
    p.add_argument("--max-degree", type=int, default=None, metavar="N",
                   help="degree bound for the graded searches (default dim g)")
    p.add_argument("--order", choices=sorted(ORDERS), default="degrevlex",
                   help="monomial order (default degrevlex)")


def _load_algebra(args) -> LieAlgebra:
    if bool(args.catalog) == bool(args.file):
        raise LieAlgebraError("choose exactly one of --catalog or --file")
    for flag in ("max_degree", "compare_degree"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            raise LieAlgebraError(
                f"--{flag.replace('_', '-')} must be at least 1")
    if args.catalog:
        return build_catalog_algebra(args.catalog)
    path = Path(args.file)
    if not path.exists():
        raise LieAlgebraError(f"no such file: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise LieAlgebraError(f"cannot read {path}: {exc}") from None
    return LieAlgebra.from_json(text)


def _options(args) -> AnalysisOptions:
    return AnalysisOptions(max_degree=args.max_degree, seed=args.seed,
                           order=ORDERS[args.order])


def _json_target(args) -> Path | None:
    """The --json path, checked before any computing starts."""
    if not args.json:
        return None
    target = Path(args.json)
    if not target.parent.is_dir():
        raise LieAlgebraError(f"--json: no such directory: {target.parent}")
    if target.is_dir():
        raise LieAlgebraError(f"--json: {target} is a directory")
    return target


def cmd_analyze(args) -> int:
    target = _json_target(args)
    g = _load_algebra(args)
    report = analyze(g, _options(args))
    print(report.to_text())
    if target:
        try:
            target.write_text(report.to_json() + "\n")
        except OSError as exc:
            raise LieAlgebraError(f"cannot write {target}: {exc}") from None
        print(f"\nJSON report written to {args.json}")
    return EXIT_OK


def cmd_catalog(args) -> int:
    print("built-in algebras (use with --catalog NAME or NAME:PARAM):")
    for entry in CATALOG:
        shown = entry.key + (f":{entry.parameter}" if entry.parameter else "")
        print(f"  {shown:<22} {entry.summary}")
    return EXIT_OK


def cmd_invariants(args) -> int:
    g = _load_algebra(args)
    bound = args.max_degree if args.max_degree is not None else g.dim
    order = ORDERS[args.order]
    gens, _ = minimal_generators(g, bound, order)
    print(f"semi-invariant generators of {g.label} up to degree {bound}:")
    if not gens.generators:
        print("  none")
    for s in gens.generators:
        print(generator_line(_generator_entry(s, g.names, order)))
    if gens.irrational_degrees:
        print(f"  (irrational weights possible in degrees "
              f"{list(gens.irrational_degrees)}, not reported)")
    return EXIT_OK


def cmd_kernel(args) -> int:
    g = _load_algebra(args)
    bound = args.max_degree if args.max_degree is not None else g.dim
    kernel = kernel_of_rho(g, bound, ORDERS[args.order])
    print(f"kernel of the anchor map of {g.label} up to degree {bound}:")
    print(f"  module rank {kernel.rank}, "
          f"{len(kernel.generators)} minimal generators")
    for i, w in enumerate(kernel.generators):
        body = ", ".join(format_polynomial(c, g.names, ORDERS[args.order])
                         for c in w.components)
        print(f"  w{i + 1} = ({body})   [degree {w.degree}]")
    verdict = freeness_verdict(kernel)
    print(f"freeness: {verdict.status} ({verdict.certainty}); "
          f"{verdict.lhs} vs {verdict.rhs}")
    if verdict.witness:
        print(f"  witness: {verdict.witness}")
    return EXIT_OK


def cmd_reduce(args) -> int:
    g = _load_algebra(args)
    bound = args.max_degree if args.max_degree is not None else g.dim
    order = ORDERS[args.order]
    gens, _ = minimal_generators(g, bound, order)
    proper = [s for s in gens.generators if not s.weight.is_zero]
    if not proper:
        print(f"nothing to reduce: no proper semi-invariant of {g.label} "
              f"found up to degree {bound}")
        return EXIT_OK
    chosen = proper[0]
    if args.weight_of:
        wanted = [s for s in proper
                  if format_polynomial(s.poly, g.names, order) == args.weight_of]
        if not wanted:
            available = ", ".join(format_polynomial(s.poly, g.names, order)
                                  for s in proper)
            raise LieAlgebraError(
                f"{args.weight_of!r} is not a proper semi-invariant "
                f"generator (available: {available})")
        chosen = wanted[0]
    step = reduce_one_step(g, chosen, compare_degree=args.compare_degree)

    print(f"reduction step for {g.label} along "
          f"{format_polynomial(step.semi_invariant, g.names, order)} "
          f"(weight {_weight_text(step.weight.values)})")
    print(f"  ranks: r(g) = {step.rank_g}, r(h) = {step.rank_h}, "
          f"r(k) = {step.rank_k}")
    after = ("undecided" if step.c_after is None
             else f"{step.c_after} (preserved)")
    print(f"  c-value: {step.c_before} -> {after}")
    print(f"  chosen branch: {step.chosen}")
    for label, alg in (("h = ker(weight)", step.h),
                       ("k = h + nilpotent part", step.k)):
        print(f"  {label}: basis {', '.join(alg.names)}; brackets:")
        if not alg.brackets:
            print("      (abelian)")
        for (i, j), coeffs in sorted(alg.brackets.items()):
            rhs = " + ".join(
                (f"{c}*{alg.names[k]}" if c != 1 else alg.names[k])
                for k, c in sorted(coeffs.items()))
            print(f"      [{alg.names[i]}, {alg.names[j]}] = {rhs}")
    print("  graded semi-invariant dimensions (degrees 1.."
          f"{step.compare_degree}):")
    for key in ("g", "h", "k"):
        marker = " <- chosen" if step.chosen.startswith(key) else ""
        print(f"      {key}: {list(step.semicenter_dims[key])}{marker}")
    for note in step.notes:
        print(f"  note: {note}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coregular",
        description="Exact analysis of Lie algebra semi-invariants, index "
                    "and coregularity criteria from structure constants.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the full analysis pipeline")
    _add_input_flags(p)
    p.add_argument("--seed", type=int, default=DEFAULT_PROBE_SEED,
                   help="seed for the random rank probes, whose ranks the "
                        "report lists")
    p.add_argument("--json", metavar="PATH",
                   help="also write the JSON report to this path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("catalog", help="list the built-in algebras")
    p.set_defaults(func=cmd_catalog)

    p = sub.add_parser("invariants",
                       help="search semi-invariant generators by degree")
    _add_input_flags(p)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("kernel",
                       help="minimal generators of the anchor-map kernel")
    _add_input_flags(p)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("reduce",
                       help="one reduction step along a proper semi-invariant")
    _add_input_flags(p)
    p.add_argument("--weight-of", metavar="POLY",
                   help="reduce along the generator with this text form "
                        "(e.g. v2)")
    p.add_argument("--compare-degree", type=int, default=3,
                   help="degree bound for the semi-center comparison")
    p.set_defaults(func=cmd_reduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except (LieAlgebraError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except BrokenPipeError:
        # the reader has gone: the rest, and the flush at exit, go nowhere
        sys.stdout = open(os.devnull, "w")
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
