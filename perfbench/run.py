#!/usr/bin/env python3
"""Benchmark of the coregular library: one workload and one seed per run.

Run from the repository root:

    python3 perfbench/run.py --workload filiform7 --seed 1 --seconds 60 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, over
``workloads.REPEATS`` passes of the inputs.  ``--trace 1`` alternates
untraced and traced passes, half as many of each, prints the per-layer
metrics of the first traced pass and writes its spans to
``perfbench/out/`` as JSONL.
Either way every report is checked (see ``checks.py``); the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 when every check passed,
1 when one failed and 2 when the benchmark cannot run at all.

The library is imported from ``src/`` of the same checkout and is never
modified; the benchmark is single-threaded and starts no processes.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
PACKAGE = "coregular"
# the library's modules that do measurable work, in report order
LAYERS = ("poly", "linalg", "lie", "pfaffian", "grobner", "invariants",
          "kernel", "report")

# set-ups per run; setup_s is the best of them
SETUP_REPEATS = 15
# samples that must lie beyond the reported tail percentile
TAIL_BEYOND = 10

# Per-layer metrics of a traced run: (target, field, unit).
# field "incl" is inclusive time (name ``<target>_s``), "self" is self
# time, "calls" the call count, "ratio:<count>" a count over calls,
# "error:<exception>" calls that raised it, anything else a work count.
PER_LAYER = (
    ("kernel.kernel_of_rho", "incl", "s"),
    ("kernel.kernel_of_rho", "self", "s"),
    ("kernel.kernel_of_rho", "generators", "count"),
    ("kernel.compute_geometry", "incl", "s"),
    ("kernel.evaluate_criteria", "incl", "s"),
    ("kernel.freeness_verdict", "incl", "s"),
    ("kernel.reduce_one_step", "incl", "s"),
    ("linalg.kernel_of_columns", "incl", "s"),
    ("linalg.kernel_of_columns", "calls", "count"),
    ("linalg.kernel_of_columns", "columns", "count"),
    ("linalg.kernel_of_columns", "max_columns", "count"),
    ("linalg.kernel_of_columns", "nonzeros", "count"),
    ("linalg.kernel_of_columns", "kernel_dim", "count"),
    ("linalg.SparseEchelon.add", "incl", "s"),
    ("linalg.SparseEchelon.add", "calls", "count"),
    ("linalg.SparseEchelon.add", "ratio:useful", "ratio"),
    ("linalg.SparseEchelon.reduce", "calls", "count"),
    ("linalg.rational_roots", "incl", "s"),
    ("linalg.rational_roots", "calls", "count"),
    ("linalg.charpoly", "incl", "s"),
    ("linalg.nullspace", "incl", "s"),
    ("lie.apply_ad", "incl", "s"),
    ("lie.apply_ad", "calls", "count"),
    ("lie.bracket_images", "calls", "count"),
    ("lie.structure_matrix", "calls", "count"),
    ("lie.derived_subalgebra", "calls", "count"),
    ("lie.is_nilpotent", "calls", "count"),
    ("lie.LieAlgebra.init", "incl", "s"),
    ("pfaffian.certified_rank", "incl", "s"),
    ("pfaffian.certified_rank", "calls", "count"),
    ("pfaffian.fundamental_semi_invariant", "incl", "s"),
    ("pfaffian.singular_locus_codim", "incl", "s"),
    ("pfaffian.pfaffian", "calls", "count"),
    ("grobner.buchberger", "incl", "s"),
    ("grobner.buchberger", "calls", "count"),
    ("grobner.buchberger", "basis_size", "count"),
    ("grobner.buchberger", "error:BudgetExceededError", "count"),
    ("invariants.minimal_generators", "incl", "s"),
    ("invariants.graded_semi_invariants", "incl", "s"),
    ("invariants.graded_semi_invariants", "calls", "count"),
    ("invariants.find_relations", "incl", "s"),
    ("invariants.find_relations", "error:BudgetExceededError", "count"),
    ("invariants.algebraically_independent", "incl", "s"),
    # the library's own exact check: must never drop
    ("invariants.verify_semi_invariant", "calls", "count"),
    ("poly.Polynomial.mul", "calls", "count"),
    ("poly.Polynomial.mul", "incl", "s"),
    ("poly.poly_gcd", "incl", "s"),
    ("report.to_json", "incl", "s"),
)


END_TO_END = {"solve_s": "s", "analyze_p50_s": "s", "analyze_tail_s": "s",
              "setup_s": "s", "peak_rss_mb": "MB"}


def layer_metric_name(target: str, fld: str) -> str:
    if fld == "incl":
        return f"{target}_s"
    if fld == "self":
        return f"{target}.self_s"
    if fld == "error:BudgetExceededError":
        return f"{target}.budget_exceeded"
    if fld.startswith("ratio:"):
        return f"{target}.{fld[6:]}_ratio"
    return f"{target}.{fld}"


def per_layer_names():
    """Every per-layer metric name, in report order."""
    yield from (layer_metric_name(target, fld)
                for target, fld, _unit in PER_LAYER)
    yield from (f"{module}.self_s" for module in LAYERS)
    yield "trace_overhead_ratio"


def layer_metric_value(stat, fld: str):
    if fld == "incl":
        return stat.incl_s
    if fld == "self":
        return stat.self_s
    if fld == "calls":
        return stat.calls
    if fld.startswith("ratio:"):
        return stat.counts[fld[6:]] / stat.calls if stat.calls else 0.0
    if fld.startswith("error:"):
        return stat.errors[fld[6:]]
    return stat.counts[fld]


@dataclass
class Outcome:
    """What one algebra produced in one pass."""

    job: object
    seconds: float | None = None        # analyze + to_json
    reduce_seconds: float = 0.0
    report: object | None = None
    report_json: str | None = None
    step: object | None = None
    errors: list[str] = field(default_factory=list)


def _package_modules() -> list[str]:
    return [k for k in sys.modules
            if k == PACKAGE or k.startswith(PACKAGE + ".")]


def set_up(workloads, workload: str, seed: int, seconds: int):
    """Import the package afresh and build every input algebra."""
    for key in _package_modules():
        del sys.modules[key]
    api = importlib.import_module(PACKAGE)
    if not Path(api.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"{PACKAGE} was imported from {api.__file__}, "
                          f"not from {SRC}")
    return api, workloads.build(api, workload, seed, seconds)


def timed_set_up(workloads, workload: str, seed: int, seconds: int
                 ) -> float:
    """Time one more set-up, then put back the package the passes use,
    so that no pass mixes objects of two imports.

    The heap is collected and frozen first, so that the set-up's garbage
    collections scan only its own objects, as in a fresh process, and
    neither the passes' data nor an earlier set-up's garbage.
    """
    loaded = {key: sys.modules[key] for key in _package_modules()}
    gc.collect()
    gc.freeze()
    try:
        t0 = time.perf_counter()
        set_up(workloads, workload, seed, seconds)
        elapsed = time.perf_counter() - t0
    finally:
        gc.unfreeze()
    for key in _package_modules():
        del sys.modules[key]
    sys.modules.update(loaded)
    return elapsed


def run_job(job) -> Outcome:
    # looked up at call time, so an installed tracer's wrappers are used
    report_mod = importlib.import_module(f"{PACKAGE}.report")
    kernel_mod = importlib.import_module(f"{PACKAGE}.kernel")
    out = Outcome(job)
    t0 = time.perf_counter()
    try:
        opts = report_mod.AnalysisOptions(max_degree=job.max_degree)
        out.report = report_mod.analyze(job.algebra, opts)
        out.report_json = out.report.to_json()
        out.seconds = time.perf_counter() - t0
    except Exception:
        out.errors.append(f"analyze raised:\n{traceback.format_exc()}")
    if job.reduce and out.report_json is not None:
        t0 = time.perf_counter()
        try:
            semi = next(s for s in out.report.semi_generators.generators
                        if not s.weight.is_zero)
            out.step = kernel_mod.reduce_one_step(job.algebra, semi)
            out.reduce_seconds = time.perf_counter() - t0
        except Exception:
            out.errors.append(
                f"reduce_one_step raised:\n{traceback.format_exc()}")
    return out


def pass_orders(seed: int, n_jobs: int, n_passes: int) -> list[list[int]]:
    """The order of the jobs in each pass.  With several passes each
    visits the jobs in its own seeded order, so that the repetitions of
    one algebra fall at different times of the run."""
    rng = random.Random(f"order:{seed}")
    orders = []
    for _ in range(n_passes):
        order = list(range(n_jobs))
        if n_passes > 1:
            rng.shuffle(order)
        orders.append(order)
    return orders


def run_pass(jobs, order, tracer=None) -> tuple[list[Outcome], float]:
    """Run every job once, in ``order``.  Returns the outcomes, indexed
    like the jobs, and the pass's wall time."""
    outcomes = [None] * len(jobs)
    start = time.perf_counter()
    for idx in order:
        if tracer is not None:
            tracer.algebra_id = idx
        outcomes[idx] = run_job(jobs[idx])
    return outcomes, time.perf_counter() - start


def check(api, checks, passes: list[list[Outcome]], digests) -> int:
    """Run every output check; returns the number of failed operations.

    An analyze and a reduction step are one operation each, in every
    pass.  The first pass's report and step are checked against their
    digests and re-checked independently; every other pass, traced or
    not, must reproduce them exactly.
    """
    failed = 0
    for idx, first in enumerate(passes[0]):
        job = first.job
        key = checks.input_key(job.algebra, job.max_degree)
        report_problems, step_problems, step_json = [], [], None
        if first.report_json is not None:
            report_problems += filter(None, [
                digests.problem(key, first.report_json)])
            report_problems += checks.report_problems(api, first.report)
        if first.step is not None:
            step_json = checks.step_json(first.step)
            step_problems += filter(None, [
                digests.problem(checks.step_key(key), step_json)])
            step_problems += checks.reduction_problems(api, first.report,
                                                       first.step)
        for number, outcomes in enumerate(passes):
            out = outcomes[idx]
            problems = [e for e in out.errors if e.startswith("analyze")]
            if out.report_json is not None:
                problems += report_problems
                if out.report_json != first.report_json:
                    problems.append("report differs from the first pass")
            reduce_problems = [e for e in out.errors
                               if e.startswith("reduce")]
            if job.reduce:
                if out.step is not None:
                    reduce_problems += step_problems
                    if checks.step_json(out.step) != step_json:
                        reduce_problems.append(
                            "reduction step differs from the first pass")
                elif not reduce_problems:
                    reduce_problems.append("no reduction step was made")
            for msg in problems + reduce_problems:
                print(f"FAILED {job.algebra.label} (pass {number + 1}): "
                      f"{msg}", file=sys.stderr)
            failed += bool(problems) + bool(reduce_problems)
    return failed


def attempted(passes: list[list[Outcome]]) -> int:
    return sum(1 + bool(out.job.reduce)
               for outcomes in passes for out in outcomes)


def best_times(passes: list[list[Outcome]], with_reduce: bool
               ) -> list[float]:
    """Each algebra's best time over the passes: contention from outside
    the process only ever slows a pass down."""
    best = []
    for idx in range(len(passes[0])):
        done = [p[idx] for p in passes if p[idx].seconds is not None]
        if done:
            best.append(min(o.seconds + with_reduce * o.reduce_seconds
                            for o in done))
    return best


def end_to_end_metrics(passes, setup_times) -> tuple[dict, list]:
    times = sorted(best_times(passes, with_reduce=False))
    n = len(times)
    if n > TAIL_BEYOND:
        tail = times[n - TAIL_BEYOND - 1]
        tail_note = (f"p{100 * (n - TAIL_BEYOND) / n:.1f} of {n} samples, "
                     f"{TAIL_BEYOND} beyond")
    else:
        tail = times[-1] if times else 0.0
        tail_note = f"maximum of {n} samples: too few for a tail percentile"
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {
        "solve_s": sum(best_times(passes, with_reduce=True)),
        "analyze_p50_s": statistics.median(times) if times else 0.0,
        "analyze_tail_s": tail,
        "setup_s": min(setup_times),
        "peak_rss_mb": rss_mb,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    notes = [f"solve_s and analyze_*: best of {len(passes)} pass(es) "
             "per algebra",
             f"analyze_p50_s: median of {n} samples",
             f"analyze_tail_s: {tail_note}",
             f"setup_s: best of {len(setup_times)} set-ups"]
    return metrics, notes


def per_layer_metrics(tr, overhead_ratio: float) -> tuple[dict, list]:
    metrics = {}
    for target, fld, unit in PER_LAYER:
        stat = tr.stat(target)
        value = None if stat is None else layer_metric_value(stat, fld)
        metrics[layer_metric_name(target, fld)] = (value, unit)
    for module in LAYERS:
        metrics[f"{module}.self_s"] = (tr.module_self_s(module), "s")
    metrics["trace_overhead_ratio"] = (overhead_ratio, "ratio")
    notes = [f"missing (no longer in the library): {name}"
             for name in tr.missing]
    return metrics, notes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite this workload's entry in digests.json "
                             "from this run's reports and steps")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if sys.flags.optimize:
        print("refusing to run under python -O: the library's exact "
              "checks are assert statements", file=sys.stderr)
        return 2
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"no {PACKAGE} sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))
    from perfbench import checks, tracer as tracer_mod, workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("--seconds must be at least 1", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    try:
        api, jobs = set_up(workloads, args.workload, args.seed, args.seconds)
    except ImportError as exc:
        print(f"cannot import {PACKAGE}: {exc}", file=sys.stderr)
        return 2
    setup_times = [time.perf_counter() - t0]

    # Which passes are traced.  A traced run alternates untraced and
    # traced passes, half as many of each as an untraced run makes, so
    # that trace_overhead_ratio compares best passes taken side by side.
    repeats = workloads.REPEATS[args.workload]
    traced_kinds = ([False, True] * max(1, repeats // 2) if args.trace
                    else [False] * repeats)
    orders = pass_orders(args.seed, len(jobs), len(traced_kinds))

    # The other set-ups are spread over the run, before the first pass
    # and after every pass, so that their best does not hang on one
    # phase of outside load.
    extra = 0 if args.trace else SETUP_REPEATS - 1
    slots = len(traced_kinds) + 1

    def more_set_ups(slot: int):
        for _ in range(extra * (slot + 1) // slots - extra * slot // slots):
            setup_times.append(timed_set_up(workloads, args.workload,
                                            args.seed, args.seconds))

    more_set_ups(0)
    plain, traced, tracers = [], [], []
    for number, (is_traced, order) in enumerate(zip(traced_kinds, orders)):
        # every pass gets fresh algebra objects, so nothing a pass
        # leaves on them helps the next; built outside the pass time
        if is_traced:
            tr = tracer_mod.Tracer()
            with tr:  # the build is traced too: LieAlgebra.init
                pass_jobs = workloads.build(api, args.workload, args.seed,
                                            args.seconds)
                outcomes, _ = run_pass(pass_jobs, order, tr)
            tracers.append(tr)
            traced.append(outcomes)
        else:
            pass_jobs = jobs if not plain else workloads.build(
                api, args.workload, args.seed, args.seconds)
            outcomes, _ = run_pass(pass_jobs, order)
            plain.append(outcomes)
        more_set_ups(number + 1)

    digests = checks.Digests(args.workload, args.seed, args.seconds)
    if args.record_digests:  # the outputs replace the committed digests
        digests.table, digests.complete = {}, False
    # tracing must never change the outputs: the traced passes are
    # checked like the others
    failed = check(api, checks, plain + traced, digests)
    n_attempted = attempted(plain + traced)

    if args.record_digests:
        if failed:
            print("not recording digests: some checks failed",
                  file=sys.stderr)
        else:
            checks.record_digests(args.workload, args.seed, args.seconds,
                                  checks.output_digests(plain[0]))

    if args.trace:
        tr = tracers[0]  # the per-layer table describes one pass
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        tr.write_spans(spans_path)
        overhead = (sum(best_times(traced, with_reduce=True))
                    / sum(best_times(plain, with_reduce=True)))
        metrics, notes = per_layer_metrics(tr, overhead)
        notes.append(f"trace_overhead_ratio: best of {len(traced)} traced "
                     f"over best of {len(plain)} untraced pass(es) "
                     "per algebra")
        notes.append(f"spans: {spans_path.relative_to(ROOT)}")
    else:
        metrics, notes = end_to_end_metrics(plain, setup_times)

    notes.append(f"failed_ratio: {failed / n_attempted:.6g} "
                 f"({failed} of {n_attempted} operations)")
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{len(jobs)} algebras, {len(plain) + len(traced)} pass(es), "
          f"trace {args.trace}")
    for name, (value, unit) in metrics.items():
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name:48} {shown:>14} {unit}")
    for note in notes:
        print(f"  # {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": n_attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
