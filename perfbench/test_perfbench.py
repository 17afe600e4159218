"""Self-tests of the benchmark: generators, tracer bindings and checks.

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path


ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import coregular  # noqa: E402
from perfbench import checks, run, tracer, workloads  # noqa: E402

TINY_SEED = 7


def _analyze(job):
    opts = coregular.AnalysisOptions(max_degree=job.max_degree)
    return coregular.analyze(job.algebra, opts)


def test_weight_triples_seeded_mixed_and_distinct():
    a = workloads.weight_triples(random.Random(TINY_SEED), 40)
    assert a == workloads.weight_triples(random.Random(TINY_SEED), 40)
    assert a != workloads.weight_triples(random.Random(TINY_SEED + 1), 40)
    keys = set()
    for triple in a:
        assert len(triple) == 3
        assert any(w > 0 for w in triple) and any(w < 0 for w in triple)
        assert all(1 <= abs(w) <= workloads.MAX_WEIGHT for w in triple)
        keys.add(min(tuple(sorted(triple)),
                     tuple(sorted(-w for w in triple))))
    assert len(keys) == len(a)


def test_build_is_deterministic_and_validates():
    jobs = workloads.build(coregular, "weights", TINY_SEED, 8)
    again = workloads.build(coregular, "weights", TINY_SEED, 8)
    assert [j.algebra for j in jobs] == [j.algebra for j in again]
    assert len({checks.input_key(j.algebra, j.max_degree)
                for j in jobs}) == len(jobs) == 8


def test_traced_run_hits_every_target_and_restores_bindings():
    # the catalog at small bounds loads pfaffian and grobner
    jobs = workloads.build(coregular, "weights", TINY_SEED, 1)[:2] + [
        workloads.Job(g, bound) for g, bound in (
            (coregular.filiform(4), 4), (coregular.abelian(3), 3),
            (coregular.panyushev(), 2), (coregular.example32(), 3),
            (coregular.sl2(), 3), (coregular.heisenberg([[1, 0], [0, 1]]), 2))]
    # [e, x_i] = y_i for four i: the invariants y_i and x_i y_j - x_j y_i
    # satisfy four cubic relations, so find_relations reaches
    # ideal_membership, which no benchmark input does
    names = ["e"] + [f"x{i + 1}" for i in range(4)] + [f"y{i + 1}"
                                                       for i in range(4)]
    blocks = coregular.LieAlgebra(
        names, {(0, 1 + i): {5 + i: 1} for i in range(4)}, label="blocks")
    jobs.append(workloads.Job(blocks, 3))

    kernel_of_rho = coregular.kernel.kernel_of_rho
    rmul = coregular.Polynomial.__rmul__
    order = range(len(jobs))
    plain, _ = run.run_pass(jobs, order)
    tr = tracer.Tracer()
    with tr:
        assert coregular.report.kernel_of_rho is not kernel_of_rho
        assert coregular.Polynomial.__rmul__ is not rmul
        traced, _ = run.run_pass(jobs, order, tr)
    assert coregular.report.kernel_of_rho is kernel_of_rho
    assert coregular.kernel.kernel_of_rho is kernel_of_rho
    assert coregular.Polynomial.__rmul__ is rmul

    assert not tr.missing
    unhit = [t.metric for t in tr.targets if tr.stats[t.metric].calls == 0]
    assert unhit == []
    assert [o.report_json for o in traced] == [o.report_json for o in plain]
    assert all(o.errors == [] for o in traced)
    assert tr.stats["linalg.rational_roots"].calls > 0
    assert tr.stats["grobner.ideal_membership"].calls > 0
    assert all(span is not None for span in tr.spans)
    names = {span[0] for span in tr.spans}
    assert "report.analyze" in names and "lie.apply_ad" not in names


def test_missing_target_is_reported_not_zero():
    gone = tracer.Target("linalg", "no_such_function", "no_such_function")
    tr = tracer.Tracer(tracer.TARGETS[:1] + (gone,))
    with tr:
        coregular.Polynomial.variable(2, 0) * coregular.Polynomial.one(2)
    assert tr.missing == ["linalg.no_such_function"]
    assert tr.stat("linalg.no_such_function") is None
    assert tr.stat("poly.Polynomial.mul").calls == 1


def test_digest_check_catches_a_corrupted_byte():
    # the first weights algebra of the recorded run, against its
    # committed digest
    recorded = json.loads(checks.DIGESTS_PATH.read_text())
    digests = checks.Digests("weights", recorded["seed"], recorded["seconds"])
    job = workloads.build(coregular, "weights", recorded["seed"],
                          recorded["seconds"])[0]
    report_json = _analyze(job).to_json()
    key = checks.input_key(job.algebra, job.max_degree)
    assert key in digests.table
    assert digests.problem(key, report_json) is None
    middle = len(report_json) // 2
    flipped = chr(ord(report_json[middle]) ^ 1)
    corrupted = report_json[:middle] + flipped + report_json[middle + 1:]
    assert digests.problem(key, corrupted) == "digest mismatch"


def test_reduction_checks_catch_a_changed_step():
    # the first weights algebra of the recorded run and its reduction step
    recorded = json.loads(checks.DIGESTS_PATH.read_text())
    digests = checks.Digests("weights", recorded["seed"], recorded["seconds"])
    job = workloads.build(coregular, "weights", recorded["seed"],
                          recorded["seconds"])[0]
    out = run.run_job(job)
    assert out.errors == [] and out.step.chosen_algebra is not None
    key = checks.step_key(checks.input_key(job.algebra, job.max_degree))
    assert digests.problem(key, checks.step_json(out.step)) is None
    assert checks.reduction_problems(coregular, out.report, out.step) == []
    undecided = dataclasses.replace(
        out.step, chosen=coregular.kernel.UNDECIDED, c_after=None)
    assert digests.problem(key, checks.step_json(undecided)) \
        == "digest mismatch"
    wrong_c = dataclasses.replace(out.step, c_after=out.step.c_before + 1,
                                  c_before=out.step.c_before + 1)
    assert checks.reduction_problems(coregular, out.report, wrong_c)


def test_digests_complete_only_for_recorded_run(tmp_path):
    path = tmp_path / "digests.json"
    checks.record_digests("weights", 3, 2, {"k": "0" * 64}, path)
    assert checks.Digests("weights", 3, 2, path).problem("x", "{}") \
        == "no committed digest"
    assert checks.Digests("weights", 4, 2, path).problem("x", "{}") is None


def test_independent_checks_flag_a_wrong_index():
    report = _analyze(workloads.Job(coregular.sl2(), 2))
    assert checks.report_problems(coregular, report) == []
    geometry = dataclasses.replace(report.geometry,
                                   index=report.geometry.index + 1)
    broken = dataclasses.replace(report, geometry=geometry)
    assert checks.report_problems(coregular, broken)


def _run_bench(cwd, *extra):
    return subprocess.run(
        [sys.executable, *extra, "perfbench/run.py", "--workload", "weights",
         "--seed", str(TINY_SEED), "--seconds", "1", "--trace", "0"],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def test_refuses_optimized_interpreter():
    result = _run_bench(ROOT, "-O")
    assert result.returncode == 2 and "-O" in result.stderr
    assert result.stdout == ""


def test_fails_without_library_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    result = _run_bench(tmp_path)
    assert result.returncode != 0
    assert result.stdout == ""


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == \
        list(run.per_layer_names())
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
