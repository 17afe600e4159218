"""Output checks of the coregular benchmark.

Two kinds, both through the public API only:

* Digests.  ``digests.json`` holds the SHA-256 of every algebra's
  schema-1 ``to_json()`` report and of every reduction step
  (:func:`step_json`) for one recorded seed and run length, keyed by a
  hash of the input algebra and its degree bound.  A key found there
  must match on every seed (so the ``L(7)`` report is a byte-identical
  oracle on every run); at the recorded seed and run length every key
  must be present.  Regenerate with ``run.py --record-digests`` only in
  a change that says why the outputs changed.
* Independent re-checks of each report: every reported generator passes
  ``verify_semi_invariant``, every kernel generator annihilates
  ``structure_matrix()``, and ``index == dim - certified_rank(...).rank``.
  Of each reduction step: ``h`` is the kernel of the weight, and
  ``c_before``, and ``c_after`` when a branch is chosen, equal the
  c-values ``(dim + index) / 2`` of the report and of the chosen algebra,
  whose rank is certified afresh.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DIGESTS_PATH = Path(__file__).with_name("digests.json")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def input_key(algebra, max_degree) -> str:
    spec = json.dumps([algebra.to_json_dict(), max_degree], sort_keys=True)
    return sha256(spec)[:24]


class Digests:
    """The committed report digests of one workload."""

    def __init__(self, workload: str, seed: int, seconds: int,
                 path: Path = DIGESTS_PATH):
        data = json.loads(path.read_text()) if path.is_file() else {}
        self.table: dict[str, str] = data.get("workloads", {}).get(workload, {})
        self.complete = (data.get("seed") == seed
                         and data.get("seconds") == seconds)

    def problem(self, key: str, report_json: str) -> str | None:
        """Why this report fails its digest check, or None if it passes."""
        expected = self.table.get(key)
        if expected is None:
            return "no committed digest" if self.complete else None
        if sha256(report_json) != expected:
            return "digest mismatch"
        return None


def record_digests(workload: str, seed: int, seconds: int,
                   digests: dict[str, str], path: Path = DIGESTS_PATH):
    data = json.loads(path.read_text()) if path.is_file() else {}
    if (data.get("seed"), data.get("seconds")) != (seed, seconds):
        data = {"seed": seed, "seconds": seconds, "workloads": {}}
    data["workloads"][workload] = dict(sorted(digests.items()))
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def _annihilates(structure, components) -> bool:
    n = structure.size
    for j in range(n):
        acc = None
        for i in range(n):
            term = components[i] * structure[i, j]
            acc = term if acc is None else acc + term
        if not acc.is_zero:
            return False
    return True


def report_problems(api, report) -> list[str]:
    """Independent re-checks of one ``AnalysisReport``."""
    g = report.algebra
    problems = []
    for gens in (report.semi_generators, report.invariant_generators):
        for s in gens.generators:
            if not api.verify_semi_invariant(g, s.poly, s.weight):
                problems.append(f"degree-{s.degree} generator is not a "
                                "semi-invariant of its weight")
    structure = g.structure_matrix()
    for w in report.kernel.generators:
        if not _annihilates(structure, w.components):
            problems.append(f"degree-{w.degree} kernel generator does not "
                            "annihilate the structure matrix")
    rank = api.certified_rank(structure, report.options.seed).rank
    if report.geometry.index != g.dim - rank:
        problems.append(f"index {report.geometry.index} != dim {g.dim} - "
                        f"certified rank {rank}")
    return problems


def step_key(key: str) -> str:
    """Digest key of the reduction step of the input with ``key``."""
    return f"{key}:reduce_one_step"


def step_json(step) -> str:
    """Canonical JSON of everything a ``ReductionStep`` decided."""
    return json.dumps({
        "chosen": step.chosen,
        "ranks": [step.rank_g, step.rank_h, step.rank_k],
        "c": [step.c_before, step.c_after],
        "semicenter_dims": {name: list(dims) for name, dims
                            in step.semicenter_dims.items()},
        "h_embedding": [[str(x) for x in v] for v in step.h_embedding],
        "h": step.h.to_json_dict(),
        "k": step.k.to_json_dict(),
        "notes": list(step.notes),
    }, sort_keys=True)


def output_digests(outcomes) -> dict[str, str]:
    """The digests of one pass's reports and reduction steps."""
    table = {}
    for out in outcomes:
        key = input_key(out.job.algebra, out.job.max_degree)
        table[key] = sha256(out.report_json)
        if out.step is not None:
            table[step_key(key)] = sha256(step_json(out.step))
    return table


def _c_value(dim: int, index: int) -> int:
    return (dim + index) // 2


def reduction_problems(api, report, step) -> list[str]:
    """Independent re-checks of a ``ReductionStep`` of ``report``'s
    algebra."""
    g = report.algebra
    problems = []
    chi = step.weight.values
    if (len(step.h_embedding) != g.dim - 1
            or any(sum(w * x for w, x in zip(chi, v)) != 0
                   for v in step.h_embedding)):
        problems.append("h is not the kernel of the weight")
    c_g = _c_value(g.dim, report.geometry.index)
    if step.c_before != c_g:
        problems.append(f"c_before {step.c_before} != c-value {c_g} of "
                        "the report")
    chosen = step.chosen_algebra
    if chosen is not None:
        rank = api.certified_rank(chosen.structure_matrix(),
                                  report.options.seed).rank
        c_chosen = _c_value(chosen.dim, chosen.dim - rank)
        if not step.c_after == c_chosen == c_g:
            problems.append(f"{step.chosen}: c_after {step.c_after}, "
                            f"certified c-value {c_chosen}, c of the "
                            f"algebra {c_g}")
    return problems
