"""Per-layer tracing of the coregular library from outside its source.

Each target is a public function or method of one ``coregular`` module.
Installing a :class:`Tracer` replaces every binding of each target (the
defining module, every ``coregular`` module that imported it by name, and
every alias inside its class, such as ``Polynomial.__rmul__``) with a
timing wrapper, and uninstalling puts the originals back.  The library
code itself is never edited.

For each target the tracer aggregates calls, inclusive time (outermost
call only, so recursion is not double counted), self time (duration minus
the time of wrapped child calls) and target-specific work counts.
Coarse targets also record one span per call, kept in memory and written
as JSONL by :meth:`Tracer.write_spans`; hot leaf targets (``hot=True``)
only aggregate, so a run of millions of calls stays small.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

PACKAGE = "coregular"

# Work counts per target; keys named max_* keep the maximum over calls,
# every other key is summed.

def _kernel_of_rho_counts(args, kwargs, result) -> dict:
    return {"generators": len(result.generators)}


def _kernel_of_columns_counts(args, kwargs, result) -> dict:
    images = args[0] if args else kwargs["images"]
    return {"columns": len(images), "max_columns": len(images),
            "nonzeros": sum(len(img) for img in images),
            "kernel_dim": len(result)}


def _echelon_add_counts(args, kwargs, result) -> dict:
    return {"useful": int(result is not None)}


def _buchberger_counts(args, kwargs, result) -> dict:
    return {"basis_size": len(result.elements)}


@dataclass(frozen=True)
class Target:
    """One wrapped name: ``module.attr_path``, reported as ``module.name``."""

    module: str
    attr_path: str
    name: str
    hot: bool = False
    count: Callable | None = None

    @property
    def metric(self) -> str:
        return f"{self.module}.{self.name}"


def _t(module, attr_path, name=None, hot=False, count=None) -> Target:
    return Target(module, attr_path, name or attr_path, hot, count)


# The public entry points of every layer.  Functions not listed here are
# charged to the self time of the nearest listed caller.
TARGETS: tuple[Target, ...] = (
    _t("poly", "Polynomial.__mul__", "Polynomial.mul", hot=True),
    _t("poly", "Polynomial.__add__", "Polynomial.add", hot=True),
    _t("poly", "Polynomial.__sub__", "Polynomial.sub", hot=True),
    _t("poly", "apply_derivation", hot=True),
    _t("poly", "monomials_of_degree", hot=True),
    _t("poly", "format_polynomial", hot=True),
    _t("poly", "poly_gcd"),
    _t("poly", "divide", hot=True),
    _t("linalg", "kernel_of_columns", count=_kernel_of_columns_counts),
    _t("linalg", "SparseEchelon.add", hot=True, count=_echelon_add_counts),
    _t("linalg", "SparseEchelon.reduce", hot=True),
    _t("linalg", "rational_roots"),
    _t("linalg", "charpoly"),
    _t("linalg", "nullspace", hot=True),
    _t("linalg", "rref", hot=True),
    _t("linalg", "rank", hot=True),
    _t("linalg", "solve", hot=True),
    _t("lie", "LieAlgebra.__init__", "LieAlgebra.init"),
    _t("lie", "LieAlgebra.bracket", hot=True),
    _t("lie", "LieAlgebra.bracket_basis", hot=True),
    _t("lie", "LieAlgebra.apply_ad", "apply_ad", hot=True),
    _t("lie", "LieAlgebra.bracket_images", "bracket_images", hot=True),
    _t("lie", "LieAlgebra.structure_matrix", "structure_matrix"),
    _t("lie", "LieAlgebra.derived_subalgebra", "derived_subalgebra"),
    _t("lie", "LieAlgebra.is_nilpotent", "is_nilpotent"),
    _t("lie", "LieAlgebra.induced_algebra", "induced_algebra"),
    _t("lie", "jordan_chevalley"),
    _t("pfaffian", "certified_rank"),
    _t("pfaffian", "fundamental_semi_invariant"),
    _t("pfaffian", "singular_locus_codim"),
    _t("pfaffian", "pfaffian", hot=True),
    _t("grobner", "buchberger", count=_buchberger_counts),
    _t("grobner", "ideal_membership"),
    _t("invariants", "minimal_generators"),
    _t("invariants", "graded_semi_invariants"),
    _t("invariants", "find_relations"),
    _t("invariants", "algebraically_independent"),
    _t("invariants", "verify_semi_invariant", hot=True),
    _t("invariants", "trdeg_check"),
    _t("invariants", "gorenstein_invariant"),
    _t("kernel", "kernel_of_rho", count=_kernel_of_rho_counts),
    _t("kernel", "compute_geometry"),
    _t("kernel", "evaluate_criteria"),
    _t("kernel", "freeness_verdict"),
    _t("kernel", "find_syzygy"),
    _t("kernel", "reduce_one_step"),
    _t("report", "analyze"),
    _t("report", "AnalysisReport.to_json", "to_json"),
)


@dataclass
class Stat:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0
    active: int = 0
    errors: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)


class Tracer:
    """Wraps the targets while installed; see the module docstring."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS):
        self.targets = targets
        self.stats = {t.metric: Stat() for t in targets}
        self.missing: list[str] = []
        self.spans: list[tuple] = []
        self.algebra_id: int | None = None
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []
        self._t0 = time.perf_counter()

    # -- installation ---------------------------------------------------------

    def install(self) -> "Tracer":
        self.missing = []
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None
                   and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for target in self.targets:
            # importlib, not attribute access: the package re-exports the
            # function ``pfaffian``, which shadows the submodule attribute
            try:
                owner = importlib.import_module(f"{PACKAGE}.{target.module}")
            except ImportError:
                self.missing.append(target.metric)
                continue
            *path, attr = target.attr_path.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = (owner.__dict__.get(attr)
                        if isinstance(owner, type) else
                        getattr(owner, attr, None))
            if not callable(original):
                self.missing.append(target.metric)
                continue
            wrapper = self._wrap(target, original)
            owners = [owner] if isinstance(owner, type) else modules
            for holder in owners:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)
        return self

    def uninstall(self):
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        stat = self.stats[target.metric]
        stack = self._stack
        spans = None if target.hot else self.spans
        count = target.count
        name = target.metric
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_span = parent[1] if parent is not None else None
            # frame: [child time, id of the nearest span-recording frame]
            frame = [0.0, len(self.spans) if spans is not None
                     else parent_span]
            if spans is not None:
                spans.append(None)  # reserve the id; filled on exit
            stack.append(frame)
            stat.active += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    for key, value in count(args, kwargs, result).items():
                        stat.counts[key] = (max(stat.counts[key], value)
                                            if key.startswith("max_") else
                                            stat.counts[key] + value)
                return result
            except BaseException as exc:
                stat.errors[type(exc).__name__] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat.active -= 1
                stat.calls += 1
                stat.self_s += duration - frame[0]
                if not stat.active:
                    stat.incl_s += duration
                if parent is not None:
                    parent[0] += duration
                if spans is not None:
                    spans[frame[1]] = (name, start, end, parent_span,
                                       self.algebra_id)

        return wrapper

    # -- results ----------------------------------------------------------------

    def stat(self, metric: str) -> Stat | None:
        """Aggregates of one target, or None if it was missing."""
        if metric in self.missing:
            return None
        return self.stats[metric]

    def module_self_s(self, module: str) -> float:
        return sum(self.stats[t.metric].self_s for t in self.targets
                   if t.module == module and t.metric not in self.missing)

    def write_spans(self, path):
        """One JSON object per recorded span; times relative to tracer
        creation, ``parent`` is the index of the enclosing span."""
        with open(path, "w") as out:
            for idx, span in enumerate(self.spans):
                if span is None:  # a call still open when written
                    continue
                name, start, end, parent, algebra = span
                out.write(json.dumps({
                    "id": idx, "name": name,
                    "start": round(start - self._t0, 9),
                    "end": round(end - self._t0, 9),
                    "parent": parent, "algebra": algebra}) + "\n")
