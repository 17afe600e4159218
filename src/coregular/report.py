"""Full analysis pipeline and its JSON/text reports."""

from __future__ import annotations

import json

from .grobner import BudgetExceededError
from .invariants import (GeneratorSet, Relation, SemiInvariant, TrdegCheck,
                         find_relations, gorenstein_invariant,
                         minimal_generators, structural_no_proper_reason,
                         trdeg_check, GorensteinResult)
from .kernel import (CriterionVerdict, Geometry, KernelBasis, compute_geometry,
                     evaluate_criteria, freeness_verdict, kernel_of_rho)
from .lie import LieAlgebra
from .pfaffian import DEFAULT_PROBE_SEED
from .poly import DEGREVLEX, MonomialOrder, format_polynomial
from .record import record

SCHEMA_VERSION = 1


def generator_line(s: SemiInvariant, names, order: MonomialOrder) -> str:
    """One semi-invariant generator as a line of text:
    ``  deg d: poly  [invariant]`` or ``  [weight (w_1, ..., w_n)]``."""
    w = ("invariant" if s.weight.is_zero else
         "weight (" + ", ".join(str(x) for x in s.weight.values) + ")")
    return (f"  deg {s.degree}: {format_polynomial(s.poly, names, order)}"
            f"  [{w}]")


@record
class AnalysisOptions:
    max_degree: int | None = None
    seed: int = DEFAULT_PROBE_SEED
    order: MonomialOrder = DEGREVLEX


@record
class AnalysisReport:
    algebra: LieAlgebra
    options: AnalysisOptions
    degree_bound: int
    geometry: Geometry
    semi_generators: GeneratorSet
    invariant_generators: GeneratorSet
    relations: tuple[Relation, ...] | None
    gorenstein: GorensteinResult
    trdeg: TrdegCheck
    kernel: KernelBasis
    criteria: tuple[CriterionVerdict, ...]
    notes: tuple[str, ...]

    # -- helpers -------------------------------------------------------------

    def criterion(self, name: str) -> CriterionVerdict:
        for v in self.criteria:
            if v.criterion == name:
                return v
        raise KeyError(name)

    def singular_codim_text(self) -> str:
        if not self.geometry.codim_known:
            return "unknown"
        if self.geometry.codim is None:
            return "empty"
        return str(self.geometry.codim)

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        g = self.algebra
        names = g.names

        def weight_list(w):
            return [str(x) for x in w.values]

        def gen_entry(s: SemiInvariant) -> dict:
            return {"degree": s.degree,
                    "weight": weight_list(s.weight),
                    "polynomial": format_polynomial(s.poly, names,
                                                    self.options.order)}

        def verdict_entry(v: CriterionVerdict) -> dict:
            out = {"criterion": v.criterion, "status": v.status,
                   "lhs": v.lhs, "rhs": v.rhs, "certainty": v.certainty,
                   "notes": list(v.notes)}
            if v.degree_bound is not None:
                out["degree_bound"] = v.degree_bound
            if v.witness is not None:
                out["witness"] = v.witness
            return out

        if self.relations is None:
            relations_json: object = "budget-exceeded"
        else:
            fnames = [f"f{i + 1}" for i in
                      range(len(self.invariant_generators.generators))]
            relations_json = [
                {"weighted_degree": r.weighted_degree,
                 "polynomial": format_polynomial(r.poly, fnames,
                                                 self.options.order)}
                for r in self.relations]

        fsi = self.geometry.fsi
        return {
            "schema_version": SCHEMA_VERSION,
            "algebra": g.to_json_dict(),
            "settings": {
                "degree_bound": self.degree_bound,
                "kernel_degree_bound": self.kernel.degree_bound,
                "order": self.options.order.name,
                "seed": self.options.seed,
            },
            "dim": g.dim,
            "index": self.geometry.index,
            "structure_rank": self.geometry.certificate.rank,
            "c": self.geometry.c,
            "d": fsi.degree,
            "fundamental_semi_invariant": format_polynomial(
                fsi.value, names, self.options.order),
            "pfaffian_gcd": format_polynomial(fsi.pfaffian_gcd, names,
                                              self.options.order),
            "rank_witness_rows": [i + 1 for i in
                                  self.geometry.certificate.witness_rows],
            "probe_ranks": list(self.geometry.certificate.probe_ranks),
            "singular_codim": self.singular_codim_text(),
            "semi_invariant_generators": [gen_entry(s) for s in
                                          self.semi_generators.generators],
            "invariant_generators": [gen_entry(s) for s in
                                     self.invariant_generators.generators],
            "relations": relations_json,
            "gorenstein": {
                "value": self.gorenstein.value,
                "case": self.gorenstein.case,
                "reason": self.gorenstein.reason,
            },
            "trdeg_check": {
                "status": self.trdeg.status,
                "rank": self.trdeg.rank,
                "expected": self.trdeg.expected,
            },
            "kernel": {
                "degree_bound": self.kernel.degree_bound,
                "rank": self.kernel.rank,
                "generator_degrees": list(self.kernel.degrees),
                "generators": [[format_polynomial(c, names, self.options.order)
                                for c in w.components]
                               for w in self.kernel.generators],
            },
            "criteria": [verdict_entry(v) for v in self.criteria],
            "gates": {
                "proper_semi_invariants_found":
                    self.semi_generators.has_proper(),
                "structural_no_proper_reason":
                    structural_no_proper_reason(g),
                "irrational_weight_degrees":
                    list(self.semi_generators.irrational_degrees),
                "relations_known": self.relations is not None,
                "codim_known": self.geometry.codim_known,
            },
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def to_text(self) -> str:
        g = self.algebra
        geo = self.geometry
        lines = [
            f"algebra {g.label}  (dim {g.dim}, basis "
            f"{', '.join(g.names)})",
            f"  index i = {geo.index},  rank r = {geo.certificate.rank},  "
            f"c = (dim + i)/2 = {geo.c}",
            f"  fundamental semi-invariant = "
            f"{format_polynomial(geo.fsi.value, g.names, self.options.order)}"
            f"  (degree d = {geo.fsi.degree})",
            f"  non-regular locus codimension = {self.singular_codim_text()}",
            "",
            f"semi-invariant generators up to degree {self.degree_bound}:",
        ]
        if self.semi_generators.generators:
            for s in self.semi_generators.generators:
                lines.append(generator_line(s, g.names, self.options.order))
        else:
            lines.append("  none")
        if self.semi_generators.has_proper():
            lines.append(
                f"invariant-only generators (degree sum "
                f"{self.invariant_generators.degree_sum()}):")
            for s in self.invariant_generators.generators:
                lines.append(
                    f"  deg {s.degree}: "
                    f"{format_polynomial(s.poly, g.names, self.options.order)}")
        if self.relations is None:
            lines.append("relations: budget exceeded")
        elif self.relations:
            fnames = [f"f{i + 1}" for i in
                      range(len(self.invariant_generators.generators))]
            lines.append("relations among the invariant generators:")
            for r in self.relations:
                lines.append(
                    f"  weighted degree {r.weighted_degree}: "
                    f"{format_polynomial(r.poly, fnames, self.options.order)}")
        else:
            lines.append("relations: none found up to weighted degree "
                         f"{self.degree_bound}")

        degs = self.invariant_generators.degrees
        if degs:
            lhs = "+".join(str(d) for d in degs)
            rhs = f"(1/2)({g.dim}+{geo.index}-{geo.fsi.degree})"
            target = (g.dim + geo.index - geo.fsi.degree) // 2
            rel = "=" if sum(degs) == target else "!="
            lines.append(f"degree-sum check: {lhs} {rel} {rhs} = {target}")
        if self.gorenstein.defined:
            lines.append(f"Gorenstein invariant of the presentation: "
                         f"{self.gorenstein.value} ({self.gorenstein.case})")
        else:
            lines.append(f"Gorenstein invariant undefined: "
                         f"{self.gorenstein.reason}")
        lines.append(f"trdeg check: {self.trdeg.status} "
                     f"(jacobian rank {self.trdeg.rank}, expected "
                     f"{self.trdeg.expected})")
        lines.append("")
        lines.append(f"kernel of the anchor map up to degree "
                     f"{self.kernel.degree_bound}: "
                     f"{len(self.kernel.generators)} minimal generators, "
                     f"module rank {self.kernel.rank}")
        for w in self.kernel.generators:
            lines.append("  (" + ", ".join(
                format_polynomial(c, g.names, self.options.order)
                for c in w.components) + ")")
        lines.append("")
        lines.append("criteria:")
        for v in self.criteria:
            lines.append(f"  [{v.status.upper():7}] {v.criterion}: "
                         f"{v.lhs} vs {v.rhs}  ({v.certainty})")
            for note in v.notes:
                lines.append(f"            - {note}")
            if v.witness:
                lines.append(f"            witness: {v.witness}")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def analyze(g: LieAlgebra, options: AnalysisOptions | None = None
            ) -> AnalysisReport:
    """Run the whole pipeline on one algebra."""
    opts = options or AnalysisOptions()
    bound = opts.max_degree if opts.max_degree is not None else g.dim
    geometry = compute_geometry(g, opts.seed, opts.order)

    # without proper semi-invariants inv_gens is semi_gens, so the two
    # share one Jacobian rank
    semi_gens, inv_gens = minimal_generators(g, bound, opts.order)

    relations: tuple[Relation, ...] | None
    try:
        relations = tuple(find_relations(inv_gens, bound))
    except BudgetExceededError:
        relations = None

    gorenstein = gorenstein_invariant(inv_gens, relations or ())
    trdeg = trdeg_check(semi_gens)

    kernel = kernel_of_rho(g, bound, opts.order)

    criteria = evaluate_criteria(geometry, semi_gens, inv_gens, relations)
    criteria.append(freeness_verdict(kernel))

    notes: list[str] = []
    if semi_gens.has_proper():
        notes.append(
            f"invariants-only generator degree sum "
            f"{inv_gens.degree_sum()} vs semi-invariant degree sum "
            f"{semi_gens.degree_sum()} (bound c = {geometry.c})")
    if semi_gens.irrational_degrees:
        notes.append(
            "semi-invariants with irrational weights may exist in degrees "
            f"{list(semi_gens.irrational_degrees)} and are not reported; "
            "criterion gates could be affected")

    return AnalysisReport(
        algebra=g, options=opts, degree_bound=bound, geometry=geometry,
        semi_generators=semi_gens, invariant_generators=inv_gens,
        relations=relations,
        gorenstein=gorenstein, trdeg=trdeg, kernel=kernel,
        criteria=tuple(criteria), notes=tuple(notes))
