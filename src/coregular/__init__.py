"""Exact toolkit for Lie algebra semi-invariants and coregularity criteria.

Given a structure-constant table the package computes, entirely over the
rationals: the index and certified generic rank of the structure matrix,
the fundamental semi-invariant and its degree, graded (semi-)invariant
generators with their weights, relations and the Gorenstein invariant of
the discovered presentation, the kernel of the anchor map with a
freeness verdict, every numerical coregularity criterion, and one-step
reductions toward an algebra without proper semi-invariants.
"""

from .catalog import (CATALOG, abelian, build_catalog_algebra, example32,
                      filiform, heisenberg, panyushev, sl2,
                      two_dim_nonabelian)
from .grobner import BudgetExceededError
from .invariants import (GeneratorSet, GorensteinResult, GradedSemiInvariants,
                         Relation, SemiInvariant, TrdegCheck, WeightVector,
                         algebraically_independent, find_relations,
                         gorenstein_invariant, graded_semi_invariants,
                         minimal_generators, trdeg_check,
                         verify_semi_invariant)
from .kernel import (CriterionVerdict, Geometry, InternalCheckError,
                     KernelBasis, KernelGenerator, ReductionStep,
                     compute_geometry, evaluate_criteria, find_syzygy,
                     freeness_verdict, kernel_of_rho, reduce_one_step)
from .lie import (JacobiViolationError, LieAlgebra, LieAlgebraError,
                  SkewPolyMatrix, Subspace, is_derivation, jordan_chevalley)
from .pfaffian import (FundamentalSemiInvariant, RankCertificate,
                       certified_rank, c_value, fundamental_semi_invariant,
                       index, singular_locus_codim)
from .poly import (DEGREVLEX, GRLEX, LEX, MonomialOrder, Polynomial,
                   format_polynomial, poly_gcd)
from .report import AnalysisOptions, AnalysisReport, analyze

# the names above, grouped by module; the Groebner routines and the function
# pfaffian are imported from coregular.grobner and coregular.pfaffian
__all__ = [
    "CATALOG", "abelian", "build_catalog_algebra", "example32", "filiform",
    "heisenberg", "panyushev", "sl2", "two_dim_nonabelian",
    "BudgetExceededError",
    "GeneratorSet", "GorensteinResult", "GradedSemiInvariants", "Relation",
    "SemiInvariant", "TrdegCheck", "WeightVector", "algebraically_independent",
    "find_relations", "gorenstein_invariant", "graded_semi_invariants",
    "minimal_generators", "trdeg_check", "verify_semi_invariant",
    "CriterionVerdict", "Geometry", "InternalCheckError", "KernelBasis",
    "KernelGenerator", "ReductionStep", "compute_geometry",
    "evaluate_criteria", "find_syzygy", "freeness_verdict", "kernel_of_rho",
    "reduce_one_step",
    "JacobiViolationError", "LieAlgebra", "LieAlgebraError", "SkewPolyMatrix",
    "Subspace", "is_derivation", "jordan_chevalley",
    "FundamentalSemiInvariant", "RankCertificate", "certified_rank", "c_value",
    "fundamental_semi_invariant", "index", "singular_locus_codim",
    "DEGREVLEX", "GRLEX", "LEX", "MonomialOrder", "Polynomial",
    "format_polynomial", "poly_gcd",
    "AnalysisOptions", "AnalysisReport", "analyze",
]
