"""Kernel of the anchor map, freeness, the numerical criteria, and the
one-step reduction toward an algebra without proper semi-invariants.

The anchor map is represented by the structure matrix B, so its kernel
consists of the tuples (A_1..A_n) of polynomials with
sum_i A_i B[i][j] = 0 for every column j.  It is computed degree by
degree with minimal new generators extracted against multiples of the
lower-degree ones.  The multiples lie in the kernel, since rho is
S(g)-linear, so a degree whose multiples span as much as its kernel's
dimension has no new generator.  Each degree is decided once, with no
multiple built: the distinct pivots of the multiples are counted, with
no monomial listed, first against a lower bound on the rank of the
degree's system, counted too, and else against the dimension of the
system, eliminated in full.  Only where the pivots fall short of that
dimension are the multiples ranked and the complement read out of a
kernel basis.

The reduction step compares the graded semi-invariant dimensions of g
with those of h and k (``semicenter_dims``): g's are recorded by its
own search, and h and k are counted when nilpotent or perfect.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Iterator, Sequence

from . import linalg
from .grobner import BudgetExceededError
from .invariants import (GeneratorSet, Relation, SemiInvariant,
                         WeightVector, generic_rank, semicenter_dims,
                         structural_no_proper_reason, verify_semi_invariant)
from .lie import LieAlgebra, SkewPolyMatrix, is_derivation, jordan_chevalley
from .linalg import InternalCheckError
from .pfaffian import (DEFAULT_PROBE_SEED, FundamentalSemiInvariant,
                       RankCertificate, c_value, fundamental_semi_invariant,
                       index, rank_certificate, singular_locus_codim)
from .poly import (DEGREVLEX, MonomialOrder, Polynomial, _ratio,
                   format_polynomial, monomial_mul, monomials_of_degree)
from .record import record

HOLDS = "holds"
FAILS = "fails"
UNKNOWN = "unknown"

# degrees beyond the highest kernel generator that the syzygy search tries
SYZYGY_EXTRA_DEGREES = 3

CERTIFIED = "certified"
UP_TO_DEGREE = "up-to-degree"
BUDGET_EXCEEDED = "budget-exceeded"


@record
class CriterionVerdict:
    criterion: str
    status: str
    lhs: str
    rhs: str
    certainty: str
    degree_bound: int | None = None
    notes: tuple[str, ...] = ()
    witness: str | None = None


def _verdict(criterion: str, holds: bool | None, lhs: str, rhs: str,
             certainty: str = UP_TO_DEGREE, degree_bound: int | None = None,
             notes: Sequence[str] = (), witness: str | None = None,
             applies: bool = True, excluding: bool = False
             ) -> CriterionVerdict:
    """The one place a ``CriterionVerdict`` is built.

    Status rule: ``holds`` True, False or None gives the status holds,
    fails or unknown.  Not-applicable rule: a criterion whose hypothesis
    fails (``applies`` false) is unknown and up-to-degree, whatever
    ``holds`` and ``certainty`` say, and its notes are joined into one
    note that starts ``not applicable:``.  A failure of an ``excluding``
    criterion excludes coregularity, and a last note says so."""
    if not applies:
        holds, certainty = None, UP_TO_DEGREE
        notes = ("not applicable: " + "; ".join(notes),)
    elif excluding and holds is False:
        notes = (*notes, "failure excludes coregularity")
    status = UNKNOWN if holds is None else HOLDS if holds else FAILS
    return CriterionVerdict(criterion, status, lhs, rhs, certainty,
                            degree_bound, tuple(notes), witness)


# ---------------------------------------------------------------------------
# kernel of the anchor map
# ---------------------------------------------------------------------------

@record
class KernelGenerator:
    components: tuple[Polynomial, ...]
    degree: int


@record
class KernelBasis:
    algebra: LieAlgebra
    degree_bound: int
    generators: tuple[KernelGenerator, ...]
    rank: int  # generic rank of the kernel module = index of the algebra

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(w.degree for w in self.generators)


def _annihilates(b: SkewPolyMatrix, components: Sequence[Polynomial]) -> bool:
    n = b.size
    for j in range(n):
        acc = Polynomial.zero(n)
        for i in range(n):
            entry = b[i, j]
            if not entry.is_zero and not components[i].is_zero:
                acc = acc + components[i] * entry
        if not acc.is_zero:
            return False
    return True


def _shift(components: Sequence[Polynomial], m, rank: dict) -> dict:
    """The tuple (m A_1, ..., m A_n) as a sparse vector: the coefficient of
    the monomial u in m A_i sits at index ``i * len(rank) + rank[u]``,
    where ``rank`` numbers the monomials of the degree of m A_i."""
    size = len(rank)
    vec: dict = {}
    for i, comp in enumerate(components):
        for mm, c in comp.terms.items():
            vec[i * size + rank[monomial_mul(m, mm)]] = c
    return vec


def _anchor_equations(g: LieAlgebra, monos: Sequence) -> Iterator[dict]:
    """The degree's system sum_i A_i B[i][j] = 0 as sparse rows, one per
    j and monomial, unsorted (``SolutionSpace`` orders them); unknown
    ``i * len(monos) + t`` is the coefficient of ``monos[t]`` in A_i.

    The rows are built one column j of B at a time.  B[i][j] = [v_i, v_j]
    is read from the bracket table as {k: c}, so a term c v_k adds c to
    the row of m v_k for each unknown (i, m): only its exponent changes."""
    nm = len(monos)
    raised = [[m[:k] + (m[k] + 1,) + m[k + 1:] for m in monos]
              for k in range(g.dim)]
    for j in range(g.dim):
        rows: dict = {}
        for i in range(g.dim):
            for k, c in g._bracket_terms(i, j).items():
                for t, mono in enumerate(raised[k], i * nm):
                    rows.setdefault(mono, {})[t] = c
        yield from rows.values()


def kernel_of_rho(g: LieAlgebra, degree_bound: int,
                  order: MonomialOrder = DEGREVLEX) -> KernelBasis:
    """Minimal homogeneous generators of ker rho up to the degree bound.

    Degree d unknowns are tuples (A_1..A_n) of degree-d forms; new
    generators are a canonical complement of the multiples of the
    lower-degree generators.  Each degree is one linear system; the
    blocks it splits into (for instance under a grading of the algebra)
    are found by the sparse eliminator.  A degree has no new generator
    once the distinct pivots of the multiples are as many as the
    unknowns less a lower bound on the system's rank.  Both are counted
    with no monomial listed (``_generators_of_degree``): from the
    echelon of the rows of B, found once here, and from monomial ideals,
    each counted once per call.  Elsewhere (degrees 0 and 1, on
    ``L(n)``) the system is eliminated in full, and the degree has none
    when its dimension is the number of those pivots.
    """
    if degree_bound < 1:
        raise ValueError("degree bound must be >= 1")
    rank = index(g)
    leads = _column_leads(g)
    counted: dict = {}

    generators: list[KernelGenerator] = []
    for d in range(0, degree_bound + 1):
        generators += _generators_of_degree(g, generators, d, order, leads,
                                            counted)
    return KernelBasis(g, degree_bound, tuple(generators), rank)


def _column_leads(g: LieAlgebra) -> list[int]:
    """The number |V_j| of lead variables in each column j of the echelon
    of the rows b_i = ([v_i, v_j])_j of B, read from the bracket table,
    with x_k in column j keyed ``j * n + k`` and the least key as
    pivot."""
    n = g.dim
    echelon = linalg.SparseEchelon()
    for i in range(n):
        echelon.add({j * n + k: c for j in range(n)
                     for k, c in g._bracket_terms(i, j).items()})
    leads = [0] * n
    for key in echelon.rows:
        leads[key // n] += 1
    return leads


def _monomial_count(n: int, d: int) -> int:
    """The number of monomials of degree d in n variables."""
    return comb(n + d - 1, d) if n else int(d == 0)


def _image_count(leads: Sequence[int], d: int) -> int:
    """The distinct leading terms of the m b'_a of degree d + 1
    (``_generators_of_degree``): in column j, the monomials that one of
    its |V_j| lead variables divides, all less those in the others."""
    n = len(leads)
    return sum(_monomial_count(n, d + 1) - _monomial_count(n - v, d + 1)
               for v in leads)


def _ideal_count(leads: frozenset, n: int, d: int, counted: dict) -> int:
    """The number of monomials of degree d in n variables that one of the
    monomials ``leads`` divides, memoized in ``counted``.

    A monomial u x_n^e is in the ideal when one of the leads whose last
    exponent is at most e divides it, that is when u is in the ideal of
    those leads with their last exponent dropped; so the count is the
    sum over e of those counts in degree d - e, in n - 1 variables."""
    leads = frozenset(m for m in leads if sum(m) <= d)
    if not leads:
        return 0
    key = (leads, n, d)
    if key not in counted:
        if not any(map(any, leads)):
            counted[key] = _monomial_count(n, d)
        else:
            counted[key] = sum(
                _ideal_count(frozenset(m[:-1] for m in leads if m[-1] <= e),
                             n - 1, d - e, counted)
                for e in range(d + 1))
    return counted[key]


def _pivot_count(generators: Sequence[KernelGenerator], d: int, n: int,
                 order: MonomialOrder, counted: dict) -> int:
    """The number of distinct pivots of the degree-d multiples m w of
    ``generators`` (``_multiples``): in each component i, the
    degree-d monomials of the ideal of the leading monomials of the
    generators whose first nonzero component is the i-th."""
    ideals: dict[int, set] = {}
    for gen in generators:
        i, comp = next((i, comp) for i, comp in enumerate(gen.components)
                       if not comp.is_zero)
        ideals.setdefault(i, set()).add(comp.leading_monomial(order))
    return sum(_ideal_count(frozenset(ideal), n, d, counted)
               for ideal in ideals.values())


def _multiples(generators: Sequence[KernelGenerator], d: int, n: int,
               rank: dict, order: MonomialOrder) -> Iterator[tuple]:
    """The degree-d multiples m w_a of the ``generators`` of degree at
    most d, as ``(a, m, vector)`` (``_shift``): generator by generator,
    multipliers m descending."""
    for a, gen in enumerate(generators):
        if gen.degree <= d:
            for m in monomials_of_degree(n, d - gen.degree, order):
                yield a, m, _shift(gen.components, m, rank)


def _generators_of_degree(g: LieAlgebra,
                          generators: Sequence[KernelGenerator],
                          d: int, order: MonomialOrder,
                          leads: Sequence[int], counted: dict
                          ) -> list[KernelGenerator]:
    """The generators of degree d: the canonical complement, in the
    degree-d kernel, of the multiples of the lower-degree ``generators``
    (``_multiples``).

    Unknown ``i * len(monos) + t`` is the coefficient of ``monos[t]`` in
    A_i, with ``monos`` descending, so the pivot of a vector is its
    smallest unknown.  rho is S(g)-linear, so the multiples lie in the
    kernel.  The pivot of m w is that of m lm(w_i) in A_i for the first
    nonzero w_i, since a monomial order is multiplicative, so the
    distinct pivots in component i are the degree-d monomials of the
    ideal of the leading monomials of the generators that lead in i,
    and their number p is counted (``_pivot_count``).  Multiples with
    distinct pivots are independent, so their rank lies between p and
    the kernel's dimension, and a dimension of p proves that they span
    it, with no multiple built.

    The rank of the system is the dimension of the image of
    (A_i) -> (sum_i A_i B[i][j])_j, spanned by the vectors m b_i, m of
    degree d, b_i = (B[i][j])_j.  The echelon rows b'_a of the b_i
    (``_column_leads``) span them, so the m b'_a span the image too.
    Order the image's terms position over term: the least column j
    first, then the larger monomial.  The pivot of b'_a is x_k in
    column j; its other terms lie in later columns or are x_k' in
    column j with k' > k, and m x_k' < m x_k under every monomial order
    here, so the leading term of m b'_a is m x_k in column j.  Vectors
    with distinct leading terms are independent, and column j holds as
    leading terms the degree-(d + 1) monomials that one of its lead
    variables V_j divides, so the rank is at least
    r = sum_j C(n + d, d + 1) - C(n - |V_j| + d, d + 1)
    (``_image_count``).  Hence ``r >= ncols - p`` proves that the degree
    has no new generator, with no monomial listed; else the system is
    eliminated in full and its dimension compared with p.  Otherwise all
    the multiples are ranked, their least keys read as they are built
    must be p in number, so their rank is at least p, and a kernel basis
    is reduced against them: its remainders are the new generators."""
    n = g.dim
    ncols = n * _monomial_count(n, d)
    p = _pivot_count(generators, d, n, order, counted)
    if _image_count(leads, d) >= ncols - p:
        return []
    monos = monomials_of_degree(n, d, order)
    space = linalg.SolutionSpace(_anchor_equations(g, monos), ncols)
    if space.dim == p:
        return []
    rank = {m: t for t, m in enumerate(monos)}
    lower = linalg.SparseEchelon()
    pivots = set()
    for _, _, vec in _multiples(generators, d, n, rank, order):
        pivots.add(min(vec))
        lower.add(vec)
    if len(pivots) != p:
        raise InternalCheckError(
            "the multiples' pivots are not as many as counted")

    # canonical order; each row was read out with a unit pivot
    new_rows = sorted((row for _, row in lower.extend(space.basis())),
                      key=min)
    b = g.structure_matrix()
    new = []
    for row in new_rows:
        comps = [dict() for _ in range(n)]
        for t, c in row.items():
            i, r = divmod(t, len(monos))
            comps[i][monos[r]] = c
        components = tuple(Polynomial._new(n, comp) for comp in comps)
        if not _annihilates(b, components):
            raise InternalCheckError(
                "kernel generator fails to annihilate the structure matrix")
        new.append(KernelGenerator(components, d))
    return new


def find_syzygy(kernel: KernelBasis
                ) -> tuple[int, tuple[Polynomial, ...]] | None:
    """Smallest-degree polynomial relation among the kernel generators.

    Returns (degree, coefficients) with sum_a coeff_a * w_a = 0, or None.
    """
    gens = kernel.generators
    if not gens:
        return None
    n = kernel.algebra.dim
    order = DEGREVLEX
    dmin = min(w.degree for w in gens)
    dmax = max(w.degree for w in gens)
    for e in range(dmin, dmax + SYZYGY_EXTRA_DEGREES + 1):
        rank = {m: t for t, m in
                enumerate(monomials_of_degree(n, e, order))}
        multiples = list(_multiples(gens, e, n, rank, order))
        solutions = linalg.kernel_of_columns(
            [vec for _, _, vec in multiples])
        if not solutions:
            continue
        coeffs = [Polynomial.zero(n) for _ in gens]
        for t, c in solutions[0].items():
            a, m, _ = multiples[t]
            coeffs[a] = coeffs[a] + Polynomial._new(n, {m: c})
        return e, tuple(coeffs)
    return None


def freeness_verdict(kernel: KernelBasis) -> CriterionVerdict:
    """Free or not, from the generator count against the generic rank.

    A minimally generated graded torsion-free module with more
    generators than its rank cannot be free, so that direction is
    certified; the Holds direction is only as strong as the degree bound.
    """
    count = len(kernel.generators)
    rank = kernel.rank
    g = kernel.algebra
    certainty, witness = UP_TO_DEGREE, None
    if count > rank:
        holds, certainty = False, CERTIFIED
        note = "more minimal generators than the rank"
        syz = find_syzygy(kernel)
        if syz is not None:
            witness = "0 = " + " + ".join(
                f"({format_polynomial(c, g.names)})*w{a + 1}"
                for a, c in enumerate(syz[1]) if not c.is_zero)
    elif count < rank:
        holds = None
        note = "fewer generators than the rank: raise the degree bound"
    elif generic_rank([list(w.components) for w in kernel.generators]) == rank:
        holds = True
        note = ("generator matrix has full rank over the fraction field; "
                "generation beyond the degree bound unverified")
    else:
        holds = None
        note = "generators are dependent over the fraction field"
    return _verdict("kernel-freeness", holds, f"{count} minimal generators",
                    f"rank {rank}", certainty, kernel.degree_bound, (note,),
                    witness)


# ---------------------------------------------------------------------------
# numerical criteria
# ---------------------------------------------------------------------------

@record
class Geometry:
    """Bundle of the exact numeric data of one algebra."""

    algebra: LieAlgebra
    certificate: RankCertificate
    index: int
    c: int
    fsi: FundamentalSemiInvariant
    codim: int | None          # None: empty non-regular locus (abelian)
    codim_known: bool          # False when the Groebner budget was exceeded


def compute_geometry(g: LieAlgebra, seed: int = DEFAULT_PROBE_SEED,
                     order: MonomialOrder = DEGREVLEX) -> Geometry:
    """The exact data of g; ``seed`` picks only the certificate's probe
    points and ``order`` the fundamental semi-invariant's normalisation."""
    cert = rank_certificate(g, seed)
    fsi = fundamental_semi_invariant(g, order)
    try:
        codim = singular_locus_codim(g)
        known = True
    except BudgetExceededError:
        codim = None
        known = False
    return Geometry(g, cert, index(g), c_value(g), fsi, codim, known)


def evaluate_criteria(geometry: Geometry, semi_gens: GeneratorSet,
                      inv_gens: GeneratorSet,
                      relations: Sequence[Relation] | None
                      ) -> list[CriterionVerdict]:
    """All numerical coregularity criteria for the algebra of
    ``semi_gens``; ``inv_gens`` and ``geometry`` must be of that algebra.

    ``relations`` may be None when the relation search blew its budget.
    """
    g = semi_gens.algebra
    if inv_gens.algebra is not g:
        raise ValueError("the invariant generators are of another algebra")
    if geometry.algebra is not g:
        raise ValueError("the geometry is of another algebra")
    n = g.dim
    idx = geometry.index
    c = geometry.c
    d = geometry.fsi.degree
    # a linear form is invariant exactly when its vector is central, and
    # degree one holds no product: its invariant generators span Z(g)
    z_dim = inv_gens.degrees.count(1)
    structural = structural_no_proper_reason(g)
    no_proper_found = not semi_gens.has_proper()
    gate_note = (f"no proper semi-invariants ({structural})" if structural
                 else ("no proper semi-invariants found up to degree "
                       f"{semi_gens.degree_bound}" if no_proper_found
                       else "proper semi-invariants present"))
    gate_certainty = CERTIFIED if structural else UP_TO_DEGREE
    semi_sum = semi_gens.degree_sum()
    within = semi_sum <= c

    # degree-sum equality for a discovered polynomial presentation
    inv_sum = inv_gens.degree_sum()
    target2 = n + idx - d
    if target2 % 2:
        raise InternalCheckError("dim + index - d must be even")
    target = target2 // 2
    independent = inv_gens.jacobian_rank == len(inv_gens.generators)
    eq_gate = (no_proper_found and relations is not None and not relations
               and independent)
    eq_notes = [gate_note]
    if relations is None:
        eq_notes.append("relation search exceeded its budget")
    elif relations:
        eq_notes.append(f"{len(relations)} relation(s) found: "
                        "presentation is not polynomial")
    if not independent:
        eq_notes.append("generators are algebraically dependent")
    sum_text = f"sum of invariant generator degrees = {inv_sum}"

    # codimension of the non-regular locus is at most 3 for coregular
    # non-abelian algebras without proper semi-invariants
    if g.is_abelian:
        codim_holds, codim_text = True, "non-regular locus empty"
        codim_note = "abelian: every point is regular"
    elif not geometry.codim_known:
        codim_holds, codim_text = None, "codim unknown"
        codim_note = "Groebner budget exceeded"
    else:
        codim_holds = geometry.codim < 4
        codim_text, codim_note = f"codim = {geometry.codim}", gate_note

    return [
        # bound on the degree sum of the semi-invariant generators
        _verdict("semi-invariant-degree-sum-bound", within,
                 f"sum of generator degrees = {semi_sum}", f"c = {c}",
                 UP_TO_DEGREE if within else CERTIFIED,
                 semi_gens.degree_bound,
                 ("bound verified for the generators found so far",)
                 if within else ("the degree sum only grows with the bound, "
                                 "so exceeding c is final",)),
        # 3 i <= dim + 2 dim Z, valid for coregular algebras without
        # proper semi-invariants
        _verdict("index-center-bound", 3 * idx <= n + 2 * z_dim,
                 f"3 i = {3 * idx}", f"dim + 2 dim Z = {n + 2 * z_dim}",
                 gate_certainty, semi_gens.degree_bound, (gate_note,),
                 applies=no_proper_found, excluding=True),
        _verdict("invariant-degree-sum-equality", inv_sum == target,
                 sum_text, f"(dim + i - d)/2 = {target}",
                 degree_bound=inv_gens.degree_bound, notes=eq_notes,
                 applies=eq_gate),
        _verdict("equality-iff-codim-ge-2", (inv_sum == c) == (d == 0),
                 f"degree sum {'=' if inv_sum == c else '!='} c"
                 if eq_gate else sum_text,
                 f"d {'=' if d == 0 else '!='} 0" if eq_gate else f"d = {d}",
                 degree_bound=inv_gens.degree_bound, notes=eq_notes,
                 applies=eq_gate),
        _verdict("singular-codim-bound", codim_holds, codim_text,
                 "codim <= 3",
                 BUDGET_EXCEEDED if codim_holds is None else CERTIFIED,
                 notes=(codim_note,), excluding=True),
        _verdict("singular-locus-purity", None, "purity in codimension 3",
                 "not checked", notes=("needs primary decomposition, "
                                       "outside the toolkit's scope",)),
    ]


# ---------------------------------------------------------------------------
# one-step reduction
# ---------------------------------------------------------------------------

H_BRANCH = "h-branch"
K_BRANCH = "k-branch"
UNDECIDED = "undecided"


@record
class ReductionStep:
    algebra: LieAlgebra
    semi_invariant: Polynomial
    weight: WeightVector
    h: LieAlgebra
    h_embedding: tuple[tuple[Fraction, ...], ...]
    k: LieAlgebra
    chosen: str
    rank_g: int
    rank_h: int
    rank_k: int
    c_before: int
    c_after: int | None
    semicenter_dims: dict[str, tuple[int, ...]]
    compare_degree: int
    notes: tuple[str, ...]

    @property
    def chosen_algebra(self) -> LieAlgebra | None:
        return {H_BRANCH: self.h, K_BRANCH: self.k}.get(self.chosen)


def reduce_one_step(g: LieAlgebra, s: SemiInvariant,
                    compare_degree: int = 3) -> ReductionStep:
    """One reduction step along a proper semi-invariant.

    Builds h = ker(weight) and k = h extended by the nilpotent part of
    ad(c) for any c with weight(c) = 1.  The k-branch can only preserve
    the invariant c-value when rank(k) = rank(g); among the surviving
    branches the one whose graded semi-invariant dimensions match those
    of g (up to ``compare_degree``, at least 1) is chosen.  g's
    dimensions come from its own graded search: after ``analyze`` (or
    ``minimal_generators``) under any order they are read from the
    algebra, and only the degrees it did not search are searched again.
    ``s`` must be a nonzero semi-invariant of g of its weight: one of
    another algebra, or a polynomial of another weight, raises
    ``ValueError``.
    """
    if compare_degree < 1:
        raise ValueError("comparison degree must be >= 1")
    n = g.dim
    chi = s.weight
    if chi.is_zero:
        raise ValueError("reduction needs a proper semi-invariant")
    if not verify_semi_invariant(g, s.poly, chi):
        raise ValueError("the polynomial is not a semi-invariant of this "
                         "weight")

    h_vectors = linalg.nullspace([list(chi.values)], n)
    h_names = [f"h{i + 1}" for i in range(n - 1)]
    h = g.induced_algebra(h_vectors, h_names, label=f"{g.label}|ker-weight")

    first = next(i for i, x in enumerate(chi.values) if x != 0)
    c_vec = [0] * n
    c_vec[first] = _ratio(1, chi.values[first])

    # matrix of ad(c) restricted to h, in the h basis
    cols = [[h_vectors[t][r] for t in range(n - 1)] for r in range(n)]
    adc = []
    for v in h_vectors:
        img = g.bracket(c_vec, v)
        coords = linalg.solve(cols, img)
        if coords is None:
            raise InternalCheckError("h is not ad(c)-stable")
        adc.append(coords)
    adc_mat = [[adc[j][i] for j in range(n - 1)] for i in range(n - 1)]
    d_s, d_p = jordan_chevalley(adc_mat)
    if not is_derivation(h, d_p):
        raise InternalCheckError("nilpotent part is not a derivation of h")

    k_brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for (i, j), coeffs in h.brackets.items():
        k_brackets[(i + 1, j + 1)] = {t + 1: c for t, c in coeffs.items()}
    for j in range(n - 1):
        col = {t + 1: d_p[t][j] for t in range(n - 1) if d_p[t][j] != 0}
        if col:
            k_brackets[(0, j + 1)] = col
    k = LieAlgebra(["p"] + h_names, k_brackets,
                   label=f"{g.label}|nilpotent-extension")

    rank_g = rank_certificate(g).rank
    rank_h = rank_certificate(h).rank
    rank_k = rank_certificate(k).rank
    if rank_h != rank_g - 2:
        raise InternalCheckError(
            "kernel of a semi-invariant weight must drop the rank by two")

    dims = {
        "g": semicenter_dims(g, compare_degree),
        "h": semicenter_dims(h, compare_degree),
        "k": semicenter_dims(k, compare_degree),
    }
    notes: list[str] = []
    branches = {H_BRANCH: h, K_BRANCH: k}  # h first: taken if both match
    if rank_k != rank_g:
        del branches[K_BRANCH]
        notes.append("k-branch excluded: rank(k) != rank(g) cannot "
                     "preserve the c-value")
    matches = [b for b in branches if dims[b[0]] == dims["g"]]
    chosen = matches[0] if matches else UNDECIDED
    if len(matches) == 2:
        notes.append("both branches match the semi-center dimensions "
                     f"up to degree {compare_degree}")
    elif not matches:
        notes.append("no branch matches the graded semi-center dimensions; "
                     "raise the comparison degree")

    c_before = c_value(g)
    c_after = c_value(branches[chosen]) if matches else None
    if c_after is not None and c_after != c_before:
        raise InternalCheckError("reduction step must preserve the c-value")

    return ReductionStep(
        algebra=g, semi_invariant=s.poly, weight=chi, h=h,
        h_embedding=tuple(tuple(v) for v in h_vectors), k=k, chosen=chosen,
        rank_g=rank_g, rank_h=rank_h, rank_k=rank_k,
        c_before=c_before, c_after=c_after, semicenter_dims=dims,
        compare_degree=compare_degree, notes=tuple(notes))
