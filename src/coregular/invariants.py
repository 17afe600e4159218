"""Graded computation of invariants and proper semi-invariants.

Degree by degree, and in each degree class by class: the diagonal
derivations diag(a) of the basis that vanish on a complement of [g,g]
(``_torus``, computed once per algebra) split the monomials into weight
classes, and every system below lies in one class.  A class's candidate
space is the common kernel of the acting vectors ([g,g]) on it, one
sparse system assembled directly from the brackets; the operators
coming from the complement commute there and are split into joint
eigenspaces with rational eigenvalues.  A complement vector with
[v, v_j] a multiple of v_j for every j, such as the torus of a t x| V or
the H_i of a Borel or seaweed subalgebra, is diagonal on the monomials
with a diagonal in the torus, so its one eigenvalue on a class is read
off any monomial of the class (``_torus_action``).  Any other vector
splits each block through its restricted matrix by one rule
(``_eigenspaces``): the candidates are the sums of its degree-one
spectrum on g, computed once per algebra, one
eigenspace system is solved per candidate until the block is filled,
and a characteristic polynomial is computed only on a shortfall or when
that spectrum is not rational.  Every space is read out of a
free-column basis that already is its canonical echelon basis, and the
canonical basis of a degree's block is the union of its classes' parts.
Every block polynomial is checked against its weight with ``ad(v_i)``
for each basis vector, on integers (``verify_semi_invariant``).  A joint
eigenvalue tuple lam is the weight on the complement coordinates c; at
the pivot p of each row b of the reduced basis of [g,g] the weight is
-sum_c b[c] lam_c.  Weight zero gives the invariants.

Nilpotent algebras admit no proper semi-invariants (all weights vanish)
and perfect ones none either (weights kill [g,g] = g), so for those the
complement is empty and the acting vectors are basis vectors that
generate g as a Lie algebra (``_lie_generators``); ad is a Lie
homomorphism, so the system keeps its solutions and echelon rows.
Every basis vector still checks each block polynomial.

One search, ``graded_semi_invariants``, runs each degree.  The
generators of the semi-invariant and of the invariant algebra are both
read from it (``minimal_generators``), which passes it the leading
monomials of the products of the lower generators, read in the walk
that groups those products by class and weight (``_class_exponents``).
A class whose products of lower generators fill its semi-invariants is
decided with no elimination (``_classes``): the distinct leading
monomials of the products and the distinct least keys of the class's
rows, both read with nothing built, number its monomials.  The scan
and the class systems key each row by one integer code (``_moves``).
The search holds each generator once, as the primitive integer
multiple of its echelon row (``_integer_multiple``), so its products
multiply ints; a generator is made monic only in the ``GeneratorSet``
that ``minimal_generators`` returns.

``generic_rank`` is the one rank over Q(x): seeded point ranks, and
Bareiss elimination only when they fall short of a proven bound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations_with_replacement
from math import lcm
from operator import mul
from typing import Callable, Iterable, Sequence

from . import linalg
from .grobner import (BudgetExceededError, GroebnerBasis, Ideal, buchberger,
                      ideal_membership)
from .lie import LieAlgebra
from .linalg import InternalCheckError, SparseEchelon, kernel_of_columns
from .pfaffian import DEFAULT_PROBE_SEED, index
from .poly import (DEGREVLEX, GRLEX, MonomialOrder, Polynomial, _q,
                   apply_derivation, exact_div,
                   monomials_of_degree)

# seeded points at which a generic rank is tried before Bareiss, and
# the range of their integer coordinates
GENERIC_POINTS = 3
GENERIC_RANGE = 1000
# cap on the formal monomials of one weighted degree of the relation search
RELATION_MONOMIALS = 4000


@dataclass(frozen=True)
class WeightVector:
    """A linear functional on the algebra, given by its values on the basis.

    Weights of semi-invariants always vanish on the derived subalgebra.
    """

    values: tuple[Fraction, ...]

    @classmethod
    def of(cls, values) -> "WeightVector":
        return cls(tuple(_q(x) for x in values))

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)


@dataclass(frozen=True)
class SemiInvariant:
    poly: Polynomial
    weight: WeightVector
    degree: int


# weight blocks, each with the canonical echelon basis of its space
Blocks = tuple[tuple[WeightVector, tuple[Polynomial, ...]], ...]


@dataclass(frozen=True)
class GradedSemiInvariants:
    """Semi-invariant spaces of one degree, class by class.

    ``filled`` maps the key of each D-weight class (``_class_codes``)
    that the products with the given leading monomials fill to its
    dimension.  ``searched`` holds every other class that is not empty,
    with its weight blocks.  ``blocks``, merged when first read, joins
    the searched classes' blocks by weight, weight zero (the invariants)
    first; each block's basis is the canonical echelon basis of its
    space, leading monomials descending.

    ``irrational_flag`` is set when some restricted operator had a
    characteristic factor without rational roots, i.e. semi-invariants
    with irrational weights may exist but are not reported.
    """

    degree: int
    order: MonomialOrder
    filled: dict[int, int]
    searched: tuple[tuple[int, Blocks], ...]
    irrational_flag: bool

    @cached_property
    def blocks(self) -> Blocks:
        # a reduced echelon basis over disjoint sets of monomials is the
        # union of the parts' bases
        merged: dict[WeightVector, list] = {}
        for _, blocks in self.searched:
            for w, basis in blocks:
                merged.setdefault(w, []).append(basis)
        order = self.order
        blocks = [(w, parts[0] if len(parts) == 1 else tuple(sorted(
            chain(*parts), reverse=True,
            key=lambda f: order.key(f.leading_monomial(order)))))
            for w, parts in merged.items()]
        blocks.sort(key=lambda bw: (not bw[0].is_zero, bw[0].values))
        return tuple(blocks)

    def total_dim(self) -> int:
        return sum(self.filled.values()) + sum(
            len(basis) for _, blocks in self.searched for _, basis in blocks)


@dataclass(frozen=True)
class GeneratorSet:
    algebra: LieAlgebra
    degree_bound: int
    generators: tuple[SemiInvariant, ...]
    irrational_degrees: tuple[int, ...]

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(s.degree for s in self.generators)

    def degree_sum(self) -> int:
        return sum(self.degrees)

    def has_proper(self) -> bool:
        return any(not s.weight.is_zero for s in self.generators)

    @cached_property
    def jacobian_rank(self) -> int:
        """Rank of the generators' Jacobian over the fraction field,
        computed once per set, at most index g for invariants; the
        generators are independent iff it equals their count."""
        if not self.generators:
            return 0
        bound = None if self.has_proper() else index(self.algebra)
        return algebraically_independent(
            [s.poly for s in self.generators], self.algebra.dim, bound)[1]


@dataclass(frozen=True)
class Relation:
    """A weighted-homogeneous polynomial in formal generator symbols that
    expands to zero when the generators are substituted."""

    poly: Polynomial
    weighted_degree: int


def verify_semi_invariant(g: LieAlgebra, f: Polynomial, w: WeightVector) -> bool:
    """Exact check that f is a nonzero semi-invariant of weight w: f is
    not zero and ad(v_i)(f) = w_i * f for every basis vector v_i.  A
    weight or a polynomial of another dimension raises ``ValueError``.

    A weight that does not vanish on [g, g] fails the identity, since
    for f nonzero w([x, y]) f = [ad(x), ad(y)](f) = 0.

    The identity is checked on integers: on D f, with D the lcm of the
    denominators of f, and with the bracket constants and w scaled by
    the lcm of theirs, which multiplies both of its sides alike.  The
    images [v_i, v_j] of all basis vectors come from one pass over the
    bracket table, which scales each row once and negates it here for
    [v_j, v_i]: read through ``LieAlgebra._bracket_terms``, each
    negated row would be built unscaled and then scaled again."""
    n = g.dim
    if len(w.values) != n or f.nvars != n:
        raise ValueError("the weight or the polynomial is of another algebra")
    if f.is_zero:
        return False
    scale = lcm(*(c.denominator for row in g.brackets.values()
                  for c in row.values()),
                *(c.denominator for c in w.values))
    images = [[{}] * n for _ in range(n)]
    for (i, j), row in g.brackets.items():
        if scale != 1:
            row = {k: int(c * scale) for k, c in row.items()}
        images[i][j] = row
        images[j][i] = {k: -c for k, c in row.items()}
    f = _integer_multiple(f)
    for row, c in zip(images, w.values):
        image = apply_derivation(f, row)
        c = int(c * scale)
        if not (image == f * c if c else image.is_zero):
            return False
    return True


def _integer_multiple(f: Polynomial) -> Polynomial:
    """f times the lcm of the denominators of its coefficients: the
    primitive integer multiple of f when f is monic."""
    return Polynomial._new(f.nvars, linalg._integral(f.terms))


# ---------------------------------------------------------------------------
# graded search
# ---------------------------------------------------------------------------

def _combine(pairs: Iterable[tuple[int, Fraction]],
             polys: Sequence[Polynomial], nvars: int) -> Polynomial:
    """sum c * polys[j] over the (j, c) pairs."""
    acc = Polynomial.zero(nvars)
    for j, c in pairs:
        if c:
            acc = acc + polys[j] * c
    return acc


def _moves(images: Sequence[Sequence[dict]], monos: Sequence
           ) -> tuple[list[int], list[tuple]]:
    """The place values (d + 1)^v of the code sum_v m_v (d + 1)^v of a
    monomial m of ``monos``, of degree d in n variables, and the moves
    of the vectors v_i whose images [v_i, v_j] as {k: c} are ``images``:
    (j, step, c) for each term c x_k of [v_i, v_j], with step =
    i (d + 1)^n + (d + 1)^k - (d + 1)^j.  ad(v_i) takes m, with m_j > 0,
    to m_j c m x_k / x_j, and the row of it is keyed code(m) + step: the
    code of m x_k / x_j shifted past all the codes i times."""
    n, degree = len(monos[0]), sum(monos[0])
    powers = [(degree + 1) ** v for v in range(n)]
    return powers, [(j, i * (degree + 1) ** n + powers[k] - powers[j], c)
                    for i, vector_images in enumerate(images)
                    for j, image in enumerate(vector_images)
                    for k, c in image.items()]


def _ad_equations(images: Sequence[Sequence[dict]], monos: Sequence
                  ) -> Iterable[dict]:
    """The system ad(v)(f) = 0 on the span of ``monos``, for the vectors
    v whose images [v, v_j] as {k: c} (``bracket_images``) are
    ``images``, as sparse rows, one per v and image monomial, unsorted;
    unknown t is the coefficient of ``monos[t]``, and each move
    (j, step, c) (``_moves``) adds m_j c to row code(m) + step."""
    powers, moves = _moves(images, monos)
    rows: dict = {}
    for t, m in enumerate(monos):
        code = sum(map(mul, m, powers))
        for j, step, c in moves:
            e = m[j]
            if e:
                row = rows.setdefault(code + step, {})
                row[t] = row.get(t, 0) + e * c
    return rows.values()


def _kernel_basis(nvars: int, monos: Sequence, space: linalg.SolutionSpace
                  ) -> list[Polynomial]:
    """The solutions of a system in the unknowns ``monos``, ascending
    under a monomial order, as polynomials: the free column of each
    basis vector is its leading monomial, with coefficient 1, so the
    reversed free-column basis is the reduced echelon basis."""
    return [Polynomial._new(nvars, {monos[t]: c for t, c in vec.items()})
            for vec in reversed(space.basis())]


def _coordinates(space: list[Polynomial], pivots: list, vec: Polynomial
                 ) -> list[Fraction]:
    coords = [vec.terms.get(p, 0) for p in pivots]
    if vec != _combine(enumerate(coords), space, vec.nvars):
        raise InternalCheckError("vector left the subspace")
    return coords


def _restricted_matrix(g: LieAlgebra, v: Sequence, space: list[Polynomial],
                       order: MonomialOrder) -> linalg.Mat:
    """Matrix of ad(v) restricted to an invariant subspace (columns are
    images in the echelon coordinates of ``space``)."""
    pivots = [f.leading_monomial(order) for f in space]
    cols = [_coordinates(space, pivots, g.apply_ad(v, f)) for f in space]
    k = len(space)
    return [[cols[j][i] for j in range(k)] for i in range(k)]


def _weight(g: LieAlgebra, complement: Sequence[int], pivots: Sequence[int],
            eigenvalues: Sequence[Fraction]) -> WeightVector:
    """The functional vanishing on [g,g] with the given values on the
    complement coordinates, read off the reduced basis of [g,g], whose
    row r has its pivot at ``pivots[r]``."""
    values = [0] * g.dim
    for c, lam in zip(complement, eigenvalues):
        values[c] = lam
    for p, b in zip(pivots, g.derived_subalgebra().basis):
        values[p] = -sum(b[c] * values[c] for c in complement)
    return WeightVector(tuple(values))


def _eigenvalue_candidates(g: LieAlgebra, idx: int, degree: int
                           ) -> list[Fraction] | None:
    """Every eigenvalue ad(v_idx) can have on the degree-``degree``
    polynomials, ascending, or None if its spectrum on g is not rational.

    The derivation's eigenvalues on S^d(g) are the sums of d eigenvalues
    on g, so a rational degree-one spectrum gives a complete finite set.
    The spectrum on g is computed once per algebra and vector.
    """
    roots, residual = g.cached(
        ("spectrum", idx),
        lambda: linalg.rational_roots(linalg.charpoly(g.ad_matrix(idx))))
    if residual:
        return None
    return sorted({sum(combo) for combo in
                   combinations_with_replacement([r for r, _ in roots],
                                                 degree)})


def _split(m: linalg.Mat, eigenvalues: Iterable[Fraction]
           ) -> tuple[list[tuple[Fraction, list[dict]]], int]:
    """The nonzero eigenspaces of ``m`` for the distinct ``eigenvalues``,
    in their order, each as its free-column basis, and the sum of their
    dimensions; stops once that sum is the size of ``m``."""
    k = len(m)
    # the off-diagonal entries of each row, sparse
    off = [{j: x for j, x in enumerate(row) if x and j != t}
           for t, row in enumerate(m)]
    spaces = []
    found = 0
    for lam in eigenvalues:
        if found == k:
            break
        space = linalg.SolutionSpace(
            ({**row, t: m[t][t] - lam} for t, row in enumerate(off)), k)
        if space.dim:
            spaces.append((lam, space.basis()))
            found += space.dim
    return spaces, found


def _eigenspaces(m: linalg.Mat, candidates: list[Fraction] | None
                 ) -> tuple[list[tuple[Fraction, list[dict]]], bool]:
    """The eigenspaces of ``m`` with rational eigenvalues, eigenvalues
    ascending, each as its free-column basis, and whether ``m`` has an
    eigenvalue that is not rational.

    ``candidates`` is an ascending set that holds every eigenvalue of
    ``m`` (``_eigenvalue_candidates``), or None when there is none.  One
    eigenspace system per candidate is solved, until their dimensions
    sum to the size of ``m``: eigenspaces of distinct eigenvalues are
    independent, so ``m`` is then diagonalizable with every eigenvalue
    found.  The characteristic polynomial is computed only on a
    shortfall (``m`` not diagonalizable, or a candidate missing), where
    ``InternalCheckError`` is raised unless all of its roots are
    rational and candidates, or when there are no candidates, where its
    rational roots are the eigenvalues."""
    if candidates is None:
        roots, residual = linalg.rational_roots(linalg.charpoly(m))
        return _split(m, [lam for lam, _ in roots])[0], residual > 0
    spaces, found = _split(m, candidates)
    if found < len(m):
        roots, residual = linalg.rational_roots(linalg.charpoly(m))
        if residual or any(lam not in candidates for lam, _ in roots):
            raise InternalCheckError(
                "an eigenvalue lies outside the complete candidate set")
    return spaces, False


def _torus_action(g: LieAlgebra, idx: int
                  ) -> list[tuple[int, Fraction]] | None:
    """The pairs (j, c), c nonzero, with [v_idx, v_j] = c v_j, read from
    the bracket table, when every [v_idx, v_j] is a multiple of v_j;
    else None.  ad(v_idx) is then diagonal on the monomials of S(g):
    x^e has the eigenvalue sum_j e_j c_j."""
    pairs = []
    for j in range(g.dim):
        terms = g._bracket_terms(idx, j)
        if any(k != j for k in terms):
            return None
        if terms:
            pairs.append((j, terms[j]))
    return pairs


def _lie_generators(g: LieAlgebra) -> list[list[int]]:
    """Basis vectors that generate g as a Lie algebra.  Those off the
    pivots of [g,g] come first: each is needed, and they generate g when
    it is nilpotent, which then keeps just them.  Otherwise each other
    v_i is kept unless the subalgebra generated by those kept already
    holds it."""
    n = g.dim
    basis = [[int(t == i) for t in range(n)] for i in range(n)]
    pivots = [next(i for i, x in enumerate(b) if x)
              for b in g.derived_subalgebra().basis]
    if g.is_nilpotent():
        return [basis[i] for i in range(n) if i not in pivots]
    span = SparseEchelon()
    elements: list = []
    kept = []
    for i in [i for i in range(n) if i not in pivots] + pivots:
        if not span.reduce(dict(enumerate(basis[i]))):
            continue
        kept.append(basis[i])
        queue = [basis[i]]
        while queue:
            x = queue.pop()
            if span.add(dict(enumerate(x))) is not None:
                elements.append(x)
                queue += [g.bracket(x, y) for y in elements]
    return kept


def structural_no_proper_reason(g: LieAlgebra) -> str | None:
    """A structure-level certificate that no proper semi-invariant exists:
    nilpotency forces all weights to vanish, and a perfect algebra leaves
    no room for a nonzero weight."""
    if g.is_nilpotent():
        return "nilpotent"
    if g.is_perfect():
        return "perfect"
    return None


def _acting(g: LieAlgebra) -> tuple[list, list[int], list[int]]:
    """The acting vectors of the graded search, the complement
    coordinates split off after it, and the pivots of the reduced basis
    of [g,g]: for a nilpotent or perfect algebra ``_lie_generators`` and
    no complement, and else that basis and the coordinates off its
    pivots."""
    derived = g.derived_subalgebra()
    pivots = [next(i for i, x in enumerate(b) if x) for b in derived.basis]
    if structural_no_proper_reason(g):
        return _lie_generators(g), [], pivots
    return derived.basis, [i for i in range(g.dim) if i not in pivots], pivots


def _torus(g: LieAlgebra) -> list[list[int]]:
    """An integer basis, computed once per algebra, of the diagonal
    derivations D = diag(a) of the basis (a_i + a_j = a_k for each
    nonzero c_ij^k) with a_c = 0 on the complement coordinates of
    ``_acting``, so that ad(v_c) keeps each D-weight class of monomials.
    Each acting vector must be D-homogeneous, or ``InternalCheckError``
    is raised: ad of one of D-weight b takes class c to c + b, so each
    row of a common-kernel system lies in one class."""
    def compute() -> list[list[int]]:
        n = g.dim
        vectors, complement, _ = _acting(g)
        rows = {((c, 1),) for c in complement}
        for (i, j), row in g.brackets.items():
            for k in row:
                eq = {i: 1, j: 1}
                eq[k] = eq.get(k, 0) - 1
                rows.add(tuple((t, x) for t, x in eq.items() if x))
        torus = []
        for a in linalg.SolutionSpace(map(dict, rows), n).basis():
            a = linalg._integral(a)
            torus.append([a.get(t, 0) for t in range(n)])
        for v in vectors:
            support = [i for i, x in enumerate(v) if x]
            if any(a[i] != a[support[0]] for a in torus for i in support):
                raise InternalCheckError(
                    "an acting vector is not homogeneous under the torus")
        return torus
    return g.cached("torus", compute)


def _class_codes(g: LieAlgebra, degree: int) -> list[int]:
    """Integers c_j such that two degree-``degree`` monomials m lie in
    one D-weight class exactly when their keys sum_j m_j c_j are equal:
    the D-weights of the basis vectors (``_torus``) read as digits in a
    base that no difference of two such classes reaches.  All zero for
    a torus of dimension 0, which leaves one class."""
    codes = [0] * g.dim
    torus = _torus(g)
    if torus:
        base = 1 + 2 * degree * max(map(abs, chain(*torus)))
        for t, a in enumerate(torus):
            codes = [c + x * base ** t for c, x in zip(codes, a)]
    return codes


def _classes(images: Sequence[Sequence[dict]], monos: Sequence,
             codes: Sequence[int], leads: set[int]
             ) -> tuple[dict[int, int], dict[int, int], dict[int, list]]:
    """The numbers of ``leads`` and of free monomials, the least key of
    no row, in each D-weight class of ``monos`` (ascending), by key
    (``_class_codes``), and the open classes, which products with those
    distinct leading monomials may not fill, each with its monomials
    ascending.  Decided in one ascending scan of the
    distinct least keys of the rows of ``_ad_equations(images, monos)``,
    with no row built.  ``leads`` holds codes (``_moves``,
    ``_class_exponents``).

    Rows with distinct least keys are independent, and so are products
    with distinct leading monomials.  Each row lies in one class, so
    with P_c such keys and L_c such monomials in class c,
    L_c <= dim_c <= |c| - P_c, and |c| - P_c = L_c proves that the
    products fill c.  A least key is a pivot of the system's echelon
    and a kernel vector's leading monomial a free column, so a lead
    that is a least key raises ``InternalCheckError``.

    A move with k != j (a step that is no multiple of (d + 1)^n) puts
    the single term m_j c in its row: it never cancels.  The moves with
    k = j of one vector all put their terms in the row of m itself, so
    their sum is computed exactly.  The unknowns are scanned ascending,
    so one is the least key of the rows it is the first to reach.  A
    class with no free monomial is empty, and one with no least key has
    no row."""
    powers, table = _moves(images, monos)
    top = powers[-1] * (sum(monos[0]) + 1)
    moves = [(j, step) for j, step, _ in table if step % top]
    diagonals: dict[int, list] = {}
    for j, step, c in table:
        if not step % top:
            diagonals.setdefault(step, []).append((j, c))
    room: dict[int, int] = {}
    free: dict[int, int] = {}
    members: dict[int, list] = {}
    rows: set[int] = set()
    add = rows.add
    for m in monos:
        code = sum(map(mul, m, powers))
        key = sum(map(mul, m, codes))
        members.setdefault(key, []).append(m)
        reached = len(rows)
        for j, step in moves:
            if m[j]:
                add(code + step)
        for step, diagonal in diagonals.items():
            if sum(m[j] * c for j, c in diagonal):
                add(code + step)
        if len(rows) > reached:
            if code in leads:
                raise InternalCheckError(
                    "a product's leading monomial is a least key of the "
                    "common-kernel system")
        else:
            free[key] = free.get(key, 0) + 1
            if code in leads:
                room[key] = room.get(key, 0) + 1
    return room, free, {key: members[key] for key, k in free.items()
                        if k > room.get(key, 0)}


def graded_semi_invariants(g: LieAlgebra, degree: int,
                           order: MonomialOrder = DEGREVLEX, *,
                           leads: set[int] | frozenset[int] = frozenset()
                           ) -> GradedSemiInvariants:
    """The degree-``degree`` semi-invariants class by class (``_classes``,
    keyed by ``_class_codes``): the classes that products with the
    distinct leading monomials ``leads`` (codes, ``_class_exponents``)
    fill, each with its dimension, its number of leads; and every other
    class that is not empty, with its weight blocks.

    An open class eliminates only its own rows, if it has any, and is
    filled when its dimension is its number of leads.  Otherwise its basis
    (``_kernel_basis``) is split by the complement vectors, which keep
    the class.  One diagonal on the monomials (``_torus_action``) has one
    eigenvalue on the class, sum_j m_j c_j for any monomial m of it: its
    diagonal c is a derivation, vanishes on the complement coordinates
    ([v_c, v_c'] lies in [g,g] and v_c' does not), so lies in the span of
    ``_torus``, under which a class has one weight.  Any other splits
    each block by ``_eigenspaces`` on the restricted matrix of the block
    with its leading monomials ascending, so each eigenspace is a
    reversed free-column basis.  Every block polynomial is checked with
    ``verify_semi_invariant``."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    n = g.dim
    vectors, complement, pivots = _acting(g)
    images = [g.bracket_images(v) for v in vectors]
    room, free, classes = _classes(
        images, monomials_of_degree(n, degree, order)[::-1],
        _class_codes(g, degree), leads)
    filled = {key: count for key, count in room.items() if key not in classes}
    searched = []
    splits = None
    flag = False
    for key, monos in classes.items():
        count = room.get(key, 0)
        if free.get(key, 0) == len(monos):
            # no row lies in the class: its monomials span its kernel
            basis = [Polynomial._new(n, {m: 1}) for m in reversed(monos)]
        else:
            space = linalg.SolutionSpace(_ad_equations(images, monos),
                                         len(monos))
            if space.dim < count:
                raise InternalCheckError(
                    "independent products outnumber the dimension of a class")
            if space.dim == count:
                filled[key] = count
                continue
            basis = _kernel_basis(n, monos, space)
        if splits is None:
            # each complement vector's action, or candidate eigenvalues
            splits = []
            for idx in complement:
                action = _torus_action(g, idx)
                splits.append((idx, action, None if action is not None
                               else _eigenvalue_candidates(g, idx, degree)))
        blocks_raw = [((), basis)]
        for idx, action, candidates in splits:
            if action is not None:
                lam = _q(sum(monos[0][j] * c for j, c in action))
                blocks_raw = [(eigs + (lam,), sub) for eigs, sub in blocks_raw]
                continue
            v = [int(t == idx) for t in range(n)]
            new_blocks = []
            for eigs, sub in blocks_raw:
                ascending = sub[::-1]
                spaces, irrational = _eigenspaces(
                    _restricted_matrix(g, v, ascending, order), candidates)
                flag = flag or irrational
                for lam, basis in spaces:
                    new_blocks.append((eigs + (lam,), [
                        _combine(coords.items(), ascending, n)
                        for coords in reversed(basis)]))
            blocks_raw = new_blocks
        blocks = tuple((_weight(g, complement, pivots, eigs), tuple(sub))
                       for eigs, sub in blocks_raw)
        for w, basis in blocks:
            for f in basis:
                if not verify_semi_invariant(g, f, w):
                    raise InternalCheckError(
                        "graded search produced a non-semi-invariant")
        searched.append((key, blocks))
    return GradedSemiInvariants(degree, order, filled, tuple(searched), flag)


# ---------------------------------------------------------------------------
# minimal generators
# ---------------------------------------------------------------------------

def _exponent_vectors(degrees: Sequence[int], target: int) -> list[tuple[int, ...]]:
    """All exponent tuples e with sum e_i * degrees[i] == target."""
    out: list[tuple[int, ...]] = []

    def rec(i: int, prefix: tuple[int, ...], remaining: int):
        if i == len(degrees):
            if remaining == 0:
                out.append(prefix)
            return
        d = degrees[i]
        for e in range(remaining // d + 1):
            rec(i + 1, prefix + (e,), remaining - e * d)

    rec(0, (), target)
    return out


def _power_products(gens: Sequence[SemiInvariant], nvars: int
                    ) -> Callable[[Sequence[int]], Polynomial]:
    """The map from an exponent tuple e to prod_i gens[i].poly ** e_i,
    caching the powers; ``gens`` may grow between calls."""
    cache: dict[tuple[int, int], Polynomial] = {}

    def product(exps: Sequence[int]) -> Polynomial:
        prod = Polynomial.one(nvars)
        for i, e in enumerate(exps):
            if e:
                if (i, e) not in cache:
                    cache[(i, e)] = gens[i].poly ** e
                prod = prod * cache[(i, e)]
        return prod
    return product


def _class_exponents(gens: Sequence[SemiInvariant], degree: int,
                     codes: Sequence[int], nvars: int, order: MonomialOrder
                     ) -> tuple[dict[int, dict], set[int]]:
    """The exponent tuples e of the degree-``degree`` products of
    ``gens``, by the key of their D-weight class (``_class_codes``) and
    then by the weight values of their product, and the codes (see
    ``_moves``) of the products' distinct leading monomials.  Each
    generator lies in one class, and keys, weights and codes add up in
    a product: a monomial order is multiplicative, so a product's
    leading monomial is the product of its factors', read with no
    product built."""
    powers = [(degree + 1) ** v for v in range(nvars)]
    keys = [sum(map(mul, next(iter(s.poly.terms)), codes)) for s in gens]
    leading = [sum(map(mul, s.poly.leading_monomial(order), powers))
               for s in gens]
    weights = [s.weight.values for s in gens]
    out: dict[int, dict] = {}
    leads: set[int] = set()
    for exps in _exponent_vectors([s.degree for s in gens], degree):
        w = (0,) * nvars
        for e, values in zip(exps, weights):
            if e:
                w = tuple(a + e * b for a, b in zip(w, values))
        out.setdefault(sum(map(mul, exps, keys)), {}).setdefault(
            w, []).append(exps)
        leads.add(sum(map(mul, exps, leading)))
    return out, leads


def _product_block(g: LieAlgebra,
                   product: Callable[[Sequence[int]], Polynomial],
                   exponents: Iterable[Sequence[int]], place: dict,
                   monos: Sequence) -> list[Polynomial]:
    """The echelon basis, leading monomials descending, of the span of
    the weight-zero products ``product(e)``, e in ``exponents``, as the
    echelon stores it, each polynomial primitive and integral and
    checked to be an invariant: the weight-zero block of a class that
    products fill.  ``place`` numbers ``monos``, the degree's monomials
    descending."""
    ech = SparseEchelon()
    for exps in exponents:
        ech.add({place[m]: c for m, c in product(exps).terms.items()})
    block = [Polynomial._new(g.dim, {monos[t]: c
                                     for t, c in ech.rows[p].items()})
             for p in sorted(ech.rows)]
    zero = WeightVector((0,) * g.dim)
    for f in block:
        if not verify_semi_invariant(g, f, zero):
            raise InternalCheckError(
                "a weight-zero product block holds a non-invariant")
    return block


def _new_generators(product: Callable[[Sequence[int]], Polynomial],
                    exponents: dict,
                    blocks: Iterable[tuple[WeightVector, Sequence[Polynomial]]],
                    place: dict, monos: Sequence, degree: int
                    ) -> list[tuple[tuple, SemiInvariant]]:
    """The canonical complement, inside each weight block, of the span
    of the products ``product(e)`` of the same weight w, e in
    ``exponents[w]``, each new generator with its place in the degree's
    output: its block, weight zero first and then by weight, and the
    leading monomial of the block vector it came from, descending.
    Products of weight w are in the block, so once they span it no
    block vector is new and no more of them are built.

    A monomial is keyed by its place in ``monos``, the degree's
    monomials descending, so the pivot of a row (its least key) is its
    leading monomial; the row is monic, and the generator is held as its
    primitive integer multiple (``_integer_multiple``)."""
    new = []
    for w, basis in blocks:
        ech = SparseEchelon()
        for exps in exponents.get(w.values, ()):
            ech.add({place[m]: c for m, c in product(exps).terms.items()})
            if len(ech.rows) == len(basis):
                break
        else:
            vecs = [{place[m]: c for m, c in f.terms.items()} for f in basis]
            for t, row in ech.extend(vecs):
                row = {monos[k]: c for k, c in row.items()}
                new.append(((not w.is_zero, w.values, min(vecs[t])),
                            SemiInvariant(_integer_multiple(Polynomial._new(
                                basis[t].nvars, row)), w, degree)))
    return new


def minimal_generators(g: LieAlgebra, max_degree: int | None = None,
                       order: MonomialOrder = DEGREVLEX
                       ) -> tuple[GeneratorSet, GeneratorSet]:
    """Minimal homogeneous generators of the semi-invariant algebra and of
    the invariant algebra, ``(semi, inv)``, both complete up to
    ``max_degree`` (default dim g).

    In each degree the new semi-invariant generators are a canonical
    complement, inside each weight block, of the span of products of the
    generators already found.  The invariant generators are the same
    complement inside the weight-zero block, taken against products of
    invariant generators only.  Until a proper semi-invariant turns up
    the two complements agree, and without one ``inv is semi``.

    Each degree is searched once, class by class
    (``graded_semi_invariants``), against the distinct leading monomials
    of the products of the lower semi-invariant generators, read in the
    one walk over those products that also groups them by class and
    weight (``_class_exponents``); a degree with no lower generator has
    none.
    Each product lies in one class, in the common kernel of the acting
    vectors.  A class the products fill has no new semi-invariant
    generator and no irrational weight, and its weight-zero block,
    against which new invariant generators are read, is the echelon of
    its weight-zero products (``_product_block``).  Any other class is
    echeloned only against its own products of each weight.  A reduced
    echelon basis over disjoint sets of monomials is the union of the
    parts' bases, so the classes' generators, sorted by block and then by
    the leading monomial of the block vector they came from, are those of
    one search of the whole degree.
    """
    bound = max_degree if max_degree is not None else g.dim
    if bound < 1:
        raise ValueError("degree bound must be >= 1")
    n = g.dim
    # each generator as its primitive integer polynomial, so products
    # multiply ints
    semi: list[SemiInvariant] = []
    inv = semi
    irrational: list[int] = []
    semi_product = inv_product = _power_products(semi, n)
    for d in range(1, bound + 1):
        monos = monomials_of_degree(n, d, order)
        place = {m: t for t, m in enumerate(monos)}
        codes = _class_codes(g, d)
        semi_exps, leads = _class_exponents(semi, d, codes, n, order)
        graded = graded_semi_invariants(g, d, order, leads=leads)
        new, new_inv = [], []
        for key, blocks in graded.searched:
            new += _new_generators(semi_product, semi_exps.get(key, {}),
                                   blocks, place, monos, d)
        if inv is not semi:
            zero = (0,) * n
            zero_blocks = [(key, [(w, b) for w, b in blocks if w.is_zero])
                           for key, blocks in graded.searched]
            zero_blocks += [(key, [(WeightVector(zero), _product_block(
                g, semi_product, products[zero], place, monos))])
                for key, products in semi_exps.items()
                if key in graded.filled and zero in products]
            zero_blocks = [(key, blocks) for key, blocks in zero_blocks
                           if blocks]
            inv_exps = (_class_exponents(inv, d, codes, n, order)[0]
                        if zero_blocks else {})
            for key, blocks in zero_blocks:
                new_inv += _new_generators(
                    inv_product, inv_exps.get(key, {}), blocks, place,
                    monos, d)
        new.sort(key=lambda item: item[0])
        new_inv.sort(key=lambda item: item[0])
        # recorded for ``semicenter_dims``; only an int is kept
        g.cached(("semicenter", d), graded.total_dim)
        if graded.irrational_flag:
            irrational.append(d)
        inv += [s for _, s in new_inv]
        semi += [s for _, s in new]
        if inv is semi and any(not s.weight.is_zero for _, s in new):
            inv = [s for s in semi if s.weight.is_zero]
            inv_product = _power_products(inv, n)

    def monic(gens: list[SemiInvariant]) -> tuple[SemiInvariant, ...]:
        return tuple(SemiInvariant(s.poly.monic(order), s.weight, s.degree)
                     for s in gens)
    semi_set = GeneratorSet(algebra=g, degree_bound=bound,
                            generators=monic(semi),
                            irrational_degrees=tuple(irrational))
    if inv is semi:
        return semi_set, semi_set
    # an irrational weight is never zero, so no invariant is missed
    return semi_set, GeneratorSet(algebra=g, degree_bound=bound,
                                  generators=monic(inv),
                                  irrational_degrees=())


def semicenter_dims(g: LieAlgebra, bound: int) -> tuple[int, ...]:
    """The dimensions of g's semi-invariant spaces of degrees 1..bound.

    A dimension belongs to the algebra, not to a monomial order:
    ``minimal_generators`` records each degree's dimension, from its own
    search or its certificate, under whatever order it ran, and after it
    only a degree it has not recorded is computed here.
    A nilpotent or perfect algebra (such as the h and k of a reduction
    often are) is counted, not searched: its only semi-invariants are
    the invariants, the common kernel of ad(g), whose dimension is read
    off the eliminated system with no basis and no polynomial built; its
    acting vectors are computed once per call, on the first such degree.
    Any other algebra is searched (``graded_semi_invariants``).
    """
    images: list = []

    def count(d: int) -> int:
        if not structural_no_proper_reason(g):
            return graded_semi_invariants(g, d).total_dim()
        if not images:
            images.extend(map(g.bracket_images, _lie_generators(g)))
        # the search would have one block, this system's solutions
        monos = monomials_of_degree(g.dim, d, DEGREVLEX)
        return linalg.SolutionSpace(_ad_equations(images, monos),
                                    len(monos)).dim

    return tuple(g.cached(("semicenter", d), lambda: count(d))
                 for d in range(1, bound + 1))


# ---------------------------------------------------------------------------
# algebraic independence and relations
# ---------------------------------------------------------------------------

def jacobian_matrix(polys: Sequence[Polynomial], nvars: int
                    ) -> list[list[Polynomial]]:
    return [[f.partial_derivative(j) for j in range(nvars)] for f in polys]


def poly_matrix_rank(rows: list[list[Polynomial]]) -> int:
    """Rank over the fraction field by fraction-free (Bareiss) elimination."""
    if not rows:
        return 0
    m = [row[:] for row in rows]
    nrows, ncols = len(m), len(m[0])
    nvars = m[0][0].nvars
    prev = Polynomial.one(nvars)
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if not m[i][c].is_zero), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, nrows):
            for j in range(c + 1, ncols):
                num = m[r][c] * m[i][j] - m[i][c] * m[r][j]
                m[i][j] = exact_div(num, prev)
            m[i][c] = Polynomial.zero(nvars)
        prev = m[r][c]
        r += 1
        if r == nrows:
            break
    return r


def generic_rank(rows: list[list[Polynomial]],
                 rank_bound: int | None = None) -> int:
    """Rank of a polynomial matrix over the fraction field.

    The rank is first tried at a few seeded integer points.  A point
    rank is a lower bound of it, so it is certified once it reaches a
    proven upper bound: the number of rows or of columns, or
    ``rank_bound``.  Only when every point falls short does the
    fraction-free elimination over Q[x] run.  A rank above the bound
    raises ``InternalCheckError``.
    """
    if not rows:
        return 0
    bound = min(len(rows), len(rows[0]))
    if rank_bound is not None:
        bound = min(bound, rank_bound)
    rng = random.Random(DEFAULT_PROBE_SEED)
    best = 0
    for _ in range(GENERIC_POINTS):
        point = [rng.randint(-GENERIC_RANGE, GENERIC_RANGE)
                 for _ in range(rows[0][0].nvars)]
        best = max(best, linalg.rank([[d.evaluate(point) for d in row]
                                      for row in rows]))
        if best >= bound:
            break
    rank = best if best >= bound else poly_matrix_rank(rows)
    if not best <= rank <= bound:
        raise InternalCheckError(
            "the generic rank disagrees with its point ranks or bound")
    return rank


def algebraically_independent(polys: Sequence[Polynomial], nvars: int,
                              rank_bound: int | None = None
                              ) -> tuple[bool, int]:
    """Jacobian-rank test: independent iff rank equals the count.

    The rank is the ``generic_rank`` of the Jacobian; ``rank_bound``
    (index g when every polynomial is an invariant of g) also bounds it.
    Each polynomial is first cleared of denominators
    (``_integer_multiple``), which scales only its row, so the partial
    derivatives and their values at the seeded points are computed on
    integers.
    """
    if not polys:
        raise ValueError("need at least one polynomial")
    rank = generic_rank(
        jacobian_matrix(list(map(_integer_multiple, polys)), nvars),
        rank_bound)
    return rank == len(polys), rank


def find_relations(gens: GeneratorSet, max_weighted_degree: int
                   ) -> list[Relation]:
    """Weighted-homogeneous relations among the generators, up to the
    given weighted degree, each new relation outside the ideal of the
    previous ones."""
    k = len(gens.generators)
    if k == 0:
        return []
    degrees = [s.degree for s in gens.generators]
    product = _power_products(gens.generators, gens.algebra.dim)
    relations: list[Relation] = []
    gb: GroebnerBasis | None = None
    for delta in range(1, max_weighted_degree + 1):
        exps = _exponent_vectors(degrees, delta)
        if len(exps) > RELATION_MONOMIALS:
            raise BudgetExceededError(
                f"{len(exps)} formal monomials at weighted degree {delta} "
                f"exceed the cap {RELATION_MONOMIALS}")
        if len(exps) < 2:
            continue
        for coeffs in kernel_of_columns([product(e).terms for e in exps]):
            formal = Polynomial(k, {exps[t]: c for t, c in coeffs.items()})
            if formal.is_zero:
                continue
            if gb is not None and ideal_membership(formal, gb):
                continue
            formal = formal.monic(GRLEX)
            relations.append(Relation(formal, delta))
            gb = buchberger(Ideal.of(k, [r.poly for r in relations]))
    return relations


# ---------------------------------------------------------------------------
# transcendence-degree consistency and the Gorenstein invariant
# ---------------------------------------------------------------------------

TRDEG_CONSISTENT = "consistent"
TRDEG_DEFICIENT = "deficient"
TRDEG_NOT_APPLICABLE = "not-applicable"


@dataclass(frozen=True)
class TrdegCheck:
    status: str
    rank: int | None
    expected: int
    degree_bound: int


def trdeg_check(gens: GeneratorSet) -> TrdegCheck:
    """Compare the Jacobian rank of the discovered invariants with the
    index of their algebra, dim g - rank(structure matrix), the
    transcendence degree of the invariant field when no proper
    semi-invariants exist."""
    expected = index(gens.algebra)
    if gens.has_proper():
        return TrdegCheck(TRDEG_NOT_APPLICABLE, None, expected,
                          gens.degree_bound)
    # with no proper semi-invariants every generator is an invariant
    rank = gens.jacobian_rank
    if rank > expected:
        raise InternalCheckError(
            "invariant rank exceeded the structural bound")
    status = TRDEG_CONSISTENT if rank == expected else TRDEG_DEFICIENT
    return TrdegCheck(status, rank, expected, gens.degree_bound)


@dataclass(frozen=True)
class GorensteinResult:
    value: int | None
    case: str
    reason: str | None = None

    @property
    def defined(self) -> bool:
        return self.value is not None


def gorenstein_invariant(gens: GeneratorSet,
                         relations: Sequence[Relation]) -> GorensteinResult:
    """Degree sum of the generators minus that of the relations, defined
    for a discovered presentation that is a polynomial ring or a complete
    intersection."""
    polys = [s.poly for s in gens.generators]
    if not polys:
        return GorensteinResult(None, "empty", "no generators found")
    rank = gens.jacobian_rank
    k, s = len(polys), len(relations)
    if s != k - rank:
        return GorensteinResult(
            None, "not-complete-intersection",
            f"{k} generators of rank {rank} with {s} relations")
    value = gens.degree_sum() - sum(r.weighted_degree for r in relations)
    case = "polynomial-ring" if s == 0 else "complete-intersection"
    return GorensteinResult(value, case)
