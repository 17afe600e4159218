"""Lie algebras from structure constants.

Brackets are stored only for i < j, so antisymmetry holds by
construction; one private reader gives [v_i, v_j] for any pair, and
every reader of single entries goes through it, from the Jacobi check
that runs when an algebra is built to the images [x, v_j] as {k: c}
(``bracket_images``).  Two readers of the whole table apply the sign
rule themselves (``_bracket_terms`` names them).  No reader solves for
the centre: dim Z(g) is the number of degree-one invariant generators
(``kernel.evaluate_criteria``).
All linear data lives over exact rationals, each value an ``int`` when
it is integral (see ``poly._q``).
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from . import linalg
from .linalg import (InternalCheckError, Mat, Vec, mat, mat_eq_zero, mat_mul,
                     mat_sub, rref)
from .poly import Polynomial, _q, apply_derivation
from .record import record


# the bracket of a pair the table leaves out; shared, so never changed
_NO_TERMS: Mapping[int, Fraction] = {}


class LieAlgebraError(ValueError):
    pass


class JacobiViolationError(LieAlgebraError):
    """Raised when a structure-constant table violates the Jacobi identity.

    Indices are 1-based to match the input format; ``residual`` is the
    coordinate vector of [vi,[vj,vk]] + [vj,[vk,vi]] + [vk,[vi,vj]].
    """

    def __init__(self, i: int, j: int, k: int, residual: Vec):
        self.indices = (i, j, k)
        self.residual = residual
        # each entry in the p/q text form of the reports
        text = ", ".join(str(x) for x in residual)
        super().__init__(
            f"Jacobi identity fails on (v{i}, v{j}, v{k}); residual [{text}]")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict, refused if a key repeats: ``json`` alone
    would keep the last value and drop the others unseen."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"repeated key {key!r}")
        data[key] = value
    return data


class LieAlgebra:
    """A finite dimensional Lie algebra with a named basis.

    ``brackets`` maps (i, j) with 0 <= i < j < dim to a coefficient
    dict {k: exact rational}, keys ascending, describing
    [v_i, v_j] = sum_k c_k v_k.  An algebra is never changed after
    construction, so the data derived from it is computed once, on
    first use, and kept (see ``cached``).
    """

    def __init__(self, names: Sequence[str],
                 brackets: Mapping[tuple[int, int], Mapping[int, object]],
                 label: str | None = None):
        names = tuple(str(x) for x in names)
        if not names:
            raise LieAlgebraError("need at least one basis vector")
        if len(set(names)) != len(names):
            raise LieAlgebraError("basis names must be distinct")
        for name in names:
            # must survive the polynomial text form round trip
            if not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", name):
                raise LieAlgebraError(f"basis name {name!r} is not an identifier")
        n = len(names)
        table: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j), coeffs in brackets.items():
            if not (0 <= i < j < n):
                raise LieAlgebraError(
                    f"bracket key ({i}, {j}) must satisfy 0 <= i < j < {n}")
            row = {}
            for k, c in coeffs.items():
                if not 0 <= k < n:
                    raise LieAlgebraError(f"bracket target index {k} out of range")
                c = _q(c)
                if c != 0:
                    row[k] = c
            if row:
                table[(i, j)] = dict(sorted(row.items()))
        self.names = names
        self.dim = n
        self.brackets = table
        self.label = label or "lie-algebra"
        self._cache: dict = {}
        self._check_jacobi()

    def cached(self, key, compute: Callable[[], object]):
        """``compute()``, run on the first request for ``key`` and kept
        for the life of this algebra; the one memo of derived data."""
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    # -- basic structure -----------------------------------------------------

    def _bracket_terms(self, i: int, j: int) -> Mapping[int, Fraction]:
        """[v_i, v_j] as {k: c}, keys ascending: row (i, j) of the table
        itself when i < j, and row (j, i) negated otherwise; callers only
        read what it returns.  Every reader of single entries applies
        the sign rule of the i < j table through it.  Two readers of the
        whole table negate rows themselves: ``_structure_matrix``, once
        per entry pair, and ``invariants.verify_semi_invariant``, which
        scales the whole table to integers in one pass.  The centre has
        no reader of its own: its dimension is the number of degree-one
        invariant generators."""
        if i < j:
            return self.brackets.get((i, j), _NO_TERMS)
        return {k: -c for k, c in self.brackets.get((j, i), _NO_TERMS).items()}

    def bracket_basis(self, i: int, j: int) -> Vec:
        """[v_i, v_j] as a coordinate vector, for any i, j."""
        out = [0] * self.dim
        for k, c in self._bracket_terms(i, j).items():
            out[k] = c
        return out

    def bracket(self, x: Sequence, y: Sequence) -> Vec:
        """Bilinear extension of the bracket: sum_j y_j [x, v_j]."""
        out = [0] * self.dim
        for b, image in zip(y, self.bracket_images(x)):
            b = _q(b)
            if b:
                for k, c in image.items():
                    out[k] += b * c
        return out

    def _check_jacobi(self):
        """The Jacobi identity on each triple i < j < k, term by term."""
        n = self.dim
        terms = self._bracket_terms
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    residual = [0] * n
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        for m, s in terms(b, c).items():
                            for t, u in terms(a, m).items():
                                residual[t] += s * u
                    if any(residual):
                        raise JacobiViolationError(i + 1, j + 1, k + 1, residual)

    def ad_matrix(self, i: int) -> Mat:
        """Matrix of ad(v_i) on degree one: column j = [v_i, v_j]."""
        out = [[0] * self.dim for _ in range(self.dim)]
        for j in range(self.dim):
            for k, c in self._bracket_terms(i, j).items():
                out[k][j] = c
        return out

    def bracket_images(self, x: Sequence) -> list[Mapping[int, Fraction]]:
        """[x, v_j] as {k: coefficient of v_k}, keys ascending, one per
        basis vector; callers only read them.  For a basis vector x = v_i,
        image j is the table entry [v_i, v_j] (``_bracket_terms``): row
        (i, j) of the table itself when i < j."""
        nonzero = [i for i, a in enumerate(x) if a]
        n = self.dim
        if len(nonzero) == 1 and x[nonzero[0]] == 1:
            i = nonzero[0]
            return [self._bracket_terms(i, j) for j in range(n)]
        images = []
        support = [(i, _q(x[i])) for i in nonzero]
        for j in range(n):
            acc: dict[int, Fraction] = {}
            for i, a in support:
                for k, v in self._bracket_terms(i, j).items():
                    term = v if a == 1 else a * v
                    acc[k] = acc[k] + term if k in acc else term
            images.append({k: c for k, c in sorted(acc.items()) if c != 0})
        return images

    # -- derived objects -------------------------------------------------------

    def structure_matrix(self) -> "SkewPolyMatrix":
        """The skew matrix of brackets, built once per algebra."""
        return self.cached("structure", self._structure_matrix)

    def _structure_matrix(self) -> "SkewPolyMatrix":
        # one shared zero entry: the matrix lives as long as the algebra
        n = self.dim
        units = [tuple(int(t == k) for t in range(n)) for k in range(n)]
        zero = Polynomial.zero(n)
        entries = [[zero] * n for _ in range(n)]
        for (i, j), row in self.brackets.items():
            entries[i][j] = Polynomial._new(
                n, {units[k]: c for k, c in row.items()})
            entries[j][i] = -entries[i][j]
        return SkewPolyMatrix(n, tuple(tuple(row) for row in entries))

    def derived_subalgebra(self) -> tuple[tuple[Fraction, ...], ...]:
        """[g, g] as its reduced row echelon basis, canonical for the
        span, computed once per algebra."""
        return self.cached("derived", lambda: tuple(map(tuple, rref(
            self.bracket_basis(i, j)
            for i in range(self.dim) for j in range(i + 1, self.dim))[0])))

    @property
    def is_abelian(self) -> bool:
        return not self.brackets

    def is_nilpotent(self) -> bool:
        """Lower central series reaches zero; computed once per algebra."""
        return self.cached("nilpotent", self._lower_central_series_ends)

    def _lower_central_series_ends(self) -> bool:
        current = self.derived_subalgebra()
        while current:
            vectors = []
            for i in range(self.dim):
                ei = [1 if t == i else 0 for t in range(self.dim)]
                for w in current:
                    vectors.append(self.bracket(ei, w))
            nxt = rref(vectors)[0]
            if len(nxt) == len(current):
                return False
            current = nxt
        return True

    def is_perfect(self) -> bool:
        return len(self.derived_subalgebra()) == self.dim

    # -- graded action ----------------------------------------------------------

    def apply_ad(self, x: Sequence, f: Polynomial) -> Polynomial:
        """ad(x) extended as a derivation of the symmetric algebra: the
        derivation x_j -> [x, v_j], with the images read from the bracket
        table (see ``bracket_images``)."""
        return apply_derivation(f, self.bracket_images(x))

    # -- subalgebras -------------------------------------------------------------

    def induced_algebra(self, basis_vectors: Sequence[Sequence],
                        names: Sequence[str], label: str | None = None) -> "LieAlgebra":
        """The Lie algebra structure on the span of independent vectors.

        Raises if the span is not closed under the bracket.
        """
        vecs = [[_q(x) for x in v] for v in basis_vectors]
        m = len(vecs)
        if linalg.rank(vecs) != m:
            raise LieAlgebraError("basis vectors are not independent")
        cols = [[vecs[t][r] for t in range(m)] for r in range(self.dim)]
        table: dict[tuple[int, int], dict[int, Fraction]] = {}
        for i in range(m):
            for j in range(i + 1, m):
                w = self.bracket(vecs[i], vecs[j])
                coords = linalg.solve(cols, w)
                if coords is None:
                    raise LieAlgebraError(
                        "span is not closed under the bracket")
                row = {k: c for k, c in enumerate(coords) if c != 0}
                if row:
                    table[(i, j)] = row
        return LieAlgebra(names, table, label=label)

    # -- serialization -------------------------------------------------------------

    def to_json_dict(self) -> dict:
        entries = []
        for (i, j) in sorted(self.brackets):
            coeffs = {str(k + 1): str(c) for k, c in
                      sorted(self.brackets[(i, j)].items())}
            entries.append({"i": i + 1, "j": j + 1, "coeffs": coeffs})
        return {"name": self.label, "basis": list(self.names),
                "brackets": entries}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "LieAlgebra":
        try:
            names = data["basis"]
            raw = data.get("brackets", [])
            label = data.get("name")
        except (KeyError, TypeError) as exc:
            raise LieAlgebraError(f"malformed algebra description: {exc}")
        if not (isinstance(names, list)
                and all(isinstance(x, str) for x in names)):
            raise LieAlgebraError("basis must be a list of names (strings)")
        if label is not None and not isinstance(label, str):
            raise LieAlgebraError(f"name must be a string, not {label!r}")
        if not isinstance(raw, list):
            raise LieAlgebraError("brackets must be a list")
        table: dict[tuple[int, int], dict[int, Fraction]] = {}
        for entry in raw:
            try:
                i, j, coeffs = entry["i"], entry["j"], entry["coeffs"]
            except (KeyError, TypeError) as exc:
                raise LieAlgebraError(f"malformed bracket entry: {exc}")
            if not all(isinstance(x, int) and not isinstance(x, bool)
                       for x in (i, j)):
                raise LieAlgebraError(
                    f"bracket indices ({i!r}, {j!r}) must be integers")
            if not isinstance(coeffs, Mapping):
                raise LieAlgebraError(
                    f"coeffs of bracket ({i}, {j}) must be an object")
            if not 1 <= i < j <= len(names):
                raise LieAlgebraError(
                    f"bracket indices ({i}, {j}) must satisfy 1 <= i < j <= dim")
            if (i - 1, j - 1) in table:
                raise LieAlgebraError(f"duplicate bracket entry ({i}, {j})")
            row = {}
            for k, c in coeffs.items():
                # keys are plain decimals, as to_json_dict writes them;
                # int() alone would also take " 2" and "+2"
                if not (isinstance(k, str) and re.fullmatch(r"[0-9]+", k)):
                    raise LieAlgebraError(
                        f"bracket ({i}, {j}): key {k!r} is not a basis number")
                try:
                    row[int(k) - 1] = _q(str(c))
                except (ValueError, ZeroDivisionError) as exc:
                    raise LieAlgebraError(
                        f"bracket ({i}, {j}): bad entry {k!r}: {c!r} ({exc})")
            table[(i - 1, j - 1)] = row
        return cls(names, table, label=label)

    @classmethod
    def from_json(cls, text: str) -> "LieAlgebra":
        try:
            # a bare number is kept as written, for the same text gate
            data = json.loads(text, parse_float=str,
                              object_pairs_hook=_unique_keys)
        # a JSONDecodeError, a repeated key, or a number past the int
        # conversion limit
        except ValueError as exc:
            raise LieAlgebraError(f"invalid JSON: {exc}")
        return cls.from_json_dict(data)

    def __repr__(self):
        return f"LieAlgebra({self.label!r}, dim={self.dim})"

    def __eq__(self, other):
        return (isinstance(other, LieAlgebra) and self.names == other.names
                and self.brackets == other.brackets)

    def __hash__(self):
        # over what __eq__ compares; each row's keys are ascending
        return hash((self.names, frozenset(
            (ij, tuple(row.items())) for ij, row in self.brackets.items())))


@record
class SkewPolyMatrix:
    """The structure matrix: entry (i, j) is the bracket [v_i, v_j] as a
    degree-one polynomial.  Skew-symmetric with zero diagonal."""

    size: int
    entries: tuple[tuple[Polynomial, ...], ...]

    def __post_init__(self):
        for i in range(self.size):
            row = self.entries[i]
            if not row[i].is_zero:
                raise ValueError("diagonal must vanish")
            for j in range(i + 1, self.size):
                upper, lower = row[j], self.entries[j][i]
                if not (upper.is_zero and lower.is_zero) and upper != -lower:
                    raise ValueError("matrix must be skew-symmetric")

    def __getitem__(self, ij: tuple[int, int]) -> Polynomial:
        return self.entries[ij[0]][ij[1]]

    def evaluate(self, point: Sequence) -> Mat:
        """The matrix at ``point``, converted once; each nonzero entry
        above the diagonal is evaluated once and the lower triangle is
        its negative."""
        n = self.size
        if len(point) != n:
            raise ValueError("point length does not match ring dimension")
        pt = [_q(x) for x in point]
        out: Mat = [[0] * n for _ in range(n)]
        for i in range(n):
            row = self.entries[i]
            for j in range(i + 1, n):
                if row[j].is_zero:
                    continue
                value = row[j]._value_at(pt)
                out[i][j] = value
                out[j][i] = -value
        return out


def jordan_chevalley(d: Mat) -> tuple[Mat, Mat]:
    """Split a rational square matrix D = D_s + D_p with D_s semisimple,
    D_p nilpotent, both commuting polynomials in D.

    A diagonal D is its own semisimple part, so it is returned as
    ``(D, 0)`` with no characteristic polynomial.  Any other D goes
    through Newton iteration against the squarefree part of the
    characteristic polynomial, and its output through the defining
    checks; all arithmetic stays rational, and the output is in the
    form ``_q`` returns.  The semisimplicity check needs no minimal
    polynomial: that polynomial divides every polynomial annihilating
    D_s and has the roots of charpoly(D_s), so it is square-free, and
    D_s semisimple, exactly when the square-free part of charpoly(D_s)
    annihilates D_s.
    """
    n = len(d)
    if n == 0:
        return [], []
    for row in d:
        if len(row) != n:
            raise ValueError("matrix must be square")
    d = mat(d)
    if all(not d[i][j] for i in range(n) for j in range(n) if i != j):
        return d, [[0] * n for _ in range(n)]
    s = linalg.squarefree_part(linalg.charpoly(d))
    sprime = linalg.derivative(s)
    x = d
    # converges quadratically along the nilpotent filtration
    for _ in range(n.bit_length() + 2):
        sx = linalg.poly_of_matrix(s, x)
        if mat_eq_zero(sx):
            break
        inv = linalg.inverse(linalg.poly_of_matrix(sprime, x))
        x = mat_sub(x, mat_mul(inv, sx))
    else:
        raise InternalCheckError(
            "Jordan-Chevalley iteration failed to converge")
    ds = mat(x)
    dp = mat(mat_sub(d, ds))
    # defining checks: commuting, nilpotent, semisimple
    if not mat_eq_zero(mat_sub(mat_mul(ds, dp), mat_mul(dp, ds))):
        raise InternalCheckError("semisimple and nilpotent parts do not commute")
    power = dp
    for _ in range(n):
        if mat_eq_zero(power):
            break
        power = mat_mul(power, dp)
    if not mat_eq_zero(power):
        raise InternalCheckError("nilpotent part is not nilpotent")
    if not mat_eq_zero(linalg.poly_of_matrix(
            linalg.squarefree_part(linalg.charpoly(ds)), ds)):
        raise InternalCheckError("semisimple part is not semisimple")
    return ds, dp


def is_derivation(g: LieAlgebra, d: Mat) -> bool:
    """Check D[x,y] = [Dx,y] + [x,Dy] on all basis pairs."""
    n = g.dim
    cols = [[d[r][c] for r in range(n)] for c in range(n)]
    for i in range(n):
        ei = [1 if t == i else 0 for t in range(n)]
        for j in range(i + 1, n):
            ej = [1 if t == j else 0 for t in range(n)]
            lhs = linalg.mat_vec(d, g.bracket_basis(i, j))
            rhs1 = g.bracket(cols[i], ej)
            rhs2 = g.bracket(ei, cols[j])
            if any(a != b + c for a, b, c in zip(lhs, rhs1, rhs2)):
                return False
    return True
