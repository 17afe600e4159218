"""Built-in algebras used throughout the worked examples and tests."""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .lie import LieAlgebra, LieAlgebraError
from .poly import _q
from .record import record


def filiform(n: int) -> LieAlgebra:
    """The standard filiform algebra L(n): [v1, v_i] = v_{i+1}, i = 2..n-1."""
    if n < 3:
        raise LieAlgebraError("filiform L(n) needs n >= 3")
    names = [f"v{i + 1}" for i in range(n)]
    brackets = {(0, i): {i + 1: 1} for i in range(1, n - 1)}
    return LieAlgebra(names, brackets, label=f"L({n})")


def abelian(n: int) -> LieAlgebra:
    if n < 1:
        raise LieAlgebraError("abelian algebra needs n >= 1")
    return LieAlgebra([f"v{i + 1}" for i in range(n)], {}, label=f"abelian({n})")


def panyushev() -> LieAlgebra:
    """Four dimensional solvable algebra with semisimple ad(v1) of weights
    (1, 1, -1); its invariants need degree 2 but its semi-invariants are
    generated in degree 1."""
    brackets = {(0, 1): {1: 1}, (0, 2): {2: 1}, (0, 3): {3: -1}}
    return LieAlgebra(["v1", "v2", "v3", "v4"], brackets, label="panyushev")


def example32() -> LieAlgebra:
    """Three dimensional solvable algebra with a non-semisimple ad(v1):
    [v1,v2] = v2+v3, [v1,v3] = v3.  The smallest case where reduction must
    pass to the nilpotent-part extension rather than the weight kernel."""
    brackets = {(0, 1): {1: 1, 2: 1}, (0, 2): {2: 1}}
    return LieAlgebra(["v1", "v2", "v3"], brackets, label="example32")


def two_dim_nonabelian() -> LieAlgebra:
    return LieAlgebra(["v1", "v2"], {(0, 1): {1: 1}}, label="nonabelian(2)")


def sl2() -> LieAlgebra:
    """sl2 with basis (e, f, h): [e,f] = h, [h,e] = 2e, [h,f] = -2f."""
    brackets = {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}}
    return LieAlgebra(["e", "f", "h"], brackets, label="sl2")


def heisenberg(p: Sequence[Sequence]) -> LieAlgebra:
    """Heisenberg algebra on W (dim m) extended by a derivation t.

    Basis (w_1..w_m, u_1..u_m, c, t) where u_j is dual to w_j; brackets
    [u_i, w_j] = delta_ij c, [t, w_i] = sum_j p_ij w_j and
    [t, u_j] = -sum_i p_ij u_i.
    """
    rows = [[_q(x) for x in row] for row in p]
    m = len(rows)
    if m < 1 or any(len(r) != m for r in rows):
        raise LieAlgebraError("p must be a square matrix")
    names = ([f"w{i + 1}" for i in range(m)]
             + [f"u{i + 1}" for i in range(m)] + ["c", "t"])
    n = 2 * m + 2
    c_idx, t_idx = n - 2, n - 1
    brackets: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i in range(m):
        # (w_i, u_i) pair: [w_i, u_i] = -[u_i, w_i] = -c
        brackets[(i, m + i)] = {c_idx: Fraction(-1)}
    for i in range(m):
        coeffs = {j: rows[i][j] for j in range(m) if rows[i][j] != 0}
        if coeffs:
            # [w_i, t] = -p(w_i)
            brackets[(i, t_idx)] = {j: -c for j, c in coeffs.items()}
    for j in range(m):
        coeffs = {m + i: rows[i][j] for i in range(m) if rows[i][j] != 0}
        if coeffs:
            # [u_j, t] = p*(u_j)
            brackets[(m + j, t_idx)] = coeffs
    label = "heisenberg(" + ";".join(
        ",".join(str(x) for x in row) for row in rows) + ")"
    return LieAlgebra(names, brackets, label=label)


def _parse_matrix(param: str) -> list[list[int | Fraction]]:
    try:
        return [[_q(x) for x in row.split(",")]
                for row in param.split(";")]
    except (ValueError, ZeroDivisionError) as exc:
        raise LieAlgebraError(f"bad matrix parameter {param!r}: {exc}")


def _need_int(param: str | None, what: str) -> int:
    if param is None:
        raise LieAlgebraError(f"{what} needs an integer parameter, e.g. {what}:4")
    # plain decimal digits; int() alone would also take " 5", "+5", "0_5"
    # and non-ASCII digits
    if not (param.isascii() and param.isdigit()):
        raise LieAlgebraError(f"bad integer parameter {param!r}")
    return int(param)


@record
class CatalogEntry:
    key: str
    summary: str
    parameter: str | None
    build: Callable[[str | None], LieAlgebra]


CATALOG: list[CatalogEntry] = [
    CatalogEntry("L", "standard filiform L(n), n >= 3", "n",
                 lambda p: filiform(_need_int(p, "L"))),
    CatalogEntry("abelian", "abelian algebra of dimension n", "n",
                 lambda p: abelian(_need_int(p, "abelian"))),
    CatalogEntry("panyushev",
                 "dim 4, weights (1,1,-1): invariant degree sum exceeds the "
                 "semi-invariant one", None,
                 lambda p: panyushev()),
    CatalogEntry("example32",
                 "dim 3 solvable, [v1,v2]=v2+v3, [v1,v3]=v3; reduction picks "
                 "the nilpotent-part branch", None,
                 lambda p: example32()),
    CatalogEntry("nonabelian2", "the two dimensional non-abelian algebra", None,
                 lambda p: two_dim_nonabelian()),
    CatalogEntry("sl2", "sl2 with basis (e, f, h)", None, lambda p: sl2()),
    CatalogEntry("heisenberg",
                 "Heisenberg algebra on W plus a derivation t; parameter is "
                 "the matrix of t on W, rows ';'-separated "
                 "(default 0,1;0,0)", "p-matrix",
                 lambda p: heisenberg(_parse_matrix(p) if p else [[0, 1], [0, 0]])),
]


def build_catalog_algebra(spec: str) -> LieAlgebra:
    """Build from a ``name`` or ``name:param`` catalog spec string."""
    key, colon, param = spec.partition(":")
    for entry in CATALOG:
        if entry.key == key:
            if colon and entry.parameter is None:
                raise LieAlgebraError(f"{key!r} takes no parameter")
            return entry.build(param if param else None)
    known = ", ".join(e.key for e in CATALOG)
    raise LieAlgebraError(f"unknown catalog entry {key!r} (known: {known})")
