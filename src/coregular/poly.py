"""Sparse multivariate polynomials with exact rational coefficients.

Monomials are exponent tuples.  A coefficient is exact: an ``int`` when
it is integral and a ``fractions.Fraction`` only while a denominator
remains (``_q`` brings any value to that form, ``_ratio`` divides into
it), so integral data runs on integer arithmetic.  Everything is
immutable after construction and safe to share; all operations return
new objects.
"""

from __future__ import annotations

import re
from bisect import insort
from fractions import Fraction
from functools import cache
from operator import add, sub
from typing import Mapping, Sequence

#: degree of the zero polynomial
MINUS_INFINITY = float("-inf")

Monomial = tuple  # exponent tuple, one entry per ring variable


_RATIONAL_TEXT = re.compile(r"\s*[-+]?(\d+(/\d+|\.\d*)?|\.\d+)\s*", re.ASCII)


def _q(x) -> int | Fraction:
    """x exactly: the ``int`` when x is integral, else a ``Fraction``.
    A ``float`` raises ``TypeError``: its value is binary, not exact.
    Text must be an integer, a decimal or p/q, never with an exponent:
    "1e10000000" alone is a number of ten million digits."""
    if x.__class__ is not int:
        if isinstance(x, float):
            raise TypeError(f"inexact value {x!r}: give an int, a Fraction "
                            "or a string such as '1/10'")
        if isinstance(x, str) and not _RATIONAL_TEXT.fullmatch(x):
            raise ValueError(f"{x!r} is not an integer, a decimal or p/q")
        x = x if isinstance(x, Fraction) else Fraction(x)
        if x.denominator == 1:
            return x.numerator
    return x


def _ratio(a, b) -> int | Fraction:
    """a / b exactly, in the form ``_q`` returns: never a float."""
    if a.__class__ is int and b.__class__ is int and not a % b:
        return a // b
    return _q(Fraction(a, b))


# ---------------------------------------------------------------------------
# monomial helpers
# ---------------------------------------------------------------------------

def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def monomial_divides(a: Monomial, b: Monomial) -> bool:
    """True if a | b, i.e. every exponent of a is <= that of b."""
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a: Monomial, b: Monomial) -> Monomial:
    """a / b; caller guarantees divisibility."""
    return tuple(map(sub, a, b))


def monomial_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def monomial_degree(m: Monomial) -> int:
    return sum(m)


class MonomialOrder:
    """A total order on monomials, usable as a sort key via :meth:`key`.

    Supported kinds: ``degrevlex`` (graded reverse lexicographic, the
    default everywhere), ``grlex`` and ``lex``.
    """

    __slots__ = ("name",)

    _NAMES = ("degrevlex", "grlex", "lex")

    def __init__(self, name: str):
        if name not in self._NAMES:
            raise ValueError(f"unknown monomial order {name!r}")
        self.name = name

    def key(self, m: Monomial):
        if self.name == "lex":
            return m
        if self.name == "grlex":
            return (sum(m), m)
        return (sum(m), tuple(-e for e in reversed(m)))

    def __eq__(self, other):
        return isinstance(other, MonomialOrder) and other.name == self.name

    def __hash__(self):
        return hash(("MonomialOrder", self.name))

    def __repr__(self):
        return f"MonomialOrder({self.name!r})"


DEGREVLEX = MonomialOrder("degrevlex")
GRLEX = MonomialOrder("grlex")
LEX = MonomialOrder("lex")
ORDERS = {o.name: o for o in (DEGREVLEX, GRLEX, LEX)}


@cache
def monomials_of_degree(nvars: int, degree: int,
                        order: MonomialOrder = DEGREVLEX
                        ) -> tuple[Monomial, ...]:
    """All monomials of the given total degree, descending under ``order``;
    computed once per argument triple and shared, hence a tuple.  A
    negative degree raises ``ValueError``, which the memo does not keep.

    Built one variable at a time, already in order, with no sort: a
    lex (or, within one degree, grlex) table puts each new variable
    first, its exponent descending, before a table of the later
    variables; a degrevlex table puts it last, its exponent ascending,
    after a table of the earlier ones.  Each table of the variables so
    far is kept for every degree up to ``degree``, the last for that
    degree only."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    lex = order.name != "degrevlex"
    tables: list[list[Monomial]] = [[()]] + [[] for _ in range(degree)]
    for v in range(nvars):
        low = degree if v == nvars - 1 else 0
        tables[low:] = [
            [(e,) + m for e in range(k, -1, -1) for m in tables[k - e]]
            if lex else
            [m + (e,) for e in range(k + 1) for m in tables[k - e]]
            for k in range(low, degree + 1)]
    return tuple(tables[degree])


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

class Polynomial:
    """Element of Q[x_1, ..., x_n], stored as {exponent tuple: coefficient}."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Monomial, object] | None = None):
        if nvars < 0:
            raise ValueError("ring dimension must be non-negative")
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for m, c in terms.items():
                c = _q(c)
                if c == 0:
                    continue
                m = tuple(m)
                if len(m) != nvars or any(e < 0 or not isinstance(e, int) for e in m):
                    raise ValueError(f"bad monomial {m} for ring dimension {nvars}")
                clean[m] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def _new(cls, nvars: int, terms: dict) -> "Polynomial":
        """Trusted constructor: ``terms`` already clean (no zeros, tuples)."""
        self = object.__new__(cls)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", terms)
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls._new(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c) -> "Polynomial":
        c = _q(c)
        if c == 0:
            return cls.zero(nvars)
        return cls._new(nvars, {(0,) * nvars: c})

    @classmethod
    def one(cls, nvars: int) -> "Polynomial":
        return cls.constant(nvars, 1)

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Polynomial":
        if not 0 <= i < nvars:
            raise IndexError(f"variable index {i} out of range for {nvars} variables")
        m = tuple(1 if j == i else 0 for j in range(nvars))
        return cls._new(nvars, {m: 1})

    # -- predicates / views -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def total_degree(self):
        if not self.terms:
            return MINUS_INFINITY
        return max(sum(m) for m in self.terms)

    def degree_in(self, var: int) -> int:
        if not self.terms:
            return -1
        return max(m[var] for m in self.terms)

    def variables(self) -> set[int]:
        used: set[int] = set()
        for m in self.terms:
            for i, e in enumerate(m):
                if e:
                    used.add(i)
        return used

    def sorted_terms(self, order: MonomialOrder = DEGREVLEX):
        return sorted(self.terms.items(), key=lambda kv: order.key(kv[0]), reverse=True)

    def leading_monomial(self, order: MonomialOrder = DEGREVLEX) -> Monomial:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return max(self.terms, key=order.key)

    def leading_coefficient(self, order: MonomialOrder = DEGREVLEX
                            ) -> int | Fraction:
        return self.terms[self.leading_monomial(order)]

    def monic(self, order: MonomialOrder = DEGREVLEX) -> "Polynomial":
        if self.is_zero:
            return self
        lc = self.leading_coefficient(order)
        if lc == 1:
            return self
        return self._new(self.nvars,
                         {m: _ratio(c, lc) for m, c in self.terms.items()})

    # -- arithmetic ----------------------------------------------------------

    def _check_ring(self, other: "Polynomial"):
        if self.nvars != other.nvars:
            raise ValueError(
                f"ring dimension mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.nvars, other)
        self._check_ring(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, 0) + c
            if s == 0:
                terms.pop(m, None)
            else:
                terms[m] = s
        return self._new(self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return self._new(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(self.nvars, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = _q(other)
            if c == 0:
                return Polynomial.zero(self.nvars)
            return self._new(self.nvars, {m: a * c for m, a in self.terms.items()})
        self._check_ring(other)
        terms: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = monomial_mul(m1, m2)
                s = terms.get(m, 0) + c1 * c2
                if s == 0:
                    terms.pop(m, None)
                else:
                    terms[m] = s
        return self._new(self.nvars, terms)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power")
        result = Polynomial.one(self.nvars)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.nvars == other.nvars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.constant(self.nvars, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def __repr__(self):
        return f"Polynomial({format_polynomial(self)})"

    # -- calculus ------------------------------------------------------------

    def partial_derivative(self, var: int) -> "Polynomial":
        if not 0 <= var < self.nvars:
            raise IndexError(f"variable index {var} out of range")
        terms: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            e = m[var]
            if e == 0:
                continue
            dm = m[:var] + (e - 1,) + m[var + 1:]
            s = terms.get(dm, 0) + c * e
            if s == 0:
                terms.pop(dm, None)
            else:
                terms[dm] = s
        return self._new(self.nvars, terms)

    def evaluate(self, point: Sequence) -> int | Fraction:
        if len(point) != self.nvars:
            raise ValueError("point length does not match ring dimension")
        return self._value_at([_q(x) for x in point])

    def _value_at(self, pt: Sequence) -> int | Fraction:
        """The value at a point whose coordinates are already exact (as
        ``_q`` returns them), so a caller evaluating many polynomials at
        one point converts it once."""
        total = 0
        for m, c in self.terms.items():
            val = c
            for x, e in zip(pt, m):
                if e:
                    val *= x ** e
            total += val
        return _q(total)


def apply_derivation(f: Polynomial,
                     images: Sequence[Mapping[int, Fraction]]) -> Polynomial:
    """Apply to f the derivation D that sends x_j to the linear form
    images[j], given as {k: c} with every c nonzero.

    Each x_j that a term c m of f holds adds e c images[j] m / x_j,
    where e is the exponent of x_j in m; every term goes into one dict.
    """
    active = [(j, list(image.items()))
              for j, image in enumerate(images) if image]
    out: dict[Monomial, Fraction] = {}
    for m, c in f.terms.items():
        for j, image in active:
            e = m[j]
            if not e:
                continue
            ce = c * e
            lowered = m[:j] + (e - 1,) + m[j + 1:]
            for k, v in image:
                mono = lowered[:k] + (lowered[k] + 1,) + lowered[k + 1:]
                s = out.get(mono, 0) + ce * v
                if s:
                    out[mono] = s
                else:
                    del out[mono]
    return Polynomial._new(f.nvars, out)


# ---------------------------------------------------------------------------
# division and gcd
# ---------------------------------------------------------------------------

def divide(f: Polynomial, divisors: Sequence[Polynomial],
           order: MonomialOrder = DEGREVLEX, leads: Sequence | None = None
           ) -> tuple[list[Polynomial], Polynomial]:
    """Multivariate division: f = sum q_i * divisors[i] + r.

    No term of r is divisible by any leading monomial of the divisors.
    ``leads``, when given, holds those leading monomials under ``order``,
    one per divisor, so a caller that divides by the same divisors again
    and again finds them once.  The terms still to divide are kept
    sorted by ``order``: every term a reduction step brings in is below
    the term it removes, so each monomial's order key is computed once,
    when it enters.
    """
    nvars = f.nvars
    key = order.key
    quotients: list[dict[Monomial, Fraction]] = [{} for _ in divisors]
    remainder: dict[Monomial, Fraction] = {}
    if leads is None:
        leads = [g.leading_monomial(order) if g.terms else None
                 for g in divisors]
    lead = [(i, gm, g.terms[gm], g)
            for i, (g, gm) in enumerate(zip(divisors, leads)) if g.terms]
    work = dict(f.terms)
    # ascending, so the leading term is last; an entry whose monomial has
    # left ``work`` is stale and skipped
    pending = sorted((key(m), m) for m in work)
    while pending:
        lm = pending.pop()[1]
        lc = work.pop(lm, None)
        if lc is None:
            continue
        for idx, gm, gc, g in lead:
            if monomial_divides(gm, lm):
                qm, qc = monomial_div(lm, gm), _ratio(lc, gc)
                quotients[idx][qm] = qc
                for m, c in g.terms.items():
                    if m == gm:
                        continue
                    mm = monomial_mul(qm, m)
                    s = work.get(mm, 0) - qc * c
                    if not s:
                        del work[mm]
                        continue
                    if mm not in work:
                        insort(pending, (key(mm), mm))
                    work[mm] = s
                break
        else:
            remainder[lm] = lc
    return ([Polynomial._new(nvars, q) for q in quotients],
            Polynomial._new(nvars, remainder))


def try_exact_div(f: Polynomial, g: Polynomial) -> Polynomial | None:
    """f / g if the division is exact, else None.  One divisor is a
    Groebner basis of its ideal, so the answer does not depend on the
    monomial order of the division."""
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if f.is_zero:
        return Polynomial.zero(f.nvars)
    (q,), r = divide(f, [g])
    if r.is_zero:
        return q
    return None


def exact_div(f: Polynomial, g: Polynomial) -> Polynomial:
    q = try_exact_div(f, g)
    if q is None:
        raise ValueError("polynomial division is not exact")
    return q


def _coefficients_in(f: Polynomial, var: int) -> dict[int, Polynomial]:
    """View f as a univariate polynomial in ``var``: degree -> coefficient."""
    coeffs: dict[int, dict[Monomial, Fraction]] = {}
    for m, c in f.terms.items():
        e = m[var]
        rest = m[:var] + (0,) + m[var + 1:]
        coeffs.setdefault(e, {})[rest] = c
    return {e: Polynomial._new(f.nvars, t) for e, t in coeffs.items()}


def _content(f: Polynomial, var: int) -> Polynomial:
    """Gcd of the coefficients of f viewed as univariate in ``var``."""
    coeffs = list(_coefficients_in(f, var).values())
    g = coeffs[0]
    for c in coeffs[1:]:
        g = _gcd_inner(g, c)
        if g.is_constant:
            break
    return g


def _primitive_part(f: Polynomial, var: int) -> Polynomial:
    if f.is_zero:
        return f
    return exact_div(f, _content(f, var))


def _pseudo_rem(f: Polynomial, g: Polynomial, var: int) -> Polynomial:
    """Pseudo-remainder of f by g with respect to ``var``."""
    dg = g.degree_in(var)
    lc_g = _coefficients_in(g, var)[dg]
    r = f
    while not r.is_zero and r.degree_in(var) >= dg:
        dr = r.degree_in(var)
        lc_r = _coefficients_in(r, var)[dr]
        shift = Polynomial._new(
            f.nvars,
            {tuple(dr - dg if i == var else 0 for i in range(f.nvars)): 1})
        r = lc_g * r - lc_r * shift * g
    return r


def _gcd_inner(a: Polynomial, b: Polynomial) -> Polynomial:
    """Gcd up to a scalar, by primitive remainder sequences."""
    if a.is_zero:
        return b
    if b.is_zero:
        return a
    if a.is_constant or b.is_constant:
        return Polynomial.one(a.nvars)
    shared = a.variables() & b.variables()
    if not shared:
        return Polynomial.one(a.nvars)
    # main variable: lowest maximal degree keeps the recursion shallow
    var = min(shared, key=lambda v: (max(a.degree_in(v), b.degree_in(v)), v))
    ca = _content(a, var)
    cb = _content(b, var)
    cg = _gcd_inner(ca, cb)
    pa = exact_div(a, ca)
    pb = exact_div(b, cb)
    if pa.degree_in(var) < pb.degree_in(var):
        pa, pb = pb, pa
    while not pb.is_zero:
        r = _pseudo_rem(pa, pb, var)
        pa, pb = pb, (_primitive_part(r, var) if not r.is_zero else r)
    return cg * pa


def poly_gcd(a: Polynomial, b: Polynomial,
             order: MonomialOrder = DEGREVLEX) -> Polynomial:
    """Greatest common divisor, normalized monic under ``order``."""
    if a.is_zero and b.is_zero:
        raise ValueError("gcd(0, 0) is undefined")
    if a.nvars != b.nvars:
        raise ValueError("ring dimension mismatch")
    return _gcd_inner(a, b).monic(order)


# ---------------------------------------------------------------------------
# text form
# ---------------------------------------------------------------------------

def default_names(nvars: int) -> list[str]:
    return [f"v{i + 1}" for i in range(nvars)]


def format_polynomial(f: Polynomial, names: Sequence[str] | None = None,
                      order: MonomialOrder = DEGREVLEX) -> str:
    """Canonical text form: terms descending under ``order``."""
    if names is None:
        names = default_names(f.nvars)
    if f.is_zero:
        return "0"
    pieces: list[str] = []
    for m, c in f.sorted_terms(order):
        factors = [f"{names[i]}^{e}" if e > 1 else names[i]
                   for i, e in enumerate(m) if e]
        mono = "*".join(factors)
        abs_c = abs(c)
        if not mono:
            body = str(abs_c)
        elif abs_c == 1:
            body = mono
        else:
            body = f"{abs_c}*{mono}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(pieces)
