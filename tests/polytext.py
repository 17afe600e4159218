"""Read polynomials from text, so that tests write expected values as
``"v2*v4 - 1/2*v3^2"``: the inverse of ``coregular.poly.format_polynomial``.
The library reads no polynomial text, so the parser lives with the tests."""

import re
from fractions import Fraction
from typing import Sequence

from coregular.poly import Polynomial

# ASCII only, so that str.isdigit on a token means [0-9]+: Unicode \d
# would take digits such as "٣"
_TOKEN = re.compile(r"\d+|[A-Za-z_][A-Za-z_0-9]*|\*\*|[-+*/^()]|\s+",
                    re.ASCII)


def parse_polynomial(text: str, names: Sequence[str]) -> Polynomial:
    """Parse the text form emitted by :func:`coregular.poly.format_polynomial`.

    Whitespace separates tokens and is otherwise ignored, so it never
    joins two of them: ``v1 2`` is not ``v12``.  Accepts ``^`` or ``**``
    for powers and rational coefficients written as ``p/q``.
    """
    nvars = len(names)
    index = {name: i for i, name in enumerate(names)}
    tokens = _TOKEN.findall(text)
    if "".join(tokens) != text:
        raise ValueError(f"cannot tokenize polynomial text {text!r}")
    tokens = [tok for tok in tokens if not tok.isspace()]
    if not tokens:
        raise ValueError("empty polynomial text")
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        if pos == len(tokens):
            raise ValueError(f"unexpected end of polynomial text {text!r}")
        pos += 1
        return tokens[pos - 1]

    def parse_factor() -> Polynomial:
        tok = take()
        if tok == "(":
            p = parse_sum()
            if peek() != ")":
                raise ValueError("missing closing parenthesis")
            take()
        elif tok.isdigit():
            num = int(tok)
            if peek() == "/":
                take()
                den = take()
                if not den.isdigit():
                    raise ValueError("malformed rational coefficient")
                if not int(den):
                    raise ValueError(f"zero denominator in {text!r}")
                p = Polynomial.constant(nvars, Fraction(num, int(den)))
            else:
                p = Polynomial.constant(nvars, num)
        else:
            if tok not in index:
                raise ValueError(f"unknown variable {tok!r}")
            p = Polynomial.variable(nvars, index[tok])
        if peek() in ("^", "**"):
            take()
            e = take()
            if not e.isdigit():
                raise ValueError("malformed exponent")
            p = p ** int(e)
        return p

    def parse_term() -> Polynomial:
        p = parse_factor()
        while peek() == "*":
            take()
            p = p * parse_factor()
        return p

    def parse_sum() -> Polynomial:
        sign = 1
        if peek() in ("+", "-"):
            sign = -1 if take() == "-" else 1
        p = parse_term() * sign
        while peek() in ("+", "-"):
            sign = -1 if take() == "-" else 1
            p = p + parse_term() * sign
        return p

    result = parse_sum()
    if pos != len(tokens):
        raise ValueError(f"trailing junk in polynomial text {text!r}")
    return result
