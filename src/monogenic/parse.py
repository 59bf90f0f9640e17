"""Text grammar for field, polynomial, and tower elements.

The canonical grammar: integers, identifiers (x, y, z, tower generator
labels), `+ - * / ^` with the usual precedence, unary minus, parentheses.
`x^3+z*x+1` style output parses back; quotients print parenthesized as
`(num)/(den)`.

Evaluation happens in an environment mapping identifiers to values; any
mix of FqElem / Poly / RatFunc / AlgElem / BivarPoly works as long as the
operations stay inside one backend (the operator overloads coerce scalars).

Input size is capped before any arithmetic runs.  Each subexpression gets a
degree bound from the text alone (an identifier 1, an integer 0, sums the
larger bound, products and quotients the sum, `a^n` n times the bound of a);
an exponent or a bound above `MAX_DEGREE` is a ParseError.  So a short
string cannot ask for unbounded work, such as `x^99999999`.

`parse_element` is one loop over two stacks, the operands read so far with
their degree bounds and the pending operators, so nesting has no limit: a
text of 10,000 parentheses or unary minuses reads like any other.  It runs
each operation where a recursive-descent parser would, left to right: a
power, a unary minus, a product or a quotient as soon as its right operand
is read, and a sum or a difference once the token after that operand is
not `*` or `/`.  At most one `^` follows an operand, so `x^2^3` is an
error and `(x^2)^3` is not.
"""

from __future__ import annotations

import operator
import re
from typing import Dict, List

from .gf import RingElement, power

MAX_DEGREE = 1000

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_][A-Za-z_0-9]*|\^|\*|\+|-|/|\(|\))")


class ParseError(ValueError):
    pass


def tokenize(text: str) -> List[str]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"bad character at {text[pos:]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


# how tightly a pending operator binds; "(" ranks below every operator, so
# nothing reduces it, and a token that is no binary operator reduces every
# operator down to it
_RANK = {"(": 0, "+": 1, "-": 1, "*": 2, "/": 2, "neg": 3}
_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _capped(deg: int) -> int:
    if deg > MAX_DEGREE:
        raise ParseError(f"the degree of the expression is above the limit {MAX_DEGREE}")
    return deg


def parse_element(text: str, env: Dict[str, object], one):
    """Parse `text` in the environment; `one` is the multiplicative unit of
    the target structure (used to coerce integer literals)."""
    toks = tokenize(text) + [None]  # None marks the end
    values = []  # (value, degree bound) of each operand read
    ops = []  # pending operators: "(", "neg" (unary minus) and the binary ones
    depth = i = 0  # open parentheses; the next token
    while True:
        t = toks[i]
        i += 1
        if t == "-":
            ops.append("neg")
            continue
        if t == "(":
            ops.append(t)
            depth += 1
            continue
        if t is None:
            raise ParseError("unexpected end of input")
        if t.isdigit():
            values.append((one * int(t), 0))
        elif t in env:
            values.append((env[t], 1))
        else:
            raise ParseError(f"unknown identifier {t!r}")
        while True:  # values[-1] is an atom: an operand, or a group just closed
            if toks[i] == "^":
                neg = toks[i + 1] == "-"
                i += 2 + neg
                exp = toks[i - 1]
                if exp is None or not exp.isdigit():
                    raise ParseError("exponent must be an integer")
                n = int(exp)
                if n > MAX_DEGREE:
                    raise ParseError(f"exponent {n} is above the limit {MAX_DEGREE}")
                base, deg = values[-1]
                deg = _capped(deg * n)
                values[-1] = (base ** (-n) if neg else base ** n), deg
            t = toks[i]
            rank = _RANK[t] if t in _BINARY else 1
            while ops and _RANK[ops[-1]] >= rank:
                op = ops.pop()
                if op == "neg":
                    values[-1] = -values[-1][0], values[-1][1]
                    continue
                rhs, d = values.pop()
                node, deg = values[-1]
                deg = _capped(deg + d) if op in "*/" else max(deg, d)
                values[-1] = _BINARY[op](node, rhs), deg
            i += 1
            if t in _BINARY:
                ops.append(t)
                break
            if t == ")" and depth:
                ops.pop()
                depth -= 1
            elif depth:
                raise ParseError(f"expected ')', got {t!r}")
            elif t is None:
                return values[0][0]
            else:
                raise ParseError(f"trailing input at {toks[i - 1:-1]!r}")


class SymbolPoly(RingElement):
    """Polynomial in one formal symbol with coefficients in any commutative
    ring the operators understand; used to read defining polynomials whose
    generator does not exist yet."""

    __slots__ = ("coeffs", "zero")

    def __init__(self, coeffs, zero):
        self.coeffs = list(coeffs)
        self.zero = zero
        while self.coeffs and self._is_zero(self.coeffs[-1]):
            self.coeffs.pop()

    @staticmethod
    def _is_zero(c):
        z = getattr(c, "is_zero", None)
        return z() if callable(z) else c == 0

    def _coerce(self, other):
        if isinstance(other, SymbolPoly):
            return other
        # a constant joins the coefficient ring, whose operators reject a str
        return SymbolPoly([self.zero + other], self.zero)

    def __add__(self, other):
        o = self._coerce(other)
        n = max(len(self.coeffs), len(o.coeffs))
        out = []
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else self.zero
            b = o.coeffs[i] if i < len(o.coeffs) else self.zero
            out.append(a + b)
        return SymbolPoly(out, self.zero)

    def __neg__(self):
        return SymbolPoly([-c for c in self.coeffs], self.zero)

    def __mul__(self, other):
        o = self._coerce(other)
        if not self.coeffs or not o.coeffs:
            return SymbolPoly([], self.zero)
        out = [self.zero] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(o.coeffs):
                out[i + j] = out[i + j] + a * b
        return SymbolPoly(out, self.zero)

    def __pow__(self, n: int):
        if n < 0:
            raise ParseError("negative power of the formal symbol")
        return power(self, n) if n else SymbolPoly([self.zero + 1], self.zero)

    def __truediv__(self, other):
        if isinstance(other, SymbolPoly):
            raise ParseError("division by the formal symbol is not allowed")
        d = self.zero + other
        return SymbolPoly([c / d for c in self.coeffs], self.zero)

