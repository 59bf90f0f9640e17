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
"""

from __future__ import annotations

import re
from typing import Dict, List

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


class _Parser:
    def __init__(self, tokens: List[str], env: Dict[str, object], one):
        self.toks = tokens
        self.i = 0
        self.env = env
        self.one = one

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self):
        t = self.peek()
        self.i += 1
        return t

    def expect(self, t):
        got = self.take()
        if got != t:
            raise ParseError(f"expected {t!r}, got {got!r}")

    def parse_expr(self):
        node, deg = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs, d = self.parse_term()
            node = node + rhs if op == "+" else node - rhs
            deg = max(deg, d)
        return node, deg

    def parse_term(self):
        node, deg = self.parse_unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs, d = self.parse_unary()
            deg = _capped(deg + d)
            node = node * rhs if op == "*" else node / rhs
        return node, deg

    def parse_unary(self):
        if self.peek() == "-":
            self.take()
            node, deg = self.parse_unary()
            return -node, deg
        return self.parse_power()

    def parse_power(self):
        base, deg = self.parse_atom()
        if self.peek() == "^":
            self.take()
            neg = False
            if self.peek() == "-":
                self.take()
                neg = True
            exp = self.take()
            if exp is None or not exp.isdigit():
                raise ParseError("exponent must be an integer")
            n = int(exp)
            if n > MAX_DEGREE:
                raise ParseError(f"exponent {n} is above the limit {MAX_DEGREE}")
            deg = _capped(deg * n)
            return (base ** (-n) if neg else base ** n), deg
        return base, deg

    def parse_atom(self):
        t = self.take()
        if t is None:
            raise ParseError("unexpected end of input")
        if t == "(":
            node = self.parse_expr()
            self.expect(")")
            return node
        if t.isdigit():
            return self.one * int(t), 0
        if t in self.env:
            return self.env[t], 1
        raise ParseError(f"unknown identifier {t!r}")


def _capped(deg: int) -> int:
    if deg > MAX_DEGREE:
        raise ParseError(f"the degree of the expression is above the limit {MAX_DEGREE}")
    return deg


def parse_element(text: str, env: Dict[str, object], one):
    """Parse `text` in the environment; `one` is the multiplicative unit of
    the target structure (used to coerce integer literals)."""
    p = _Parser(tokenize(text), env, one)
    node, _ = p.parse_expr()
    if p.peek() is not None:
        raise ParseError(f"trailing input at {p.toks[p.i:]!r}")
    return node


class SymbolPoly:
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
        return SymbolPoly([other], self.zero)

    def __add__(self, other):
        o = self._coerce(other)
        n = max(len(self.coeffs), len(o.coeffs))
        out = []
        for i in range(n):
            a = self.coeffs[i] if i < len(self.coeffs) else self.zero
            b = o.coeffs[i] if i < len(o.coeffs) else self.zero
            out.append(a + b)
        return SymbolPoly(out, self.zero)

    __radd__ = __add__

    def __neg__(self):
        return SymbolPoly([-c for c in self.coeffs], self.zero)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if not self.coeffs or not o.coeffs:
            return SymbolPoly([], self.zero)
        out = [self.zero] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(o.coeffs):
                out[i + j] = out[i + j] + a * b
        return SymbolPoly(out, self.zero)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ParseError("negative power of the formal symbol")
        result = SymbolPoly([self.zero + 1], self.zero)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __truediv__(self, other):
        if isinstance(other, SymbolPoly):
            raise ParseError("division by the formal symbol is not allowed")
        return SymbolPoly([c / other for c in self.coeffs], self.zero)

