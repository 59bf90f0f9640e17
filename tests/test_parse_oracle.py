"""The operator loop of `parse_element` against the recursive-descent
parser it replaced, kept here unchanged as the oracle.

On every drawn token string the two give the same value, or raise the same
exception with the same message: the loop runs the same operations in the
same order and checks each degree bound where the recursion did.  The
oracle recurses through five methods per nesting level, so deep nesting is
checked on the loop alone.
"""

import sys
from typing import Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monogenic import BivarPoly, FqCtx, Poly, RatFunc
from monogenic.parse import MAX_DEGREE, ParseError, _capped, parse_element, tokenize


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


def oracle_parse_element(text, env, one):
    p = _Parser(tokenize(text), env, one)
    node, _ = p.parse_expr()
    if p.peek() is not None:
        raise ParseError(f"trailing input at {p.toks[p.i:]!r}")
    return node


F5 = FqCtx(5)


def _ratfunc_env():
    x = RatFunc.gen(F5)
    return {"x": x, "y": x + 1}, RatFunc.of(1, F5)


def _poly_env():  # y is no name here: it reads as an unknown identifier
    return {"x": Poly.x(F5)}, Poly.one(F5)


def _bivar_env():  # a quotient divides exactly or raises
    x, y = BivarPoly.gens(F5)
    return {"x": x, "y": y}, BivarPoly.constant(F5, 1)


_TOKENS = st.lists(st.sampled_from(
    ["0", "1", "2", "3", "12", "x", "y", "+", "-", "*", "/", "^", "(", ")"]), max_size=24)


# well-formed texts, most of which have a value: chains of operands under
# mixed operators, groups, unary minuses and powers
_EXPRESSIONS = st.recursive(
    st.sampled_from(["0", "1", "3", "x", "y"]),
    lambda inner: st.builds(lambda first, rest: first + "".join(o + e for o, e in rest), inner,
                            st.lists(st.tuples(st.sampled_from("+-*/"), inner), min_size=1,
                                     max_size=4))
    | inner.map(lambda e: f"({e})") | inner.map(lambda e: f"-{e}")
    | st.tuples(inner, st.sampled_from(["^2", "^-1", "^0", "^3"])).map("".join),
    max_leaves=16,
)


def _outcome(parse, text, env, one):
    try:
        return "value", parse(text, env, one)
    except Exception as exc:  # noqa: BLE001 - the kind and text of any fault are compared
        return type(exc), str(exc)


@pytest.mark.parametrize("make_env", [_ratfunc_env, _poly_env, _bivar_env],
                         ids=["ratfunc", "poly", "bivar"])
@given(tokens=_TOKENS, spaced=st.booleans())
@settings(max_examples=400, deadline=None)
def test_loop_matches_recursive_parser(make_env, tokens, spaced):
    # joined without spaces, neighbouring digits and letters run together
    text = (" " if spaced else "").join(tokens)
    env, one = make_env()
    assert _outcome(parse_element, text, env, one) == _outcome(oracle_parse_element, text, env, one)


@pytest.mark.parametrize("make_env", [_ratfunc_env, _bivar_env], ids=["ratfunc", "bivar"])
@given(text=_EXPRESSIONS)
@settings(max_examples=300, deadline=None)
def test_loop_matches_recursive_parser_on_expressions(make_env, text):
    env, one = make_env()
    assert _outcome(parse_element, text, env, one) == _outcome(oracle_parse_element, text, env, one)


def _binary(symbol):
    def apply(self, other):
        rhs = other.text if isinstance(other, _Recorder) else repr(other)
        return self._result(f"({self.text}{symbol}{rhs})")
    return apply


class _Recorder:
    """A value that logs every operation applied to it, in order, as the
    text of the result: equal logs mean the same operations in the same
    order on the same operands."""

    def __init__(self, text, log):
        self.text, self.log = text, log

    def _result(self, text):
        self.log.append(text)
        return _Recorder(text, self.log)

    __add__, __sub__, __mul__ = _binary("+"), _binary("-"), _binary("*")
    __truediv__, __pow__ = _binary("/"), _binary("^")

    def __neg__(self):
        return self._result(f"-{self.text}")


def _log(parse, text):
    log = []
    env = {"x": _Recorder("x", log), "y": _Recorder("y", log)}
    try:
        parse(text, env, _Recorder("1", log))
    except ParseError as exc:
        log.append(str(exc))
    return log


@given(text=_EXPRESSIONS | _TOKENS.map(" ".join))
@settings(max_examples=400, deadline=None)
def test_loop_applies_operations_in_the_recursive_order(text):
    assert _log(parse_element, text) == _log(oracle_parse_element, text)


@pytest.mark.parametrize("text", [
    "x^2^3", "(x^2)^3", "-x^2", "x*-y", "--x", "x-y-1", "x/y/x", "(x+y)*(x-y)^2",
    "x^-2", "(", "x)", "(x", "()", "x y", "x^", "x^-", "x^y", "2^1001", "x^600*x^401",
    "x^600/x^401", "(x^10)^101", "1/0", "1/0 x", "(1/0 x", "(x+1 y",
])
def test_loop_matches_recursive_parser_on_edges(text):
    env, one = _ratfunc_env()
    assert _outcome(parse_element, text, env, one) == _outcome(oracle_parse_element, text, env, one)


@pytest.mark.parametrize("make_text, value", [
    (lambda n: "(" * n + "x" + ")" * n, lambda x, n: x),
    (lambda n: "-" * n + "x", lambda x, n: x),
    (lambda n: "-" * (n + 1) + "x", lambda x, n: -x),
    (lambda n: "(-" * n + "x" + ")" * n, lambda x, n: x),
    (lambda n: "(x+" * n + "1" + ")" * n, lambda x, n: x * n + 1),
], ids=["parentheses", "minuses", "odd-minuses", "negated-groups", "nested-sums"])
def test_nesting_has_no_limit(make_text, value):
    # far past the interpreter's recursion limit, which ended the
    # recursive parser in a RecursionError
    n = 10 * sys.getrecursionlimit()
    env, one = _ratfunc_env()
    assert parse_element(make_text(n), env, one) == value(env["x"], n)


def test_deep_nesting_keeps_the_degree_limit():
    env, one = _ratfunc_env()
    n = 5000
    assert parse_element("(" * n + f"x^{MAX_DEGREE}" + ")" * n, env, one) == env["x"] ** MAX_DEGREE
    with pytest.raises(ParseError, match="degree of the expression"):
        parse_element("(" * n + f"x^{MAX_DEGREE}*x" + ")" * n, env, one)
    with pytest.raises(ParseError, match=r"expected '\)', got None"):
        parse_element("(" * n + "x" + ")" * (n - 1), env, one)
