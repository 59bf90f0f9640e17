"""The text grammar: `repr` parses back, and input size is capped."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monogenic import FqCtx, Poly, RatFunc
from monogenic.parse import MAX_DEGREE, ParseError, parse_element

FIELDS = [FqCtx(2), FqCtx(3), FqCtx(7), FqCtx(2, 2)]


def _env(ctx, x):
    env = {"x": x}
    if ctx.k > 1:
        env[ctx.gen_label] = ctx.gen
    return env


def _poly(ctx, degree, seed):
    return Poly.random(ctx, degree, random.Random(seed)) if degree >= 0 else Poly.zero(ctx)


@given(st.sampled_from(FIELDS), st.integers(-1, 40), st.integers(0, 2 ** 32))
@settings(max_examples=80, deadline=None)
def test_poly_repr_parses_back(ctx, degree, seed):
    f = _poly(ctx, degree, seed)
    back = parse_element(repr(f), _env(ctx, Poly.x(ctx)), Poly.one(ctx))
    if not isinstance(back, Poly):  # a constant such as `z` reads as a field element
        back = Poly.constant(back)
    assert back == f and hash(back) == hash(f)


@given(st.sampled_from(FIELDS), st.integers(-1, 20), st.integers(0, 20),
       st.integers(0, 2 ** 32))
@settings(max_examples=80, deadline=None)
def test_ratfunc_repr_parses_back(ctx, dn, dd, seed):
    a = RatFunc(_poly(ctx, dn, seed), _poly(ctx, dd, seed + 1))
    back = RatFunc.of(
        parse_element(repr(a), _env(ctx, RatFunc.gen(ctx)), RatFunc.of(1, ctx)), ctx
    )
    assert back == a and hash(back) == hash(a)


def test_degree_limit():
    ctx = FqCtx(2)
    env, one = {"x": Poly.x(ctx)}, Poly.one(ctx)
    assert parse_element(f"x^{MAX_DEGREE}", env, one).degree() == MAX_DEGREE
    assert parse_element("(x^10)^100", env, one).degree() == 1000
    assert parse_element(f"2^{MAX_DEGREE}*x", env, one) == Poly.zero(ctx)
    for text in (f"x^{MAX_DEGREE + 1}", "(x^10)^101", "x^600*x^401", "x^600/x^401",
                 f"2^{MAX_DEGREE + 1}", "x^-99999999"):
        with pytest.raises(ParseError):
            parse_element(text, env, one)
