"""The text grammar: `repr` parses back, and input size is capped."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monogenic import BivarPoly, FqCtx, Poly, RatFunc, Tower
from monogenic.parse import MAX_DEGREE, ParseError, parse_element
from monogenic.tower import AlgElem
from monogenic.verify import shifted_tower

FIELDS = [FqCtx(2), FqCtx(3), FqCtx(7), FqCtx(131), FqCtx(2, 2), FqCtx(3, 2)]


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


@given(st.sampled_from([FqCtx(7), FqCtx(2, 2), FqCtx(3, 2)]), st.integers(0, 2 ** 32))
@settings(max_examples=80, deadline=None)
def test_bivar_repr_parses_back(ctx, seed):
    rng = random.Random(seed)
    f = BivarPoly(ctx, {(rng.randint(0, 4), rng.randint(0, 4)): ctx.random_elem(rng)
                        for _ in range(rng.randint(0, 6))})
    x, y = BivarPoly.gens(ctx)
    env = dict(_env(ctx, x), y=y)
    back = parse_element(repr(f), env, BivarPoly.constant(ctx, 1))
    if not isinstance(back, BivarPoly):  # a constant such as `z+1` reads as a field element
        back = BivarPoly.constant(ctx, back)
    assert back == f and hash(back) == hash(f)


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


def _shifted_quartic():
    return shifted_tower(Poly(FqCtx(2), [1, 1]))


def _two_level_degree_8():
    tw = _shifted_quartic()
    s = tw.gen(0)
    return tw.extend("u", [s, 1, 1], assume_irreducible=True)  # u^2 + u + s over K(s)


def _f3_cubic():
    ctx = FqCtx(3)
    x = RatFunc.gen(ctx)
    return Tower(ctx).extend("y", [-x, -1, 0, 1])  # y^3 - y - x


def _random_ratfunc(ctx, rng):
    num = Poly.random(ctx, rng.randint(0, 3), rng) if rng.random() < 0.8 else Poly.zero(ctx)
    den = Poly.random(ctx, rng.randint(0, 2), rng)
    return RatFunc(num, den)


def _random_elem(tw, rng):
    """A random K-combination of the power-basis monomials of the tower."""
    out = tw.from_base(0)
    monomials = [tw.from_base(1)]
    for i in range(len(tw.levels)):
        g = tw.gen(i)
        monomials = [m * g ** e for m in monomials for e in range(tw.levels[i].degree)]
    for m in monomials:
        if rng.random() < 0.6:
            out = out + m * _random_ratfunc(tw.base, rng)
    return out


@pytest.mark.parametrize("make", [_shifted_quartic, _two_level_degree_8, _f3_cubic])
def test_algelem_repr_parses_back(make):
    tw = make()
    env = {"x": tw.x(), **{lv.label: tw.gen(i) for i, lv in enumerate(tw.levels)}}
    one = tw.from_base(1)
    rng = random.Random(len(tw.levels) * 10 + tw.base.p)
    elems = [tw.from_base(0), one, tw.x(), -tw.gen(0)] + [_random_elem(tw, rng) for _ in range(40)]
    for a in elems:
        back = parse_element(repr(a), env, one)
        assert isinstance(back, AlgElem) and back == a, repr(a)


def _f4_level():
    ctx = FqCtx(2, 2)
    return Tower(ctx).extend("s", [RatFunc.gen(ctx), 1, 1])  # s^2 + s + x


def _in(make_tower, build):
    """A maker of build(x, g_1, ..., g_r) in a tower that is built on demand."""
    def make():
        tw = make_tower()
        return build(tw.x(), *(tw.gen(i) for i in range(len(tw.levels))))
    return make


_Z4 = FqCtx(2, 2).gen


@pytest.mark.parametrize("make, text", [
    # a lone compound constant of a tower is not bracketed, as in Poly
    (_in(_shifted_quartic, lambda x, s: x + 1), "x+1"),
    (_in(_shifted_quartic, lambda x, s: (x + 1) / x), "(x+1)/(x)"),
    (_in(_shifted_quartic, lambda x, s: s + 1 / x), "s+(1)/(x)"),
    (_in(_shifted_quartic, lambda x, s: s / x), "((1)/(x))*s"),
    # a coefficient rendered at one level is bracketed once at the next
    (_in(_two_level_degree_8, lambda x, s, u: u + x + 1), "u+(x+1)"),
    (_in(_two_level_degree_8, lambda x, s, u: x + 1), "x+1"),
    (_in(_two_level_degree_8, lambda x, s, u: (x + 1) * u), "(x+1)*u"),
    (_in(_two_level_degree_8, lambda x, s, u: s * u + s + 1), "s*u+(s+1)"),
    (_in(_f4_level, lambda x, s: (_Z4 * x + 1) * s + x + _Z4), "(z*x+1)*s+(x+z)"),
    (lambda: Poly(FqCtx(2, 2), [(0, 1), (1, 1)]), "(z+1)*x+z"),
    (lambda: BivarPoly(FqCtx(2, 2), {(1, 1): 1, (0, 0): (1, 1)}), "x*y+(z+1)"),
    (lambda: BivarPoly(FqCtx(2, 2), {(0, 0): (1, 1)}), "z+1"),
    (lambda: FqCtx(3, 2).elem((1, 2)), "2*z+1"),
    (lambda: FqCtx(2, 3), "F8=F2[z]/(z^3+z+1)"),
    (lambda: RatFunc(Poly(FqCtx(3), [1, 0, 2]), Poly(FqCtx(3), [0, 1])), "(2*x^2+1)/(x)"),
], ids=["constant", "quotient", "plus-quotient", "quotient-coefficient", "second-level",
        "second-level-constant", "second-level-coefficient", "second-level-sum", "f4-tower",
        "f4-poly", "f4-bivar", "f4-bivar-constant", "f9-element", "f8-modulus", "ratfunc"])
def test_text_forms(make, text):
    assert repr(make()) == text
