"""The operator protocol of the exact element types: each type writes `+`,
unary `-`, `*` and (where it divides) `/`, and the reflected operators and
subtraction agree with them for integer operands."""

import operator
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from monogenic import BivarPoly, FqCtx, Poly, RatFunc, Tower
from monogenic.parse import SymbolPoly
from monogenic.verify import shifted_tower

F2, F3, F4, F7, F9 = FqCtx(2), FqCtx(3), FqCtx(2, 2), FqCtx(7), FqCtx(3, 2)


def _poly(ctx, rng, top=4):
    d = rng.randint(-1, top)
    return Poly.random(ctx, d, rng) if d >= 0 else Poly.zero(ctx)


def _ratfunc(ctx, rng):
    return RatFunc(_poly(ctx, rng, 3), Poly.random(ctx, rng.randint(0, 2), rng))


def _fq(ctx):
    return lambda rng: ctx.random_elem(rng)


def _polys(ctx):
    return lambda rng: _poly(ctx, rng)


def _ratfuncs(ctx):
    return lambda rng: _ratfunc(ctx, rng)


def _tower_elems(tw):
    def make(rng):
        out, g = tw.from_base(0), tw.gen(0)
        for e in range(tw.levels[0].degree):
            if rng.random() < 0.6:
                out = out + g ** e * _ratfunc(tw.base, rng)
        return out
    return make


def _bivars(ctx):
    def make(rng):
        return BivarPoly(ctx, {(rng.randint(0, 3), rng.randint(0, 3)): ctx.random_elem(rng)
                               for _ in range(rng.randint(0, 4))})
    return make


def _symbol_polys(ctx):
    zero = RatFunc.of(0, ctx)
    return lambda rng: SymbolPoly([_ratfunc(ctx, rng) for _ in range(rng.randint(0, 3))], zero)


def _f3_cubic():
    x = RatFunc.gen(F3)
    return Tower(F3).extend("y", [-x, -1, 0, 1])  # y^3 - y - x


# (name, maker, divides): every element type, Poly over a packed field of
# each kind and over the tuple fallback (F_9)
_KINDS = [
    ("FqElem/F2", _fq(F2), True), ("FqElem/F4", _fq(F4), True), ("FqElem/F9", _fq(F9), True),
    ("Poly/F2", _polys(F2), False), ("Poly/F3", _polys(F3), False),
    ("Poly/F4", _polys(F4), False), ("Poly/F9", _polys(F9), False),
    ("RatFunc/F3", _ratfuncs(F3), True), ("RatFunc/F4", _ratfuncs(F4), True),
    ("AlgElem/F2", _tower_elems(shifted_tower(Poly(F2, [1, 1]))), True),
    ("AlgElem/F3", _tower_elems(_f3_cubic()), True),
    ("BivarPoly/F7", _bivars(F7), True), ("BivarPoly/F4", _bivars(F4), True),
    ("SymbolPoly/F3", _symbol_polys(F3), True),
]


def _same(u, v):
    if isinstance(u, SymbolPoly):  # no __eq__: compare the coefficient lists
        return isinstance(v, SymbolPoly) and u.coeffs == v.coeffs
    return u == v


def _outcome(f):
    try:
        return "value", f()
    except (ArithmeticError, ValueError) as exc:
        return "raises", type(exc)


@given(st.sampled_from(_KINDS), st.integers(0, 2 ** 32), st.integers(-9, 30))
@settings(max_examples=300, deadline=None)
def test_reflected_operators_agree(kind, seed, n):
    _, make, divides = kind
    rng = random.Random(seed)
    a, b = make(rng), make(rng)
    assert _same(n + a, a + n)
    assert _same(n * a, a * n)
    assert _same(n - a, -(a - n))
    assert _same(a - b, a + (-b))
    ops = [operator.add, operator.sub, operator.mul]
    if divides:
        ops.append(operator.truediv)
        coerced = (a - a) + n  # n in the ring of a
        got, want = _outcome(lambda: n / a), _outcome(lambda: coerced / a)
        assert got[0] == want[0]
        assert got[1] == want[1] if got[0] == "raises" else _same(got[1], want[1])
    for op in ops:
        for left, right in ((a, "1"), ("1", a)):
            try:
                op(left, right)
            except TypeError:
                continue
            raise AssertionError(f"{op.__name__}({left!r}, {right!r}) did not raise TypeError")
