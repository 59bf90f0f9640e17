"""`gf.power`, the one square-and-multiply, through every type that raises
to a power with it: each power equals the repeated product."""

import random
from functools import reduce

import pytest

from monogenic import BivarPoly, FqCtx, Poly, RatFunc
from monogenic.parse import SymbolPoly, parse_element
from monogenic.verify import shifted_tower

EXPONENTS = [1, 2, 3, 5, 9, 17]  # 1, 2 and 2^k + 1


def _repeated(a, n):
    return reduce(lambda u, v: u * v, [a] * n)


def _poly(ctx, degree, seed):
    return Poly.random(ctx, degree, random.Random(seed))


def _poly_case(ctx):
    return _poly(ctx, 3, 11), Poly.one(ctx)


def _algelem_case():
    F2 = FqCtx(2)
    tw = shifted_tower(Poly(F2, [1, 1]))
    x = RatFunc.gen(F2)
    return tw.gen(0) * x + 1 / x, tw.from_base(1)


def _bivar_case():
    F7 = FqCtx(7)
    x, y = BivarPoly.gens(F7)
    return 3 * x * x + x * y + 2 * y + 5, BivarPoly.constant(F7, 1)


F3, F4, F9 = FqCtx(3), FqCtx(2, 2), FqCtx(3, 2)
CASES = {
    "Poly/F2": _poly_case(FqCtx(2)),
    "Poly/F3": _poly_case(F3),
    "Poly/F4": _poly_case(F4),
    "Poly/F9": _poly_case(F9),
    "Poly/F131": _poly_case(FqCtx(131)),
    "RatFunc": (RatFunc(_poly(F3, 2, 5), _poly(F3, 3, 6)), RatFunc.of(1, F3)),
    "AlgElem": _algelem_case(),
    "BivarPoly": _bivar_case(),
    "FqElem/F4": (F4.gen + 1, F4.one),
    "FqElem/F9": (F9.gen + 1, F9.one),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_powers_are_repeated_products(name):
    a, one = CASES[name]
    assert a ** 0 == one
    for n in EXPONENTS:
        assert a ** n == _repeated(a, n), n


@pytest.mark.parametrize("ctx", [FqCtx(2), F3, F4, F9])
def test_pow_mod_small_exponents(ctx):
    a, m = _poly(ctx, 5, 1), _poly(ctx, 3, 2)
    assert a.pow_mod(0, m) == Poly.one(ctx)
    assert a.pow_mod(1, m) == a % m
    for n in EXPONENTS:
        assert a.pow_mod(n, m) == _repeated(a, n) % m


def test_parsed_symbol_powers():
    x, zero, one = RatFunc.gen(F3), RatFunc.of(0, F3), RatFunc.of(1, F3)
    env = {"x": x, "s": SymbolPoly([zero, one], zero)}
    for text, want in [("s^0", [one]), ("s^1", [zero, one]), ("s^2", [zero, zero, one]),
                       ("(s+x)^3", [x ** 3, zero, zero, one])]:
        assert parse_element(text, env, one).coeffs == want, text
