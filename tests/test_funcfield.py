import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monogenic import (
    FqCtx,
    Place,
    PlaceSet,
    Poly,
    RatFunc,
    is_T_integer,
    is_T_unit,
    product_formula_sum,
    support,
    unit_group_rank,
    valuation,
)

F2 = FqCtx(2)
F3 = FqCtx(3)
F7 = FqCtx(7)
F4 = FqCtx(2, 2)


def x(ctx):
    return Poly.x(ctx)


def test_factor_x2_plus_x():
    lc, fs = (x(F2) ** 2 + x(F2)).factor()
    assert lc == F2.one
    assert fs == [(x(F2), 1), (x(F2) + 1, 1)]


def test_factor_char2_square():
    lc, fs = (x(F2) ** 2 + 1).factor()
    assert fs == [(x(F2) + 1, 2)]


def test_x2_plus_1_irreducible_over_f7():
    # oracle: exhaustive root check over F_7 (a quadratic is reducible iff
    # it has a root)
    f = x(F7) ** 2 + 1
    assert all(not f.evaluate(c).is_zero() for c in F7.elements())
    assert f.is_irreducible()


def test_factor_roundtrip_randomized():
    rng = random.Random(2024)
    for ctx in (F2, F3, F7):
        for _ in range(170):
            deg = rng.randrange(1, 13)
            f = Poly.random(ctx, deg, rng)
            lc, fs = f.factor()
            prod = Poly.constant(lc)
            for g, m in fs:
                prod = prod * g ** m
            assert prod == f
            assert all(g.is_irreducible() for g, _ in fs)


def test_derivative_zero_descent():
    # g^3 = g3(x^3) in char 3: derivative zero, handled by p-th root descent
    g = x(F3) ** 2 + x(F3) + 2
    f = g ** 3
    assert f.derivative().is_zero()
    lc, fs = f.factor()
    prod = Poly.constant(lc)
    for h, m in fs:
        prod = prod * h ** m
    assert prod == f


def test_valuation_examples():
    a = RatFunc(x(F2) ** 3, x(F2) + 1)
    assert valuation(a, Place.finite(x(F2))) == 3
    assert valuation(RatFunc(x(F2) ** 2), Place.infinity()) == -2
    b = RatFunc(x(F2), x(F2) + 1)
    assert valuation(b, Place.finite(x(F2) + 1)) == -1
    with pytest.raises(ValueError):
        valuation(RatFunc(Poly.zero(F2)), Place.infinity())


def test_valuation_additive_randomized():
    rng = random.Random(7)
    for _ in range(60):
        ctx = rng.choice((F2, F3, F7))
        a = RatFunc(Poly.random(ctx, rng.randrange(1, 6), rng),
                    Poly.random(ctx, rng.randrange(1, 6), rng))
        b = RatFunc(Poly.random(ctx, rng.randrange(1, 6), rng),
                    Poly.random(ctx, rng.randrange(1, 6), rng))
        if a.is_zero() or b.is_zero():
            continue
        places = set(support(a)) | set(support(b))
        for v in places:
            assert valuation(a * b, v) == valuation(a, v) + valuation(b, v)


def test_product_formula_examples():
    assert product_formula_sum(RatFunc(x(F2), x(F2) + 1)) == 0
    assert product_formula_sum(RatFunc(x(F2) ** 2)) == 0
    # the quadratic place contributes degree 2: 2*1 + 1*(-1) + 1*(-1) = 0
    a = RatFunc(x(F2) ** 2 + x(F2) + 1, x(F2))
    contribs = {repr(v): v.degree * m for v, m in support(a).items()}
    assert contribs == {"x^2+x+1": 2, "x": -1, "inf": -1}
    assert product_formula_sum(a) == 0


def test_product_formula_randomized_500():
    rng = random.Random(55)
    for i in range(500):
        ctx = (F2, F3, F7)[i % 3]
        num = Poly.random(ctx, rng.randrange(0, 9), rng)
        den = Poly.random(ctx, rng.randrange(0, 9), rng)
        a = RatFunc(num, den)
        if a.is_zero():
            continue
        assert product_formula_sum(a) == 0


def test_T_integers_and_units():
    T_inf = PlaceSet()
    assert is_T_integer(RatFunc(x(F2)), T_inf)
    assert not is_T_unit(RatFunc(x(F2)), T_inf)
    T = PlaceSet.of(x(F2))
    inv_x = RatFunc(Poly.one(F2), x(F2))
    assert is_T_integer(inv_x, T)
    assert is_T_unit(inv_x, T)
    assert is_T_unit(RatFunc(x(F2) ** 12), T)
    with pytest.raises(ValueError):
        is_T_unit(RatFunc(Poly.zero(F2)), T)


def test_unit_group_rank():
    assert unit_group_rank(PlaceSet())[0] == 0
    assert unit_group_rank(PlaceSet.of(x(F2)))[0] == 1
    rank, gens = unit_group_rank(PlaceSet.of(x(F2), x(F2) + 1))
    assert rank == 2
    # the generators are independent: their valuation vectors at (x, x+1)
    # are (1,0) and (0,1)
    vecs = [
        (valuation(RatFunc(g), Place.finite(x(F2))),
         valuation(RatFunc(g), Place.finite(x(F2) + 1)))
        for g in gens
    ]
    assert sorted(vecs) == [(0, 1), (1, 0)]


def test_factor_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        Poly.zero(F2).factor()


def test_place_validation():
    with pytest.raises(ValueError):
        Place.finite(x(F2) ** 2 + 1)  # reducible
    assert Place.infinity().degree == 1
    assert Place.finite(x(F2) ** 2 + x(F2) + 1).degree == 2


def test_placeset_always_contains_infinity():
    T = PlaceSet.of(x(F2))
    assert Place.infinity() in T
    assert len(T) == 2


def test_ratfunc_canonical_form():
    a = RatFunc(x(F3) * 2 + 2, x(F3) * 2)  # (2x+2)/(2x): canonicalize
    assert a.den.lc() == F3.one
    b = RatFunc((x(F3) + 1) * x(F3), x(F3))
    assert b == RatFunc(x(F3) + 1)


@given(st.integers(0, 6), st.integers(0, 6), st.integers(1, 4))
@settings(max_examples=60)
def test_poly_ring_laws(da, db, which):
    rng = random.Random(da * 100 + db * 10 + which)
    ctx = (F3, F7, F2, F4)[which - 1]
    a = Poly.random(ctx, da, rng)
    b = Poly.random(ctx, db, rng)
    q, r = divmod(a * b + a, b) if not b.is_zero() else (None, None)
    assert a * b == b * a
    if q is not None:
        assert q * b + r == a * b + a
        assert r.is_zero() or len(r.coeffs) < len(b.coeffs)


def test_text_roundtrip_forms():
    f = x(F2) ** 3 + x(F2) + 1
    assert repr(f) == "x^3+x+1"
    a = RatFunc(x(F2) + 1, x(F2))
    assert repr(a) == "(x+1)/(x)"
    g = Poly(F4, [F4.gen, F4.one]) * Poly(F4, [0, 1])
    assert repr(g) == "x^2+z*x"
