"""Flat tower values against the nested representation they replaced.

A tower value was a tuple of lower-level values, one per power of the top
generator, nested down to elements of K; it is now the flat tuple of its
coordinates over K.  The oracle below is the earlier nested arithmetic,
kept as it was (`_embed_to`, `_mul`, `_inv`, `_flatten` and the helpers
they call), with its linear solve done by the kept Gauss-Jordan oracle.
On random elements of four towers, one of them with a level-1 defining
polynomial that is not integral, products, powers, inverses, divisions by
elements of K and embeddings must agree after flattening.

Discriminants were (-1)^{d(d-1)/2} Res(g, g'), with the resultant taken by
a Euclidean remainder sequence over K (`kp_resultant` below, kept as it
was); they are now a Hankel determinant of power sums read off the
Bareiss elimination (`kp_discriminant`), which must agree with it on
polynomials over F_2, F_3, F_4, F_5 and F_7 of degree 1 to 7, with
polynomial, rational and tower-element coefficients.

A p-th power was a schoolbook square-and-multiply; it is now the Frobenius
map read off a per-tower table of the basis p-th powers (`_frobenius`),
whose row i is built when a value with a nonzero coordinate i first needs
it, and a^n with n = p^e m is a^m followed by e such maps.  Both must
agree with the schoolbook power, kept as the oracle, on one- and two-level
towers over F_2, F_3, F_4 and F_5, after a level is added to a tower
whose table was already built, and on a full element after the power of
one basis element built a single row.
"""

import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monogenic import FqCtx, Poly, RatFunc, Tower
from monogenic.gf import power
from monogenic.tower import AlgElem, kp_discriminant
from test_linalg_oracle import gauss_jordan_solve
from test_parse import (
    _f3_cubic, _random_elem, _random_ratfunc, _shifted_quartic, _two_level_degree_8,
)


def kp_trim(coeffs):
    c = list(coeffs)
    while c and c[-1].is_zero():
        c.pop()
    return c


def kp_divmod(f, g, ctx):
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    zero = RatFunc.of(0, ctx)
    f = list(f)
    dg = len(g) - 1
    if len(f) - 1 < dg:
        return [], kp_trim(f)
    inv = RatFunc.of(1, ctx) / g[-1]
    quo = [zero] * (len(f) - dg)
    for i in range(len(f) - 1 - dg, -1, -1):
        c = f[i + dg] * inv
        if c.is_zero():
            continue
        quo[i] = c
        for j, m in enumerate(g):
            f[i + j] = f[i + j] - c * m
    return kp_trim(quo), kp_trim(f[:dg])


def kp_derivative(f, ctx):
    return kp_trim([f[i] * i for i in range(1, len(f))])


def kp_resultant(f, g, ctx):
    """Res(f, g) over K by the Euclidean remainder recursion."""
    one = RatFunc.of(1, ctx)
    zero = RatFunc.of(0, ctx)
    f, g = kp_trim(f), kp_trim(g)
    sign_flip = (ctx.p != 2)
    acc = one
    neg = False
    while True:
        if not f or not g:
            return zero
        df, dg = len(f) - 1, len(g) - 1
        if df < dg:
            f, g = g, f
            if sign_flip and (df * dg) % 2 == 1:
                neg = not neg
            continue
        if dg == 0:
            acc = acc * (g[0] ** df)
            break
        r = kp_divmod(f, g, ctx)[1]
        if not r:
            return zero
        dr = len(r) - 1
        acc = acc * (g[-1] ** (df - dr))
        if sign_flip and (df * dg) % 2 == 1:
            neg = not neg
        f, g = g, r
    return -acc if neg else acc


def resultant_discriminant(g, ctx):
    """(-1)^{d(d-1)/2} Res(g, g') for monic g over K (or over a tower level,
    with `ctx` its base field)."""
    d = len(g) - 1
    res = kp_resultant(g, kp_derivative(g, ctx), ctx)
    if ctx.p != 2 and (d * (d - 1) // 2) % 2 == 1:
        res = -res
    return res


class NestedTower:
    """The nested arithmetic over the levels of a flat tower."""

    def __init__(self, tower):
        self.base = tower.base
        self.degrees = [lv.degree for lv in tower.levels]
        self.moduli = [
            [self._unflatten(i, c if i else (c,)) for c in lv.coeffs]
            for i, lv in enumerate(tower.levels)
        ]

    def _dim(self, lvl):
        d = 1
        for deg in self.degrees[:lvl]:
            d *= deg
        return d

    def _embed_to(self, from_lvl, to_lvl, v):
        if from_lvl == to_lvl:
            return v
        zero = RatFunc.of(0, self.base)
        for l in range(to_lvl):
            d = self.degrees[l]
            if l >= from_lvl:
                v = (v,) + (zero,) * (d - 1)
            zero = (zero,) * d
        return v

    def _is_zero(self, lvl, a):
        if lvl == 0:
            return a.is_zero()
        return all(self._is_zero(lvl - 1, c) for c in a)

    def _add(self, lvl, a, b):
        if lvl == 0:
            return a + b
        return tuple(self._add(lvl - 1, x, y) for x, y in zip(a, b))

    def _sub(self, lvl, a, b):
        if lvl == 0:
            return a - b
        return tuple(self._sub(lvl - 1, x, y) for x, y in zip(a, b))

    def _mul(self, lvl, a, b):
        if lvl == 0:
            return a * b
        low = lvl - 1
        d = self.degrees[low]
        zero = self._embed_to(0, low, RatFunc.of(0, self.base))
        prod = [zero] * (2 * d - 1)
        for i, x in enumerate(a):
            if not self._is_zero(low, x):
                for j, y in enumerate(b):
                    prod[i + j] = self._add(low, prod[i + j], self._mul(low, x, y))
        modulus = self.moduli[lvl - 1]
        for i in range(2 * d - 2, d - 1, -1):
            c = prod[i]
            if self._is_zero(low, c):
                continue
            prod[i] = zero
            for j in range(d):
                prod[i - d + j] = self._sub(
                    low, prod[i - d + j], self._mul(low, c, modulus[j])
                )
        return tuple(prod[:d])

    def _flatten(self, lvl, a):
        if lvl == 0:
            return [a]
        out = []
        for c in a:
            out.extend(self._flatten(lvl - 1, c))
        return out

    def _unflatten(self, lvl, flat):
        if lvl == 0:
            return flat[0]
        low = lvl - 1
        step = self._dim(low)
        return tuple(
            self._unflatten(low, flat[i * step : (i + 1) * step])
            for i in range(self.degrees[low])
        )

    def _inv(self, lvl, a):
        if lvl == 0:
            if a.is_zero():
                raise ZeroDivisionError("division by zero in tower")
            return RatFunc.of(1, self.base) / a
        if self._is_zero(lvl, a):
            raise ZeroDivisionError("division by zero in tower")
        n = self._dim(lvl)
        cols = []
        basis_flat = [
            [RatFunc.of(1 if i == j else 0, self.base) for j in range(n)] for i in range(n)
        ]
        for i in range(n):
            b = self._unflatten(lvl, basis_flat[i])
            cols.append(self._flatten(lvl, self._mul(lvl, a, b)))
        target = basis_flat[0]
        zero = RatFunc.of(0, self.base)
        one = RatFunc.of(1, self.base)
        sol = gauss_jordan_solve(cols, target, zero, one)
        if sol is None:
            raise ZeroDivisionError("non-invertible tower value (not a field?)")
        return self._unflatten(lvl, sol)


def _f3_non_integral():
    """y^2 + y/x + 1 over F_3(x): f_1 has a coefficient with denominator x,
    so the level-1 product reduces over delta = x.  `extend` checks that it
    is separable (its discriminant 1/x^2 - 1 is nonzero)."""
    ctx = FqCtx(3)
    x = RatFunc.gen(ctx)
    tw = Tower(ctx).extend("y", [1, 1 / x, 1])
    assert tw.levels[0].coeffs[1].den == x.num
    return tw


TOWERS = [_shifted_quartic, _two_level_degree_8, _f3_cubic, _f3_non_integral]


@pytest.mark.parametrize("make", TOWERS)
def test_flat_arithmetic_matches_nested(make):
    tw = make()
    top = tw.top
    nested = NestedTower(tw)
    rng = random.Random(7 + top * 10 + tw.base.p)

    def flat(v):
        return tuple(nested._flatten(top, v))

    elems = [_random_elem(tw, rng) for _ in range(6)] + [tw.gen(0), tw.x() + tw.gen()]
    for a, b in zip(elems, elems[1:] + elems[:1]):
        na, nb = nested._unflatten(top, a.coords()), nested._unflatten(top, b.coords())
        assert flat(na) == a.coords()
        assert flat(nested._mul(top, na, nb)) == (a * b).coords()
        power = nested._embed_to(0, top, RatFunc.of(1, tw.base))
        for e in range(4):
            assert flat(power) == (a ** e).coords()
            power = nested._mul(top, power, na)
        if not a.is_zero():
            assert flat(nested._inv(top, na)) == (a ** -1).coords()
            assert flat(nested._mul(top, nb, nested._inv(top, na))) == (b / a).coords()
        r = _random_ratfunc(tw.base, rng)
        if not r.is_zero():
            nr = nested._inv(top, nested._embed_to(0, top, r))
            assert flat(nested._mul(top, na, nr)) == (a / r).coords()
        assert flat(nested._embed_to(0, top, r)) == tw.from_base(r).coords()


def test_embedding_pads_a_lower_level_value():
    tw = _two_level_degree_8()
    nested = NestedTower(tw)
    rng = random.Random(3)
    for _ in range(5):
        v = tuple(_random_ratfunc(tw.base, rng) for _ in range(nested._dim(1)))
        embedded = nested._embed_to(1, 2, nested._unflatten(1, v))
        assert tuple(nested._flatten(2, embedded)) == AlgElem(tw, v).coords()


# ---------------------------------------------------------------------------
# kp_discriminant against the resultant
# ---------------------------------------------------------------------------

DISC_FIELDS = [FqCtx(2), FqCtx(3), FqCtx(2, 2), FqCtx(5), FqCtx(7)]


def _random_poly_coeff(ctx, rng):
    if rng.random() < 0.8:
        return RatFunc(Poly.random(ctx, rng.randint(0, 3), rng))
    return RatFunc.of(0, ctx)


def _monic(coeffs, one):
    return list(coeffs) + [one]


@pytest.mark.parametrize("ctx", DISC_FIELDS, ids=lambda c: f"F{c.q}")
@pytest.mark.parametrize("d", range(1, 8))
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_hankel_discriminant_matches_resultant(ctx, d, seed):
    # d = 0 mod p makes p_0 = 0, so the first pivot is not column 0
    rng = random.Random(seed)
    zero, one = RatFunc.of(0, ctx), RatFunc.of(1, ctx)
    for coeff in (_random_poly_coeff, _random_ratfunc):
        g = _monic([coeff(ctx, rng) for _ in range(d)], one)
        assert kp_discriminant(g, zero, one) == resultant_discriminant(g, ctx), g


@pytest.mark.parametrize("ctx", DISC_FIELDS, ids=lambda c: f"F{c.q}")
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_hankel_discriminant_of_inseparable_is_zero(ctx, seed):
    # h(Y^p) has g' = 0: every root is repeated
    rng = random.Random(seed)
    p = ctx.p
    zero, one = RatFunc.of(0, ctx), RatFunc.of(1, ctx)
    for e in range(1, 7 // p + 1):
        h = _monic([_random_ratfunc(ctx, rng) for _ in range(e)], one)
        g = [h[i // p] if i % p == 0 else zero for i in range(p * e + 1)]
        assert resultant_discriminant(g, ctx).is_zero()
        assert kp_discriminant(g, zero, one).is_zero()


@pytest.mark.parametrize("make", [_f3_cubic, _f3_non_integral, _shifted_quartic])
@pytest.mark.parametrize("d", range(1, 5))
@settings(max_examples=3, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_hankel_discriminant_over_a_tower_level(make, d, seed):
    # coefficients in L_1, as for the defining polynomial of a second level
    tw = make()
    rng = random.Random(seed)
    zero, one = tw.from_base(0), tw.from_base(1)
    g = _monic([_random_elem(tw, rng) for _ in range(d)], one)
    assert kp_discriminant(g, zero, one) == resultant_discriminant(g, tw.base)


# ---------------------------------------------------------------------------
# the Frobenius route against the schoolbook power
# ---------------------------------------------------------------------------

def _f3_two_level():
    """s^2 - x - 1/x, u^3 - u - s over F_3(x): a rational level-1 coefficient
    under a second level."""
    ctx = FqCtx(3)
    x = RatFunc.gen(ctx)
    tw = Tower(ctx).extend("s", [-x - 1 / x, 0, 1])
    return tw.extend("u", [-tw.gen(0), -1, 0, 1], assume_irreducible=True)


def _f5_quadratic():
    ctx = FqCtx(5)
    return Tower(ctx).extend("y", [-RatFunc.gen(ctx), 0, 1])  # y^2 - x


def _f5_two_level():
    tw = _f5_quadratic()
    return tw.extend("w", [-tw.gen(0) - tw.x(), 0, 1], assume_irreducible=True)  # w^2 - y - x


def _f4_cubic():
    ctx = FqCtx(2, 2)
    x = RatFunc.gen(ctx)
    return Tower(ctx).extend("y", [x, ctx.gen, 0, 1])  # y^3 + z*y + x


def _f4_two_level():
    """y^2 + y + z/x, w^2 + w + x*y over F_4(x)."""
    ctx = FqCtx(2, 2)
    x = RatFunc.gen(ctx)
    tw = Tower(ctx).extend("y", [ctx.gen / x, 1, 1])
    return tw.extend("w", [tw.x() * tw.gen(0), 1, 1], assume_irreducible=True)


FROBENIUS_TOWERS = [
    _shifted_quartic, _two_level_degree_8, _f3_cubic, _f3_non_integral, _f3_two_level,
    _f5_quadratic, _f5_two_level, _f4_cubic, _f4_two_level,
]


def _schoolbook_power(tw, a, n):
    """a^n by square-and-multiply over the tower product (n < 0 inverts)."""
    if n < 0:
        a, n = tw._inv(a), -n
    return power(a, n, partial(tw._mul, tw.top)) if n else tw.from_base(1).val


@pytest.mark.parametrize("make", FROBENIUS_TOWERS)
@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), e=st.integers(0, 2), m=st.integers(1, 3),
       sign=st.sampled_from([1, -1]))
def test_frobenius_matches_schoolbook_power(make, seed, e, m, sign):
    tw = make()
    p = tw.base.p
    a = _random_elem(tw, random.Random(seed))
    assert tw._frobenius(a.val) == _schoolbook_power(tw, a.val, p)
    n = sign * p ** e * m
    if a.is_zero() and n < 0:
        return
    assert (a ** n).val == _schoolbook_power(tw, a.val, n)


@pytest.mark.parametrize("make", [_shifted_quartic, _f3_non_integral, _f5_quadratic, _f4_cubic])
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_frobenius_table_is_rebuilt_after_extend(make, seed):
    # the first level's table is built, then a level is added on top
    tw = make()
    p = tw.base.p
    rng = random.Random(seed)
    a = _random_elem(tw, rng)
    assert (a ** p).val == _schoolbook_power(tw, a.val, p)
    tw.extend("w", [tw.x() * tw.gen(0), 1] + [0] * (p - 2) + [1], assume_irreducible=True)  # w^p + w + x*g_1
    b = _random_elem(tw, rng)
    assert (b ** (p * 2)).val == _schoolbook_power(tw, b.val, p * 2)
    assert len(tw._frob[0]) == tw.degree_total()


@pytest.mark.parametrize("make", FROBENIUS_TOWERS)
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_frobenius_rows_are_built_as_needed(make, seed):
    # the power of one basis element builds its row alone; a full element
    # then reads that row beside the ones it builds
    tw = make()
    p, g = tw.base.p, tw.gen()
    assert (g ** p).val == _schoolbook_power(tw, g.val, p)
    assert sum(row is not None for row in tw._frob[0]) == 1
    a = _random_elem(tw, random.Random(seed))
    assert tw._frobenius(a.val) == _schoolbook_power(tw, a.val, p)
