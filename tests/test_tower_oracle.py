"""Flat tower values against the nested representation they replaced.

A tower value was a tuple of lower-level values, one per power of the top
generator, nested down to elements of K; it is now the flat tuple of its
coordinates over K.  The oracle below is the earlier nested arithmetic,
kept as it was (`_embed_to`, `_mul`, `_inv`, `_flatten` and the helpers
they call), with its linear solve done by the kept Gauss-Jordan oracle.
On random elements of four towers, one of them with a level-1 defining
polynomial that is not integral, products, powers, inverses, divisions by
elements of K and embeddings must agree after flattening.
"""

import random

import pytest

from monogenic import FqCtx, RatFunc, Tower
from test_linalg_oracle import gauss_jordan_solve
from test_parse import (
    _f3_cubic, _random_elem, _random_ratfunc, _shifted_quartic, _two_level_degree_8,
)


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
        assert tuple(nested._flatten(2, embedded)) == tw._embed(v).coords()
