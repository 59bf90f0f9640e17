"""The lazy order record against the eager one it replaced.

A `MonOrder` used to build everything when it was made: it fed 1, s, s^2,
... to a `SpanTracker` by repeated multiplication up to the first
dependent power, took the minimal polynomial from the combination that
`add` returned there, and judged integrality by the coefficients of that
polynomial.  `eager_record` below is that loop, kept as it was, with
integrality judged by the factorization-based oracle of
`test_place_oracle`.

Now a record builds its degree, pivot and key when made, and its minimal
polynomial when first read; `integral` answers without the minimal
polynomial when the generator's coordinates and every level's
coefficients are T-integers.  On random elements of one- and two-level
towers, some with rational level coefficients, and over rings with
finite places in T, every field must equal the oracle's, a record built
with `require_integral=False` must not have built its minimal polynomial,
`integral` must not build it on the shortcut, and `require_integral=True`
must raise exactly for a non-integral generator, naming the first
non-integral coefficient.  A record fed from a shared cache of powers
must equal the one that multiplies out its own.
"""

import random
import re
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monogenic import FqCtx, PlaceSet, Poly, RatFunc, Tower
from monogenic.funcfield import unit_class
from monogenic.linalg import SpanTracker
from monogenic.monorder import POLY_RING, MonOrder
from monogenic.tower import power_of
from test_parse import _random_elem, _shifted_quartic, _two_level_degree_8
from test_place_oracle import oracle_is_T_integer

F2, F3 = FqCtx(2), FqCtx(3)


def eager_record(gen, ring):
    """(minpoly, d, pivot, key, integral) of gen, all computed at once."""
    tower = gen.tower
    ctx = tower.base
    one = RatFunc.of(1, ctx)
    span = SpanTracker(RatFunc.of(0, ctx), one)
    power = tower.from_base(one)
    while True:
        combo = span.add(power.coords())
        if combo is not None:
            break
        power = power * gen
    minpoly = [-c for c in combo] + [one]
    columns, pivot = span.pivots()
    key = (frozenset(columns), unit_class(pivot, ring))
    integral = all(oracle_is_T_integer(c, ring) for c in minpoly)
    return minpoly, len(combo), pivot, key, integral


def _rational_towers():
    x2, x3 = RatFunc.gen(F2), RatFunc.gen(F3)
    # y^2 + y + 1/x over F_2, and y^3 - y - x/(x+1) over F_3
    artin = Tower(F2).extend("y", [1 / x2, 1, 1], assume_irreducible=True)
    cubic = Tower(F3).extend("y", [-x3 / (x3 + 1), -1, 0, 1], assume_irreducible=True)
    # y^2 = x and w^2 = y + 1/x over F_3: a second level with a rational coefficient
    two = Tower(F3).extend("y", [-x3, 0, 1])
    two.extend("w", [-two.gen(0) - 1 / x3, 0, 1], assume_irreducible=True)
    return {"artin": artin, "cubic": cubic, "two-level": two}


TOWERS = {"quartic": _shifted_quartic(), "degree-8": _two_level_degree_8(),
          **_rational_towers()}


def _rings(ctx):
    xp = Poly.x(ctx)
    return [POLY_RING, PlaceSet.of(xp), PlaceSet.of(xp, xp + 1)]


def _shortcut(gen, ring):
    """The generator's and every level's coordinates are T-integers."""
    vals = [gen.val] + [c if isinstance(c, tuple) else (c,)
                        for level in gen.tower.levels for c in level.coeffs]
    return all(oracle_is_T_integer(c, ring) for v in vals for c in v)


@given(st.sampled_from(sorted(TOWERS)), st.integers(0, 2 ** 32), st.integers(0, 2),
       st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_lazy_record_matches_eager_oracle(name, seed, ring_index, m):
    tw = TOWERS[name]
    base = _random_elem(tw, random.Random(seed))
    gen = base ** m
    ring = _rings(tw.base)[ring_index]
    minpoly, d, pivot, key, integral = eager_record(gen, ring)
    rec = MonOrder(gen, ring, require_integral=False)
    assert (rec.d, rec.pivot, rec.key) == (d, pivot, key)
    assert "minpoly" not in vars(rec)
    assert rec.integral == integral
    if _shortcut(gen, ring):
        assert integral and "minpoly" not in vars(rec)
    assert rec.minpoly == minpoly
    if integral:
        assert MonOrder(gen, ring).key == key
    else:
        bad = next(c for c in minpoly if not oracle_is_T_integer(c, ring))
        with pytest.raises(ValueError, match=re.escape(f"(minimal polynomial coefficient {bad!r})")):
            MonOrder(gen, ring)
    # gen = base^m, fed from a cache of the powers of base that other
    # records share
    pows = {1: base}
    power_of(pows, 1, 5)
    fed = MonOrder(power_of(pows, 1, m), ring, require_integral=False,
                   power=partial(power_of, pows, m))
    assert fed.span.rows == rec.span.rows and fed.minpoly == minpoly
