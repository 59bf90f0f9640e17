"""The coprime basis and the addendum against the code they replaced.

`oracle_coprime_basis` is the refinement loop of the earlier
`unitgrp.build_group`, kept as it was: a recursive `insert` that takes a
basis element b out when a new squarefree part f meets it in g =
gcd(f, b) != 1 and inserts g, b/g and f/g in turn.  `coprime_basis` runs
the same loop on a stack; it must return the same basis through the same
sequence of gcds, and it must not run out of frames where the recursion
does.

`oracle_addendum_report` is the earlier `frobsearch.addendum_report`, kept
as it was: it factored both elements completely (`support`), compared the
valuation ratios at the places outside T, and checked the pair it found by
the direct power s^M/t^N.  `addendum_report` now reads the same answer off
the coprime basis of the two parts outside T and factors nothing.

The fields are F_2, F_3 and F_7, and T is {inf} or holds a finite place.
"""

import inspect
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monogenic import (
    AddendumReport,
    FqCtx,
    PlaceSet,
    Poly,
    RatFunc,
    addendum_report,
    build_group,
    is_T_integer,
    is_T_unit,
    support,
)
from monogenic.funcfield import coprime_basis, factor_over
from monogenic.monorder import POLY_RING
from monogenic.unitgrp import MAX_RANK
from test_place_oracle import random_places

FIELDS = [FqCtx(2), FqCtx(3), FqCtx(7)]


def oracle_coprime_basis(polys):
    pool = []
    for poly in polys:
        for sf, _ in poly.monic().squarefree_decomposition():
            if not sf.is_constant():
                pool.append(sf)

    base = []

    def insert(f):
        if f.is_constant():
            return
        i = 0
        while i < len(base):
            b = base[i]
            g = f.gcd(b)
            if g.is_one():
                i += 1
                continue
            # split b (and f) along the common part and restart the scan
            base.pop(i)
            parts = [g, b // g]
            rest = f // g
            for part in parts:
                insert(part)
            insert(rest)
            return
        base.append(f)

    for f in pool:
        insert(f)
    base.sort(key=Poly.sort_key)
    return base


def oracle_addendum_report(s, t, ring=POLY_RING):
    e = f = 1
    s_in = is_T_integer(s, ring)
    t_in = is_T_integer(t, ring)
    if not (s_in or t_in):
        raise ValueError("hypothesis violated: route back to the grid search")
    s_unit = s_in and not s.is_zero() and is_T_unit(s, ring)
    t_unit = t_in and not t.is_zero() and is_T_unit(t, ring)
    if s_in and t_in:
        if s_unit and t_unit:
            return AddendumReport(e, f, True, True, True, True, None,
                                  "both units: full residue grid (k,l) + eN x fN")
        if s_unit != t_unit:
            return AddendumReport(e, f, True, True, s_unit, t_unit, None,
                                  "empty: exactly one side is a unit")
        # neither unit: minimal (M, N) with s^{eM}/t^{fN} a unit, by
        # proportionality of the valuation vectors at the places outside T
        sup_s = {v: m for v, m in support(s).items() if v not in ring}
        sup_t = {v: m for v, m in support(t).items() if v not in ring}
        if set(sup_s) != set(sup_t):
            return AddendumReport(e, f, True, True, False, False, None,
                                  "empty: divisors are not proportional")
        ratio = None
        for v, m in sup_s.items():
            r = Fraction(sup_t[v], m)
            if ratio is None:
                ratio = r
            elif ratio != r:
                return AddendumReport(e, f, True, True, False, False, None,
                                      "empty: divisors are not proportional")
        # both supports hold positive valuations (s, t are T-integers), so
        # the ratio is positive and M, N >= 1
        M, N = ratio.numerator, ratio.denominator
        if not is_T_unit(s ** (e * M) / t ** (f * N), ring):
            raise AssertionError("the minimal pair's ratio s^M/t^N is not a unit")
        return AddendumReport(e, f, True, True, False, False, (M, N),
                              "progression structure with the minimal unit-ratio pair")
    side = "s" if s_in else "t"
    other_unit = s_unit if s_in else t_unit
    verdict = (
        f"only {side}-powers lie in O; "
        + ("unit side: residue-progression structure" if other_unit
           else "Frobenius-union structure on the searched set")
    )
    return AddendumReport(e, f, s_in, t_in, s_unit, t_unit, None, verdict)


def _gcd_log(monkeypatch):
    """Record the operands of every `Poly.gcd` call from here on."""
    log = []
    gcd = Poly.gcd

    def logged(self, other):
        log.append((self, other))
        return gcd(self, other)

    monkeypatch.setattr(Poly, "gcd", logged)
    return log


def _random_polys(ctx, rng):
    """A few nonzero polynomials that share factors: products of powers of
    random polynomials of degree 1 to 3 (often reducible) and a constant."""
    parts = [Poly.random(ctx, rng.randint(1, 3), rng) for _ in range(rng.randint(1, 4))]
    parts = [u for u in parts if not u.is_zero()] or [Poly.x(ctx)]
    polys = []
    for _ in range(rng.randint(1, 4)):
        f = Poly.random(ctx, 0, rng) or Poly.one(ctx)
        for u in rng.sample(parts, rng.randint(0, len(parts))):
            f = f * u ** rng.randint(1, 3)
        polys.append(f)
    return polys


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(0, 2 ** 32))
def test_coprime_basis_replays_the_recursive_refinement(ctx, seed):
    polys = _random_polys(ctx, random.Random(seed))
    with pytest.MonkeyPatch.context() as mp:
        log = _gcd_log(mp)
        expected = oracle_coprime_basis(polys)
        oracle_gcds = list(log)
        del log[:]
        basis = coprime_basis(polys)
    assert basis == expected
    assert log == oracle_gcds
    for i, b in enumerate(basis):
        assert b.is_monic() and not b.is_constant()
        assert b.gcd(b.derivative()).is_one()
        assert all(b.gcd(c).is_one() for c in basis[i + 1:])
    for f in polys:
        assert factor_over(basis, RatFunc(f)) is not None


def test_refinement_needs_no_recursion():
    # x+1, ..., x+n, then their product: the product meets the basis once
    # for each linear factor, and the recursive refinement nested one
    # insert per factor, past the frames left here
    ctx = FqCtx(65521)
    n = 150
    linear = [Poly(ctx, [i, 1]) for i in range(1, n + 1)]
    product = Poly.one(ctx)
    for u in linear:
        product = product * u
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 100)
    try:
        with pytest.raises(RecursionError):
            oracle_coprime_basis(linear + [product])
        gctx = build_group([RatFunc(u) for u in linear] + [RatFunc(product)], ctx)
    finally:
        sys.setrecursionlimit(limit)
    assert list(gctx.basis) == linear
    assert gctx.gen_vectors[-1] == (1,) * n


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(0, 2 ** 32))
def test_solver_refinement_refuses_exactly_past_the_rank_cap(ctx, seed):
    # the working basis never outgrows the whole one and grows one element
    # at a time: refinement stopped past any limit returns the whole basis
    # or exactly limit + 1 elements, and unit-solve's build_group refuses
    # exactly the groups of rank past MAX_RANK
    rng = random.Random(seed)
    polys = [f for _ in range(4) for f in _random_polys(ctx, rng)]
    whole = coprime_basis(polys)
    for limit in range(len(whole) + 1):
        stopped = coprime_basis(polys, limit)
        assert stopped == whole if len(whole) <= limit else len(stopped) == limit + 1
    gens = [RatFunc(f) / RatFunc(g) for f, g in zip(polys[::2], polys[1::2])] or [RatFunc(polys[0])]
    group = build_group(gens, ctx)
    if group.rank > MAX_RANK:
        with pytest.raises(ValueError, match="rank too large"):
            build_group(gens, ctx, for_solver=True)
    else:
        assert build_group(gens, ctx, for_solver=True).basis == group.basis


def _random_pair(ctx, T, rng):
    """(s, t) that are often T-integers with proportional divisors outside
    T: constants times powers u^m and u^n of one polynomial u (a product of
    places and, now and then, a random polynomial), times places of T; one
    side is sometimes spoilt by another place or a denominator."""
    pis = random_places(ctx, 3, rng)
    u = Poly.one(ctx)
    for pi in pis + list(T.finite_pis):
        u = u * pi ** rng.randint(0, 2)
    if rng.random() < 0.3:
        u = u * (Poly.random(ctx, rng.randint(1, 3), rng) or Poly.x(ctx))
    sides = []
    for _ in range(2):
        f = RatFunc(u ** rng.randint(1, 3)) * RatFunc(Poly.random(ctx, 0, rng) or Poly.one(ctx))
        for pi in T.finite_pis:
            f = f * RatFunc(pi) ** rng.randint(-2, 2)
        sides.append(f)
    spoil = rng.random()
    i = rng.randint(0, 1)
    if spoil < 0.2:
        sides[i] = sides[i] * RatFunc(rng.choice(pis))
    elif spoil < 0.3:
        sides[i] = sides[i] / RatFunc(rng.choice(pis))
    return sides


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(FIELDS), st.booleans(), st.integers(0, 2 ** 32))
def test_addendum_matches_factoring_oracle(ctx, finite_place, seed):
    rng = random.Random(seed)
    T = PlaceSet.of(*random_places(ctx, 1, rng)) if finite_place else PlaceSet()
    s, t = _random_pair(ctx, T, rng)
    try:
        expected = oracle_addendum_report(s, t, T)
    except ValueError:
        with pytest.raises(ValueError, match="hypothesis violated"):
            addendum_report(s, t, T)
        return
    assert addendum_report(s, t, T) == expected, (s, t, T)

