"""The x + y = 1 solver against the all-pairs solver it replaced.

The oracle below is the earlier code, kept as it was: `oracle_value`
multiplied normalized rational functions, `oracle_factor` read each
exponent as the multiplicity of an irreducible witness factor of the basis
element (now through `Poly.split_off`, which took over from
`Poly.multiplicity_of`) and divided it out as a rational function, and
`oracle_solve`
tested every ordered pair of nontrivial cosets of H/H^p for
eps_j in L^p + L^p eps_i and factored x and y themselves.  The solver must
return the same family list, with the same printed families, and agree with
`brute_force_xy1` on exponent box 1.  It solves each unordered pair once,
so its nontorsion families come in swapped pairs (x0, y0), (y0, x0), and it
splits one polynomial per coset and one per unordered pair that the oracle
reached.

`pair_loop_solve` is the pair loop that came between the two, kept as it
was but for reading `pth_power_decompose`'s numerators over a.den: it
solved each unordered pair once on normalized rational functions,
b = c_m0/d_m0, a = c_0 - b d_0, y1 = 1/a and x1 = -b/a, and factored x1
and y1 with `GroupCtx.factor_over_basis`.  The solver now solves a pair
from one determinant of polynomial numerators and builds each value from
its exponents; it must return the same families with the same values.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monogenic import FqCtx, Poly, RatFunc, brute_force_xy1, build_group, solve_xy1, unitgrp
from monogenic.gf import split_power
from monogenic.unitgrp import GroupCtx, GroupElem, SolutionFamily, pth_power_decompose

FIELDS = [FqCtx(2), FqCtx(3), FqCtx(5), FqCtx(7), FqCtx(2, 2)]

# the all-pairs oracle is quadratic in the number p^rank of cosets
MAX_COSETS = 81


def oracle_value(gctx, torsion, exponents):
    out = RatFunc.of(torsion, gctx.ctx)
    for b, e in zip(gctx.basis, exponents):
        if e:
            out = out * RatFunc(b) ** e
    return out


def oracle_factor(gctx, a):
    if a.is_zero():
        return None
    vec = []
    rest = a
    for b in gctx.basis:
        pi = b.factor()[1][0][0]  # an irreducible witness factor of b
        e = rest.num.split_off(pi)[0] - rest.den.split_off(pi)[0]
        vec.append(e)
        if e:
            rest = rest / RatFunc(b) ** e
    if not rest.is_constant():
        return None
    return rest.constant_value(), tuple(vec)


def decompose(a):
    """c_0..c_{p-1} with a = sum c_m^p x^m, as rational functions."""
    return [RatFunc(g, a.den) for g in pth_power_decompose(a)]


def oracle_solve(gctx, height_bound=64):
    ctx = gctx.ctx
    p = ctx.p
    families = []

    seen = set()
    for xe in ctx.elements():
        if xe.is_zero() or xe == ctx.one:
            continue
        ye = ctx.one - xe
        if ye.is_zero():
            continue
        if (xe.raw, ye.raw) in seen:
            continue
        orbit = []
        cur = (xe, ye)
        while cur not in orbit:
            orbit.append(cur)
            cur = (cur[0].frobenius(), cur[1].frobenius())
        rep = min(orbit, key=lambda t: (t[0].raw, t[1].raw))
        for o in orbit:
            seen.add((o[0].raw, o[1].raw))
        zvec = (0,) * gctx.rank
        families.append(
            SolutionFamily(
                GroupElem(gctx, rep[0], zvec), GroupElem(gctx, rep[1], zvec), True
            )
        )

    sat = gctx.sat_basis
    rho = len(sat)
    cosets = []
    for tup in itertools.product(range(p), repeat=rho):
        vec = tuple(
            sum(tup[i] * sat[i][c] for i in range(rho)) for c in range(gctx.rank)
        )
        cosets.append((tup, vec))
    nonzero = [cv for cv in cosets if any(cv[0])]

    decomp_cache = {}

    def decomp(vec):
        if vec not in decomp_cache:
            decomp_cache[vec] = decompose(oracle_value(gctx, ctx.one, vec))
        return decomp_cache[vec]

    one_rf = RatFunc.of(1, ctx)
    for (ti, vi) in nonzero:
        d = decomp(vi)
        support = [m for m in range(1, p) if not d[m].is_zero()]
        if not support:
            raise AssertionError("nontrivial coset representative is a p-th power")
        for (tj, vj) in nonzero:
            c = decomp(vj)
            m0 = support[0]
            b_val = c[m0] / d[m0]
            if any(c[m] != b_val * d[m] for m in range(1, p)):
                continue
            a_val = c[0] - b_val * d[0]
            if a_val.is_zero():
                continue
            y1 = one_rf / a_val
            x1 = -b_val / a_val
            if x1.is_zero():
                continue
            x = x1 ** p * oracle_value(gctx, ctx.one, vi)
            y = y1 ** p * oracle_value(gctx, ctx.one, vj)
            if x + y != one_rf:
                raise AssertionError("coset solution does not satisfy x + y = 1")
            fx = oracle_factor(gctx, x)
            fy = oracle_factor(gctx, y)
            if fx is None or fy is None:
                continue
            if not (gctx.in_saturation(fx[1]) and gctx.in_saturation(fy[1])):
                continue
            n = None
            for k in range(height_bound + 1):
                scale = p ** k
                if gctx.in_lattice([e * scale for e in fx[1]]) and gctx.in_lattice(
                    [e * scale for e in fy[1]]
                ):
                    n = k
                    break
            if n is None:
                continue
            ex = GroupElem(gctx, fx[0], fx[1]).pth_power(n) if n else GroupElem(gctx, fx[0], fx[1])
            ey = GroupElem(gctx, fy[0], fy[1]).pth_power(n) if n else GroupElem(gctx, fy[0], fy[1])
            families.append(SolutionFamily(ex, ey, False))

    families.sort(key=lambda f: (not f.torsion, f.x0.key(), f.y0.key()))
    return families


def pair_loop_solve(gctx, height_bound=64):
    ctx = gctx.ctx
    p = ctx.p
    sat = gctx.sat_basis
    families = []

    zvec = (0,) * gctx.rank
    for xe in ctx.elements():
        ye = ctx.one - xe
        if xe.is_zero() or ye.is_zero() or any(
                ctx.rfrob(xe.raw, e) < xe.raw for e in range(1, ctx.k)):
            continue
        families.append(SolutionFamily(
            GroupElem(gctx, xe, zvec), GroupElem(gctx, ye, zvec), True))

    index = unitgrp._pivot_product(gctx.lattice) // unitgrp._pivot_product(sat)
    descent = min(split_power(index, p)[0], height_bound)

    rho = len(sat)
    buckets = {}
    for tup in itertools.product(range(p), repeat=rho):
        if not any(tup):
            continue
        vec = tuple(
            sum(tup[i] * sat[i][c] for i in range(rho)) for c in range(gctx.rank)
        )
        val = gctx.value(ctx.one, vec)
        d = decompose(val)
        m0 = next((m for m in range(1, p) if not d[m].is_zero()), None)
        if m0 is None:
            raise AssertionError("nontrivial coset representative is a p-th power")
        key = (m0, tuple(d[m] / d[m0] for m in range(1, p)))
        buckets.setdefault(key, []).append((vec, val, d))

    one_rf = RatFunc.of(1, ctx)
    for (m0, _), members in buckets.items():
        for i, (vi, val_i, d) in enumerate(members):
            for vj, val_j, c in members[i + 1:]:
                b_val = c[m0] / d[m0]
                a_val = c[0] - b_val * d[0]
                if a_val.is_zero():
                    continue
                y1 = one_rf / a_val
                x1 = -b_val / a_val
                xn, xd = x1.num ** p * val_i.num, x1.den ** p * val_i.den
                yn, yd = y1.num ** p * val_j.num, y1.den ** p * val_j.den
                if xn * yd + yn * xd != xd * yd:
                    raise AssertionError("coset solution does not satisfy x + y = 1")
                f1x = gctx.factor_over_basis(x1)
                if f1x is None:
                    continue
                f1y = gctx.factor_over_basis(y1)
                if f1y is None:
                    continue
                ex = tuple(p * e + v for e, v in zip(f1x[1], vi))
                ey = tuple(p * e + v for e, v in zip(f1y[1], vj))
                if not (gctx.in_saturation(ex) and gctx.in_saturation(ey)):
                    continue
                n = next((k for k in range(descent + 1)
                          if gctx.in_lattice([e * p ** k for e in ex])
                          and gctx.in_lattice([e * p ** k for e in ey])), None)
                if n is None:
                    continue
                q = p ** n
                x0 = GroupElem(gctx, f1x[0].frobenius(n + 1), tuple(e * q for e in ex),
                               RatFunc(xn, xd) ** q)
                y0 = GroupElem(gctx, f1y[0].frobenius(n + 1), tuple(e * q for e in ey),
                               RatFunc(yn, yd) ** q)
                families += [SolutionFamily(x0, y0, False), SolutionFamily(y0, x0, False)]

    families.sort(key=lambda f: (not f.torsion, f.x0.key(), f.y0.key()))
    return families


def random_group(ctx, rank, rng):
    """A group from up to `rank` generators: often a pair c(x - a), 1 - c(x - a)
    (so that x + y = 1 has nontorsion solutions), then random polynomials
    and quotients of degree 1 or 2, some of them powers."""
    x = RatFunc.gen(ctx)
    gens = []
    if rng.random() < 0.7:
        c = ctx.random_elem(rng)
        while c.is_zero():
            c = ctx.random_elem(rng)
        a = ctx.random_elem(rng)
        u = (x - RatFunc.of(a, ctx)) * RatFunc.of(c, ctx)
        gens += [u, 1 - u]
    while len(gens) < rank:
        f = RatFunc(Poly.random(ctx, rng.randint(1, 2), rng))
        if rng.random() < 0.3:
            f = f / RatFunc(Poly.random(ctx, 1, rng))
        if f.is_constant() or f.is_zero():
            continue
        gens.append(f ** rng.choice((1, 1, 2, ctx.p)))
    if rng.random() < 0.3:
        gens.append(RatFunc.of(ctx.random_elem(rng), ctx) or x)
    return build_group(gens, ctx)


def brute_agrees(gctx, families, box=1):
    """Every brute-force solution in the box is a p-power twist of a family
    representative, and every representative inside the box is one."""
    twists = set()
    for f in families:
        for k in range(4):
            x = f.x0.pth_power(k) if k else f.x0
            y = f.y0.pth_power(k) if k else f.y0
            twists.add((x.key(), y.key()))
    brute = {(x.key(), y.key()) for x, y in brute_force_xy1(gctx, box)}
    assert brute <= twists
    for f in families:
        if all(abs(e) <= box for e in f.x0.exponents + f.y0.exponents):
            assert (f.x0.key(), f.y0.key()) in brute


@given(st.sampled_from(FIELDS), st.integers(1, 4), st.integers(0, 2 ** 32))
@settings(max_examples=40, deadline=None)
def test_solver_matches_all_pairs_oracle(ctx, rank, seed):
    rng = random.Random(seed)
    gctx = random_group(ctx, rank, rng)
    if ctx.p ** len(gctx.sat_basis) > MAX_COSETS:
        return
    fams = solve_xy1(gctx)
    want = oracle_solve(gctx)
    assert fams == want
    assert [f.describe() for f in fams] == [f.describe() for f in want]
    for f in fams:
        assert f.x0.value() == oracle_value(gctx, f.x0.torsion, f.x0.exponents)
        assert f.x0.value() + f.y0.value() == RatFunc.of(1, ctx)
    brute_agrees(gctx, fams)


@given(st.sampled_from(FIELDS), st.integers(1, 4), st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_solver_matches_pair_loop(ctx, rank, seed):
    # the families are equal as keys, and `known_value` is compare=False,
    # so the values are compared one by one
    gctx = random_group(ctx, rank, random.Random(seed))
    if ctx.p ** len(gctx.sat_basis) > unitgrp.ENUMERATION_CAP:
        return
    fams = solve_xy1(gctx)
    want = pair_loop_solve(gctx)
    assert fams == want
    for f, w in zip(fams, want):
        assert (f.x0.value(), f.y0.value()) == (w.x0.value(), w.y0.value())


def test_solver_matches_oracle_on_workload_groups():
    """The unit-solve shapes of the benchmark: c + x and (1 - c) - x plus
    monic polynomials of degree 1 or 2, rank 3 and 4 over F_3, rank 3 over
    F_4 and rank 2 over F_5."""
    rng = random.Random(7)
    for ctx, rank in ((FqCtx(3), 3), (FqCtx(3), 4), (FqCtx(2, 2), 3), (FqCtx(5), 2)):
        x = RatFunc.gen(ctx)
        while True:
            c = RatFunc.of(ctx.random_elem(rng), ctx)
            gens = [c + x, 1 - c - x]
            for _ in range(rank - 2):
                gens.append(RatFunc(Poly.random(ctx, rng.randint(1, 2), rng).monic()))
            gctx = build_group(gens, ctx)
            if gctx.rank == rank:
                break
        fams = solve_xy1(gctx, 32)
        assert fams == oracle_solve(gctx, 32)
        assert any(not f.torsion for f in fams)


@given(st.sampled_from(FIELDS), st.integers(1, 4), st.integers(0, 2 ** 32))
@settings(max_examples=60, deadline=None)
def test_value_and_factor_match_oracle(ctx, rank, seed):
    rng = random.Random(seed)
    gctx = random_group(ctx, rank, rng)
    for _ in range(5):
        tau = ctx.random_elem(rng)
        if tau.is_zero():
            continue
        vec = tuple(rng.randint(-4, 4) for _ in range(gctx.rank))
        val = gctx.value(tau, vec)
        want = oracle_value(gctx, tau, vec)
        assert (val.num, val.den) == (want.num, want.den)
        assert gctx.factor_over_basis(val) == oracle_factor(gctx, val) == (tau, vec)
        # something that rarely factors: the value plus a random polynomial
        other = val + RatFunc(Poly.random(ctx, rng.randint(0, 3), rng))
        assert gctx.factor_over_basis(other) == oracle_factor(gctx, other)


def test_group_basis_must_be_monic():
    F7 = FqCtx(7)
    with pytest.raises(ValueError):
        GroupCtx(F7, [Poly(F7, [1, 2])], [[1]], [F7.one])


def _solve_counting_lattice_calls(gctx, monkeypatch):
    calls = []
    real = GroupCtx.in_lattice
    monkeypatch.setattr(GroupCtx, "in_lattice",
                        lambda self, v: calls.append(v) or real(self, v))
    fams = solve_xy1(gctx)
    monkeypatch.undo()
    return fams, len(calls)


def _index_two_group():
    """<x, 2x + 1, x^2 + x + 2, (x + 1)^2> over F_3: 109 families, 111
    unordered coset pairs with a != 0, and [Sat:L] = 2."""
    F3 = FqCtx(3)
    x = Poly.x(F3)
    return build_group([x, 2 * x + 1, x ** 2 + x + 2, x ** 2 + 2 * x + 1], F3)


def test_descent_stops_at_the_index_valuation(monkeypatch):
    # x^2+2x+1 = (x+1)^2, so [Sat:L] = 2 and v_3([Sat:L]) = 0: a candidate
    # lands in G untwisted or never, and one or two lattice tests decide it.
    # The scan of every k up to the height bound made 10,096 of them.
    gctx = _index_two_group()
    fams, calls = _solve_counting_lattice_calls(gctx, monkeypatch)
    assert calls <= 191
    assert fams == oracle_solve(gctx)
    assert len(fams) == 109


@given(st.sampled_from(FIELDS), st.integers(1, 4), st.integers(0, 2 ** 32))
@settings(max_examples=40, deadline=None)
def test_nontorsion_families_are_closed_under_the_swap(ctx, rank, seed):
    # the solver solves each unordered coset pair once and emits (x0, y0)
    # with (y0, x0); the ordered pairs of the oracle must give both too
    gctx = random_group(ctx, rank, random.Random(seed))
    if ctx.p ** len(gctx.sat_basis) > MAX_COSETS:
        return
    pairs = {(f.x0.key(), f.y0.key()) for f in solve_xy1(gctx) if not f.torsion}
    assert pairs == {(y, x) for x, y in pairs}
    assert pairs == {(f.x0.key(), f.y0.key()) for f in oracle_solve(gctx) if not f.torsion}


def _solvable_ordered_pairs(gctx):
    """The ordered pairs (eps_i, eps_j) of distinct nontrivial cosets with
    eps_j = a + b eps_i, a != 0, b in L^p: the pairs that reach the
    factoring step of the all-pairs oracle."""
    ctx = gctx.ctx
    p = ctx.p
    sat = gctx.sat_basis
    decomps = []
    for tup in itertools.product(range(p), repeat=len(sat)):
        if any(tup):
            vec = [sum(t * row[c] for t, row in zip(tup, sat)) for c in range(gctx.rank)]
            decomps.append(decompose(oracle_value(gctx, ctx.one, vec)))
    count = 0
    for d, c in itertools.permutations(decomps, 2):
        m0 = next(m for m in range(1, p) if not d[m].is_zero())
        b_val = c[m0] / d[m0]
        if all(c[m] == b_val * d[m] for m in range(1, p)) and c[0] != b_val * d[0]:
            count += 1
    return count


def _solve_counting_splits(gctx, monkeypatch, perturb=lambda n, out: out):
    """solve_xy1 with `unitgrp.split_over` counted; `perturb(n, out)` may
    change the result of the n-th call."""
    calls = []
    real = unitgrp.split_over

    def counted(basis, a):
        calls.append(a)
        return perturb(len(calls) - 1, real(basis, a))

    monkeypatch.setattr(unitgrp, "split_over", counted)
    try:
        return solve_xy1(gctx), len(calls)
    finally:
        monkeypatch.undo()


def test_each_unordered_pair_is_factored_once(monkeypatch):
    # the all-pairs solver factored x1 and y1 for each ordered pair, 444
    # calls here; now each coset splits its g_m0 once, and each unordered
    # pair with a != 0 splits its determinant once
    gctx = _index_two_group()
    ordered = _solvable_ordered_pairs(gctx)
    assert ordered == 222
    cosets = gctx.ctx.p ** len(gctx.sat_basis) - 1
    fams, calls = _solve_counting_splits(gctx, monkeypatch)
    assert 0 < calls <= cosets + ordered // 2
    assert fams == oracle_solve(gctx)


def test_value_tie_catches_a_wrong_split_exponent(monkeypatch):
    # the cosets' splits come first; adding a lattice vector to each of
    # them moves the exponents of every x and y by p times that vector,
    # which keeps the saturation and descent tests as they were, so only
    # the tie of each value to its checked fraction can see it
    gctx = _index_two_group()
    cosets = gctx.ctx.p ** len(gctx.sat_basis) - 1
    shift = gctx.lattice[0]

    def wrong(n, out):
        if n >= cosets:
            return out
        vec, num, den = out
        return tuple(e + s for e, s in zip(vec, shift)), num, den

    with pytest.raises(AssertionError,
                       match=r"^family value does not match its checked fraction$"):
        _solve_counting_splits(gctx, monkeypatch, wrong)


def test_self_check_catches_a_wrong_decomposition(monkeypatch):
    # the numerator g_0 of the constant part off by one moves the
    # determinant but not the bucket, and W, read off the coset value, does
    # not move: -h_m0^p W_i + g_m0^p W_j != delta^p for some pair
    gctx = _index_two_group()
    real = unitgrp.pth_power_decompose

    def perturbed(a):
        d = real(a)
        return [d[0] + 1] + d[1:]

    monkeypatch.setattr(unitgrp, "pth_power_decompose", perturbed)
    with pytest.raises(AssertionError, match=r"^coset solution does not satisfy x \+ y = 1$"):
        solve_xy1(gctx)


@pytest.mark.parametrize("power", [3, 9])
def test_descent_reaches_the_index_valuation(power):
    # G = <x, (1 - x)^power> over F_3 has [Sat:L] = power: x + (1 - x) = 1
    # lands in G only after v_3(power) Frobenius twists
    F3 = FqCtx(3)
    x = Poly.x(F3)
    gctx = build_group([x, (1 - x) ** power], F3)
    lattice_pivots = math.prod(next(c for c in row if c) for row in gctx.lattice)
    sat_pivots = math.prod(next(c for c in row if c) for row in gctx.sat_basis)
    assert lattice_pivots // sat_pivots == power
    fams = solve_xy1(gctx)
    assert fams == oracle_solve(gctx)
    assert any(f.x0.value() == RatFunc(x) ** power for f in fams)
    # a height bound below v_3(index) cuts the twist off, as the scan did
    assert solve_xy1(gctx, 0) == oracle_solve(gctx, 0)
