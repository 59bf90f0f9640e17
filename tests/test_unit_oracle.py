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
`brute_force_xy1` on exponent box 1.
"""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monogenic import FqCtx, Poly, RatFunc, brute_force_xy1, build_group, solve_xy1
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
            decomp_cache[vec] = pth_power_decompose(oracle_value(gctx, ctx.one, vec))
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


def test_descent_stops_at_the_index_valuation(monkeypatch):
    # x^2+2x+1 = (x+1)^2, so [Sat:L] = 2 and v_3([Sat:L]) = 0: a candidate
    # lands in G untwisted or never, and one or two lattice tests decide it.
    # The scan of every k up to the height bound made 10,096 of them.
    F3 = FqCtx(3)
    x = Poly.x(F3)
    gctx = build_group([x, 2 * x + 1, x ** 2 + x + 2, x ** 2 + 2 * x + 1], F3)
    fams, calls = _solve_counting_lattice_calls(gctx, monkeypatch)
    assert calls <= 444
    assert fams == oracle_solve(gctx)
    assert len(fams) == 109


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
