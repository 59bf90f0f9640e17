import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monogenic import (
    FqCtx,
    GroupElem,
    Poly,
    RatFunc,
    brute_force_xy1,
    build_group,
    four_term_delta_set,
    pth_power_decompose,
    solve_xy1,
    subsum_bound_violations,
    subsum_exponent_bound,
)

F2 = FqCtx(2)
F3 = FqCtx(3)
F4 = FqCtx(2, 2)
F7 = FqCtx(7)


def xg(ctx):
    return RatFunc.gen(ctx)


def orbit_keys(families, box):
    out = set()
    for f in families:
        for (a, b) in f.orbit_in_box(box):
            out.add((a.key(), b.key()))
    return out


def brute_keys(pairs):
    return {(a.key(), b.key()) for a, b in pairs}


# ---- build_group ------------------------------------------------------------

def test_build_group_basic():
    g = build_group([xg(F2), 1 - xg(F2)], F2)
    assert [repr(b) for b in g.basis] == ["x", "x+1"]
    assert g.rank == 2


def test_build_group_refinement():
    g = build_group([xg(F2) ** 2 * (xg(F2) + 1), xg(F2)], F2)
    assert [repr(b) for b in g.basis] == ["x", "x+1"]
    assert g.rank == 2
    assert set(g.gen_vectors) == {(2, 1), (1, 0)}


def test_build_group_torsion():
    g = build_group([RatFunc.of(3, F7), xg(F7)], F7)
    assert [repr(b) for b in g.basis] == ["x"]
    assert g.rank == 1
    assert g.gen_torsion[0] == F7.elem(3)


def test_build_group_rejects_zero():
    with pytest.raises(ValueError):
        build_group([RatFunc.of(0, F2)], F2)


def test_sublattice_membership():
    g = build_group([xg(F2) ** 2], F2)
    assert g.rank == 1
    assert g.in_lattice((2,)) and not g.in_lattice((1,))
    assert g.in_saturation((1,))


def _in_q_span(rows, v):
    """Fraction Gauss-Jordan: the earlier `in_saturation` route, kept as the
    oracle of the kernel test."""
    if not any(v):
        return True
    work = [[Fraction(x) for x in r] for r in rows]
    target = [Fraction(x) for x in v]
    ncols = len(target)
    pividx = 0
    for col in range(ncols):
        sel = None
        for i in range(pividx, len(work)):
            if work[i][col]:
                sel = i
                break
        if sel is None:
            continue
        work[pividx], work[sel] = work[sel], work[pividx]
        f = work[pividx][col]
        work[pividx] = [a / f for a in work[pividx]]
        for i in range(len(work)):
            if i != pividx and work[i][col]:
                g = work[i][col]
                work[i] = [a - g * b for a, b in zip(work[i], work[pividx])]
        if target[col]:
            g = target[col]
            target = [a - g * b for a, b in zip(target, work[pividx])]
        pividx += 1
    return not any(target)


def test_lattice_helpers_against_oracles():
    from monogenic.unitgrp import GroupCtx, _hnf_rows, _in_lattice, _int_kernel, _saturate

    rng = random.Random(5150)

    def q_rank(rows, ncols):
        work = [[Fraction(v) for v in r] for r in rows]
        rank = 0
        for col in range(ncols):
            sel = next((i for i in range(rank, len(work)) if work[i][col]), None)
            if sel is None:
                continue
            work[rank], work[sel] = work[sel], work[rank]
            f = work[rank][col]
            work[rank] = [a / f for a in work[rank]]
            for i in range(len(work)):
                if i != rank and work[i][col]:
                    g = work[i][col]
                    work[i] = [a - g * b for a, b in zip(work[i], work[rank])]
            rank += 1
        return rank

    for _ in range(120):
        n = rng.randrange(1, 5)
        m = rng.randrange(1, 5)
        mat = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(m)]
        ker = _int_kernel([list(r) for r in mat], n)
        for v in ker:
            assert all(sum(mat[r][j] * v[j] for j in range(n)) == 0 for r in range(m))
        assert len(ker) == n - q_rank(mat, n)
        hnf = _hnf_rows([list(r) for r in mat])
        for row in mat:
            assert _in_lattice(hnf, row)
        coeffs = [rng.randrange(-3, 4) for _ in mat]
        combo = [sum(c * row[j] for c, row in zip(coeffs, mat)) for j in range(n)]
        assert _in_lattice(hnf, combo)
        _, sat = _saturate([list(r) for r in mat], n)
        for row in mat:
            assert _in_lattice(sat, row)
        for v in sat:
            assert _in_q_span([list(r) for r in mat], v)
        probe = [rng.randrange(-6, 7) for _ in range(n)]
        for k in (2, 3):
            if _in_lattice(sat, [k * x for x in probe]) and _in_q_span(
                [list(r) for r in mat], probe
            ):
                assert _in_lattice(sat, probe)
        # in_saturation (orthogonal to the kernel) against Gauss-Jordan, on
        # random probes and on rational combinations of the rows
        basis = [Poly(F7, [c, 1]) for c in range(n)]  # x, x+1, ...: coprime
        gctx = GroupCtx(F7, basis, mat, [F7.one] * m)
        halves = [sum(c * row[j] for c, row in zip(coeffs, mat)) // 2 for j in range(n)]
        for v in (probe, combo, halves, [0] * n, [2 * x for x in combo]):
            assert gctx.in_saturation(v) == _in_q_span([list(r) for r in mat], v), (mat, v)


def _unimodular_mix(rows, rng):
    """rows after random unimodular row operations: sums, swaps, signs."""
    rows = [list(r) for r in rows]
    for _ in range(12):
        i, j = rng.sample(range(len(rows)), 2)
        op = rng.randrange(3)
        if op == 0:
            k = rng.randrange(-9, 10)
            rows[i] = [a + k * b for a, b in zip(rows[i], rows[j])]
        elif op == 1:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            rows[i] = [-a for a in rows[i]]
    return rows


def test_hnf_is_canonical():
    from monogenic.unitgrp import _hnf_rows

    rng = random.Random(2718)
    for _ in range(400):
        n = rng.randrange(2, 6)
        basis = [[rng.randrange(-30, 31) for _ in range(n)] for _ in range(rng.randrange(2, 5))]
        hnf = _hnf_rows(basis)
        assert _hnf_rows(_unimodular_mix(basis, rng)) == hnf, basis
        for i, row in enumerate(hnf):
            pc = next(c for c in range(n) if row[c])
            assert row[pc] > 0
            assert all(0 <= above[pc] < row[pc] for above in hnf[:i]), hnf


def test_int_kernel_is_saturated():
    from monogenic.unitgrp import _hnf_rows, _in_lattice, _int_kernel

    rng = random.Random(31415)
    for _ in range(200):
        n = rng.randrange(2, 6)
        mat = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(rng.randrange(1, n))]
        ker = _int_kernel([list(r) for r in mat], n)
        span = _hnf_rows(ker)
        for _ in range(5):
            # a primitive vector of the Q-kernel: a combination divided by its content
            coeffs = [rng.randrange(-4, 5) for _ in ker]
            v = [sum(c * k[j] for c, k in zip(coeffs, ker)) for j in range(n)]
            content = math.gcd(*v)
            if content:
                assert _in_lattice(span, [a // content for a in v]), (mat, ker, v)


# ---- pth_power_decompose ----------------------------------------------------

def decompose(a):
    """c_0..c_{p-1} with a = sum c_m^p x^m: the numerators over a.den."""
    return [RatFunc(g, a.den) for g in pth_power_decompose(a)]


def test_decompose_examples():
    dec = decompose(xg(F2) ** 3 + xg(F2))
    assert dec[0].is_zero()
    assert dec[1] == RatFunc(Poly(F2, [1, 1]))  # x^3+x = (x+1)^2 x
    dec2 = decompose(xg(F2) ** 2)
    assert dec2 == [xg(F2), RatFunc.of(0, F2)]


@given(st.integers(0, 10 ** 6))
@settings(max_examples=40)
def test_decompose_roundtrip(seed):
    rng = random.Random(seed)
    ctx = rng.choice((F2, F3, F7))
    a = RatFunc(Poly.random(ctx, rng.randrange(0, 7), rng),
                Poly.random(ctx, rng.randrange(0, 4), rng))
    if a.is_zero():
        return
    x = xg(ctx)
    back = RatFunc.of(0, ctx)
    for m, c in enumerate(decompose(a)):
        back = back + c ** ctx.p * x ** m
    assert back == a


# ---- solver vs oracle --------------------------------------------------------

def test_solver_f2_families():
    g = build_group([xg(F2), 1 - xg(F2)], F2)
    fams = solve_xy1(g)
    # the full affine cross-ratio orbit: six nontorsion families, no torsion
    assert len(fams) == 6
    assert not any(f.torsion for f in fams)
    vals = {(repr(f.x0), repr(f.y0)) for f in fams}
    assert ("x", "x+1") in vals and ("x+1", "x") in vals
    assert orbit_keys(fams, 6) == brute_keys(brute_force_xy1(g, 6))
    assert len(fams) <= 2 ** (2 * g.rank)


def test_solver_f3_families_with_torsion():
    g = build_group([xg(F3), 1 - xg(F3)], F3)
    fams = solve_xy1(g)
    tors = [f for f in fams if f.torsion]
    assert len(tors) == 1
    assert repr(tors[0].x0) == "2" and repr(tors[0].y0) == "2"  # 2 + 2 = 1 mod 3
    assert orbit_keys(fams, 6) == brute_keys(brute_force_xy1(g, 6))
    assert len(fams) <= 3 ** (2 * g.rank)


def test_solver_powers_only_group():
    g = build_group([xg(F2)], F2)
    assert solve_xy1(g) == []
    assert brute_force_xy1(g, 12) == []


def test_solver_torsion_only_f4():
    gamma = F4.gen
    g = build_group([RatFunc.of(gamma, F4)], F4)
    fams = solve_xy1(g)
    assert len(fams) == 1 and fams[0].torsion
    # 1 + gamma = gamma^2: the family is (gamma, gamma^2) up to orbit choice
    x0, y0 = fams[0].x0.value(), fams[0].y0.value()
    assert x0 + y0 == RatFunc.of(1, F4)
    assert {repr(x0), repr(y0)} == {"z", "z+1"}


def test_solver_proper_sublattice():
    # G = <x^2, (1-x)^2>: solutions are the squares of the full-lattice ones
    g = build_group([xg(F2) ** 2, (1 + xg(F2)) ** 2], F2)
    fams = solve_xy1(g)
    assert orbit_keys(fams, 8) == brute_keys(brute_force_xy1(g, 8))
    assert any(repr(f.x0) == "x^2" and repr(f.y0) == "x^2+1" for f in fams)


def test_frobenius_closure_of_solutions():
    g = build_group([xg(F3), 1 - xg(F3)], F3)
    for f in solve_xy1(g):
        for (a, b) in f.orbit_in_box(9):
            av, bv = a.value(), b.value()
            assert av + bv == RatFunc.of(1, F3)
            assert av ** 3 + bv ** 3 == RatFunc.of(1, F3)


def test_brute_force_budget():
    g = build_group([xg(F2), 1 - xg(F2)], F2)
    with pytest.raises(ValueError):
        brute_force_xy1(g, 10 ** 6)


def test_brute_force_box_zero():
    g = build_group([xg(F3), 1 - xg(F3)], F3)
    sols = brute_force_xy1(g, 0)
    assert [(repr(a), repr(b)) for a, b in sols] == [("2", "2")]


def brute_force_xyz1(gctx, exponent_box: int):
    """Bounded search for x + y + z = 1 in G^3 (no structural claim: the
    three-term theory of this setting is nonconstructive)."""
    ctx = gctx.ctx
    r = gctx.rank
    singles = []
    for vec in itertools.product(range(-exponent_box, exponent_box + 1), repeat=r):
        if not gctx.in_lattice(vec):
            continue
        for tau in ctx.elements():
            if not tau.is_zero():
                singles.append(GroupElem(gctx, tau, tuple(vec)))
    if len(singles) ** 2 > 2_000_000:
        raise ValueError("enumeration budget exceeded")
    one = RatFunc.of(1, ctx)
    out = []
    for gx in singles:
        vx = gx.value()
        for gy in singles:
            z = one - vx - gy.value()
            if z.is_zero():
                continue
            fz = gctx.factor_over_basis(z)
            if fz is None or not gctx.in_lattice(fz[1]):
                continue
            if any(abs(e) > exponent_box for e in fz[1]):
                continue
            out.append((gx, gy, GroupElem(gctx, fz[0], fz[1])))
    out.sort(key=lambda t: (t[0].key(), t[1].key(), t[2].key()))
    return out


def test_three_term_brute_force():
    g = build_group([xg(F2), 1 - xg(F2)], F2)
    sols = brute_force_xyz1(g, 2)
    assert sols, "three-term solutions exist (e.g. splitting 1 = x + y with a twist)"
    one = RatFunc.of(1, F2)
    for (a, b, c) in sols:
        assert a.value() + b.value() + c.value() == one


# ---- exponent bound ----------------------------------------------------------

def test_subsum_bound_examples():
    assert subsum_exponent_bound([9], 3) == 2
    c1 = subsum_exponent_bound([1, 1], 2)
    assert c1 >= 1
    # 2^{-1} + 2^{-1} = 1 shows -1 is attained; the checker proves -C1 sound
    assert subsum_bound_violations([1, 1], 2, c1, 2 * c1 + 4) == []
    assert any(u == (-1, -1) for u in subsum_bound_violations([1, 1], 2, 0, 4))
    assert subsum_exponent_bound([0, 5], 2) == 0
    with pytest.raises(ValueError):
        subsum_exponent_bound([], 2)


def test_subsum_bound_randomized():
    rng = random.Random(404)
    for _ in range(8):
        n = rng.randrange(1, 4)
        p = rng.choice((2, 3))
        e = [rng.choice([v for v in range(-4, 5) if v]) for _ in range(n)]
        c1 = subsum_exponent_bound(e, p)
        box = min(2 * c1 + 4, 10)
        assert subsum_bound_violations(e, p, c1, box) == []


# ---- four-term difference set ------------------------------------------------

def test_delta_set_contains_expected():
    d = four_term_delta_set(2, 1, 3, 6)
    assert {0, 3, -3} <= set(d)
    # the witness instance 4 - 1 + 3 - 6 = 0 has delta = -3
    assert 2 ** 2 - 2 ** 0 + 3 * 2 ** 0 - 3 * 2 ** 1 == 0


def test_delta_set_diagonal_always_zero():
    for (p, a, b) in ((2, 1, 3), (3, 2, 5), (5, 1, 2)):
        assert 0 in four_term_delta_set(p, a, b, 3)


def test_delta_set_stability():
    assert four_term_delta_set(2, 1, 5, 5) == four_term_delta_set(2, 1, 5, 6)


def test_delta_set_validation():
    with pytest.raises(ValueError):
        four_term_delta_set(2, 3, 3, 4)
    with pytest.raises(ValueError):
        four_term_delta_set(2, 2, 3, 4)
