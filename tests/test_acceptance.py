"""Acceptance criteria, one test per criterion, each printing a PASS line
with its measured runtime.  All arithmetic assertions are exact (zero
tolerance); runtime limits are asserted where stated.
"""

import json
import random
import time
from pathlib import Path

from monogenic import (
    FqCtx,
    Place,
    PlaceSet,
    Poly,
    RatFunc,
    SymPowerPair,
    TowerPowerPair,
    brute_force_xy1,
    build_group,
    discriminant,
    enumerate_M,
    express_in_power_basis,
    four_term_delta_set,
    frobenius_power,
    orders_equal,
    product_formula_sum,
    solve_xy1,
    subsum_bound_violations,
    subsum_exponent_bound,
    unit_group_rank,
    valuation,
)
from monogenic.monorder import MonOrder
from monogenic.cli import run_scenario
from monogenic.tower import Tower
from monogenic.verify import (
    EtaSequence,
    quartic_twist_tower,
    shifted_tower,
    symmetric_pair,
    verify_symmetric_quadratic_powers,
)

F2 = FqCtx(2)
F3 = FqCtx(3)
F7 = FqCtx(7)
SCENARIOS = sorted((Path(__file__).resolve().parent.parent / "scenarios").glob("*.json"))
GOLDEN = Path(__file__).resolve().parent / "golden"


def _report(n, detail, t0, limit=None):
    elapsed = time.perf_counter() - t0
    if limit is not None:
        assert elapsed < limit, f"criterion {n} exceeded {limit}s ({elapsed:.1f}s)"
    print(f"\nACCEPTANCE C{n}: PASS ({elapsed:.2f}s) - {detail}")


def test_criterion_1_shifted_family_suite():
    t0 = time.perf_counter()
    eta = Poly(F2, [1, 1])
    tw = shifted_tower(eta)
    s = tw.gen(0)
    x = RatFunc.gen(F2)
    xp = Poly.x(F2)
    assert discriminant(s) == RatFunc(xp ** 12)
    seq = EtaSequence(eta)
    order_s = MonOrder(s)
    vx = Place.finite(xp)
    expected_v = {1: 12, 2: 60, 3: 252, 4: 1020}
    for m in range(1, 5):
        zm = (s ** (4 ** m) + RatFunc(seq.term(m))) / x ** (4 ** m - 1)
        assert orders_equal(zm, order_s), f"O[s] != O[z_{m}]"
        gap = RatFunc(seq.term(m + 1) - seq.term(m) ** 4)
        assert valuation(gap, vx) == 4 ** (m + 1) - 4 == expected_v[m]
    z1 = (s ** 4 + RatFunc(eta)) / x ** 3
    assert express_in_power_basis(z1, order_s) == (
        RatFunc.of(0, F2), RatFunc.of(1, F2), x, RatFunc.of(0, F2)
    )
    _report(1, "disc=x^12, O[s]=O[z_m] m<=4, shift valuations 12/60/252/1020,"
               " z_1 coords (0,1,x,0)", t0, limit=5.0)


def test_criterion_2_twisted_quartic_suite():
    t0 = time.perf_counter()
    tw = quartic_twist_tower()
    x, y = tw.x(), tw.gen(0)
    s = x * y
    xr = RatFunc.gen(F2)
    d0 = discriminant(s)
    assert d0 == RatFunc(Poly.x(F2) ** 12)
    order_s = MonOrder(s)
    for m in range(4):  # m <= 3
        sm = x * frobenius_power(y, 2 * m)
        assert discriminant(sm) == d0
        assert orders_equal(sm, order_s)
        assert (sm - (xr ** (1 - 4 ** m)) * (s ** (4 ** m))).is_zero()
    _report(2, "disc(s_m)=x^12, O[s_m]=O[s], twist identity exact, m<=3", t0, limit=5.0)


def test_criterion_3_symmetric_power_suite():
    t0 = time.perf_counter()
    rep = verify_symmetric_quadratic_powers(2, 2)
    assert rep.passed
    checked = [c for c in rep.checks if c.name.startswith(("s^", "t^"))]
    assert len(checked) == 8  # both directions for all four (i,j) pairs
    flag_checks = [c for c in rep.checks if "not in A, B, or C" in c.name]
    assert len(flag_checks) == 4 and all(c.status == "pass" for c in flag_checks)
    _report(3, "memberships both ways and A/B/C all false for m=n=7^i+7^j,"
               " (i,j) in {1,2}^2", t0, limit=30.0)


def test_criterion_4_unit_equation_oracle_equivalence():
    t0 = time.perf_counter()
    for ctx in (F2, F3):
        x = RatFunc.gen(ctx)
        g = build_group([x, 1 - x], ctx)
        fams = solve_xy1(g)
        solved = set()
        for f in fams:
            for (a, b) in f.orbit_in_box(6):
                solved.add((a.key(), b.key()))
        brute = {(a.key(), b.key()) for a, b in brute_force_xy1(g, 6)}
        assert solved == brute, f"oracle mismatch over F_{ctx.p}(x)"
        assert len(fams) <= ctx.p ** (2 * g.rank)
    _report(4, "solver orbits == brute force in box 6 over F_2(x), F_3(x);"
               " family count within p^(2r)", t0, limit=60.0)


def test_criterion_5_frobenius_closure():
    t0 = time.perf_counter()
    runs = []
    tw = shifted_tower(Poly(F2, [1, 1]))
    runs.append(enumerate_M(TowerPowerPair(tw.gen(0), tw.gen(0)), 10, 10))
    ctx, s, t = symmetric_pair()
    runs.append(enumerate_M(SymPowerPair(s, t), 100, 100))
    runs.append(enumerate_M(SymPowerPair(s, 5 * s), 12, 12))
    total_pairs = 0
    for res in runs:
        assert res.closure_violations == []
        total_pairs += len(res.pairs)
    assert total_pairs > 0
    _report(5, f"(m,n) in M => (pm,pn) in M on every searched grid"
               f" ({len(runs)} runs, {total_pairs} pairs)", t0)


def test_criterion_6_disc_transformation_law():
    t0 = time.perf_counter()
    rng = random.Random(606)
    x3 = RatFunc.gen(F3)
    towers = [
        (shifted_tower(Poly(F2, [1, 1])), F2, 4),
        (Tower(F3).extend("y", [-x3, RatFunc.of(0, F3), RatFunc.of(1, F3)]), F3, 2),
    ]
    checked = 0
    for tw, ctx, d in towers:
        s = tw.gen(0)
        base = discriminant(s)
        while checked < (50 if ctx is F2 else 100):
            a = RatFunc(Poly.random(ctx, rng.randrange(0, 2), rng))
            if a.is_zero():
                continue
            b = RatFunc(Poly.random(ctx, rng.randrange(0, 3), rng))
            e = rng.randrange(0, 3)
            t = a * frobenius_power(s, e) + b
            assert discriminant(t) == a ** (d * (d - 1)) * base ** (ctx.p ** e)
            checked += 1
    assert checked == 100
    _report(6, "disc(a s^{p^e} + b) = a^{d(d-1)} disc(s)^{p^e} exactly,"
               " 100 random triples over two towers", t0)


def test_criterion_7_product_formula_and_rank():
    t0 = time.perf_counter()
    rng = random.Random(707)
    done = 0
    while done < 500:
        ctx = (F2, F3, F7)[done % 3]
        a = RatFunc(Poly.random(ctx, rng.randrange(0, 9), rng),
                    Poly.random(ctx, rng.randrange(0, 9), rng))
        if a.is_zero():
            continue
        assert product_formula_sum(a) == 0
        done += 1
    xp = Poly.x(F2)
    assert unit_group_rank(PlaceSet())[0] == 0
    assert unit_group_rank(PlaceSet.of(xp))[0] == 1
    assert unit_group_rank(PlaceSet.of(xp, xp + 1))[0] == 2
    _report(7, "sum n_v v(a) = 0 for 500 random nonzero a over F_2/F_3/F_7;"
               " rank(T) = |T|-1 for |T| in {1,2,3}", t0)


def test_criterion_8_exponent_bound_and_delta_suites():
    t0 = time.perf_counter()
    rng = random.Random(808)
    for _ in range(20):
        n = rng.randrange(1, 4)
        p = rng.choice((2, 3))
        e = [rng.choice([v for v in range(-4, 5) if v]) for _ in range(n)]
        c1 = subsum_exponent_bound(e, p)
        box = 2 * c1 + 4
        assert (2 * box + 1) ** n <= 300_000  # |e_i| <= 4, N <= 3 keeps C1 <= 8
        assert subsum_bound_violations(e, p, c1, box) == [], (e, p, c1)
    d6 = four_term_delta_set(2, 1, 3, 6)
    assert {0, -3, 3} <= set(d6)
    assert four_term_delta_set(2, 1, 3, 5) == d6
    _report(8, "no bound violations for 20 random tuples (N<=3, p in {2,3});"
               " delta set contains {0,-3,3} and is box-stable", t0, limit=30.0)


def test_criterion_9_deterministic_reports():
    # tests/golden holds the reports as `scripts/run_all_scenarios.py
    # --json-dir tests/golden` writes them; only a deliberate change to a
    # report may regenerate them
    t0 = time.perf_counter()
    assert SCENARIOS, "bundled scenarios missing"
    for path in SCENARIOS:
        with open(path, "r", encoding="utf-8") as fh:
            scenario = json.load(fh)
        rep1, code1 = run_scenario(scenario)
        rep2, code2 = run_scenario(scenario)
        b1 = json.dumps(rep1, sort_keys=True, indent=2).encode()
        b2 = json.dumps(rep2, sort_keys=True, indent=2).encode()
        assert code1 == code2 == 0, f"{path.name} failed"
        assert b1 == b2, f"{path.name} report not byte-identical"
        golden = (GOLDEN / (path.stem + ".report.json")).read_bytes()
        assert b1 == golden, f"{path.name} report differs from its golden file"
    _report(9, f"byte-identical JSON across two runs of all"
               f" {len(SCENARIOS)} bundled scenarios, equal to tests/golden", t0)
