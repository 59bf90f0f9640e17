import math
from dataclasses import dataclass

import mpmath
import pytest

from monogenic import (
    BivarPoly,
    FqCtx,
    FrobPattern,
    MSearchResult,
    PlaceSet,
    Poly,
    RatFunc,
    StableExponent,
    SymPowerPair,
    TowerPowerPair,
    addendum_report,
    bound_calculator,
    compute_ef,
    enumerate_M,
    fit_patterns,
)
from monogenic.tower import Tower
from monogenic.verify import shifted_tower, symmetric_pair

F2 = FqCtx(2)


def diag_tower_pair():
    tw = shifted_tower(Poly(F2, [1, 1]))
    s = tw.gen(0)
    return TowerPowerPair(s, s)


# ---- enumeration ------------------------------------------------------------

def test_enumerate_diagonal():
    res = enumerate_M(diag_tower_pair(), 8, 8)
    assert res.pairs == [(m, m) for m in range(1, 9)]
    assert res.closure_violations == []
    for (m, m2) in res.pairs:
        assert res.flags[(m, m2)].in_a  # s^m / s^m = 1


def test_enumerate_symmetric_family():
    ctx, s, t = symmetric_pair()
    res = enumerate_M(SymPowerPair(s, t), 60, 60)
    assert res.closure_violations == []
    expected = {(1, 1), (2, 2), (7, 7), (8, 8), (14, 14), (49, 49), (50, 50), (56, 56)}
    assert set(res.pairs) == expected
    f14 = res.flags[(14, 14)]
    assert not (f14.in_a or f14.in_b or f14.in_c)
    assert f14.witness == "x<->y"


def test_enumerate_rejects_oversized_grid():
    with pytest.raises(ValueError):
        enumerate_M(diag_tower_pair(), 200, 200)


def test_enumerate_product_unit_flag():
    # t = 1/s when s is a unit of O_{K,T}: the product flag by construction
    ctx, s, t = symmetric_pair()
    pair = SymPowerPair(s, s)
    assert pair.flags(1, 1)[0]  # in_A on the diagonal


def test_degenerate_families_inside_M():
    # with T = {inf, x} and y^2 = x, the pair (y, 1/y) has s^m t^n = y^{m-n},
    # a T-unit whenever m = n mod 2: every flagged cell must lie in M
    F3 = FqCtx(3)
    x = RatFunc.gen(F3)
    tw = Tower(F3).extend("y", [-x, RatFunc.of(0, F3), RatFunc.of(1, F3)])
    y = tw.gen(0)
    pair = TowerPowerPair(y, 1 / y, PlaceSet.of(Poly.x(F3)))
    res = enumerate_M(pair, 5, 5)
    assert res.closure_violations == []
    member = set(res.pairs)
    for m in range(1, 6):
        for n in range(1, 6):
            in_a, in_b, in_c = pair.flags(m, n)
            if in_a or in_b or in_c:
                assert (m, n) in member, (m, n)
    # odd m-n parity gives the product family here
    assert (1, 1) in member and pair.flags(1, 1)[2]


def test_enumerate_rejects_non_integral():
    tw = shifted_tower(Poly(F2, [1, 1]))
    s = tw.gen(0)
    with pytest.raises(ValueError):
        TowerPowerPair(s / RatFunc.gen(F2), s)


def test_quadratic_twisted_quotient_flag():
    # t = y + x with y^2 = x has nonzero trace 2x, so sigma(t) = 2x - t;
    # taking s = sigma(t) puts (1,1) in the twisted-quotient family B but
    # not in A, and B-membership still implies order equality
    F3 = FqCtx(3)
    x = RatFunc.gen(F3)
    tw = Tower(F3).extend("y", [-x, RatFunc.of(0, F3), RatFunc.of(1, F3)])
    y = tw.gen(0)
    t = y + x
    s = -y + x  # = sigma(t)
    pair = TowerPowerPair(s, t)
    in_a, in_b, in_c = pair.flags(1, 1)
    assert in_b and not in_a and not in_c
    res = enumerate_M(pair, 3, 3)
    assert (1, 1) in res.pairs  # the degenerate families sit inside M


# ---- patterns ----------------------------------------------------------------

def synth(pairs, box, p=2):
    return MSearchResult(box, box, p, sorted(pairs), {}, [])


def test_fit_diagonal_progression():
    res = synth([(m, m) for m in range(1, 13)], 12)
    pats = fit_patterns(res, 2)
    assert res.residual == []
    kinds = {p.kind for p in pats}
    assert "A" in kinds
    cover = set()
    for p in pats:
        cover |= p.generate(12, 12)
    assert cover == set(res.pairs)


def test_fit_frobenius_orbit():
    pairs = [(3 * 2 ** k, 5 * 2 ** k) for k in range(5)]
    res = synth(pairs, 100)
    pats = fit_patterns(res, 2)
    assert len(pats) == 1
    assert pats[0].kind == "F1" and pats[0].q == 2 and pats[0].params == (3, 5)


def test_fit_two_parameter_family():
    ctx, s, t = symmetric_pair()
    res = enumerate_M(SymPowerPair(s, t), 100, 100)
    pats = fit_patterns(res, 7)
    assert res.residual == []
    descrs = {p.describe() for p in pats}
    assert "F(7; 1, 1, 1, 1)" in descrs
    assert "F1(7; (1, 1))" in descrs
    # validation invariant: every pattern regenerates only observed pairs
    for p in pats:
        assert p.generate(100, 100) <= set(res.pairs)


def test_fit_doubly_frobenius_grid():
    pairs = [(3 * 2 ** i, 2 ** j) for i in range(3) for j in range(4)]
    res = MSearchResult(12, 8, 2, sorted(pairs), {}, [])
    pats = fit_patterns(res, 2)
    assert res.residual == []
    assert any(p.kind == "F2" and p.params == (3, 1) for p in pats)


def test_fit_residual_finite():
    res = synth([(5, 9)], 20)
    pats = fit_patterns(res, 2)
    assert len(pats) == 1 and pats[0].kind == "finite"
    assert pats[0].generate(20, 20) == {(5, 9)}


def test_pattern_generation_f():
    pat = FrobPattern("F", 7, tuple(map(str, (1, 1, 1, 1))))
    gen = pat.generate(100, 100)
    assert gen == {(2, 2), (8, 8), (14, 14), (50, 50), (56, 56), (98, 98)}


# ---- stable exponents ----------------------------------------------------------

def test_compute_ef_generic():
    tw = shifted_tower(Poly(F2, [1, 1]))
    res = compute_ef(tw.gen(0), 8)
    assert res.value == 1 and res.verified
    assert all(d == 4 for _, d in res.degrees)


def test_compute_ef_base_element():
    tw = shifted_tower(Poly(F2, [1, 1]))
    res = compute_ef(tw.from_base(RatFunc.gen(F2)), 6)
    assert res.value == 1


def test_compute_ef_collapsing_square():
    # y^2 = x over F_3: K(y^2) = K sits inside every K(y^n), so the stable
    # exponent is 2 (coprime to p = 3); its even powers land in the base
    F3 = FqCtx(3)
    x = RatFunc.gen(F3)
    tw = Tower(F3).extend("y", [-x, RatFunc.of(0, F3), RatFunc.of(1, F3)])
    res = compute_ef(tw.gen(0), 6)
    assert res.value == 2 and res.verified
    assert res.degrees[0] == (1, 2) and res.degrees[1] == (2, 1)


def sym_stable_exponent(t: BivarPoly, search_bound: int = 24) -> StableExponent:
    """Quadratic backend variant: K(t^n) is the full quadratic extension
    exactly when t^n is not symmetric, so within the box the stable
    exponent is 1 when no power is symmetric and otherwise the first
    symmetric exponent (whose field K sits inside every K(t^n))."""
    degrees = []
    first_sym = None
    cur = BivarPoly.constant(t.ctx, 1)
    for n in range(1, search_bound + 1):
        cur = cur * t
        d = 1 if cur.is_symmetric() else 2
        degrees.append((n, d))
        if d == 1 and first_sym is None:
            first_sym = n
    return StableExponent(first_sym or 1, True, degrees)


def test_sym_stable_exponent():
    ctx, s, t = symmetric_pair()
    res = sym_stable_exponent(t, 24)
    assert res.value == 1 and res.verified
    assert all(d == 2 for _, d in res.degrees)


@dataclass
class PeriodPair:
    """Verified stable exponents (e, f); both are coprime to p."""

    e: int
    f: int
    p: int

    def __post_init__(self):
        if math.gcd(self.e, self.p) != 1 or math.gcd(self.f, self.p) != 1:
            raise ValueError("stable exponents must be coprime to p")


def test_period_pair_gcd_invariant():
    assert PeriodPair(1, 3, 2).e == 1
    with pytest.raises(ValueError):
        PeriodPair(2, 1, 2)


# ---- addendum -----------------------------------------------------------------

def test_addendum_power_pair():
    x = RatFunc.gen(F2)
    rep = addendum_report(x, x ** 2)
    assert rep.minimal_MN == (2, 1)
    assert rep.s_power_in_O and rep.t_power_in_O
    assert not rep.s_unit and not rep.t_unit


def test_addendum_distinct_places_empty():
    x = RatFunc.gen(F2)
    rep = addendum_report(x, x + 1)
    assert rep.minimal_MN is None
    assert "not proportional" in rep.verdict


def test_addendum_unit_mismatch_empty():
    x = RatFunc.gen(F2)
    rep = addendum_report(RatFunc.of(1, F2), x)
    assert rep.minimal_MN is None
    assert "unit" in rep.verdict


def test_addendum_leaves_out_the_places_of_T():
    # over O_{K,T} with T = {inf, x}, s = x(x+1) and t = (x+1)^2 differ at
    # x only, a place of T: s^2/t = x^2 is a T-unit
    x = RatFunc.gen(F2)
    rep = addendum_report(x * (x + 1), (x + 1) ** 2, PlaceSet.of(Poly.x(F2)))
    assert rep.minimal_MN == (2, 1)
    assert rep.verdict == "progression structure with the minimal unit-ratio pair"
    assert addendum_report(x * (x + 1), (x + 1) ** 2).minimal_MN is None


_X2 = RatFunc.gen(F2)


@pytest.mark.parametrize("s, t, ring, verdict", [
    (_X2, 1 / _X2 ** 2, PlaceSet.of(Poly.x(F2)),
     "both units: full residue grid (k,l) + eN x fN"),
    # equal supports {x, x+1}, valuation ratios 2 and 1
    (_X2 * (_X2 + 1), _X2 ** 2 * (_X2 + 1), PlaceSet(), "empty: divisors are not proportional"),
    (_X2, 1 / _X2, PlaceSet(),
     "only s-powers lie in O; Frobenius-union structure on the searched set"),
    (RatFunc.of(1, F2), 1 / _X2, PlaceSet(),
     "only s-powers lie in O; unit side: residue-progression structure"),
], ids=["both-units", "unequal-ratios", "one-sided", "one-sided-unit"])
def test_addendum_verdicts(s, t, ring, verdict):
    rep = addendum_report(s, t, ring)
    assert rep.verdict == verdict
    assert rep.minimal_MN is None


def test_addendum_hypothesis_guard():
    # the guard is about powers landing in O; rational inputs always do,
    # so drive the error with explicitly non-integral data
    x = RatFunc.gen(F2)
    with pytest.raises(ValueError):
        addendum_report(1 / x, 1 / (x + 1))


# ---- bounds --------------------------------------------------------------------

def test_bound_qk_term_identity():
    # with a tiny second term, log10 is essentially d^6 log10 q_K + 2nd
    br = bound_calculator(2, 2, 4, 1)
    assert mpmath.mpf(str(br.log10_main)) > 64 * mpmath.log(4) / mpmath.log(10)


def test_bound_regression_value():
    # frozen from an independent high-precision evaluation of
    # log10(2^729 + (exp(18^10) 2^243)^27)
    br = bound_calculator(3, 2, 2, 1)
    with mpmath.workdps(60):
        main = mpmath.mpf(str(br.log10_main))
    assert mpmath.nstr(main, 20) == "41867123789133.741576"
    with mpmath.workdps(40):
        dominant = 27 * mpmath.mpf(18 ** 10) / mpmath.log(10)
    assert abs(main - dominant) < 3000  # lower-order terms only


def test_bound_refined_uses_min():
    # q_L far above q_K^{d^3}: the min picks the q_K side, so raising q_L
    # further cannot change the first addend (visible via refined_terms; in
    # the total it is drowned by the exp(18^10) addend)
    a = bound_calculator(2, 2, 4, 1, q_L=2 ** 40, r=3, lam=4)
    b = bound_calculator(2, 2, 4, 1, q_L=2 ** 50, r=3, lam=4)
    assert a.refined_terms[0] == b.refined_terms[0]
    assert a.log10_refined == b.log10_refined
    # below the threshold the q_L side drives the first addend
    c = bound_calculator(2, 2, 4, 1, q_L=16, r=3, lam=4)
    assert c.refined_terms[0] < a.refined_terms[0]


def test_bound_monotonicity_grid():
    vals = {}
    for d in (2, 3):
        for qk in (2, 4):
            for s in (1, 2):
                vals[(d, qk, s)] = bound_calculator(d, 2, qk, s).log10_main
    assert vals[(2, 2, 1)] <= vals[(3, 2, 1)]
    assert vals[(2, 2, 1)] <= vals[(2, 4, 1)]
    assert vals[(2, 2, 1)] <= vals[(2, 2, 2)]
    assert vals[(3, 4, 2)] >= vals[(2, 4, 2)]


def test_bound_rejects_small_degree():
    with pytest.raises(ValueError):
        bound_calculator(1, 2, 2, 1)
