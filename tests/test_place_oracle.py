"""T-integers, T-units and unit classes against the factorizations they replaced.

The oracle below is the earlier code, kept as it was but for reading T's
places from `PlaceSet.finite_pis`: `oracle_is_T_integer` and
`oracle_is_T_unit` factored the denominator (and the numerator) and asked
whether every irreducible factor is a place of T, and `oracle_unit_class`
(once `RingTag.unit_class`) split each place of T off num and den in
turn.  The
library now reads all three off one `split_over` of T's finite places,
which factors nothing, and `funcfield.factor_over` is a reader of the same
split; `build_group` and `GroupCtx.factor_over_basis` must agree with the
witness-factor oracle of `test_unit_oracle`.  No task reaches `Poly.factor`:
every bundled scenario runs to its golden report without it.

The fields are F_2, F_3, F_4 and F_7 (packed) and F_9 (the tuple path).
"""

import json
import random
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from monogenic import (
    FqCtx,
    MonOrder,
    PlaceSet,
    Poly,
    RatFunc,
    TowerPowerPair,
    addendum_report,
    build_group,
    disc_form_predicate,
    enumerate_M,
    in_order,
    is_T_integer,
    is_T_unit,
    split_over,
    unit_class,
)
from monogenic.cli import run_scenario
from monogenic.verify import shifted_tower
from test_unit_oracle import oracle_factor

FIELDS = [FqCtx(2), FqCtx(3), FqCtx(2, 2), FqCtx(7), FqCtx(3, 2)]
ROOT = Path(__file__).resolve().parent.parent
MAX_DEGREE = 12


def oracle_is_T_integer(a, T):
    """v(a) >= 0 at every place outside T."""
    if a.is_zero():
        return True
    allowed = set(T.finite_pis)
    _, df = a.den.factor()
    return all(pi in allowed for pi, _ in df)


def oracle_is_T_unit(a, T):
    """v(a) = 0 at every place outside T."""
    if a.is_zero():
        raise ValueError("zero is not a unit")
    allowed = set(T.finite_pis)
    _, nf = a.num.factor()
    if any(pi not in allowed for pi, _ in nf):
        return False
    _, df = a.den.factor()
    return all(pi in allowed for pi, _ in df)


def oracle_unit_class(a, T):
    """Nonzero a up to a unit of O_{K,T}: (monic numerator, denominator)
    once the T-places are divided out."""
    num, den = a.num, a.den
    for pi in T.finite_pis:
        num = num.split_off(pi)[1]
        den = den.split_off(pi)[1]
    return num.monic(), den


def random_places(ctx, count, rng):
    """`count` distinct monic irreducibles of degree 1 to 3."""
    pis = []
    while len(pis) < count:
        pi = Poly.random(ctx, rng.randint(1, 3), rng).monic()
        if pi.is_irreducible() and pi not in pis:
            pis.append(pi)
    return pis


def random_side(ctx, pis, rng):
    """A nonzero polynomial of degree <= MAX_DEGREE: a random part (often a
    constant) times powers of some of the places in pis."""
    f = Poly.random(ctx, rng.choice([0, 0, 1, 2, 4, 6]), rng)
    for pi in pis:
        for _ in range(rng.randint(0, 3)):
            if f.degree() + pi.degree() <= MAX_DEGREE:
                f = f * pi
    return f


def random_element(ctx, pis, rng):
    num, den = random_side(ctx, pis, rng), random_side(ctx, pis, rng)
    return RatFunc(num) / RatFunc(den.monic())


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(0, 3), st.integers(0, 2 ** 32))
def test_T_predicates_match_factorization(ctx, count, seed):
    rng = random.Random(seed)
    pis = random_places(ctx, count, rng)
    T = PlaceSet.of(*pis)
    # products of T's places sit on both sides, and so do other places
    others = pis + random_places(ctx, 2, rng)
    for _ in range(4):
        a = random_element(ctx, others, rng)
        assert is_T_integer(a, T) == oracle_is_T_integer(a, T), (a, T)
        assert is_T_unit(a, T) == oracle_is_T_unit(a, T), (a, T)
        assert unit_class(a, T) == oracle_unit_class(a, T), (a, T)
        b = random_element(ctx, pis, rng)  # a T-unit times a constant, often
        assert is_T_unit(b, T) == oracle_is_T_unit(b, T), (b, T)
        assert (unit_class(a, T) == unit_class(a * b, T)) == is_T_unit(b, T)
    assert is_T_integer(RatFunc.of(0, ctx), T)


def test_split_over_reads_exponents():
    F3 = FqCtx(3)
    x = Poly.x(F3)
    basis = (x, x + 1)
    a = RatFunc(x ** 3 * (x + 2)) / RatFunc((x + 1) ** 2)
    assert split_over(basis, a) == ((3, -2), x + 2, Poly.one(F3))
    assert split_over((), a) == ((), a.num, a.den)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FIELDS), st.integers(1, 3), st.integers(0, 2 ** 32))
def test_group_factoring_matches_witness_oracle(ctx, count, seed):
    rng = random.Random(seed)
    pis = random_places(ctx, 3, rng)
    gens = [random_element(ctx, pis, rng) for _ in range(count)]
    gens = [g for g in gens if not g.is_constant()] or [RatFunc(Poly.x(ctx))]
    gctx = build_group(gens, ctx)
    for i, b in enumerate(gctx.basis):
        assert b.is_monic() and not b.is_constant()
        assert all(b.gcd(c).is_one() for c in gctx.basis[i + 1:])
    for g, vec, tau in zip(gens, gctx.gen_vectors, gctx.gen_torsion):
        assert oracle_factor(gctx, g) == (tau, vec)
    for _ in range(4):
        a = RatFunc.of(Poly.random(ctx, 0, rng).coeff(0), ctx)
        for g in gens:
            a = a * g ** rng.randint(-2, 2)
        assert gctx.factor_over_basis(a) == oracle_factor(gctx, a)
        c = a * random_element(ctx, pis, rng)
        assert gctx.factor_over_basis(c) == oracle_factor(gctx, c)


def test_place_questions_factor_nothing(monkeypatch):
    # the records, the search's keys, membership, the group factoring and
    # the addendum over O_{K,T} read one split or one coprime basis; none
    # reaches Poly.factor, and neither does any bundled scenario
    F2 = FqCtx(2)
    x = RatFunc.gen(F2)
    T = PlaceSet.of(Poly.x(F2), Poly(F2, [1, 1]))
    s = shifted_tower(Poly(F2, [1, 1])).gen(0)
    gctx = build_group([x, x + 1], F2)

    def refuse(self):
        raise AssertionError("Poly.factor called")

    monkeypatch.setattr(Poly, "factor", refuse)
    assert enumerate_M(TowerPowerPair(s, s * s + x, T), 3, 3).pairs
    rec = MonOrder(s / x, T)
    assert rec.integral and in_order(s * x ** -2, rec)
    assert disc_form_predicate(rec, T)
    assert gctx.factor_over_basis(x ** 3 / (x + 1)) is not None
    a = x ** 3 * (x ** 2 + x + 1) / (x + 1)
    assert is_T_integer(a, T) and not is_T_unit(a, T)
    assert unit_class(a, T) == (Poly(F2, [1, 1, 1]), Poly.one(F2))
    b = x ** 2 + x + 1
    assert addendum_report(x * b ** 2, b ** 3 / (x + 1), T).minimal_MN == (3, 2)
    paths = sorted((ROOT / "scenarios").glob("*.json"))
    assert paths
    for path in paths:
        report, code = run_scenario(json.loads(path.read_text(encoding="utf-8")))
        golden = ROOT / "tests" / "golden" / (path.stem + ".report.json")
        assert code == 0, path.name
        assert json.dumps(report, sort_keys=True, indent=2) == golden.read_text(encoding="utf-8")
