import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monogenic import (
    BivarPoly,
    FqCtx,
    MonOrder,
    PlaceSet,
    Poly,
    RatFunc,
    disc_form_predicate,
    discriminant,
    express_in_power_basis,
    fit_generator_relation,
    frobenius_power,
    in_order,
    is_T_unit,
    orders_equal,
    sym_in_order,
    sym_orders_equal,
)
from monogenic.tower import Tower
from test_bivar import expand_sym
from monogenic.monorder import POLY_RING
from monogenic.verify import (
    EtaSequence,
    eta_conditions_hold,
    quartic_twist_tower,
    shifted_tower,
    symmetric_pair,
)

F2 = FqCtx(2)
F3 = FqCtx(3)


def test_express_examples():
    tw = shifted_tower(Poly(F2, [1, 1]))
    s = tw.gen(0)
    x = RatFunc.gen(F2)
    order = MonOrder(s)
    assert express_in_power_basis(s, order) == (
        RatFunc.of(0, F2), RatFunc.of(1, F2), RatFunc.of(0, F2), RatFunc.of(0, F2)
    )
    z1 = (s ** 4 + RatFunc(Poly(F2, [1, 1]))) / x ** 3
    assert express_in_power_basis(z1, order) == (
        RatFunc.of(0, F2), RatFunc.of(1, F2), x, RatFunc.of(0, F2)
    )
    assert express_in_power_basis(s / x, order)[1] == RatFunc(Poly.one(F2), Poly.x(F2))


def test_in_order_examples():
    tw = shifted_tower(Poly(F2, [1, 1]))
    s = tw.gen(0)
    x = RatFunc.gen(F2)
    order = MonOrder(s)
    z1 = (s ** 4 + RatFunc(Poly(F2, [1, 1]))) / x ** 3
    assert in_order(z1, order)
    assert not in_order(s / x, order)


def test_orders_equal_examples():
    tw = shifted_tower(Poly(F2, [1, 1]))
    s = tw.gen(0)
    order = MonOrder(s)
    assert orders_equal(s + RatFunc(Poly(F2, [0, 1, 1])), order)  # translation by O
    seq = EtaSequence(Poly(F2, [1, 1]))
    x = RatFunc.gen(F2)
    for m in range(1, 4):
        zm = (s ** (4 ** m) + RatFunc(seq.term(m))) / x ** (4 ** m - 1)
        assert orders_equal(zm, order)


def test_orders_equal_diagnostics():
    tw = shifted_tower(Poly(F2, [1, 1]))
    s = tw.gen(0)
    x = RatFunc.gen(F2)
    order = MonOrder(s)
    res = orders_equal(s + 1 / x, order)
    assert not res.equal
    assert "integral" in res.reason
    res2 = orders_equal(tw.from_base(x), order)
    assert not res2.equal and "degree" in res2.reason


def test_order_requires_integral_generator():
    tw = shifted_tower(Poly(F2, [1, 1]))
    with pytest.raises(ValueError):
        MonOrder(tw.gen(0) / RatFunc.gen(F2))


def test_disc_form_predicate():
    tw = shifted_tower(Poly(F2, [1, 1]))
    s = tw.gen(0)
    xp = Poly.x(F2)
    assert disc_form_predicate(s, PlaceSet.of(xp))
    assert not disc_form_predicate(s, PlaceSet())
    x3 = RatFunc.gen(F3)
    tw3 = Tower(F3).extend("y", [-x3, RatFunc.of(0, F3), RatFunc.of(1, F3)])
    assert disc_form_predicate(tw3.gen(0), PlaceSet.of(Poly.x(F3)))


def test_fit_generator_relation_trivial():
    tw = shifted_tower(Poly(F2, [1, 1]))
    s = tw.gen(0)
    rel = fit_generator_relation(s, s)
    assert (rel.a, rel.b, rel.q) == (RatFunc.of(1, F2), RatFunc.of(0, F2), 1)
    assert rel.disc_unit_ok


def test_fit_generator_relation_twist_family():
    tw = quartic_twist_tower()
    x, y = tw.x(), tw.gen(0)
    s = x * y
    xr = RatFunc.gen(F2)
    for i in (1, 2):
        si = x * frobenius_power(y, 2 * i)
        rel = fit_generator_relation(si, s)
        assert rel.q == 4 ** i
        assert rel.a == xr ** (1 - 4 ** i)
        assert rel.b.is_zero()
        assert rel.disc_unit_ok
        # the relation forces the discriminant transformation exactly
        assert discriminant(si) == rel.a ** 12 * discriminant(s) ** rel.q


def test_fit_generator_relation_shift_escape():
    # oracle: expected a, q, b computed from the recursion directly
    seed = Poly(F2, [1, 1])
    tw = shifted_tower(seed)
    s = tw.gen(0)
    x = RatFunc.gen(F2)
    seq = EtaSequence(seed)
    zs = {m: (s ** (4 ** m) + RatFunc(seq.term(m))) / x ** (4 ** m - 1) for m in (1, 2, 3)}
    rel = fit_generator_relation(zs[3], zs[1], max_e=6)
    q = 4 ** 2
    assert rel.q == q
    assert rel.a == x ** ((4 - 1) * q - (4 ** 3 - 1))
    assert rel.b == RatFunc(seq.term(3) - seq.term(1) ** q) / x ** (4 ** 3 - 1)
    assert not rel.b_in_ring  # the shift escapes O
    assert rel.disc_unit_ok


def test_fit_generator_relation_judges_in_the_record_ring():
    # t = x*s + 1/x over O_{K,T}, T = {inf, x}: a^12 = x^12 is a T-unit and
    # b = 1/x a T-integer, though neither holds over F_q[x]
    tw = shifted_tower(Poly(F2, [1, 1]))
    s = tw.gen(0)
    x = RatFunc.gen(F2)
    rec = MonOrder(s, PlaceSet.of(Poly.x(F2)))
    rel = fit_generator_relation(x * s + 1 / x, rec)
    assert (rel.a, rel.b, rel.q) == (x, 1 / x, 1)
    assert rel.disc_unit_ok and rel.b_in_ring
    rel = fit_generator_relation(x * s + 1 / x, s)
    assert not rel.disc_unit_ok and not rel.b_in_ring


def test_fit_generator_relation_horizon():
    tw = shifted_tower(Poly(F2, [1, 1]))
    s = tw.gen(0)
    x = RatFunc.gen(F2)
    seq = EtaSequence(Poly(F2, [1, 1]))
    z2 = (s ** 16 + RatFunc(seq.term(2))) / x ** 15
    assert fit_generator_relation(z2, s, max_e=1) is None  # needs e = 2


def test_ring_closure_randomized():
    rng = random.Random(77)
    tw = shifted_tower(Poly(F2, [1, 1]))
    s = tw.gen(0)
    order = MonOrder(s)

    def random_member():
        coords = [RatFunc(Poly.random(F2, rng.randrange(0, 3), rng)) for _ in range(4)]
        acc = tw.from_base(0)
        for i, c in enumerate(coords):
            acc = acc + s ** i * c
        return acc

    for _ in range(25):
        t = random_member()
        u = random_member()
        assert in_order(t + u, order)
        assert in_order(t * u, order)


def test_affine_equivalences_randomized():
    # O[a s + b] = O[s] for units a and polynomial b
    rng = random.Random(78)
    x3 = RatFunc.gen(F3)
    tw3 = Tower(F3).extend("y", [-x3, RatFunc.of(0, F3), RatFunc.of(1, F3)])
    y = tw3.gen(0)
    order = MonOrder(y)
    for _ in range(30):
        a = RatFunc.of(rng.randrange(1, 3), F3)
        b = RatFunc(Poly.random(F3, rng.randrange(0, 3), rng))
        assert orders_equal(a * y + b, order)


def test_orders_equal_reflexive_and_symmetric():
    tw = shifted_tower(Poly(F2, [1, 1]))
    s = tw.gen(0)
    x = RatFunc.gen(F2)
    t = x * s * s + s  # z_1
    assert orders_equal(s, MonOrder(s))
    assert bool(orders_equal(t, MonOrder(s))) == bool(orders_equal(s, MonOrder(t)))
    u = s + 1  # another equivalent generator
    assert bool(orders_equal(u, MonOrder(s))) == bool(orders_equal(s, MonOrder(u)))


def test_orders_equal_implies_unit_disc_ratio():
    tw = shifted_tower(Poly(F2, [1, 1]))
    s = tw.gen(0)
    seq = EtaSequence(Poly(F2, [1, 1]))
    x = RatFunc.gen(F2)
    z2 = (s ** 16 + RatFunc(seq.term(2))) / x ** 15
    assert orders_equal(z2, MonOrder(s))
    ratio = discriminant(z2) / discriminant(s)
    assert ratio.is_constant() and not ratio.is_zero()


_ETA_COEFFS = ([1, 1], [1, 1, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 1, 0, 1])
_ETAS = [Poly(F2, c) for c in _ETA_COEFFS if eta_conditions_hold(Poly(F2, c)) is None]


@settings(max_examples=30, deadline=None)
@given(
    eta=st.sampled_from(_ETAS),
    form=st.sampled_from(["lin", "sq", "xs2"]),
    b=st.lists(st.integers(0, 1), max_size=4),
)
def test_orders_equal_implies_unit_disc_ratio_random(eta, form, b):
    # the search prunes a cell when the index keys of the two records
    # differ (pivot columns, or last pivots whose ratio is not a unit);
    # that is sound only if equal orders always agree on both, as they do
    # on the discriminant ratio
    tw = shifted_tower(eta)
    s = tw.gen(0)
    x = RatFunc.gen(F2)
    t = {"lin": s, "sq": s * s, "xs2": x * s * s + s}[form] + RatFunc(Poly(F2, b))
    order_s = MonOrder(s)
    equal = orders_equal(t, order_s)
    assert equal or form == "sq"  # s + b and x*s^2 + s + b generate O[s]
    if equal:
        order_t = MonOrder(t)
        assert order_s.key == order_t.key
        assert is_T_unit(order_s.pivot / order_t.pivot, POLY_RING)
        assert is_T_unit(discriminant(t) / order_s.disc, POLY_RING)


# ---- symmetric backend ----------------------------------------------------

def test_sym_membership_seven_powers():
    ctx, s, t = symmetric_pair()
    m = 14
    fwd = sym_in_order(s ** m, t ** m)
    assert fwd.contained
    # the linear coefficient is the constant 3 = 1/5 in F_7
    assert fwd.b.sym_decompose() == BivarPoly.constant(ctx, 3, ("e1", "e2"))
    rev = sym_in_order(t ** m, s ** m)
    assert rev.contained
    assert sym_orders_equal(s ** m, t ** m)


def test_sym_membership_b_is_the_conjugate_quotient():
    # a contained u carries B = (u - sigma u)/(w - sigma w), symmetric, so
    # its rewrite in e1, e2 expands back to it; B is None when w is in K
    # and when u is outside O[w]
    ctx, s, t = symmetric_pair()
    e1 = s + s.swap()
    cases = [(s ** 14, t ** 14), (t ** 14, s ** 14), (t, t), (e1, t), (s ** 2, t ** 2),
             (s ** 3, t ** 3), (t * t, e1), (e1 * e1, e1)]
    for u, w in cases:
        mem = sym_in_order(u, w)
        dw = w - w.swap()
        if not mem.contained or dw.is_zero():
            assert mem.b is None
            continue
        assert mem.b == (u - u.swap()).divide_exact(dw)
        lin = mem.b.sym_decompose()
        assert lin.names == ("e1", "e2") and expand_sym(lin) == mem.b


def test_sym_membership_failure():
    ctx, s, t = symmetric_pair()
    assert not sym_in_order(s ** 3, t ** 3).contained
    assert not sym_orders_equal(s, t ** 2)


def test_sym_symmetric_element_case():
    ctx, s, t = symmetric_pair()
    e1 = s + s.swap()
    mem = sym_in_order(e1, t)
    assert mem.contained  # e1 lies in O itself
