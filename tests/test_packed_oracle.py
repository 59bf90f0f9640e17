"""Differential tests of the packed F_p[x] and F_{2^k}[x] kernels.

Over F_3, F_5, F_7 every polynomial is an `FpPoly` and over F_4, F_8, F_16
an `F2kPoly`: one bytes string with a byte per coefficient.  The oracle is
the tuple path: `Poly._tuple(ctx, raw)` holds the same value as a tuple of
raw coefficients, and its operations run the coefficient loops that the
fallback fields (p >= 128, odd p with k > 1, 2^k with k > 4) still use.
"""

import copy
import pickle

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monogenic import FqCtx, Poly, RatFunc
from monogenic.funcfield import F2kPoly, FpPoly
from monogenic.unitgrp import pth_power_decompose

FIELDS = {name: FqCtx(*pk) for name, pk in {
    "F3": (3, 1), "F5": (5, 1), "F7": (7, 1), "F4": (2, 2), "F8": (2, 3), "F16": (2, 4),
}.items()}


def elem(ctx):
    return st.integers(0, ctx.q - 1).map(lambda c: _raw(ctx, c))


def _raw(ctx, c):
    """The raw value of the c-th element of ctx (0 is zero, 1 is one)."""
    if ctx.k == 1:
        return c
    return tuple(c // ctx.p ** i % ctx.p for i in range(ctx.k))


# degrees 300 and 150 over F_16, every coefficient nonzero
F16_LONG = ("F16", [_raw(FIELDS["F16"], i % 15 + 1) for i in range(301)],
            [_raw(FIELDS["F16"], i * 7 % 15 + 1) for i in range(151)])


def raws(ctx, max_degree):
    """Raw coefficient lists of the zero polynomial and of degrees up to
    max_degree, low degrees drawn as often as high ones."""
    degree = st.one_of(st.integers(0, 8), st.integers(0, max_degree))
    nonzero = st.integers(1, ctx.q - 1).map(lambda c: _raw(ctx, c))
    return st.one_of(
        st.just([]),
        degree.flatmap(lambda d: st.tuples(st.lists(elem(ctx), min_size=d, max_size=d), nonzero)
                       .map(lambda t: t[0] + [t[1]])),
    )


def field_and(*sizes):
    """A field name and one raw list per size."""
    return st.sampled_from(sorted(FIELDS)).flatmap(
        lambda name: st.tuples(st.just(name), *[raws(FIELDS[name], s) for s in sizes]))


def pair(ctx, raw):
    """The same value packed and tuple-held."""
    packed, tupled = Poly._make(ctx, raw), Poly._tuple(ctx, raw)
    assert type(packed) is (FpPoly if ctx.k == 1 else F2kPoly) and type(tupled) is Poly
    return packed, tupled


def same(packed, tupled):
    assert type(packed) in (FpPoly, F2kPoly)
    assert tuple(packed.coeffs) == tupled.coeffs
    assert packed.degree() == tupled.degree()
    assert repr(packed) == repr(tupled)
    assert packed.is_monic() == tupled.is_monic() and packed.lc() == tupled.lc()


@given(field_and(300, 300))
@settings(max_examples=60, deadline=None)
@example(("F7", [1, 2, 3, 4, 5, 6, 1, 2, 3], [6] * 12))  # 8-coefficient slots overflow a byte
@example(("F3", [2] * 200, [1] * 150))  # slots of two bytes over F_3
@example(F16_LONG)
def test_ring_ops_match_tuple_path(case):
    name, ra, rb = case
    ctx = FIELDS[name]
    (a, ta), (b, tb) = pair(ctx, ra), pair(ctx, rb)
    same(a, ta)
    same(a * b, ta * tb)
    same(a + b, ta + tb)
    same(a - b, ta - tb)
    same(-a, -ta)
    same(a.monic(), ta.monic())
    same(a.gcd(b), ta.gcd(tb))
    same(a.derivative(), ta.derivative())
    assert a.is_zero() == ta.is_zero() and a.is_one() == ta.is_one()
    assert a.is_constant() == ta.is_constant()
    if b.is_zero():
        with pytest.raises(ZeroDivisionError):
            divmod(a, b)
        with pytest.raises(ZeroDivisionError):
            divmod(ta, tb)
    else:
        q, r = divmod(a, b)
        tq, tr = divmod(ta, tb)
        same(q, tq)
        same(r, tr)


@given(field_and(300), st.integers(1, 3), st.integers(0, 40))
@settings(max_examples=40, deadline=None)
@example(("F3", [1] * 301), 1, 0)  # quotient of 300 steps: slots reduced on the way
@example(("F7", [3] * 120 + [1]), 1, 0)
def test_long_division_matches_tuple_path(case, db, k):
    # a long quotient: divisors of degree 1..3
    name, ra = case
    ctx = FIELDS[name]
    a, ta = pair(ctx, ra)
    rb = [_raw(ctx, (i * 5 + 2) % ctx.q) for i in range(db)] + [_raw(ctx, 1 + k % (ctx.q - 1))]
    b, tb = pair(ctx, rb)
    q, r = divmod(a, b)
    tq, tr = divmod(ta, tb)
    same(q, tq)
    same(r, tr)


@pytest.mark.parametrize("name, db", [("F3", 140), ("F7", 45), ("F5", 70)])
def test_division_reduces_slots_before_they_overflow(name, db):
    # every step adds the largest residue p - 1 to every slot of its window:
    # divisor 1 + x + ... + x^db, quotient 1 + x + ... + x^(db+5)
    ctx = FIELDS[name]
    b, tb = pair(ctx, [1] * (db + 1))
    q, tq = pair(ctx, [1] * (db + 6))
    r, tr = pair(ctx, [2] * db)
    got = divmod(q * b + r, b)
    want = divmod(tq * tb + tr, tb)
    same(got[0], want[0])
    same(got[1], want[1])
    same(got[0], tq)
    same(got[1], tr)


@given(field_and(40, 12), st.integers(0, 6))
@settings(max_examples=40, deadline=None)
def test_pow_and_pow_mod_match_tuple_path(case, n):
    name, ra, rm = case
    ctx = FIELDS[name]
    (a, ta), (m, tm) = pair(ctx, ra), pair(ctx, rm)
    same(a ** n, ta ** n)
    if not m.is_zero():
        same(a.pow_mod(ctx.q + n, m), ta.pow_mod(ctx.q + n, tm))


@given(field_and(60, 100))
@settings(max_examples=40, deadline=None)
def test_pth_root_matches_tuple_path(case):
    # g(x^p) is a p-th power; a random f is one only when the
    # coefficients off the multiples of p are zero
    name, rg, rf = case
    ctx = FIELDS[name]
    zero = _raw(ctx, 0)
    power = [c for c in rg for c in [c] + [zero] * (ctx.p - 1)]
    a, ta = pair(ctx, power)
    same(a.pth_root_poly(), ta.pth_root_poly())
    f, tf = pair(ctx, rf)
    for g, tg in zip(f.pth_parts(), tf.pth_parts()):
        same(g, tg)
    if any(c != zero for i, c in enumerate(rf) if i % ctx.p):
        with pytest.raises(ValueError):
            f.pth_root_poly()
        with pytest.raises(ValueError):
            tf.pth_root_poly()
    else:
        same(f.pth_root_poly(), tf.pth_root_poly())


def _oracle_pth_power_decompose(num, den):
    """The coefficient loop that `pth_power_decompose` ran before, on
    tuple-held polynomials."""
    ctx = num.ctx
    p = ctx.p
    w = num * den ** (p - 1)
    buckets = [[] for _ in range(p)]
    for i, c in enumerate(w.coeffs):
        bucket = buckets[i % p]
        while len(bucket) <= i // p:
            bucket.append(ctx.rzero)
        bucket[i // p] = ctx.rpth_root(c)
    return [RatFunc(Poly._tuple(ctx, b), den) for b in buckets]


@given(field_and(30, 12))
@settings(max_examples=30, deadline=None)
def test_pth_power_decompose_matches_tuple_path(case):
    name, rn, rd = case
    ctx = FIELDS[name]
    (n, tn), (d, td) = pair(ctx, rn), pair(ctx, rd)
    if d.is_zero():
        return
    d, td = d.monic(), td.monic()
    g = n.gcd(d)
    n, d = n // g, d // g
    tn, td = Poly._tuple(ctx, tuple(n.coeffs)), Poly._tuple(ctx, tuple(d.coeffs))
    a = RatFunc(n, d)
    got = [RatFunc(part, a.den) for part in pth_power_decompose(a)]
    want = _oracle_pth_power_decompose(tn, td)
    assert [(tuple(c.num.coeffs), tuple(c.den.coeffs)) for c in got] == \
        [(tuple(c.num.coeffs), tuple(c.den.coeffs)) for c in want]


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_factor_and_split_off_match_tuple_path(data):
    # the tuple path over F_8 and F_16 is slow: smaller degrees there
    name = data.draw(st.sampled_from(sorted(FIELDS)))
    ctx = FIELDS[name]
    ra = data.draw(raws(ctx, 40 if ctx.k == 1 else 14))
    a, ta = pair(ctx, ra)
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.factor()
        return
    lc, fs = a.factor()
    tlc, tfs = ta.factor()
    assert lc == tlc
    assert [(tuple(f.coeffs), m) for f, m in fs] == [(f.coeffs, m) for f, m in tfs]
    assert all(type(f) is type(a) for f, _ in fs)
    for f, m in fs:
        tf = Poly._tuple(ctx, f.coeffs)
        k, rest = (a * f).split_off(f)
        tk, trest = (ta * tf).split_off(tf)
        assert k == tk == m + 1
        same(rest, trest)


@given(field_and(300, 300))
@settings(max_examples=40, deadline=None)
def test_sort_key_eq_and_hash_across_construction(case):
    name, ra, rb = case
    ctx = FIELDS[name]
    (a, ta), (b, tb) = pair(ctx, ra), pair(ctx, rb)
    # sort keys order packed values as the tuple keys order tuple values
    assert (a.sort_key() < b.sort_key()) == (ta.sort_key() < tb.sort_key())
    assert (a.sort_key() == b.sort_key()) == (ta.sort_key() == tb.sort_key())
    # the same value from coefficients, from arithmetic and from the
    # public constructor is equal and hashes alike
    prod = a * b
    built = Poly(ctx, list(prod.coeffs) + [_raw(ctx, 0)] * 2)
    assert built == prod and hash(built) == hash(prod)
    made = Poly._make(ctx, list(prod.coeffs))
    assert made == prod and hash(made) == hash(prod)
    assert {built: 1}[prod] == 1
    assert (a + b - b) == a and hash(a + b - b) == hash(a)
    assert (prod == a) == (tuple(prod.coeffs) == tuple(a.coeffs))
    for back in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(back) is type(a) and back == a and hash(back) == hash(a)
        same(back, ta)
    # the tuple path, too, is rebuilt from its `code` alone
    tprod = ta * tb
    tbuilt = Poly._tuple(ctx, list(tprod.coeffs) + [_raw(ctx, 0)] * 2)
    assert tbuilt == tprod and hash(tbuilt) == hash(tprod)
    for back in (copy.copy(ta), copy.deepcopy(ta), pickle.loads(pickle.dumps(ta))):
        assert type(back) is Poly and back == ta and hash(back) == hash(ta)
        same(a, back)


@pytest.mark.parametrize("ctx", [FqCtx(3, 2), FqCtx(131)], ids=["F9", "F131"])
def test_fallback_fields_round_trip(ctx):
    # the fallback fields hold the raw coefficient tuple: copy and pickle
    # rebuild it, and equal values hash alike however they were made
    x = Poly.x(ctx)
    f = (x + 2) ** 5 * (x - ctx.gen if ctx.k > 1 else x - 7)
    assert type(f) is Poly and f.coeffs is f.code and type(f.code) is tuple
    for back in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert type(back) is Poly and back == f and hash(back) == hash(f)
        assert back.coeffs == f.coeffs and repr(back) == repr(f)
    built = Poly(ctx, [ctx.elem(c) for c in f.coeffs] + [0, 0])
    made = Poly._make(ctx, list(f.coeffs) + [ctx.rzero])
    for g in (built, made, f * 1 + 0, divmod(f * x, x)[0], (f * f) // f):
        assert type(g) is Poly and g == f and hash(g) == hash(f)
    assert {built: 1}[f] == 1
    assert f != f + 1 and Poly.zero(ctx) == f - f and not (f - f)


def test_constructors_are_packed():
    for name, ctx in FIELDS.items():
        cls = FpPoly if ctx.k == 1 else F2kPoly
        x = Poly.x(ctx)
        for p in (Poly.zero(ctx), Poly.one(ctx), x, Poly.constant(ctx.one), Poly(ctx, [1, 0, 1]),
                  Poly._make(ctx, [ctx.rzero, ctx.rone]), x * 3, x + ctx.one, RatFunc.gen(ctx).num):
            assert type(p) is cls, name
        assert Poly.zero(ctx).degree() == float("-inf") and not Poly.zero(ctx).coeffs
    # over F_p the coefficients are the packed bytes themselves
    f = Poly(FIELDS["F7"], [3, 0, 5, 0])
    assert f.coeffs == b"\x03\x00\x05" and f.coeffs is f.code
    # the fallback fields keep the tuples
    for ctx in (FqCtx(3, 2), FqCtx(131)):
        assert type(Poly.x(ctx)) is Poly and type(Poly.x(ctx) * 2) is Poly


def test_wide_slots_of_three_bytes():
    # (p-1)^2 * min(len) >= 2^16: the product is reduced from 3-byte slots
    ctx = FqCtx(127)
    ra = [(7 * i + 3) % 127 for i in range(1100)] + [126]
    rb = [(11 * i + 5) % 127 for i in range(1100)] + [125]
    (a, ta), (b, tb) = pair(ctx, ra), pair(ctx, rb)
    assert tuple((a * b).coeffs) == (ta * tb).coeffs
