"""Differential tests of the packed F_2[x] kernels.

Over F_2 every `Poly` is an `F2Poly`, one int per polynomial.  The oracle
is the tuple path: `Poly._tuple(F2, coeffs)` holds the same value as a
coefficient tuple, and its operations run the coefficient loops that serve
every prime field (k == 1) other than F_2, here with p = 2.
"""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monogenic import FqCtx, Poly
from monogenic.funcfield import F2kPoly, F2Poly, FpPoly

F2 = FqCtx(2)


def bits(max_degree):
    """Coefficient lists of the zero polynomial and of every degree up to
    max_degree, drawn degree first so that high degrees come up."""
    packed = st.one_of(
        st.just(0),
        st.integers(0, max_degree).flatmap(lambda d: st.integers(1 << d, (2 << d) - 1)),
    )
    return packed.map(lambda n: [int(b) for b in reversed(bin(n)[2:])] if n else [])


def pair(raw):
    """The same value packed and tuple-held."""
    packed, tupled = Poly(F2, raw), Poly._tuple(F2, raw)
    assert type(packed) is F2Poly and type(tupled) is Poly
    return packed, tupled


def same(packed, tupled):
    assert type(packed) is F2Poly
    assert packed.coeffs == tupled.coeffs
    assert packed.degree() == tupled.degree()
    assert repr(packed) == repr(tupled)
    assert packed.sort_key() == tupled.sort_key()


@given(bits(300), bits(300))
@settings(max_examples=60, deadline=None)
def test_ring_ops_match_tuple_path(ra, rb):
    (a, ta), (b, tb) = pair(ra), pair(rb)
    same(a, ta)
    same(a * b, ta * tb)
    same(a + b, ta + tb)
    same(a - b, ta - tb)
    same(a.gcd(b), ta.gcd(tb))
    same(a.derivative(), ta.derivative())
    assert a.is_zero() == ta.is_zero() and a.is_one() == ta.is_one()
    assert a.is_constant() == ta.is_constant() and a.lc() == ta.lc()
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


@given(bits(75), st.integers(0, 8), st.integers(0, 60))
@settings(max_examples=40, deadline=None)
def test_pow_and_shift_match_tuple_path(ra, n, k):
    a, ta = pair(ra)
    same(a ** n, ta ** n)
    same(a.shift(k), ta.shift(k))


@given(bits(150), bits(300))
@settings(max_examples=40, deadline=None)
def test_pth_root_matches_tuple_path(rg, rf):
    # g(x^2) is a square; a random f is one only when its odd part is zero
    square = [c for c in rg for c in (c, 0)]
    a, ta = pair(square)
    same(a.pth_root_poly(), ta.pth_root_poly())
    f, tf = pair(rf)
    if any(rf[1::2]):
        with pytest.raises(ValueError):
            f.pth_root_poly()
        with pytest.raises(ValueError):
            tf.pth_root_poly()
    else:
        same(f.pth_root_poly(), tf.pth_root_poly())


@given(bits(300))
@settings(max_examples=40, deadline=None)
def test_factor_matches_tuple_path(ra):
    a, ta = pair(ra)
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.factor()
        return
    lc, fs = a.factor()
    tlc, tfs = ta.factor()
    assert lc == tlc
    assert [(f.coeffs, m) for f, m in fs] == [(f.coeffs, m) for f, m in tfs]
    assert all(type(f) is F2Poly for f, _ in fs)


@given(bits(300), bits(300))
@settings(max_examples=40, deadline=None)
def test_eq_and_hash_across_construction(ra, rb):
    # a value built from coefficients equals the same value reached by
    # packed operations, and hashes alike
    a, b = Poly(F2, ra), Poly(F2, rb)
    prod = a * b
    built = Poly(F2, list(prod.coeffs) + [0, 0])
    assert built == prod and hash(built) == hash(prod)
    made = Poly._make(F2, list(prod.coeffs))
    assert made == prod and hash(made) == hash(prod)
    assert {built: 1}[prod] == 1
    assert (a + b + b) == a and hash(a + b + b) == hash(a)
    assert (prod == a) == (prod.coeffs == a.coeffs)


def test_constructors_are_packed():
    x = Poly.x(F2)
    for p in (Poly.zero(F2), Poly.one(F2), x, Poly.constant(F2.one),
              Poly(F2, [1, 0, 1]), Poly._make(F2, [0, 1]), x * 3, x + F2.one):
        assert type(p) is F2Poly
    assert Poly(F2, [1, 1, 0, 0]).coeffs == (1, 1)
    assert Poly.zero(F2).coeffs == () and Poly.zero(F2).degree() == float("-inf")
    # the other packed fields have their own classes; F_9 keeps the tuples
    assert type(Poly(FqCtx(3), [1, 1])) is FpPoly and type(Poly(FqCtx(2, 2), [1])) is F2kPoly
    assert type(Poly(FqCtx(3, 2), [1])) is Poly
    with pytest.raises(ValueError):
        x * Poly.x(FqCtx(3))
    f = x ** 5 + 1
    for back in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert type(back) is F2Poly and back == f and hash(back) == hash(f)
    # the oracle's tuple-held value round-trips as well
    tf = Poly._tuple(F2, [1, 0, 0, 0, 0, 1])
    assert type(tf.code) is tuple and tf.coeffs == f.coeffs
    for back in (copy.copy(tf), copy.deepcopy(tf), pickle.loads(pickle.dumps(tf))):
        assert type(back) is Poly and back == tf and hash(back) == hash(tf)
    assert tf * tf == Poly._tuple(F2, (f * f).coeffs)
    assert hash(tf * tf) == hash(Poly._tuple(F2, (f * f).coeffs))
