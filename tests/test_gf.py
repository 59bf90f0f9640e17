import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monogenic import FqCtx, FqElem
from monogenic.gf import _fp_poly_mod, split_power

F2 = FqCtx(2)
F4 = FqCtx(2, 2)
F7 = FqCtx(7)
F16 = FqCtx(2, 4)
F9 = FqCtx(3, 2)
F49 = FqCtx(7, 2)


def test_char2_add():
    assert (F2.one + F2.one).is_zero()


def test_f4_gen_square():
    z = F4.gen
    assert z * z == z + 1


def test_f7_division():
    assert F7.elem(3) / F7.elem(2) == F7.elem(5)


def test_fq_operators():
    assert F7.elem(3) / F7.elem(2) == F7.elem(5)
    assert F4.gen * F4.gen == F4.gen + 1
    with pytest.raises(ZeroDivisionError):
        F7.one / F7.zero
    with pytest.raises(ValueError):
        F7.one + F2.one


def test_frobenius_examples():
    z = F4.gen
    assert z.frobenius(1) == z + 1
    assert F7.elem(3).frobenius(1) == F7.elem(3)
    assert z.frobenius(2) == z  # Frobenius has order k


def pth_root(a):
    return FqElem(a.ctx, a.ctx.rpth_root(a.raw))


def test_pth_root_examples():
    assert pth_root(F2.one) == F2.one
    assert pth_root(F4.gen + 1) == F4.gen
    b = pth_root(F7.elem(6))
    assert b ** 7 == F7.elem(6)
    assert b == F7.elem(6)


def test_pth_root_inverts_frobenius():
    for ctx in (F4, F9, F16, F49):
        for a in ctx.elements():
            assert pth_root(a.frobenius(1)) == a


def test_freshman_dream_randomized():
    rng = random.Random(101)
    for ctx in (F4, F9, F49, F16):
        for _ in range(250):
            a = ctx.random_elem(rng)
            b = ctx.random_elem(rng)
            assert (a + b) ** ctx.p == a ** ctx.p + b ** ctx.p


def test_multiplicative_order_exhaustive():
    # a^{q-1} = 1 for all nonzero a, exhaustively for q <= 2^10
    for ctx in (F2, F4, F7, F9, F16, F49, FqCtx(3), FqCtx(2, 3)):
        assert ctx.q <= 2 ** 10
        for a in ctx.elements():
            if not a.is_zero():
                assert a ** (ctx.q - 1) == ctx.one


@given(st.integers(0, 48), st.integers(0, 48))
@settings(max_examples=60)
def test_f49_field_axioms(i, j):
    els = list(F49.elements())
    a, b = els[i], els[j]
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + F49.one) == a * b + a
    if not b.is_zero():
        assert (a / b) * b == a


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        FqCtx(2, 2, (1, 0, 1))  # z^2+1 = (z+1)^2 over F_2


def _fp_is_irreducible(m, p) -> bool:
    """Trial factorization: a reducible monic polynomial of degree k has a
    monic factor of degree between 1 and k//2."""
    k = len(m) - 1
    if k < 1 or m[-1] != 1:
        return False
    if k == 1:
        return True
    for d in range(1, k // 2 + 1):
        if p ** d > 10 ** 6:
            raise ValueError("modulus too large for trial factorization")
        for tail in itertools.product(range(p), repeat=d):
            g = list(tail) + [1]
            if not _fp_poly_mod(m, g, p):
                return False
    return True


def _accepts(p, modulus) -> bool:
    try:
        FqCtx(p, len(modulus) - 1, modulus)
    except ValueError as err:
        assert "not irreducible" in str(err)
        return False
    return True


@pytest.mark.parametrize("p, degrees", [(2, range(2, 6)), (3, range(2, 6)),
                                        (5, range(2, 4)), (7, range(2, 4))])
def test_modulus_check_matches_trial_division(p, degrees):
    # the trial division that FqCtx ran before Ben-Or's test, kept as the
    # oracle, over every monic modulus of each degree
    for k in degrees:
        for tail in itertools.product(range(p), repeat=k):
            modulus = tail + (1,)
            assert _accepts(p, modulus) == _fp_is_irreducible(modulus, p), modulus


def _random_irreducible(p, k):
    rng = random.Random(p * k)
    while True:
        modulus = tuple(rng.randrange(p) for _ in range(k)) + (1,)
        if _accepts(p, modulus):
            return modulus


@pytest.mark.parametrize("p, k", [(2, 39), (3, 25), (65521, 3)])
def test_modulus_size_bound_edge_builds(p, k):
    # the largest k with p^(k//2) <= 10^6, the bound trial division set
    assert FqCtx(p, k, _random_irreducible(p, k)).q == p ** k


@pytest.mark.parametrize("p, k", [(2, 40), (3, 26), (65521, 4)])
def test_modulus_size_bound_edge_refused(p, k):
    # x^k + x + 1 and x^k + x + 2 are refused for size before any check,
    # reducible or not
    for c in (1, 2):
        with pytest.raises(ValueError, match=r"modulus too large: keep p\^\(k//2\) <= 10\^6"):
            FqCtx(p, k, (c % p, 1) + (0,) * (k - 2) + (1,))


def test_linear_modulus_gives_the_prime_field():
    assert FqCtx(5, 1, (3, 1)) == FqCtx(5)


@given(st.integers(-10 ** 12, 10 ** 12).filter(bool), st.integers(0, 40),
       st.sampled_from([2, 3, 4, 5, 7, 9, 131, 65521]))
def test_split_power_matches_naive_loop(m, e, b):
    # the bases are primes, and the field sizes q_K = 4, 9 that
    # bound_calculator splits
    n = b ** e * m
    naive = 0
    while n % b ** (naive + 1) == 0:
        naive += 1
    assert split_power(n, b) == (naive, n // b ** naive)


def test_bad_prime_rejected():
    with pytest.raises(ValueError):
        FqCtx(6)


def test_text_form():
    assert repr(F7.elem(3)) == "3"
    z = F4.gen
    assert repr(z * z) == "z+1"
    assert repr(F16.gen ** 2 + F16.gen + 1) == "z^2+z+1"
    assert [repr(F7), repr(F4), repr(F16)] == ["F7", "F4=F2[z]/(z^2+z+1)", "F16=F2[z]/(z^4+z+1)"]
    assert repr(FqCtx(3, 2, (2, 2, 1))) == "F9=F3[z]/(z^2+2*z+2)"
