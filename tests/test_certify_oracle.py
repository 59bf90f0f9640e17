"""Irreducibility and level certification against the factoring scan they replaced.

`Poly.is_irreducible` factored its polynomial and asked for one factor of
multiplicity one (`oracle_is_irreducible`, kept as it was); it is now
Ben-Or's test, which stops at the first i <= n/2 with
gcd(x^(q^i) - x, f) != 1.  The two must agree over F_2, F_3, F_5, F_131,
F_4, F_8, F_16 and F_9 at degrees 1 to 12, on draws that include Ben-Or's
edge cases: the square of an irreducible of degree n/2, and the product of
two irreducibles of degree n/2.

`Tower._certify` scanned every point x -> c in order, over F_q and then,
over a prime field, over F_{q^2}, F_{q^3} and F_{q^4}, and factored each
specialization (`oracle_certify`, kept as it was but for its irreducibility
test, which is the oracle above).  It now tests one point per Frobenius
orbit past F_q, with Ben-Or's test.  The certificate texts must agree,
None included, on random monic levels over F_2, F_3, F_7 and a base F_4,
and on levels that first certify over F_8, F_16, F_9 and F_49.

Soundness: a product of two level-1 polynomials never certifies, and
`extend` refuses it; on levels that certify, random nonzero elements
invert.
"""

import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monogenic import FqCtx, Poly, RatFunc, Tower
from monogenic.tower import CERTIFY_POINTS, _common_denominator
from test_parse import _random_elem


def oracle_is_irreducible(f):
    """f factors as one irreducible of multiplicity one."""
    if f.degree() < 1:
        return False
    _, factors = f.factor()
    return len(factors) == 1 and factors[0][1] == 1


def oracle_certify(base, cleared):
    """The scan of every point, in order, each specialization factored."""
    nums = cleared[0]
    left = CERTIFY_POINTS
    for j in (1, 2, 3, 4) if base.k == 1 else (1,):
        try:
            ext = FqCtx(base.p, j) if j > 1 else base
        except ValueError:
            break
        for c in islice(ext.elements(), left):
            left -= 1
            if nums[-1].evaluate(c).is_zero():
                continue  # the degree would drop
            if oracle_is_irreducible(Poly(ext, [cf.evaluate(c) for cf in nums])):
                return f"certified(x={c!r} in F_{ext.q})"
    return None


# ---------------------------------------------------------------------------
# Poly.is_irreducible
# ---------------------------------------------------------------------------

FIELDS = [FqCtx(2), FqCtx(3), FqCtx(5), FqCtx(131),
          FqCtx(2, 2), FqCtx(2, 3), FqCtx(2, 4), FqCtx(3, 2)]


def _irreducible(ctx, degree, rng):
    """A random monic irreducible of the given degree, drawn until the
    oracle accepts one."""
    while True:
        f = Poly.random(ctx, degree, rng).monic()
        if oracle_is_irreducible(f):
            return f


def _draw(ctx, n, kind, rng):
    half = max(1, n // 2)
    if kind == "random":
        f = Poly.random(ctx, n, rng)
    elif kind == "irreducible":
        f = _irreducible(ctx, n, rng)
    elif kind == "square":  # g^2, g irreducible of degree n/2
        f = _irreducible(ctx, half, rng) ** 2
    else:  # "halves": two irreducibles of degree n/2
        f = _irreducible(ctx, half, rng) * _irreducible(ctx, half, rng)
    # a nonzero constant multiple: the test must not need a monic f
    return f * Poly.random(ctx, 0, rng)


@settings(max_examples=300, deadline=None)
@given(field=st.sampled_from(FIELDS), n=st.integers(1, 12),
       kind=st.sampled_from(["random", "irreducible", "square", "halves"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_is_irreducible_matches_factoring(field, n, kind, seed):
    f = _draw(field, n, kind, random.Random(seed))
    assert f.is_irreducible() == oracle_is_irreducible(f)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_is_irreducible_edge_cases(field):
    rng = random.Random(field.q)
    x = Poly.x(field)
    assert not Poly.constant(field.one).is_irreducible()
    assert x.is_irreducible()
    assert not (x * x).is_irreducible()
    for n in (2, 4, 6):
        g, h = _irreducible(field, n, rng), _irreducible(field, n, rng)
        assert g.is_irreducible()
        assert not (g * g).is_irreducible()
        assert not (g * h).is_irreducible()


# ---------------------------------------------------------------------------
# Tower._certify
# ---------------------------------------------------------------------------

CERTIFY_FIELDS = [FqCtx(2), FqCtx(3), FqCtx(7), FqCtx(2, 2)]


def _level(ctx, rng, degree, rational=False):
    """A random monic level of the given degree: coefficients in F_q[x] of
    degree <= 3, over small denominators when `rational`."""
    coeffs = []
    for _ in range(degree):
        num = Poly.random(ctx, rng.randint(0, 3), rng) if rng.random() < 0.8 else Poly.zero(ctx)
        den = Poly.random(ctx, rng.randint(0, 1), rng).monic() if rational else Poly.one(ctx)
        coeffs.append(RatFunc(num, den))
    return coeffs + [RatFunc.of(1, ctx)]


def _certificates(ctx, coeffs):
    cleared = _common_denominator(coeffs)
    return Tower(ctx)._certify(cleared), oracle_certify(ctx, cleared)


# (field, little-endian Y-coefficients as little-endian x-coefficients,
# the field the whole scan first certifies over)
FIRST_CERTIFIED_PAST_F_Q = [
    (2, [[1, 0, 1, 1], [1, 1], [1], [0], [1]], "F_8"),
    (2, [[0, 0, 1, 1], [1, 0, 0, 1], [1]], "F_8"),
    (2, [[1], [1, 1, 0, 1], [1, 0], [0, 1, 1, 0], [1]], "F_16"),
    (2, [[1, 1, 1], [0], [1, 0, 1, 1], [1, 1, 1], [0], [1]], "F_16"),
    (3, [[0, 1], [0], [2, 0], [1], [1]], "F_9"),
    (3, [[0, 1, 1, 1], [0], [2, 1, 2, 2], [2, 1, 1], [1]], "F_9"),
    (7, [[2, 1], [2, 5, 0, 5], [5, 4], [1]], "F_49"),
    (7, [[3, 1, 5, 1], [5, 2, 2, 5], [0, 0, 0, 5], [1]], "F_49"),
]


@pytest.mark.parametrize("p, coeffs, where", FIRST_CERTIFIED_PAST_F_Q)
def test_certify_matches_full_scan_past_the_prime_field(p, coeffs, where):
    ctx = FqCtx(p)
    got, want = _certificates(ctx, [RatFunc(Poly(ctx, c)) for c in coeffs])
    assert want.endswith(f" in {where})")
    assert got == want


@settings(max_examples=200, deadline=None)
@given(field=st.sampled_from(CERTIFY_FIELDS), degree=st.integers(2, 5),
       rational=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_certify_matches_full_scan(field, degree, rational, seed):
    got, want = _certificates(field, _level(field, random.Random(seed), degree, rational))
    assert got == want


# ---------------------------------------------------------------------------
# soundness
# ---------------------------------------------------------------------------

SOUNDNESS_FIELDS = CERTIFY_FIELDS + [FqCtx(5), FqCtx(3, 2)]


def _times(f, g):
    out = [RatFunc.of(0, f[0].ctx)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = out[i + j] + a * b
    return out


@settings(max_examples=100, deadline=None)
@given(field=st.sampled_from(SOUNDNESS_FIELDS), dg=st.integers(1, 3), dh=st.integers(1, 3),
       rational=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_products_never_certify(field, dg, dh, rational, seed):
    rng = random.Random(seed)
    f = _times(_level(field, rng, dg, rational), _level(field, rng, dh, rational))
    assert Tower(field)._certify(_common_denominator(f)) is None
    with pytest.raises(ValueError, match="level 's'"):
        Tower(field).extend("s", f)


@settings(max_examples=40, deadline=None)
@given(field=st.sampled_from(SOUNDNESS_FIELDS), degree=st.integers(2, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_certified_levels_invert(field, degree, seed):
    rng = random.Random(seed)
    while True:
        try:
            tw = Tower(field).extend("s", _level(field, rng, degree, rng.random() < 0.3))
            break
        except ValueError:
            continue  # inseparable, or not certified
    assert tw.levels[0].status.startswith("certified")
    for _ in range(3):
        a = _random_elem(tw, rng)
        if a:
            assert a * (1 / a) == 1
