"""Differential test of the decimal bound evaluation against mpmath.

The mpmath functions below are the evaluation `bound_calculator` and
`ess_bound_log10` used before they moved to the standard `decimal`
module; they stay here as the oracle.  Reports must agree as text, byte
for byte, and the raw values to well below the printed digits.
`ess_bound_log10` itself lives here: no task reads it.
"""

import itertools
import random
from decimal import Decimal, localcontext

import mpmath

from monogenic import bound_calculator
from monogenic.frobsearch import _digits25


def ess_bound_log10(n: int, r: int) -> Decimal:
    """log10 of the characteristic-zero bound exp((6n)^{3n}(nr+1)) on
    non-degenerate solution counts, evaluated to 50 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        return Decimal((6 * n) ** (3 * n) * (n * r + 1)) / Decimal(10).ln()


def _mp_log10_sum(a, b):
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + mpmath.log(1 + mpmath.mpf(10) ** (lo - hi)) / mpmath.log(10)


def _mp_bound_dict(d, p, q_K, S_size, q_L=None, r=None, lam=None):
    with mpmath.workdps(60):
        ln10 = mpmath.log(10)
        log10_qK = mpmath.log(q_K) / ln10
        log10_p = mpmath.log(p) / ln10
        term1 = (d ** 6) * log10_qK
        inner = (
            mpmath.mpf(18 ** 10) / ln10
            + (3 * d ** 4 * S_size) * log10_p
            + mpmath.log(mpmath.log(q_K) / mpmath.log(p)) / ln10
        )
        term2 = (d ** 3) * inner
        out = {
            "log10_main": mpmath.nstr(_mp_log10_sum(term1, term2), 25),
            "log10_main_terms": [mpmath.nstr(t, 25) for t in (term1, term2)],
        }
        if q_L is not None:
            first = (d ** 3) * min(mpmath.log(q_L) / ln10, (d ** 3) * log10_qK)
            second = (d ** 3) * (
                mpmath.mpf(18 ** 10) / ln10
                + (2 * r) * log10_p
                + 8 * mpmath.log(d) / ln10
                + mpmath.log(lam) / ln10
            )
            out["log10_refined"] = mpmath.nstr(_mp_log10_sum(first, second), 25)
            out["log10_refined_terms"] = [mpmath.nstr(t, 25) for t in (first, second)]
        return out


def _mp_ess(n, r):
    with mpmath.workdps(50):
        return mpmath.mpf((6 * n) ** (3 * n) * (n * r + 1)) / mpmath.log(10)


# d = 3000 and above print in scientific notation (leading exponent >= 25)
_DEGREES = (2, 3, 4, 7, 30, 3000, 300000)
_FIELDS = ((2, 2), (2, 4), (2, 1024), (3, 3), (3, 27), (7, 7), (101, 101 ** 2))
_S_SIZES = (0, 1, 2, 5)
# (j, r, lambda) with q_L = q_K^j: the min takes q_L while j < d^3
_REFINED = (None, (1, 0, 1), (40, 3, 4), (100, 17, 1000))


def test_bound_reports_match_mpmath():
    seen_scientific = False
    for d, (p, q_K), S, extra in itertools.product(_DEGREES, _FIELDS, _S_SIZES, _REFINED):
        args = (d, p, q_K, S) + ((q_K ** extra[0],) + extra[1:] if extra else ())
        got = bound_calculator(*args).to_dict()
        assert got == _mp_bound_dict(*args), args
        seen_scientific |= "e+" in got["log10_main"]
    assert seen_scientific


def test_ess_bound_matches_mpmath():
    for n, r in itertools.product((1, 2, 3, 5, 8), (0, 1, 3, 10)):
        v = ess_bound_log10(n, r)
        assert isinstance(v, Decimal)
        with mpmath.workdps(50):
            ref = _mp_ess(n, r)
            assert abs(mpmath.mpf(str(v)) - ref) <= abs(ref) * mpmath.mpf(10) ** -45
        assert mpmath.nstr(ref, 25) == _digits25(v)


def test_ess_bound_value():
    # log10 exp((6n)^{3n}(nr+1)) = (6n)^{3n}(nr+1)/ln 10
    v = ess_bound_log10(2, 3)
    with mpmath.workdps(30):
        expected = mpmath.mpf(12 ** 6 * 7) / mpmath.log(10)
    assert abs(mpmath.mpf(str(v)) - expected) < 1e-6


def test_digits25_matches_nstr():
    rng = random.Random(7)
    values = ["0", "1", "-1", "10", "0.5", "1e24", "9.9999999999999999999999999e24",
              "1e25", "1e-7", "1.5e-8", "123.4500", "-0.000123456789"]
    for _ in range(500):
        digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 40)))
        values.append(f"{rng.choice('-+')}{digits}e{rng.randint(-40, 40)}")
    for text in values:
        with mpmath.workdps(60):
            ref = mpmath.nstr(mpmath.mpf(text), 25)
        assert _digits25(Decimal(text)) == ref, text
