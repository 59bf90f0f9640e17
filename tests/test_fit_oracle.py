"""Pattern fitting against the Fraction-based generators it replaced.

The oracle below is the earlier code, kept as it was: F1 and F2 had their
own loops, and F did its arithmetic in `Fraction` over a `2*lim+3` square
of exponents; `_f_candidates` built `Fraction` coefficients for every
candidate and kept a set of the keys it had seen.  The integer generator
`FrobPattern.generate` must give the same point sets, and `fit_patterns`
the same patterns, in the same order, with the same residual.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monogenic import FrobPattern, MSearchResult, fit_patterns
from monogenic import frobsearch

ORIGINAL_GENERATE = FrobPattern.generate  # the A and finite kinds generate as before


def oracle_generate(pat, m_max, n_max):
    out = set()
    if pat.kind == "F1":
        m0, n0 = pat.params
        m, n = m0, n0
        while m <= m_max and n <= n_max:
            out.add((m, n))
            m, n = m * pat.q, n * pat.q
    elif pat.kind == "F2":
        a, b = pat.params
        i_vals = []
        v = a
        while v <= m_max:
            i_vals.append(v)
            v *= pat.q
        j_vals = []
        v = b
        while v <= n_max:
            j_vals.append(v)
            v *= pat.q
        out = {(mi, nj) for mi in i_vals for nj in j_vals}
    elif pat.kind == "F":
        c1, c2, c3, c4 = (Fraction(c) for c in pat.params)
        scale = max(abs(c.numerator) for c in (c1, c2, c3, c4)) or 1
        den = max(c.denominator for c in (c1, c2, c3, c4))
        lim = 1
        while pat.q ** lim <= (m_max + n_max + 4) * scale * den:
            lim += 1
        lim = 2 * lim + 3  # covers near-cancelling exponent pairs
        qp = [pat.q ** i for i in range(lim + 1)]
        for qi in qp:
            for qj in qp:
                mm = c1 * qi + c2 * qj
                nn = c3 * qi + c4 * qj
                if (
                    mm.denominator == 1
                    and nn.denominator == 1
                    and 1 <= mm <= m_max
                    and 1 <= nn <= n_max
                ):
                    out.add((int(mm), int(nn)))
    else:
        return ORIGINAL_GENERATE(pat, m_max, n_max)
    return frozenset(out)


def oracle_f_candidates(pairs, p, m_max, n_max):
    if len(pairs) > 80:
        return
    seen = set()
    plist = sorted(pairs)
    qs = []
    q = p
    while q <= max(m_max, n_max):
        qs.append(q)
        q *= p
    for q in qs:
        for p00 in plist:
            for p10 in plist:
                if p10[0] < p00[0] or p10[1] < p00[1] or p10 == p00:
                    continue
                c1 = Fraction(p10[0] - p00[0], q - 1)
                c3 = Fraction(p10[1] - p00[1], q - 1)
                c2 = Fraction(p00[0]) - c1
                c4 = Fraction(p00[1]) - c3
                key = (q, c1, c2, c3, c4)
                if key in seen:
                    continue
                seen.add(key)
                m01 = c1 + c2 * q
                n01 = c3 + c4 * q
                if (
                    m01.denominator == 1
                    and n01.denominator == 1
                    and 1 <= m01 <= m_max
                    and 1 <= n01 <= n_max
                    and (int(m01), int(n01)) not in pairs
                ):
                    continue
                pat = FrobPattern("F", q, (c1, c2, c3, c4))
                gen = pat.generate(m_max, n_max)
                if len(gen) >= 3 and gen <= pairs:
                    yield pat, gen


def oracle_fit(pairs, p, m_max, n_max):
    """fit_patterns with the earlier generators and F candidates swapped in;
    the greedy cover around them is unchanged."""
    res = MSearchResult(m_max, n_max, p, sorted(pairs), {}, [])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FrobPattern, "generate", oracle_generate)
        mp.setattr(frobsearch, "_f_candidates", oracle_f_candidates)
        fit_patterns(res, p)
    return [pat.to_dict() for pat in res.patterns], res.residual


def new_fit(pairs, p, m_max, n_max):
    res = MSearchResult(m_max, n_max, p, sorted(pairs), {}, [])
    fit_patterns(res, p)
    return [pat.to_dict() for pat in res.patterns], res.residual


# ---- the generator ----------------------------------------------------------

QS = (2, 3, 4, 7, 9)
coefficient = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 9))


@st.composite
def patterns(draw):
    q = draw(st.sampled_from(QS))
    kind = draw(st.sampled_from(("F1", "F2", "F", "F-str")))
    if kind in ("F1", "F2"):
        params = (draw(st.integers(1, 40)), draw(st.integers(1, 40)))
        return FrobPattern(kind, q, params)
    cs = tuple(draw(coefficient) for _ in range(4))
    if kind == "F-str":
        return FrobPattern("F", q, tuple(str(c) for c in cs))
    return FrobPattern("F", q, cs)


@settings(max_examples=300, deadline=None)
@given(patterns(), st.integers(1, 100), st.integers(1, 100))
def test_generate_matches_oracle(pat, m_max, n_max):
    gen = pat.generate(m_max, n_max)
    assert isinstance(gen, frozenset)
    assert gen == oracle_generate(pat, m_max, n_max)


def test_generate_planted_families():
    # (q-1)-scaled coefficients from two observed points, as the fitter makes
    # them, and the integer F1/F2 orbits from a root pair
    for q in QS:
        for m00, n00, dm, dn in ((1, 1, 1, 1), (3, 2, 5, 0), (2, 7, 4, 9), (5, 5, 0, 3)):
            c1, c3 = Fraction(dm, q - 1), Fraction(dn, q - 1)
            pat = FrobPattern("F", q, (c1, m00 - c1, c3, n00 - c3))
            for box in (1, 18, 60, 100):
                assert pat.generate(box, box) == oracle_generate(pat, box, box)
        for kind in ("F1", "F2"):
            pat = FrobPattern(kind, q, (3, 5))
            assert pat.generate(100, 90) == oracle_generate(pat, 100, 90)


# ---- the fitter ---------------------------------------------------------------

def planted_pairs(rng, p, box, count):
    """Random pairs of the box plus the in-box points of a few planted
    Frobenius families, at most `count` pairs in all."""
    pairs = set()
    for _ in range(rng.randrange(1, 4)):
        q = p ** rng.randrange(1, 3)
        m00, n00 = rng.randrange(1, box // 2 + 1), rng.randrange(1, box // 2 + 1)
        dm, dn = rng.randrange(0, 2 * q), rng.randrange(0, 2 * q)
        if not (dm or dn):
            dm = 1
        c1, c3 = Fraction(dm, q - 1), Fraction(dn, q - 1)
        fam = FrobPattern("F", q, (c1, m00 - c1, c3, n00 - c3)).generate(box, box)
        pairs |= set(sorted(fam)[: count - len(pairs)])
    target = rng.randrange(len(pairs), count + 1)
    while len(pairs) < target:
        pairs.add((rng.randrange(1, box + 1), rng.randrange(1, box + 1)))
    return pairs


# the oracle takes up to ~7 s on a dense 80-pair set over F_2, hence few examples
@settings(max_examples=10, deadline=None)
@given(st.sampled_from((2, 3, 7)), st.integers(4, 24), st.integers(1, 80), st.randoms())
def test_fit_patterns_matches_oracle(p, box, count, rnd):
    pairs = planted_pairs(rnd, p, box, min(count, box * box))
    assert new_fit(pairs, p, box, box) == oracle_fit(pairs, p, box, box)


def test_fit_patterns_box18_diagonal():
    # the pairs of the box-18 diagonal search (s = t: exactly m = n)
    pairs = {(m, m) for m in range(1, 19)}
    patterns, residual = new_fit(pairs, 2, 18, 18)
    assert (patterns, residual) == oracle_fit(pairs, 2, 18, 18)
    assert residual == []


def test_fit_patterns_eighty_pairs():
    # the largest pair set for which the F source still runs
    rng = random.Random(80)
    pairs = planted_pairs(rng, 7, 24, 80)
    while len(pairs) < 80:
        pairs.add((rng.randrange(1, 25), rng.randrange(1, 25)))
    patterns, residual = new_fit(pairs, 7, 24, 24)
    assert any(pat["kind"] == "F" for pat in patterns)
    assert (patterns, residual) == oracle_fit(pairs, 7, 24, 24)
