"""The symmetric search's index keys against the membership code they
replaced.

`SymPowerPair.equal(m, n)` compares the index keys of s^m and t^n
(u - sigma(u) made monic) and `sym_orders_equal` reads its answer off the
same keys.  The oracle below is the earlier code, kept as it was: two
membership solves per cell (`oracle_sym_in_order`, with the symmetry
checks of B and A that the key test makes unnecessary), flags decided by
exact division and a product, and the nondegeneracy witness by dividing
the conjugate differences.  Every cell of a box must agree with it, and
`enumerate_M` must find exactly the every-cell pairs while calling `equal`
only on cells of equal keys.
"""

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from monogenic import FqCtx, SymPowerPair, enumerate_M, frobsearch, monorder, sym_orders_equal
from monogenic.bivar import BivarPoly
from monogenic.monorder import sym_in_order
from test_search_oracle import joined_cells

FIELDS = [FqCtx(2), FqCtx(3), FqCtx(2, 2), FqCtx(5), FqCtx(7)]


def oracle_sym_in_order(u, w):
    """(contained, reason) of u in O[w] by solving u = A + B*w."""
    dw = w - w.swap()
    if dw.is_zero():
        if not u.is_symmetric():
            return False, "w generates O but u is not symmetric"
        return True, "both inside the base ring"
    du = u - u.swap()
    if du.is_zero():
        return True, "u symmetric"
    if du.total_degree() < dw.total_degree():
        return False, "degree obstruction: B would not be polynomial"
    b = du.divide_exact(dw)
    if b is None:
        return False, "(u - sigma u)/(w - sigma w) is not a polynomial"
    if not b.is_symmetric():
        return False, "B is not symmetric"
    if not (u - b * w).is_symmetric():
        return False, "A = u - B*w is not symmetric"
    return True, "u = A + B*w with A, B in O"


def oracle_sym_orders_equal(u, w):
    """(equal, reason) of O[u] = O[w] by mutual membership."""
    du = u - u.swap()
    dw = w - w.swap()
    if du.is_zero() != dw.is_zero():
        return False, "one side generates O, the other does not"
    if not du.is_zero() and du.total_degree() != dw.total_degree():
        return False, "conjugate-difference degree mismatch"
    ok, why = oracle_sym_in_order(u, w)
    if not ok:
        return False, f"u outside O[w]: {why}"
    ok, why = oracle_sym_in_order(w, u)
    if not ok:
        return False, f"w outside O[u]: {why}"
    return True, "mutual membership"


def oracle_sym_flags(sm, tn):
    def unit(v):
        return v is not None and v.is_constant() and not v.is_zero()

    stn = tn.swap()
    in_b = not (tn - stn).is_zero() and unit(sm.divide_exact(stn))
    return unit(sm.divide_exact(tn)), in_b, unit(sm * tn)


def oracle_witness(sm, tn):
    dsm = sm - sm.swap()
    dtn = tn - tn.swap()
    if dsm.is_zero() or dtn.is_zero():
        return None
    u = dsm.divide_exact(dtn)
    if u is None:
        return None
    if (sm - u * tn).is_zero() or (sm + u * tn.swap()).is_zero():
        return None
    return "x<->y"


def check_every_cell(s, t, box):
    pair = SymPowerPair(s, t)
    want = []
    for m in range(1, box + 1):
        for n in range(1, box + 1):
            sm, tn = pair.s_pow(m), pair.t_pow(n)
            expected = oracle_sym_orders_equal(sm, tn)
            res = sym_orders_equal(sm, tn)
            assert (res.equal, res.reason) == expected, (s, t, m, n)
            assert pair.equal(m, n) == expected[0], (s, t, m, n)
            assert pair.flags(m, n) == oracle_sym_flags(sm, tn), (s, t, m, n)
            if expected[0]:
                want.append((m, n))
    result, _ = joined_cells(SymPowerPair(s, t), box)
    assert result.pairs == want
    for (m, n), f in result.flags.items():
        sm, tn = pair.s_pow(m), pair.t_pow(n)
        assert (f.in_a, f.in_b, f.in_c) == oracle_sym_flags(sm, tn)
        if not (f.in_a or f.in_b or f.in_c):
            assert f.witness == oracle_witness(sm, tn), (s, t, m, n)
    return len(want)


@given(st.sampled_from(FIELDS), st.data(), st.integers(1, 24))
@settings(max_examples=20, deadline=None)
def test_linear_t_every_cell(ctx, data, box):
    x, y = BivarPoly.gens(ctx)
    nonzero = [c for c in ctx.elements() if not c.is_zero()]
    a, b = data.draw(st.sampled_from(nonzero)), data.draw(st.sampled_from(nonzero))
    check_every_cell(x, x * a + y * b, box)


def test_nonlinear_t_every_cell():
    ctx = FqCtx(7)
    x, y = BivarPoly.gens(ctx)
    cases = [
        (x, x * x + y, 24),        # deg(t^n - sigma t^n) = 2n
        (x, x * y + x, 24),        # no power of t is symmetric
        (x * x, x * y * 3 + x, 16),
        (x, (x - y) * 2, 24),      # t^2 is symmetric: every other column is O
        (x * x + y, x - y * 3, 12),
    ]
    for s, t, box in cases:
        check_every_cell(s, t, box)
    assert check_every_cell(x + y, x * y, 12) == 144  # both symmetric: O = O
    three, two = BivarPoly.constant(ctx, 3), BivarPoly.constant(ctx, 2)
    # constants: the product flag in_C needs both factors constant
    for s, t in ((three, x + y), (x * y, two), (three, two), (three, (x - y) * 2)):
        check_every_cell(s, t, 6)
    for ctx in (FqCtx(2), FqCtx(3), FqCtx(2, 2), FqCtx(5)):
        x, y = BivarPoly.gens(ctx)
        z = list(ctx.elements())[-1]  # the generator of F_4; 1, 2 or 4 otherwise
        check_every_cell(x * x + y, x + y * z, 12)
        check_every_cell(x, x * y + x * z, 12)
        check_every_cell(x + y * z, (x + y * z) * (x * z + y), 8)


def test_symmetric_grid_solves_nothing(monkeypatch):
    """The cost contract of the key join: a box-30 symmetric grid over F_7
    makes no `sym_orders_equal`, `divide_exact` or `sym_decompose` call,
    and calls `equal` once per cell of a key bucket (sum |S_b| * |T_b|)."""
    calls = []

    def counting(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)
        return wrapped

    counted = counting("sym_orders_equal", monorder.sym_orders_equal)
    monkeypatch.setattr(monorder, "sym_orders_equal", counted)
    monkeypatch.setattr(frobsearch, "sym_orders_equal", counted, raising=False)
    for name in ("divide_exact", "sym_decompose"):
        monkeypatch.setattr(BivarPoly, name, counting(name, getattr(BivarPoly, name)))
    ctx = FqCtx(7)
    x, y = BivarPoly.gens(ctx)
    for s, t in ((x, x * 3 + y * 2), (x + y, x * y)):  # keys 0 on the second
        pair = SymPowerPair(s, t)
        result, cells = joined_cells(pair, 30)
        buckets = {}
        for n in range(1, 31):
            buckets.setdefault(pair.t_key(n), []).append(n)
        sizes = sum(len(buckets.get(pair.s_key(m), ())) for m in range(1, 31))
        assert len(cells) == sizes and result.pairs and calls == []


def _poly(ctx, terms):
    elems = list(ctx.elements())
    return BivarPoly(ctx, {e: elems[c % len(elems)] for e, c in terms.items()})


_TERMS = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                         st.integers(0, 48), max_size=6)


@given(st.sampled_from(FIELDS), _TERMS, _TERMS, _TERMS, _TERMS, st.integers(0, 2))
@settings(max_examples=200, deadline=None)
def test_divisible_conjugate_difference_gives_symmetric_b_and_a(ctx, tw, tf, tg, th, kind):
    """For w other than its swap, whenever w - sigma(w) divides
    u - sigma(u), both B = (u - sigma u)/(w - sigma w) and A = u - B*w are
    symmetric: the two checks `sym_in_order` no longer makes could never
    fail.  u is a random polynomial (kind 0), a multiple f*w (kind 1) or
    A + B*w with symmetric A, B (kind 2, always divisible)."""
    w = _poly(ctx, tw)
    dw = w - w.swap()
    assume(not dw.is_zero())
    f, g, h = _poly(ctx, tf), _poly(ctx, tg), _poly(ctx, th)
    if kind == 0:
        u = f
    elif kind == 1:
        u = f * w
    else:
        u = (f + f.swap()) + (g * g.swap() + h + h.swap()) * w
    du = u - u.swap()
    b = du.divide_exact(dw)
    assert b is not None or kind < 2
    if b is not None:
        assert b.is_symmetric() and (u - b * w).is_symmetric()
        assert sym_in_order(u, w).contained


def test_random_membership_matches_oracle():
    """sym_in_order and sym_orders_equal on random pairs agree with the
    oracle, membership reason strings included."""
    rng = random.Random(12)
    for ctx in FIELDS:
        x, y = BivarPoly.gens(ctx)
        elems = list(ctx.elements())
        for _ in range(150):
            w = BivarPoly(ctx, {(rng.randrange(3), rng.randrange(3)): rng.choice(elems)
                                for _ in range(3)})
            f = BivarPoly(ctx, {(rng.randrange(3), rng.randrange(3)): rng.choice(elems)
                                for _ in range(3)})
            for u in (f, f * w, (f + f.swap()) * w + f * f.swap(), w * rng.choice(elems)):
                mem = sym_in_order(u, w)
                assert (mem.contained, mem.reason) == oracle_sym_in_order(u, w)
                res = sym_orders_equal(u, w)
                assert (res.equal, res.reason) == oracle_sym_orders_equal(u, w)


def test_grid_rewrites_nothing_in_e1_e2(monkeypatch):
    """Deciding a cell needs no rewriting in e1, e2: a box-30 grid over F_7
    makes no `sym_decompose` call."""
    calls = []
    eager = BivarPoly.sym_decompose

    def counted(self):
        calls.append(self)
        return eager(self)

    monkeypatch.setattr(BivarPoly, "sym_decompose", counted)
    ctx = FqCtx(7)
    x, y = BivarPoly.gens(ctx)
    result = enumerate_M(SymPowerPair(x, x * 3 + y * 2), 30, 30)
    assert result.pairs and calls == []
