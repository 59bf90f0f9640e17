"""The power-pair search against the per-cell decision it replaced.

The oracle below is the earlier code, kept as it was: every cell
recomputed the minimal polynomials of s^m and t^n, rebuilt the power basis
of each side by repeated multiplication and ran both membership solves,
with no discriminant prune.  `TowerPowerPair.equal` (cached order records
and the pivot-ratio prune) must agree with it on every cell, and
`orders_equal` (one membership and the pivot ratio) must give the same
reason strings as its two membership solves, and the span each record
keeps must express every oracle column s^i as the i-th unit vector.  The
degenerate flags were decided by dividing in the tower (`s^m / t^n`,
`s^m / conj`); `TowerPowerPair.flags` reads the quotient off the
coordinates instead and must give the same flags on every cell.

Each record's discriminant must equal the resultant oracle of
`test_tower_oracle`.  The search now decides a cell by the records'
index `key` (pivot columns, and last pivot up to a unit); on every pair of
records of equal degree the pivot columns must agree exactly when the two
powers span one field, the unit classes exactly when the pivot ratio is a
unit, and then disc(s^m) * pv_t^2 = disc(t^n) * pv_s^2.

The oracle judges integrality and units over O_{K,T} by the
factorization-based predicates of `test_place_oracle`.

`enumerate_M` joins the powers on their keys: its pairs must be the
every-cell set, in the same (m, n) order, and it must call `equal` exactly
on the cells whose two keys agree (`joined_cells`, shared with the
symmetric backend's test).

A record takes its power basis s^{m*i} from the pair's shared cache of
powers and builds its minimal polynomial only when read: every record the
search kept must equal the record of s^m built afresh, and a grid
whose keys never agree must build no relation at all.
"""

from monogenic import FqCtx, PlaceSet, Poly, RatFunc, TowerPowerPair, enumerate_M
from monogenic.linalg import SpanTracker
from monogenic.monorder import MonOrder, POLY_RING, orders_equal
from monogenic.tower import Tower, discriminant, minimal_polynomial
from monogenic.verify import shifted_tower
from test_linalg_oracle import gauss_jordan_solve
from test_place_oracle import oracle_is_T_integer, oracle_is_T_unit
from test_tower_oracle import resultant_discriminant

F2 = FqCtx(2)
F3 = FqCtx(3)
BOX = 6


def oracle_columns(gen):
    """Coordinates of 1, gen, ..., gen^{d-1}, multiplied out one by one."""
    _, d = minimal_polynomial(gen)
    cols = []
    power = gen.tower.from_base(1)
    for _ in range(d):
        cols.append(power.coords())
        power = power * gen
    return cols


def oracle_in_order(t, gen, ring):
    ctx = t.tower.base
    zero, one = RatFunc.of(0, ctx), RatFunc.of(1, ctx)
    sol = gauss_jordan_solve(oracle_columns(gen), t.coords(), zero, one)
    return sol is not None and all(oracle_is_T_integer(c, ring) for c in sol)


def oracle_orders_equal(t, s, ring):
    """(equal, reason) of O[t] = O[s]; None where O[s] is not an order."""
    g_s, d_s = minimal_polynomial(s)
    if not all(oracle_is_T_integer(c, ring) for c in g_s):
        return None
    g, d = minimal_polynomial(t)
    if d != d_s:
        return False, f"degree mismatch: [K(t):K]={d} != {d_s}"
    if not all(oracle_is_T_integer(c, ring) for c in g):
        return False, "t is not integral over the tagged ring"
    if not oracle_in_order(t, s, ring):
        return False, "t is outside O[s]"
    if not oracle_in_order(s, t, ring):
        return False, "s is outside O[t]"
    return True, "mutual membership"


def oracle_flags(sm, tn, ring):
    """(in_A, in_B, in_C) by tower division."""

    def unit_in_K(v):
        r = v.in_base()
        return r is not None and not r.is_zero() and oracle_is_T_unit(r, ring)

    in_b = False
    g, d = minimal_polynomial(tn)
    if d == 2:
        conj = tn.tower.from_base(-g[1]) - tn
        if not (conj - tn).is_zero():
            in_b = unit_in_K(sm / conj)
    return unit_in_K(sm / tn), in_b, unit_in_K(sm * tn)


def joined_cells(pair, box):
    """`enumerate_M` on pair over the box, and the cells it called `equal`
    on, which must be exactly those of equal keys (so sum |S_b| * |T_b|
    calls over the key buckets b), in (m, n) order."""
    cells = []
    equal = pair.equal

    def counted(m, n):
        cells.append((m, n))
        return equal(m, n)

    pair.equal = counted
    result = enumerate_M(pair, box, box)
    assert cells == [(m, n) for m in range(1, box + 1) for n in range(1, box + 1)
                     if pair.s_key(m) == pair.t_key(n)]
    return result, cells


def check_grid(s, t, ring=POLY_RING):
    pair = TowerPowerPair(s, t, ring)
    equal_cells = 0
    flagged = 0
    want = []
    for m in range(1, BOX + 1):
        for n in range(1, BOX + 1):
            sm, tn = s ** m, t ** n
            flags = pair.flags(m, n)
            assert flags == oracle_flags(sm, tn, ring), (m, n)
            flagged += any(flags)
            expected = oracle_orders_equal(sm, tn, ring)
            assert pair.equal(m, n) == bool(expected and expected[0]), (m, n)
            if expected and expected[0]:
                want.append((m, n))
            if expected is not None:
                res = orders_equal(sm, MonOrder(tn, ring))
                assert (res.equal, res.reason) == expected, (m, n)
                equal_cells += res.equal
    # every record the search built, fed from the shared cache of powers,
    # is the record built afresh; its span expresses each oracle
    # column s^i as the i-th unit vector, and the discriminant is as before
    for base, orders in ((s, pair._s_records), (t, pair._t_records)):
        for n, rec in orders.items():
            fresh = MonOrder(base ** n, ring)
            assert rec.generator == fresh.generator and rec.span.rows == fresh.span.rows
            assert (rec.d, rec.pivot, rec.key) == (fresh.d, fresh.pivot, fresh.key)
            assert (rec.minpoly, rec.integral) == (fresh.minpoly, fresh.integral)
            ctx = rec.generator.tower.base
            for i, col in enumerate(oracle_columns(rec.generator)):
                unit = [RatFunc.of(int(i == j), ctx) for j in range(rec.d)]
                assert rec.span.express(col)[:rec.d] == unit
            if rec.d >= 2:
                assert rec.disc == discriminant(rec.generator)
                assert rec.disc == resultant_discriminant(rec.minpoly, ctx)
            else:
                assert rec.disc is None
    check_pivot_identity(pair)
    result, _ = joined_cells(TowerPowerPair(s, t, ring), BOX)
    assert result.pairs == want
    assert all(pair.flags(*mn) == (f.in_a, f.in_b, f.in_c) for mn, f in result.flags.items())
    return equal_cells, flagged


def check_pivot_identity(pair):
    records = [pair.s_record(m) for m in range(1, BOX + 1)]
    records += [pair.t_record(n) for n in range(1, BOX + 1)]
    for a in records:
        for b in records:
            if a.d != b.d:
                continue
            (cols_a, _), (cols_b, _) = a.key, b.key
            pv_a, pv_b = a.pivot, b.pivot
            one_field = (a.span.express(b.generator.coords()) is not None
                         and b.span.express(a.generator.coords()) is not None)
            assert (cols_a == cols_b) == one_field
            # the key's unit class agrees exactly when the pivot ratio is a unit
            assert (a.key[1] == b.key[1]) == oracle_is_T_unit(pv_a / pv_b, a.ring)
            if one_field and a.d >= 2:
                assert a.disc * pv_b ** 2 == b.disc * pv_a ** 2
    return {rec.d for rec in records}


def f3_level(*coeffs):
    tw = Tower(F3).extend("s", coeffs)
    assert tw.levels[0].status.startswith("certified")
    return tw.gen(0)


def test_shifted_quartic_translate():
    tw = shifted_tower(Poly(F2, [1, 1]))
    s = tw.gen(0)
    x = RatFunc.gen(F2)
    assert check_grid(s, s + x * x + 1)[0] > 0


def test_shifted_quartic_z1():
    tw = shifted_tower(Poly(F2, [1, 1]))
    s = tw.gen(0)
    x = RatFunc.gen(F2)
    assert check_grid(s, x * s * s + s)[0] > 0


def test_f3_quadratic_level():
    x = RatFunc.gen(F3)
    s = f3_level(x ** 3 + 2 * x + 1, x * x + 1, 1)
    assert check_grid(s, 2 * s + x * x + 1)[0] > 0


def test_f3_cubic_level():
    # t = s^2 + x: the cells are rejected by degree or by the discriminant
    x = RatFunc.gen(F3)
    s = f3_level(x * x + 1, x, 0, 1)
    check_grid(s, s * s + x)


def test_two_level_tower():
    # w^2 = y, y^2 = x over F_3: the records of w^m have d = 4, 2 and 1
    x = RatFunc.gen(F3)
    tw = Tower(F3).extend("y", [-x, 0, 1])
    tw.extend("w", [-tw.gen(0), 0, 1], assume_irreducible=True)
    w = tw.gen(1)
    assert check_grid(w, w + x + 1)[0] > 0
    assert check_pivot_identity(TowerPowerPair(w, w + x + 1)) == {1, 2, 4}


def test_t_unit_branch():
    # y^2 = x over F_3 with T = {inf, x}: y^m has discriminant c*x^m for
    # odd m, so every ratio goes through is_T_unit and passes; even powers
    # lie in K and have no discriminant
    x = RatFunc.gen(F3)
    tw = Tower(F3).extend("y", [-x, RatFunc.of(0, F3), RatFunc.of(1, F3)])
    y = tw.gen(0)
    ring = PlaceSet.of(Poly.x(F3))
    equal_cells, flagged = check_grid(y, 1 / y, ring)
    assert equal_cells > 0 and flagged > 0


def test_unmatched_keys_build_no_relation(monkeypatch):
    # no power of t = x*s^2 + s shares its key with a power of s in the box,
    # so no cell is decided and no record reads its minimal polynomial
    x = RatFunc.gen(F3)
    s = f3_level(x * x + 1, x, 0, 1)
    built = []
    relation = SpanTracker.relation
    monkeypatch.setattr(SpanTracker, "relation", lambda span: built.append(span) or relation(span))
    pair = TowerPowerPair(s, x * s * s + s)
    assert enumerate_M(pair, BOX, BOX).pairs == []
    assert len(pair._s_records) == len(pair._t_records) == BOX
    assert built == []
