"""The per-power prune of `SymPowerPair.equal` against `sym_orders_equal`.

`equal(m, n)` decides most cells from the degrees of s^m - sigma(s^m) and
t^n - sigma(t^n) alone; `sym_orders_equal` on the two powers is the oracle
of every cell of the box.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from monogenic import FqCtx, SymPowerPair, frobsearch, sym_orders_equal
from monogenic.bivar import BivarPoly


def check_every_cell(s, t, box):
    pair = SymPowerPair(s, t)
    equal_cells = 0
    for m in range(1, box + 1):
        for n in range(1, box + 1):
            want = bool(sym_orders_equal(pair.s_pow(m), pair.t_pow(n)))
            assert pair.equal(m, n) == want, (s, t, m, n)
            equal_cells += want
    return equal_cells


@given(st.sampled_from([3, 5, 7]), st.integers(1, 6), st.integers(1, 6),
       st.integers(1, 30))
@settings(max_examples=15, deadline=None)
def test_linear_t_every_cell(p, a, b, box):
    ctx = FqCtx(p)
    x, y = BivarPoly.gens(ctx)
    check_every_cell(x, x * a + y * b, box)


def test_nonlinear_t_every_cell():
    ctx = FqCtx(7)
    x, y = BivarPoly.gens(ctx)
    cases = [
        (x, x * x + y, 30),        # deg(t^n - sigma t^n) = 2n
        (x, x * y + x, 30),        # no power of t is symmetric
        (x * x, x * y * 3 + x, 16),
        (x, (x - y) * 2, 30),      # t^2 is symmetric: every other column is O
    ]
    for s, t, box in cases:
        check_every_cell(s, t, box)
    assert check_every_cell(x + y, x * y, 12) == 144  # both symmetric: O = O
    ctx3 = FqCtx(3)
    x3, y3 = BivarPoly.gens(ctx3)
    check_every_cell(x3 * x3 + y3, x3 + y3 * 2, 20)


def test_membership_runs_only_on_equal_degrees(monkeypatch):
    """The prune is also a cost contract: `sym_orders_equal` runs only on
    cells whose two powers have the same nonnegative swap degree."""
    ctx = FqCtx(7)
    x, y = BivarPoly.gens(ctx)
    calls = []

    def counted(u, w):
        calls.append((u, w))
        return sym_orders_equal(u, w)

    monkeypatch.setattr(frobsearch, "sym_orders_equal", counted)
    s, t, box = x, x * x + y * 3, 20
    pair = SymPowerPair(s, t)

    def degree(u):
        return (u - u.swap()).total_degree()

    want = sum(1 for m in range(1, box + 1) for n in range(1, box + 1)
               if degree(s ** m) == degree(t ** n) >= 0)
    for m in range(1, box + 1):
        for n in range(1, box + 1):
            pair.equal(m, n)
    assert len(calls) == want > 0


def test_grid_rewrites_nothing_in_e1_e2(monkeypatch):
    """Deciding a cell needs only whether B and A are symmetric, not their
    rewriting in e1, e2: a box-30 grid over F_7 makes no `sym_decompose`
    call."""
    calls = []
    eager = BivarPoly.sym_decompose

    def counted(self):
        calls.append(self)
        return eager(self)

    monkeypatch.setattr(BivarPoly, "sym_decompose", counted)
    ctx = FqCtx(7)
    x, y = BivarPoly.gens(ctx)
    pair = SymPowerPair(x, x * 3 + y * 2)
    equal_cells = sum(pair.equal(m, n) for m in range(1, 31) for n in range(1, 31))
    assert equal_cells > 0 and calls == []
