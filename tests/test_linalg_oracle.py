"""`solve_in_span` against the Gauss-Jordan elimination it replaced.

`solve_in_span` now feeds the columns to a `SpanTracker` and asks it to
express the target.  The oracle below is the earlier body, kept as it
was: one Gauss-Jordan pass over the augmented matrix.  On random systems
over Q and over F_3(x), with dependent columns and inconsistent targets
among them, both must return None together, give the same solution when
the columns are independent, and every solution must satisfy the system.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monogenic import FqCtx, Poly, RatFunc
from monogenic.linalg import solve_in_span

F3 = FqCtx(3)


def gauss_jordan_solve(columns, target, zero, one):
    """Coefficients c with sum c_j * columns[j] = target, or None."""
    m = len(columns)
    n = len(target)
    if any(len(col) != n for col in columns):
        raise ValueError("ragged column lengths")
    rows = [[col[i] for col in columns] + [target[i]] for i in range(n)]
    pivots = []
    row = 0
    for col in range(m):
        sel = None
        for r in range(row, n):
            if bool(rows[r][col]):
                sel = r
                break
        if sel is None:
            continue
        rows[row], rows[sel] = rows[sel], rows[row]
        inv = one / rows[row][col]
        rows[row] = [v * inv for v in rows[row]]
        for r in range(n):
            if r != row and bool(rows[r][col]):
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[row])]
        pivots.append((row, col))
        row += 1
    for r in range(row, n):
        if bool(rows[r][m]):
            return None
    sol = [zero] * m
    for r, c in pivots:
        sol[c] = rows[r][m]
    return sol


def _combine(columns, coeffs, zero):
    out = [zero] * len(columns[0]) if columns else []
    for c, col in zip(coeffs, columns):
        out = [a + c * b for a, b in zip(out, col)]
    return out


@st.composite
def _systems(draw, scalar, zero):
    """Columns and a target; a drawn column may be a combination of the
    others, and the target is either in their span or drawn freely."""
    n = draw(st.integers(1, 4))
    cols = [[draw(scalar) for _ in range(n)] for _ in range(draw(st.integers(0, 4)))]
    if cols and draw(st.booleans()):
        dep = _combine(cols, [draw(scalar) for _ in cols], zero)
        cols.insert(draw(st.integers(0, len(cols))), dep)
    if cols and draw(st.booleans()):
        target = _combine(cols, [draw(scalar) for _ in cols], zero)
    else:
        target = [draw(scalar) for _ in range(n)]
    return cols, target


def _check(columns, target, zero, one):
    got = solve_in_span(columns, target, zero, one)
    expected = gauss_jordan_solve(columns, target, zero, one)
    assert (got is None) == (expected is None)
    if got is None:
        return
    for sol in (got, expected):
        assert len(sol) == len(columns)
        combo = _combine(columns, sol, zero) if columns else [zero] * len(target)
        assert combo == list(target)
    independent = all(
        gauss_jordan_solve(columns[:j], columns[j], zero, one) is None
        for j in range(len(columns))
    )
    if independent:
        assert got == expected


_FRACTIONS = st.sampled_from([0, 0, 0, 1, -1, 2, 3]).map(Fraction) \
    | st.fractions(-3, 3, max_denominator=4)
_F = [Fraction(v) for v in range(3)]


@settings(max_examples=80, deadline=None)
@given(_systems(_FRACTIONS, Fraction(0)))
@example(([[_F[1], _F[0]], [_F[2], _F[0]]], [_F[1], _F[0]]))  # dependent, consistent
@example(([[_F[1], _F[0]], [_F[2], _F[0]]], [_F[1], _F[1]]))  # dependent, inconsistent
def test_fraction_systems(system):
    _check(*system, Fraction(0), Fraction(1))


def _ratfunc(num, den):
    den_poly = Poly(F3, den)
    return RatFunc(Poly(F3, num), den_poly if not den_poly.is_zero() else Poly.one(F3))


_COEFFS = st.lists(st.integers(0, 2), max_size=3)
_RATFUNCS = st.sampled_from([[], [], [1]]).map(lambda c: RatFunc(Poly(F3, c))) \
    | st.builds(_ratfunc, _COEFFS, st.lists(st.integers(0, 2), min_size=1, max_size=2))


@settings(max_examples=60, deadline=None)
@given(_systems(_RATFUNCS, RatFunc.of(0, F3)))
def test_ratfunc_systems_over_f3(system):
    _check(*system, RatFunc.of(0, F3), RatFunc.of(1, F3))


def test_ragged_columns_rejected():
    with pytest.raises(ValueError):
        solve_in_span([[Fraction(1)], [Fraction(1), Fraction(0)]], [Fraction(1)],
                      Fraction(0), Fraction(1))
