"""`solve_in_span` against the Gauss-Jordan elimination it replaced.

`solve_in_span` now feeds the columns to a `SpanTracker` and asks it to
express the target.  The oracle below is the earlier body, kept as it
was: one Gauss-Jordan pass over the augmented matrix.  On random systems
over Q and over F_3(x), with dependent columns and inconsistent targets
among them, both must return None together, give the same solution when
the columns are independent, and every solution must satisfy the system.
The `SpanTracker` is also fed vector sequences directly: at each dependence
the combination it returns must be the oracle's, and on polynomial vectors
its fraction-free rows must stay polynomial.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monogenic import FqCtx, Poly, RatFunc
from monogenic.linalg import SpanTracker, solve_in_span

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


@st.composite
def _sequences(draw, scalar, zero):
    """Vectors of one length, some of them combinations of earlier ones."""
    n = draw(st.integers(1, 4))
    vectors = []
    for _ in range(draw(st.integers(1, 7))):
        if vectors and draw(st.booleans()):
            vectors.append(_combine(vectors, [draw(scalar) for _ in vectors], zero))
        else:
            vectors.append([draw(scalar) for _ in range(n)])
    return vectors


def _check_sequence(vectors, zero, one):
    # Gauss-Jordan leaves the coefficient of every column that depends on
    # earlier ones at zero, as the tracker does for a vector it did not store
    span = SpanTracker(zero, one)
    for j, vec in enumerate(vectors):
        assert span.add(vec) == gauss_jordan_solve(vectors[:j], vec, zero, one)
    assert span.count == len(vectors)


@settings(max_examples=80, deadline=None)
@given(_sequences(_FRACTIONS, Fraction(0)))
def test_tracker_combinations_over_q(vectors):
    _check_sequence(vectors, Fraction(0), Fraction(1))


@settings(max_examples=60, deadline=None)
@given(_sequences(_RATFUNCS, RatFunc.of(0, F3)))
def test_tracker_combinations_over_f3(vectors):
    _check_sequence(vectors, RatFunc.of(0, F3), RatFunc.of(1, F3))


@pytest.mark.parametrize("ctx", [FqCtx(2), F3])
def test_polynomial_vectors_keep_polynomial_rows(ctx):
    rng = random.Random(ctx.p)
    zero, one = RatFunc.of(0, ctx), RatFunc.of(1, ctx)
    for _ in range(25):
        n = rng.randint(2, 5)
        vectors = []
        for _ in range(n + 1):
            if vectors and rng.random() < 0.3:  # a dependent vector
                scale = [RatFunc(Poly.random(ctx, 1, rng)) for _ in vectors]
                vectors.append(_combine(vectors, scale, zero))
                continue
            vectors.append([RatFunc(Poly.random(ctx, rng.randint(0, 3), rng))
                            if rng.random() < 0.7 else zero for _ in range(n)])
        span = SpanTracker(zero, one)
        for vec in vectors:
            span.add(vec)
        assert span.rows
        span.express([zero] * n)  # builds every row's expression
        assert len(span._exprs) == len(span.rows)
        for (_, vec, _, _), expr in zip(span.rows, span._exprs):
            for part in (vec, expr):  # the reduced vector and its expression
                assert all(c.is_polynomial() for c in part)


def test_pivots_build_no_expression():
    # a determinant reads the pivots alone; a row's expression over the fed
    # vectors is built only when a combination is asked for
    span = SpanTracker(Fraction(0), Fraction(1))
    for vec in ([2, 1, 0], [1, 3, 1], [0, 1, 4]):
        assert span.add([Fraction(c) for c in vec]) is None
    assert span.pivots() == ([0, 1, 2], Fraction(18))
    assert span._exprs == []
    assert span.express([Fraction(3), Fraction(4), Fraction(1)]) == [1, 1, 0]
    assert len(span._exprs) == 3


def test_ragged_columns_rejected():
    with pytest.raises(ValueError):
        solve_in_span([[Fraction(1)], [Fraction(1), Fraction(0)]], [Fraction(1)],
                      Fraction(0), Fraction(1))
