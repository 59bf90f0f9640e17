"""Dense exact linear algebra over any field-like scalar type.

Scalars only need +, -, *, /, and truthiness (nonzero).  Everything here
is desk-scale: no pivoting strategy beyond "first nonzero".

Elimination is fraction-free (Bareiss, Math. Comp. 22, 1968).  A stored
row keeps its pivot value pv_k unscaled, and a vector is reduced against
row k as (pv_k * a - c * b) / pv_{k-1}, with c its entry at the pivot and
pv_{-1} = 1; a vector whose entry there is zero is still scaled by
pv_k / pv_{k-1}.  Invariant: after k steps every entry is a (k+1)-minor
of the fed vectors, so over a polynomial ring each division is exact and
polynomial vectors keep polynomial rows, with no gcd in K = F_q(x).
"""

from __future__ import annotations

from itertools import zip_longest
from typing import List, Optional, Sequence


def solve_in_span(columns: Sequence[Sequence], target: Sequence, zero, one) -> Optional[List]:
    """Coefficients c with sum c_j * columns[j] = target, or None.

    When the columns are dependent an arbitrary consistent solution comes
    back; callers that need uniqueness pass independent columns.
    """
    n = len(target)
    if any(len(col) != n for col in columns):
        raise ValueError("ragged column lengths")
    span = SpanTracker(zero, one)
    for col in columns:
        span.add(col)
    return span.express(target)


class SpanTracker:
    """Incremental span with combination tracking.

    Feed vectors one at a time.  `add` returns None while the fed vectors
    stay independent; at the first dependence it returns coefficients
    c_0..c_{j-1} with v_j = sum c_i v_i over the previously fed vectors.
    A dependent vector is counted but not stored, so it gets coefficient 0
    in every later combination.
    """

    def __init__(self, zero, one):
        self.zero = zero
        self.one = one
        self.rows = []  # (pivot, reduced vector + its expression over fed vectors)
        self.count = 0

    def _reduce(self, vec: Sequence):
        """(cur, expr) with cur = sum expr_i v_i over the fed vectors and
        vec (last, with coefficient mu = the last pivot), zero at every pivot."""
        zero, one, n = self.zero, self.one, len(vec)
        cur = list(vec) + [zero] * self.count + [one]
        prev = one
        for pivot, row in self.rows:
            pv, c = row[pivot], cur[pivot]
            # with c = 0, or where the row is zero, an entry is only scaled
            cur = [(pv * a - c * b if a else -(c * b)) if b else pv * a if a else a
                   for a, b in zip_longest(cur, row if c else (), fillvalue=zero)]
            if prev != one:
                cur = [a / prev if a else a for a in cur]
            prev = pv
        return cur[:n], cur[n:]

    def _combination(self, expr: List) -> List:
        """The c_i with vec = sum c_i v_i, from mu * vec + sum expr_i v_i = 0."""
        mu = expr.pop()
        return [-(e / mu) if e else e for e in expr]

    def express(self, vec: Sequence) -> Optional[List]:
        """Coefficients c_i with vec = sum c_i v_i over the fed vectors, or
        None when vec lies outside their span; vec is not stored."""
        cur, expr = self._reduce(vec)
        return None if any(cur) else self._combination(expr)

    def add(self, vec: Sequence) -> Optional[List]:
        cur, expr = self._reduce(vec)
        self.count += 1
        pivot = next((i for i, c in enumerate(cur) if c), None)
        if pivot is None:
            return self._combination(expr)
        self.rows.append((pivot, cur + expr))
        return None
