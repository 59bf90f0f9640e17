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
from typing import List, Optional, Sequence, Tuple


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

    A row keeps the multipliers c it was reduced with, and its expression
    over the fed vectors is built from them when a combination first needs
    it: the same steps run on [0, ..., 0, 1] against the rows' expressions.
    A caller that only reads pivots (a determinant) never pays for them,
    and `feed` builds no combination at a dependence until `relation` is
    asked for it.
    """

    def __init__(self, zero, one):
        self.zero = zero
        self.one = one
        self.rows = []  # (pivot, reduced vector, its multipliers, vectors fed before it)
        self._exprs = []  # the rows' expressions over the fed vectors, in order
        self._dependent = None  # (multipliers, vectors fed before) of the last dependent one
        self.count = 0

    def _step(self, cur: List, row: Sequence, pv, c, prev) -> List:
        """(pv * cur - c * row) / prev; with c = 0, or where the row is zero,
        an entry is only scaled."""
        zero = self.zero
        cur = [(pv * a - c * b if a else -(c * b)) if b else pv * a if a else a
               for a, b in zip_longest(cur, row if c else (), fillvalue=zero)]
        if prev != self.one:
            cur = [a / prev if a else a for a in cur]
        return cur

    def _reduce(self, vec: Sequence):
        """(cur, cs): vec reduced to zero at every pivot, scaled by the last
        pivot, and the multiplier c used against each row."""
        cur, cs, prev = list(vec), [], self.one
        for pivot, row, _, _ in self.rows:
            cs.append(cur[pivot])
            cur = self._step(cur, row, row[pivot], cs[-1], prev)
            prev = row[pivot]
        return cur, cs

    def _expression(self, cs: List, count: int) -> List:
        """expr with (reduced vector) = sum expr_i v_i, the reduced vector
        fed after `count` others (last, with coefficient the last pivot)."""
        for _, _, row_cs, row_count in self.rows[len(self._exprs):len(cs)]:
            self._exprs.append(self._expression(row_cs, row_count))
        expr, prev = [self.zero] * count + [self.one], self.one
        for (pivot, row, _, _), c, row_expr in zip(self.rows, cs, self._exprs):
            expr = self._step(expr, row_expr, row[pivot], c, prev)
            prev = row[pivot]
        return expr

    def _combination(self, cs: List, count: int) -> List:
        """The c_i with vec = sum c_i v_i, from mu * vec + sum expr_i v_i = 0."""
        expr = self._expression(cs, count)
        mu = expr.pop()
        return [-(e / mu) if e else e for e in expr]

    def express(self, vec: Sequence) -> Optional[List]:
        """Coefficients c_i with vec = sum c_i v_i over the fed vectors, or
        None when vec lies outside their span; vec is not stored."""
        cur, cs = self._reduce(vec)
        return None if any(cur) else self._combination(cs, self.count)

    def pivots(self) -> Tuple[List[int], object]:
        """The pivot columns of the stored rows, in the order stored, and
        the last pivot: the determinant of the stored vectors on those
        columns taken in that order.  Needs a stored row."""
        pivot, row, _, _ = self.rows[-1]
        return [p for p, _, _, _ in self.rows], row[pivot]

    def feed(self, vec: Sequence) -> bool:
        """Feed vec; True when it depends on the vectors fed before it.
        The multipliers of a dependent vector are kept, and `relation`
        builds its combination on request."""
        cur, cs = self._reduce(vec)
        count, self.count = self.count, self.count + 1
        pivot = next((i for i, c in enumerate(cur) if c), None)
        if pivot is None:
            self._dependent = (cs, count)
            return True
        self.rows.append((pivot, cur, cs, count))
        return False

    def relation(self) -> List:
        """Coefficients c_i with v = sum c_i v_i over the vectors fed
        before v, the dependent vector fed last."""
        return self._combination(*self._dependent)

    def add(self, vec: Sequence) -> Optional[List]:
        return self.relation() if self.feed(vec) else None
