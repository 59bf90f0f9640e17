"""Dense exact linear algebra over any field-like scalar type.

Scalars only need +, -, *, /, and truthiness (nonzero).  Everything here
is desk-scale: no pivoting strategy beyond "first nonzero".
"""

from __future__ import annotations

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
        self.rows = []  # (pivot, reduced vector, expression over fed vectors)
        self.count = 0

    def _reduce(self, vec: Sequence):
        """(cur, used) with cur = vec - sum used_i v_i zero at every pivot."""
        cur = list(vec)
        used = [self.zero] * self.count
        for pivot, rvec, rexpr in self.rows:
            c = cur[pivot]
            if c:
                # most row entries are zero: they leave their coordinate as is
                cur = [a - c * b if b else a for a, b in zip(cur, rvec)]
                for i, b in enumerate(rexpr):
                    if b:
                        used[i] = used[i] + c * b
        return cur, used

    def express(self, vec: Sequence) -> Optional[List]:
        """Coefficients c_i with vec = sum c_i v_i over the fed vectors, or
        None when vec lies outside their span; vec is not stored."""
        cur, used = self._reduce(vec)
        return None if any(cur) else used

    def add(self, vec: Sequence) -> Optional[List]:
        cur, used = self._reduce(vec)
        self.count += 1
        pivot = next((i for i, c in enumerate(cur) if c), None)
        if pivot is None:
            return used
        inv = self.one / cur[pivot]
        # inv * cur = inv * (vec - sum used_i v_i): expression over fed vectors
        self.rows.append((pivot, [inv * c if c else c for c in cur],
                          [-(inv * c) if c else c for c in used] + [inv]))
        return None
