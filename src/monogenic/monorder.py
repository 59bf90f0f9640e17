"""Monogenic orders O[s] and their membership/equality machinery.

An order is the O-span of the power basis 1, s, ..., s^{d-1} of an element
s that is integral over the ring O = O_{K,T} of T-integers, held as its
place set T (`POLY_RING` = {inf}, that is O = F_q[x]), and separable of
degree d over K.  Membership of t in O[s] is exact linear algebra: express
t in the power basis and inspect coordinate denominators.

Equality O[s] = O[t] is mutual membership, decided by one membership
solve (t in O[s]) and equal index keys (pivot columns, and last pivot up
to a unit; the index [O[s]:O[t]] is the pivot ratio up to sign); a
non-integral t is reported with a distinguishable diagnostic rather than
a silent False, since the underlying problem presumes integrality.

The quadratic symmetric backend (O = F_q[x+y, xy] inside F_q[x, y]) gets a
dedicated membership routine: with the swap automorphism sigma, u is in
O[w] iff B = (u - sigma(u))/(w - sigma(w)) divides exactly.  Its index key
is u - sigma(u) made monic: O[u] = O[w] exactly when the keys agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, List, NamedTuple, Optional, Tuple, Union

from .bivar import BivarPoly
from .funcfield import PlaceSet, RatFunc, is_T_integer, is_T_unit, unit_class
from .linalg import solve_in_span
from .tower import AlgElem, discriminant, frobenius_power, power_span


# F_q[x] = O_{K,{inf}}
POLY_RING = PlaceSet()


class MonOrder:
    """O[s] for an integral separable generator s, and the record of s.
    Built, it holds the degree d, the span of the power basis 1, s, ...,
    s^{d-1} (the SpanTracker fed the powers up to s^d) and the index
    `key`; its minimal polynomial, integrality over the ring O_{K,T} and
    discriminant are computed when first read.  `power(i)` gives s^i when
    the caller keeps the powers of s (see `power_span`).
    `require_integral=False` keeps the record of a non-integral s instead
    of raising.

    The index `key` is (pivot columns, `unit_class(pivot, ring)`) of the
    span's Bareiss elimination.  The columns depend on K(s) alone (the
    leading columns of an echelon form of K(s) in the tower basis), and the
    last `pivot` is +- the determinant of the power basis on them, so two
    orders on the same columns have index [O[s]:O[t]] = +- pv_t / pv_s and
    their keys agree exactly when that index is a unit.  On a one-level
    tower a generator of full degree N has the whole basis as its columns,
    so disc(s) = pv^2 * disc(f_1) (the determinant of a change of basis
    squared, times the discriminant of the basis) and `disc` reads it off
    the pivot; elsewhere it is `discriminant` of the minimal polynomial."""

    def __init__(
        self, generator: AlgElem, ring: PlaceSet = POLY_RING, require_integral: bool = True,
        power: Optional[Callable[[int], AlgElem]] = None,
    ):
        self.generator = generator
        self.ring = ring
        self._frobenius = [generator]  # generator^(p^e) at index e
        self.span = power_span(generator, power)
        self.d = len(self.span.rows)
        columns, self.pivot = self.span.pivots()
        self.key = (frozenset(columns), unit_class(self.pivot, ring))
        if require_integral and not self.integral:
            bad = next(c for c in self.minpoly if not is_T_integer(c, ring))
            raise ValueError(
                "generator is not integral over the tagged ring "
                f"(minimal polynomial coefficient {bad!r})"
            )

    @cached_property
    def minpoly(self) -> List[RatFunc]:
        """The monic minimal polynomial of the generator, little-endian:
        s^d in the power basis, from the span's relation."""
        return [-c for c in self.span.relation()] + [self.span.one]

    @cached_property
    def integral(self) -> bool:
        """The generator is integral over O_{K,T}.  It is when its
        coordinates and those of every level's coefficients are T-integers
        (sums and products of integral elements are integral); otherwise
        the minimal polynomial decides, since O_{K,T} is integrally closed."""
        vals = [self.generator.val] + [
            c if isinstance(c, tuple) else (c,)
            for level in self.generator.tower.levels for c in level.coeffs
        ]
        return (all(is_T_integer(c, self.ring) for v in vals for c in v)
                or all(is_T_integer(c, self.ring) for c in self.minpoly))

    @cached_property
    def disc(self) -> Optional[RatFunc]:
        """discr_K of the generator, or None when d < 2."""
        if self.d < 2:
            return None
        levels = self.generator.tower.levels
        if len(levels) == 1 and self.d == levels[0].degree:
            return self.pivot ** 2 * levels[0].disc
        return discriminant(self.generator, (self.minpoly, self.d))

    def frobenius(self, e: int) -> AlgElem:
        """generator^(p^e), each power computed once."""
        pows = self._frobenius
        while len(pows) <= e:
            pows.append(frobenius_power(pows[-1], 1))
        return pows[e]

    def __repr__(self):
        return f"O[{self.generator!r}]"


def express_in_power_basis(t: AlgElem, order: MonOrder) -> Optional[Tuple[RatFunc, ...]]:
    """Coordinates c_0..c_{d-1} over K with t = sum c_i s^i, or None when
    t lies outside K(s)."""
    if t.tower is not order.generator.tower:
        raise ValueError("element and order live in different towers")
    sol = order.span.express(t.coords())
    if sol is None:
        return None
    return tuple(sol[:order.d])  # s^d was fed last, and is dependent


def in_order(t: AlgElem, order: MonOrder) -> bool:
    coords = express_in_power_basis(t, order)
    if coords is None:
        return False
    return all(is_T_integer(c, order.ring) for c in coords)


@dataclass(frozen=True)
class OrdersEqual:
    equal: bool
    reason: str

    def __bool__(self):
        return self.equal


def orders_equal(t: Union[AlgElem, MonOrder], order: MonOrder) -> OrdersEqual:
    """Decide O[t] = O[s] for the order O[s].  A caller holding the record
    of t (a MonOrder over the same ring, integral or not) passes it for t.

    Once t is in O[s] and of the same degree, K(t) = K(s), so both records
    have the same pivot columns, and O[t] is a sub-order of index
    [O[s]:O[t]] = +- pv_t / pv_s (the ratio of their last pivots): s is in
    O[t] exactly when that ratio is a unit, that is when the keys agree."""
    if not isinstance(t, MonOrder):
        t = MonOrder(t, order.ring, require_integral=False)
    if t.d != order.d:
        return OrdersEqual(False, f"degree mismatch: [K(t):K]={t.d} != {order.d}")
    if not t.integral:
        return OrdersEqual(False, "t is not integral over the tagged ring")
    if not in_order(t.generator, order):
        return OrdersEqual(False, "t is outside O[s]")
    if t.key != order.key:
        return OrdersEqual(False, "s is outside O[t]")
    return OrdersEqual(True, "mutual membership")


def disc_form_predicate(t: Union[AlgElem, MonOrder], T: PlaceSet) -> bool:
    """t integral over O_{K,T} with discr_K(t) a T-unit.  A caller holding
    the record of t (over any ring: integrality is judged here, over T)
    passes it for t."""
    rec = t if isinstance(t, MonOrder) else MonOrder(t, T, require_integral=False)
    if rec.d < 2:
        raise ValueError("predicate needs degree >= 2")
    return all(is_T_integer(c, T) for c in rec.minpoly) and is_T_unit(rec.disc, T)


@dataclass(frozen=True)
class GeneratorRelation:
    """Witness of t = a * t_i^q + b with q = p^e."""

    a: RatFunc
    b: RatFunc
    q: int
    e: int
    disc_unit_ok: bool  # a^{d(d-1)} * D^{q-1} is a unit of the record's ring
    b_in_ring: bool


def fit_generator_relation(
    t: AlgElem, t_i: Union[AlgElem, MonOrder], max_e: int = 8
) -> Optional[GeneratorRelation]:
    """Search q = p^e, e = 0..max_e, for a relation t = a*t_i^q + b with
    a, b in K; the smallest successful e wins (a search policy, not a
    canonical form).  Failure is a search-horizon report, not a refutation.
    A caller holding the record of t_i (a MonOrder, integral or not) passes
    it for t_i; its discriminant and Frobenius powers are then reused, and
    its ring judges `disc_unit_ok` and `b_in_ring` (F_q[x] for a bare t_i).
    """
    tower = t.tower
    if (t_i.generator if isinstance(t_i, MonOrder) else t_i).tower is not tower:
        raise ValueError("elements of different towers")
    rec = t_i if isinstance(t_i, MonOrder) else MonOrder(t_i, require_integral=False)
    ctx = tower.base
    zero, one = RatFunc.of(0, ctx), RatFunc.of(1, ctx)
    one_vec = tower.from_base(1).coords()
    t_vec = t.coords()
    d, disc_i = rec.d, rec.disc
    for e in range(max_e + 1):
        sol = solve_in_span([rec.frobenius(e).coords(), one_vec], t_vec, zero, one)
        if sol is not None and not sol[0].is_zero():
            a, b = sol
            q = ctx.p ** e
            ok = False
            if disc_i is not None:
                ok = is_T_unit((a ** (d * (d - 1))) * (disc_i ** (q - 1)), rec.ring)
            return GeneratorRelation(a, b, q, e, ok, is_T_integer(b, rec.ring))
    return None


# ---------------------------------------------------------------------------
# quadratic symmetric backend: O = F_q[x+y, xy] in L = F_q(x, y)
# ---------------------------------------------------------------------------

class SymInOrder(NamedTuple):
    """The answer of `sym_in_order`: contained or not, why, and for a
    contained u the symmetric B of u = A + B*w (None when w is in K or u
    is outside O[w])."""

    contained: bool
    reason: str
    b: Optional[BivarPoly] = None


def sym_in_order(u: BivarPoly, w: BivarPoly) -> SymInOrder:
    """u in O[w] for the symmetric base ring, where sigma swaps x and y.

    For nonsymmetric w (so [K(w):K] = 2) this solves u = A + B*w by applying
    sigma and eliminating: B = (u - sigma u)/(w - sigma w) must divide
    exactly.  B and A = u - B*w are then symmetric, that is in O:
    sigma(B) = (-(u - sigma u))/(-(w - sigma w)) = B, and A - sigma(A) = 0.
    So the decision needs B alone, and A is never formed.
    """
    sw = w.swap()
    dw = w - sw
    if dw.is_zero():
        # w is in K: O[w] = O (w integral means w in O); u must be symmetric
        if not u.is_symmetric():
            return SymInOrder(False, "w generates O but u is not symmetric")
        return SymInOrder(True, "both inside the base ring")
    du = u - u.swap()
    if du.is_zero():
        return SymInOrder(True, "u symmetric", BivarPoly(u.ctx, {}))
    if du.total_degree() < dw.total_degree():
        return SymInOrder(False, "degree obstruction: B would not be polynomial")
    b = du.divide_exact(dw)
    if b is None:
        return SymInOrder(False, "(u - sigma u)/(w - sigma w) is not a polynomial")
    return SymInOrder(True, "u = A + B*w with A, B in O", b)


def sym_index_key(u: BivarPoly) -> BivarPoly:
    """The index key of O[u] in the symmetric backend: u - sigma(u) made
    monic, 0 when u is symmetric (then O[u] = O)."""
    return (u - u.swap()).monic()


def sym_orders_equal(u: BivarPoly, w: BivarPoly) -> OrdersEqual:
    """O[u] = O[w] by the index keys.  By `sym_in_order`, mutual membership
    holds iff u - sigma(u) and w - sigma(w) divide each other, that is
    (F_q[x, y] being a domain) iff they differ by a nonzero constant
    factor; for equal degrees that is already u in O[w]."""
    ku, kw = sym_index_key(u), sym_index_key(w)
    if ku.is_zero() != kw.is_zero():
        return OrdersEqual(False, "one side generates O, the other does not")
    if ku.total_degree() != kw.total_degree():
        return OrdersEqual(False, "conjugate-difference degree mismatch")
    if ku != kw:
        return OrdersEqual(
            False, "u outside O[w]: (u - sigma u)/(w - sigma w) is not a polynomial"
        )
    return OrdersEqual(True, "mutual membership")
