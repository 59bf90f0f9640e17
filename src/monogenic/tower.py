"""Finite separable extensions of K = F_q(x) presented as explicit towers.

A tower is a chain K = L_0 < L_1 < ... < L_n where L_i = L_{i-1}(g_i) for a
monic separable defining polynomial f_i over L_{i-1}.  A value at level i is
the tuple of its deg f_1 * ... * deg f_i coordinates over K in the product
power basis g_i^{a_i} ... g_1^{a_1}, with g_1 varying fastest.  The basis of
L_{i-1} is the start of the basis of L_i (the monomials with a_i = 0), so a
lower level's value is the start of its value at a higher level and
embedding pads with zeros.  An element made before a later `extend` keeps
its shorter value, and `AlgElem.coords` reads it so.  Read as a polynomial
in g_i, a level-i value has deg f_i consecutive blocks of coordinates as
its coefficients, which is how multiplication reduces by f_i.  Every
product bottoms out in the level-1 product, which runs on numerators in
F_q[x] over one common denominator per operand (1 for polynomial
coordinates, as on every power of a generator of a tower with polynomial
coefficients) and normalizes each output coordinate once.

There is one exact elimination over K, the Bareiss `SpanTracker`.  It
finds minimal polynomials (`power_span` feeds it the powers of an element,
which a caller may take from a cache it shares, `power_of`) and gives
every discriminant as a Hankel determinant of power sums
(`kp_discriminant`); no resultant or remainder sequence over K is
computed.  Each level keeps disc(f_i), which `extend` computes to check
that f_i is separable, after it refuses a tower of degree above
MAX_TOWER_DEGREE.

The Frobenius a -> a^p is additive in characteristic p: a = sum c_i B_i
over the power basis has a^p = sum c_i^p B_i^p.  `_frobenius` reads each
B_i^p, numerators over its own denominator, from a row of a table that is
built when a value with c_i != 0 first needs it and dropped by `extend`,
and normalizes each output coordinate once.  Every power goes through it:
a^(p^e m) is a^m by square-and-multiply, then e maps.

`extend` alone decides that a level is a field: it certifies the level or
records the caller's `assume_irreducible` as the status "assumed", and
otherwise refuses the level.  A level-1 defining polynomial is certified
by specialization: clear denominators to F_q[x][Y], then scan x -> c over
F_q (and, over a prime field, over F_{q^2}, F_{q^3}, F_{q^4}) for an
irreducible specialization of full degree (Ben-Or's test), CERTIFY_POINTS
points in all.  Past F_q it tests one point per Frobenius orbit and finds
the first point a scan of every point would.  Success is sound over any
F_q (a factorization over F_q[x] would specialize).  Levels above the
first are not certified yet.
"""

from __future__ import annotations

import math
from functools import lru_cache, partial
from typing import Callable, List, Optional, Sequence, Tuple

from .funcfield import Poly, RatFunc
from .gf import FqCtx, FqElem, RingElement, format_terms, power, split_power
from .linalg import SpanTracker, solve_in_span

# specialization points x -> c tried before a level-1 polynomial is refused
CERTIFY_POINTS = 256

# the largest [L:K] that `extend` builds
MAX_TOWER_DEGREE = 64


@lru_cache(maxsize=None)
def _orbit_leaders(p: int, j: int) -> Tuple[FqCtx, tuple]:
    """F_{p^j}, j > 1, and its (index, point) pairs, in the order of
    `elements()`, whose point c comes before each conjugate c^(p^i), 0 < i < j.
    A conjugate specializes a polynomial over F_p to its Frobenius image,
    which factors alike; a point of a proper subfield is its own conjugate,
    and the scan tested it there."""
    ctx = FqCtx(p, j)
    return ctx, tuple(
        (i, c) for i, c in enumerate(ctx.elements())
        if all(c.raw < ctx.rfrob(c.raw, e) for e in range(1, j))
    )


# ---------------------------------------------------------------------------
# polynomials over K (coefficient lists of RatFunc, or of tower elements
# for a defining polynomial above level 1)
# ---------------------------------------------------------------------------

def kp_discriminant(g, zero, one):
    """disc(g) = prod_{i<j} (a_i - a_j)^2 over the roots a_i of the monic
    g (little-endian), as the determinant of the Hankel matrix (p_{i+j}),
    0 <= i, j < deg g, of the power sums of the roots: that matrix is
    V V^T for the Vandermonde matrix V, so no sign rule is needed.  Newton's
    identities give the power sums without a division, and the determinant
    is the last Bareiss pivot, signed by the parity of the order in which
    the pivot columns were taken.  Zero exactly when gcd(g, g') != 1."""
    d = len(g) - 1
    sums = [one * d]
    for k in range(1, 2 * d - 1):
        acc = g[d - k] * k if k <= d else zero
        for i in range(1, min(k, d + 1)):
            acc = acc + g[d - i] * sums[k - i]
        sums.append(-acc)
    span = SpanTracker(zero, one)
    for i in range(d):
        if span.add(sums[i:i + d]) is not None:
            return zero
    cols, pivot = span.pivots()
    odd = sum(a > b for i, a in enumerate(cols) for b in cols[i + 1:]) % 2
    return -pivot if odd else pivot


def kp_eval(f, t: "AlgElem") -> "AlgElem":
    tower = t.tower
    acc = tower.from_base(RatFunc.of(0, tower.base))
    for c in reversed(f):
        acc = acc * t + c
    return acc


# ---------------------------------------------------------------------------
# towers
# ---------------------------------------------------------------------------

def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _common_denominator(v: Sequence[RatFunc]) -> Tuple[List[Poly], Poly]:
    """(nums, den): den is the lcm of the denominators of the elements of K
    in v (1 when they are all polynomials), and v_i = nums_i / den."""
    lcm = v[0].den
    for c in v[1:]:
        if c.den != lcm:
            lcm = lcm * (c.den // lcm.gcd(c.den))
    return [c.num if c.den == lcm else c.num * (lcm // c.den) for c in v], lcm


class Level:
    __slots__ = ("label", "coeffs", "degree", "status", "disc", "cleared")

    def __init__(self, label: str, coeffs, degree: int, status: str, disc, cleared):
        self.label = label
        # lower-level values, length degree+1, monic: elements of K for the
        # first level, coordinate tuples above
        self.coeffs = coeffs
        self.degree = degree
        self.status = status  # "certified(...)" or "assumed"
        # disc(f), nonzero: an element of K for the first level, a value of
        # the level below above it
        self.disc = disc
        # the first level's coefficients over their common denominator delta, None above
        self.cleared = cleared


class Tower:
    """Extension tower over K = F_q(x)."""

    def __init__(self, base: FqCtx):
        self.base = base
        self.levels: List[Level] = []
        self._zero = (RatFunc.of(0, base),)  # the zero of the top level
        self._frob = None  # the B_i^p rows of `_frobenius`, each built on first use

    # ---- construction

    def extend(self, label: str, coeffs: Sequence, assume_irreducible: bool = False) -> "Tower":
        """Append a level with monic defining polynomial given by `coeffs`
        (little-endian values of the current top level).  The polynomial
        must be separable and, unless `assume_irreducible` is set,
        certified irreducible; otherwise a ValueError names the level."""
        lvl = len(self.levels)
        if any(existing.label == label for existing in self.levels) or label == "x":
            raise ValueError(f"level {label!r}: generator label is already taken")
        cs = [self._coerce_val(lvl, c) for c in coeffs]
        d = len(cs) - 1
        if d < 2:
            raise ValueError(f"level {label!r}: defining polynomial must have degree >= 2")
        if cs[-1] != self._coerce_val(lvl, 1):
            raise ValueError(f"level {label!r}: defining polynomial must be monic")
        if self.degree_total() * d > MAX_TOWER_DEGREE:
            raise ValueError(f"level {label!r}: tower degree {self.degree_total() * d} exceeds "
                             f"the supported desk scale of {MAX_TOWER_DEGREE}")
        # disc(f) over the current top level vanishes iff gcd(f, f') != 1
        f = cs if lvl == 0 else [AlgElem(self, c) for c in cs]
        disc = kp_discriminant(f, f[-1] - f[-1], f[-1])  # f is monic
        if not disc:
            raise ValueError(f"level {label!r}: defining polynomial is not separable")
        if lvl:
            disc = disc.val
        cleared = _common_denominator(cs) if lvl == 0 else None
        status = "assumed" if assume_irreducible else self._certify(cleared)
        if status is None:
            raise ValueError(
                f"irreducibility of level {label!r} did not certify, and assume_irreducible is not set"
            )
        self.levels.append(Level(label, tuple(cs), d, status, disc, cleared))
        self._zero = self._zero * d
        self._frob = None
        return self

    def _certify(self, cleared) -> Optional[str]:
        """The certificate that a first-level polynomial, given by its
        coefficients `cleared` over their common denominator, is irreducible
        over K; None when the scan finds none, or above the first level
        (`cleared` None), which has no specialization route without
        subfield maps."""
        if cleared is None:
            return None
        nums = cleared[0]
        # scan c over F_q, then over F_{q^2}, F_{q^3}, F_{q^4} when q is
        # prime (the modulus table embeds only the prime field), the first
        # CERTIFY_POINTS points in the order of `elements()`; past F_q only
        # the orbit leaders, as every smaller field was scanned in full
        left = CERTIFY_POINTS
        for j in (1, 2, 3, 4) if self.base.k == 1 else (1,):
            try:
                ext, points = _orbit_leaders(self.base.p, j) if j > 1 else (
                    self.base, enumerate(self.base.elements()))
            except ValueError:
                break
            for i, c in points:
                if i >= left:
                    break
                if nums[-1].evaluate(c).is_zero():
                    continue  # the degree would drop
                if Poly(ext, [cf.evaluate(c) for cf in nums]).is_irreducible():
                    return f"certified(x={c!r} in F_{ext.q})"
            left -= ext.q
        return None

    def _coerce_val(self, lvl: int, v):
        """Coerce v (int, FqElem, Poly, RatFunc or an element of the top
        level `lvl`) into a level-`lvl` value."""
        if isinstance(v, AlgElem):
            if v.tower is not self:
                raise ValueError("element from another tower")
            return v.coords()
        r = RatFunc.of(v, self.base)
        return r if lvl == 0 else self.from_base(r).val

    # ---- structural helpers on values

    def degree_total(self) -> int:
        return len(self._zero)

    def _blocks(self, lvl: int, v):
        """The level-`lvl` value v as a polynomial in g_lvl: its
        coefficients, elements of K at level 1, coordinate tuples above."""
        if lvl == 1:
            return v
        d = self.levels[lvl - 1].degree
        m = len(v) // d
        return [v[k * m:(k + 1) * m] for k in range(d)]

    def _mul(self, lvl: int, a, b):
        """Schoolbook product over the blocks of g_lvl, reduced by f_lvl."""
        level = self.levels[lvl - 1]
        if lvl == 1:
            return self._mul_level1(level, a, b)
        d = level.degree
        mul = partial(self._mul, lvl - 1)
        prod = [self._zero[:len(a) // d]] * (2 * d - 1)
        xs, ys = self._blocks(lvl, a), self._blocks(lvl, b)
        for i, x in enumerate(xs):
            if any(x):
                for j, y in enumerate(ys):
                    prod[i + j] = _add(prod[i + j], mul(x, y))
        modulus = level.coeffs
        for i in range(2 * d - 2, d - 1, -1):
            c = prod[i]
            if any(c):
                for j in range(d):
                    prod[i - d + j] = _sub(prod[i - d + j], mul(c, modulus[j]))
        return sum(prod[:d], ())

    def _mul_level1(self, level: Level, a, b):
        """The level-1 product on numerators in F_q[x]: each operand, and
        f_1, over its common denominator (delta for f_1); each output
        coordinate is divided by the product of the denominators once."""
        d = level.degree
        (xs, den), (ys, dy) = _common_denominator(a), _common_denominator(b)
        den = den * dy
        prod = [self._zero[0].num] * (2 * d - 1)
        for i, x in enumerate(xs):
            if x:
                for j, y in enumerate(ys):
                    prod[i + j] = prod[i + j] + x * y
        modulus, delta = level.cleared
        scale = not delta.is_one()
        for i in range(2 * d - 2, d - 1, -1):
            c = prod[i]
            if c:
                if scale:  # c * f_1 / delta: bring what is left over delta
                    prod[:i] = [delta * p for p in prod[:i]]
                    den = den * delta
                for j in range(d):
                    prod[i - d + j] = prod[i - d + j] - c * modulus[j]
        if den.is_one():
            return tuple(RatFunc._coprime(p, den) for p in prod[:d])
        return tuple(RatFunc(p, den) for p in prod[:d])

    def _pow(self, a, n: int):
        """a^n for n >= 0: with n = p^e * m and p not dividing m, a^m by
        square-and-multiply, then e Frobenius maps."""
        if not n:
            return self.from_base(1).val
        e, m = split_power(n, self.base.p)
        return self._frobenius(power(a, m, partial(self._mul, self.top)), e)

    def _frobenius(self, a, e: int = 1):
        """a^(p^e) of a top-level value by e maps a -> sum_i c_i^p B_i^p,
        each on numerators over one denominator; row i of the table, B_i^p
        over its own denominator, is built when a c_i != 0 first needs it."""
        p, zero = self.base.p, self._zero
        if e and self._frob is None:
            self._frob = [None] * len(zero), [None] * len(zero)
        for _ in range(e):
            rows, dens = self._frob
            xs, den = _common_denominator(a)
            used = [i for i, x in enumerate(xs) if x]
            delta = zero[0].den  # the lcm of the rows' denominators
            for i in used:
                if rows[i] is None:
                    basis = zero[:i] + (RatFunc.of(1, self.base),) + zero[i + 1:]
                    rows[i], dens[i] = _common_denominator(
                        power(basis, p, partial(self._mul, self.top)))
                if not dens[i].is_one():
                    delta = delta * (dens[i] // delta.gcd(dens[i]))
            scale = not delta.is_one()
            out = [zero[0].num] * len(a)
            for i in used:
                x = xs[i] ** p
                if scale:
                    x = x * (delta // dens[i])
                out = [o + x * t if t else o for o, t in zip(out, rows[i])]
            den = den ** p * delta
            wrap = RatFunc._coprime if den.is_one() else RatFunc
            a = tuple(wrap(c, den) for c in out)
        return a

    def _inv(self, a):
        """Inverse of a top-level value, by solving a * b = 1 over K."""
        if not any(a):
            raise ZeroDivisionError("division by zero in tower")
        zero, one = self._zero, RatFunc.of(1, self.base)
        cols = [
            self._mul(self.top, a, zero[:i] + (one,) + zero[i + 1:]) for i in range(len(a))
        ]
        sol = solve_in_span(cols, (one,) + zero[1:], zero[0], one)
        if sol is None:
            raise ZeroDivisionError("non-invertible tower value (not a field?)")
        return tuple(sol)

    # ---- public element constructors

    @property
    def top(self) -> int:
        return len(self.levels)

    def from_base(self, r) -> "AlgElem":
        return AlgElem(self, (RatFunc.of(r, self.base),) + self._zero[1:])

    def gen(self, i: int = -1) -> "AlgElem":
        """The i-th tower generator as a top-level element."""
        if i < 0:
            i += len(self.levels)
        if not (0 <= i < len(self.levels)):
            raise IndexError("no such tower level")
        m = math.prod(lv.degree for lv in self.levels[:i])
        return AlgElem(self, self._zero[:m] + (RatFunc.of(1, self.base),) + self._zero[m + 1:])

    def x(self) -> "AlgElem":
        return self.from_base(RatFunc.gen(self.base))

    def describe(self) -> str:
        parts = [f"F{self.base.q}(x)"]
        for lv in self.levels:
            parts.append(f"{lv.label}[deg {lv.degree}, {lv.status}]")
        return " < ".join(parts)


class AlgElem(RingElement):
    """Element of a tower; `val` is its coordinate tuple at the level that
    was the top when it was made, and `coords` its value at the top now."""

    __slots__ = ("tower", "val")

    def __init__(self, tower: Tower, val):
        self.tower = tower
        self.val = val

    def _coerce(self, other) -> Optional["AlgElem"]:
        if isinstance(other, AlgElem):
            if other.tower is not self.tower:
                raise ValueError("elements of different towers")
            return other
        if isinstance(other, (int, FqElem, Poly, RatFunc)):
            return self.tower.from_base(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return AlgElem(self.tower, _add(self.coords(), o.coords()))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return AlgElem(self.tower, _sub(self.coords(), o.coords()))

    def __neg__(self):
        return AlgElem(self.tower, tuple(-c for c in self.val))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return AlgElem(self.tower, self.tower._mul(self.tower.top, self.coords(), o.coords()))

    def __truediv__(self, other):
        if isinstance(other, (int, FqElem, Poly, RatFunc)):
            # an element of K divides coordinate by coordinate
            inv = 1 / RatFunc.of(other, self.tower.base)
            return AlgElem(self.tower, tuple(c * inv for c in self.val))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        inv = self.tower._inv(o.coords())
        return AlgElem(self.tower, self.tower._mul(self.tower.top, self.coords(), inv))

    def __pow__(self, n: int):
        if n < 0:
            return AlgElem(self.tower, self.tower._pow(self.tower._inv(self.coords()), -n))
        return AlgElem(self.tower, self.tower._pow(self.coords(), n))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coords() == o.coords()

    def __hash__(self):
        return hash((id(self.tower), self.coords()))

    def is_zero(self) -> bool:
        return not any(self.val)

    def __bool__(self):
        return not self.is_zero()

    def coords(self) -> Tuple[RatFunc, ...]:
        """Coordinates over K in the product power basis of the top level:
        `val` padded with zeros, as the basis of a lower level is the start
        of the basis above it."""
        val, zero = self.val, self.tower._zero
        return val if len(val) == len(zero) else val + zero[len(val):]

    def in_base(self) -> Optional[RatFunc]:
        """The value as an element of K, or None if it is not in K."""
        if any(self.val[1:]):
            return None
        return self.val[0]

    def __repr__(self):
        tower = self.tower

        def render(lvl, v):
            # v as a polynomial in the level-`lvl` generator over the level below
            if lvl == 0:
                return repr(v)
            label = tower.levels[lvl - 1].label
            blocks = tower._blocks(lvl, v)
            terms = []
            for i in range(len(blocks) - 1, -1, -1):
                text = render(lvl - 1, blocks[i])
                if text != "0":
                    terms.append((None if text == "1" and i else text,
                                  f"{label}^{i}" if i > 1 else label if i else ""))
            return format_terms(terms)

        return render(tower.top, self.coords())


# ---------------------------------------------------------------------------
# powers, minimal polynomials, discriminants
# ---------------------------------------------------------------------------

def power_of(pows: dict, step: int, i: int):
    """(b^step)^i for the b whose powers pows holds by exponent, b^step
    among them: a missing one is computed as b^(step*(i-1)) * b^step and
    kept, as is every power on the way."""
    k = step * i
    while k not in pows:
        k -= step
    while k < step * i:
        pows[k + step] = pows[k] * pows[step]
        k += step
    return pows[step * i]


def power_span(t: AlgElem, power: Optional[Callable[[int], AlgElem]] = None) -> SpanTracker:
    """A SpanTracker fed 1, t, t^2, ... up to t^d, the first power that
    depends on the ones before it: its rows span the power basis 1, t,
    ..., t^{d-1}, and its `relation()` is t^d in that basis.  `power(i)`
    gives t^i for i >= 1, from a cache the caller keeps; by default each
    power is t times the one before."""
    power = power or partial(power_of, {1: t}, 1)
    tower = t.tower
    ctx = tower.base
    one = RatFunc.of(1, ctx)
    span = SpanTracker(RatFunc.of(0, ctx), one)
    vec, i = tower.from_base(one).coords(), 0
    while not span.feed(vec):
        i += 1
        vec = power(i).coords()
    return span


def minimal_polynomial(t: AlgElem) -> Tuple[List[RatFunc], int]:
    """Monic minimal polynomial of t over K (little-endian RatFunc list)
    and its degree d = [K(t):K], by exact linear algebra on powers of t."""
    span = power_span(t)
    g = [-c for c in span.relation()] + [span.one]
    return g, len(g) - 1


def discriminant(t: AlgElem, minpoly: Optional[Tuple[List[RatFunc], int]] = None) -> RatFunc:
    """discr_K(t), the discriminant of the monic minimal polynomial g of t
    (`kp_discriminant`: a Hankel determinant of power sums); nonzero
    exactly when t is separable of degree d >= 2.  A caller that already
    holds `minimal_polynomial(t)` passes it as `minpoly`."""
    ctx = t.tower.base
    g, d = minpoly if minpoly is not None else minimal_polynomial(t)
    if d < 2:
        raise ValueError("discriminant needs degree >= 2 over K")
    disc = kp_discriminant(g, RatFunc.of(0, ctx), RatFunc.of(1, ctx))
    if not disc:
        raise ValueError("inseparable element: gcd(g, g') is nontrivial")
    return disc


def frobenius_power(t: AlgElem, e: int) -> AlgElem:
    """t -> t^{p^e}, by e Frobenius maps."""
    if e < 0:
        raise ValueError("Frobenius exponent must be non-negative")
    return AlgElem(t.tower, t.tower._frobenius(t.coords(), e))
