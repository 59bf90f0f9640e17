"""The base ring O = F_q[x] and its fraction field K = F_q(x).

A polynomial has one representation, chosen by its field.  Over F_2 it is
an `F2Poly`: one int whose bit i is the coefficient of x^i, on which
multiplication, division, gcd, shifts and the rational-function
normalization act directly; its coefficient tuple is built only when
`coeffs` is read (text form, sort keys, p-th power decomposition).  Over
every other field it is a `Poly` holding a tuple of raw coefficients from
`gf`, little-endian with trailing zeros stripped.  The zero polynomial has
the distinguished degree `MINUS_INF`.  Rational functions are kept in the
canonical form num/den with den monic and gcd(num, den) = 1.

Places of K are the monic irreducible polynomials (degree n_v = deg pi)
together with the place at infinity (n_v = 1).  The valuation at a finite
place is the multiplicity of pi in num minus in den; at infinity it is
deg(den) - deg(num).  Place sets always contain infinity: for O = F_q[x]
the excluded-divisor set is exactly {inf}, and every T used for T-integers
must contain it.

Factorization is squarefree decomposition (with p-th-power descent for the
derivative-zero parts, which are common in characteristic p), followed by
distinct-degree and Cantor-Zassenhaus equal-degree splitting.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional

from .gf import FqCtx, FqElem

MINUS_INF = float("-inf")


# ---------------------------------------------------------------------------
# bit-packed F_2[x] kernels: bit i of an int is the coefficient of x^i
# ---------------------------------------------------------------------------

_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _b2_pack(raw) -> int:
    """The int of a little-endian sequence of 0/1 coefficients."""
    return int(bytes(reversed(raw)).translate(_TO_DIGITS), 2) if raw else 0


def _b2_unpack(n: int) -> tuple:
    """The little-endian 0/1 coefficient tuple of a packed polynomial."""
    return tuple(bin(n)[:1:-1].encode().translate(_FROM_DIGITS)) if n else ()


def _b2_mul(a: int, b: int) -> int:
    if not a or not b:
        return 0
    if a == b:
        return int(bin(a)[2:], 4)  # squaring spreads the bits
    if a.bit_count() > b.bit_count():
        a, b = b, a
    out = 0
    while a:
        low = a & -a
        out ^= b << (low.bit_length() - 1)
        a ^= low
    return out


def _b2_divmod(a: int, b: int):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not b & (b - 1):  # b = x^k
        return a >> (b.bit_length() - 1), a & (b - 1)
    q = 0
    db = b.bit_length()
    while a.bit_length() >= db:
        sh = a.bit_length() - db
        q |= 1 << sh
        a ^= b << sh
    return q, a


def _b2_gcd(a: int, b: int) -> int:
    # a constant b ends the loop: a mod 1 would clear a one bit at a time
    while b > 1:
        db = b.bit_length()
        while a.bit_length() >= db:
            a ^= b << (a.bit_length() - db)
        a, b = b, a
    return b or a


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def _is_f2(ctx: FqCtx) -> bool:
    return ctx.p == 2 and ctx.k == 1


def _read_raw(ctx: FqCtx, coeffs: Iterable) -> list:
    raw = []
    for c in coeffs:
        if isinstance(c, FqElem):
            if c.ctx != ctx:
                raise ValueError("coefficient from a different field")
            raw.append(c.raw)
        elif isinstance(c, int):
            raw.append(ctx.rfrom_int(c))
        elif isinstance(c, tuple) and ctx.k > 1:
            raw.append(ctx.elem(c).raw)
        else:
            raise TypeError(f"bad coefficient {c!r}")
    return raw


class Poly:
    """Univariate polynomial over F_q.

    `Poly(ctx, coeffs)` over F_2 returns an `F2Poly`, held as one packed
    int.  Over any other field `coeffs` is the tuple of little-endian raw
    coefficients with trailing zeros stripped.
    """

    __slots__ = ("ctx", "coeffs")

    def __new__(cls, ctx: Optional[FqCtx] = None, coeffs: Iterable = ()):
        # ctx is None when copy or pickle rebuilds a tuple-held polynomial
        return object.__new__(F2Poly if ctx is not None and _is_f2(ctx) else cls)

    def __init__(self, ctx: FqCtx, coeffs: Iterable = ()):
        raw = _read_raw(ctx, coeffs)
        while raw and ctx.ris_zero(raw[-1]):
            raw.pop()
        self.ctx = ctx
        self.coeffs = tuple(raw)

    @staticmethod
    def _make(ctx: FqCtx, raw_list) -> "Poly":
        """The polynomial of a list of raw coefficients, over any field."""
        if _is_f2(ctx):
            return _f2(ctx, _b2_pack(raw_list))
        return Poly._tuple(ctx, raw_list)

    @staticmethod
    def _tuple(ctx: FqCtx, raw_list) -> "Poly":
        """A tuple-held polynomial.  The library builds these over fields
        other than F_2 only; over F_2 they run the coefficient loops, which
        the tests keep as the oracle of the packed kernels."""
        p = object.__new__(Poly)
        raw = list(raw_list)
        while raw and ctx.ris_zero(raw[-1]):
            raw.pop()
        p.ctx = ctx
        p.coeffs = tuple(raw)
        return p

    def _like(self, raw_list) -> "Poly":
        """A polynomial over the same field, in the same representation."""
        return Poly._tuple(self.ctx, raw_list)

    @classmethod
    def zero(cls, ctx) -> "Poly":
        return _f2(ctx, 0) if _is_f2(ctx) else Poly._tuple(ctx, [])

    @classmethod
    def one(cls, ctx) -> "Poly":
        return _f2(ctx, 1) if _is_f2(ctx) else Poly._tuple(ctx, [ctx.rone])

    @classmethod
    def x(cls, ctx) -> "Poly":
        return _f2(ctx, 2) if _is_f2(ctx) else Poly._tuple(ctx, [ctx.rzero, ctx.rone])

    @classmethod
    def constant(cls, c: FqElem) -> "Poly":
        return Poly._make(c.ctx, [c.raw])

    @classmethod
    def random(cls, ctx, degree: int, rng) -> "Poly":
        raw = [ctx.random_elem(rng).raw for _ in range(degree)]
        lead = ctx.random_elem(rng)
        while lead.is_zero():
            lead = ctx.random_elem(rng)
        raw.append(lead.raw)
        return Poly._make(ctx, raw)

    # ---- basic queries

    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else MINUS_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == self.ctx.rone

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.ctx.rone

    def coeff(self, i: int) -> FqElem:
        if 0 <= i < len(self.coeffs):
            return FqElem(self.ctx, self.coeffs[i])
        return self.ctx.zero

    def lc(self) -> FqElem:
        if not self.coeffs:
            return self.ctx.zero
        return FqElem(self.ctx, self.coeffs[-1])

    def constant_value(self) -> FqElem:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.coeff(0)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            type(other) is Poly
            and (self.ctx is other.ctx or self.ctx == other.ctx)
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ctx, self.coeffs))

    def sort_key(self):
        coeffs = self.coeffs
        return (len(coeffs), coeffs)

    # ---- ring operations

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ctx = self.ctx
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        raw = list(a)
        for i, c in enumerate(b):
            raw[i] = ctx.radd(raw[i], c)
        return Poly._tuple(ctx, raw)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ctx = self.ctx
        n = max(len(self.coeffs), len(other.coeffs))
        raw = []
        za = ctx.rzero
        for i in range(n):
            x = self.coeffs[i] if i < len(self.coeffs) else za
            y = other.coeffs[i] if i < len(other.coeffs) else za
            raw.append(ctx.rsub(x, y))
        return Poly._tuple(ctx, raw)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        ctx = self.ctx
        if ctx.p == 2:
            return self
        return Poly._tuple(ctx, [ctx.rneg(c) for c in self.coeffs])

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ctx = self.ctx
        if type(self) is F2Poly:
            return _f2(ctx, _b2_mul(self.bits, other.bits))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly._tuple(ctx, ())
        if ctx.k == 1:
            p = ctx.p
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        out[i + j] = (out[i + j] + x * y) % p
            return Poly._tuple(ctx, out)
        out = [ctx.rzero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if not ctx.ris_zero(x):
                for j, y in enumerate(b):
                    out[i + j] = ctx.radd(out[i + j], ctx.rmul(x, y))
        return Poly._tuple(ctx, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = self._like([self.ctx.rone])
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        ctx = self.ctx
        if type(self) is F2Poly:
            q, r = _b2_divmod(self.bits, other.bits)
            return _f2(ctx, q), _f2(ctx, r)
        da, db = len(self.coeffs) - 1, len(other.coeffs) - 1
        if da < db:
            return Poly._tuple(ctx, ()), self
        inv_lc = ctx.rinv(other.coeffs[-1])
        rem = list(self.coeffs)
        quo = [ctx.rzero] * (da - db + 1)
        for i in range(da - db, -1, -1):
            c = ctx.rmul(rem[i + db], inv_lc)
            if ctx.ris_zero(c):
                continue
            quo[i] = c
            for j, m in enumerate(other.coeffs):
                rem[i + j] = ctx.rsub(rem[i + j], ctx.rmul(c, m))
        return Poly._tuple(ctx, quo), Poly._tuple(ctx, rem[:db])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def _coerce(self, other) -> Optional["Poly"]:
        if isinstance(other, Poly):
            if other.ctx is not self.ctx and other.ctx != self.ctx:
                raise ValueError("polynomials over different fields")
            return other
        if isinstance(other, int):
            return self._like([self.ctx.rfrom_int(other)])
        if isinstance(other, FqElem):
            return self._like([self.ctx.elem(other).raw])
        return None

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        ctx = self.ctx
        lead = self.coeffs[-1]
        if lead == ctx.rone:
            return self
        inv = ctx.rinv(lead)
        return Poly._tuple(ctx, [ctx.rmul(c, inv) for c in self.coeffs])

    def derivative(self) -> "Poly":
        ctx = self.ctx
        raw = []
        for i in range(1, len(self.coeffs)):
            raw.append(ctx.rmul(self.coeffs[i], ctx.rfrom_int(i)))
        return Poly._tuple(ctx, raw)

    def shift(self, n: int) -> "Poly":
        """Multiply by x^n."""
        if self.is_zero():
            return self
        return Poly._tuple(self.ctx, [self.ctx.rzero] * n + list(self.coeffs))

    def evaluate(self, a: FqElem) -> FqElem:
        ctx = a.ctx
        if ctx != self.ctx:
            raise ValueError("evaluation point from a different field")
        acc = ctx.rzero
        for c in reversed(self.coeffs):
            acc = ctx.radd(ctx.rmul(acc, a.raw), c)
        return FqElem(ctx, acc)

    def evaluate_ext(self, a: FqElem) -> FqElem:
        """Evaluate at a point of an extension of the (prime) base field."""
        if self.ctx.k != 1:
            raise ValueError("extension evaluation supported over prime fields only")
        ctx = a.ctx
        if ctx.p != self.ctx.p:
            raise ValueError("incompatible characteristic")
        acc = ctx.rzero
        for c in reversed(self.coeffs):
            acc = ctx.radd(ctx.rmul(acc, a.raw), ctx.rfrom_int(c))
        return FqElem(ctx, acc)

    def pth_root_poly(self) -> "Poly":
        """For f with f = g(x^p) return the unique g with g^p = f."""
        ctx = self.ctx
        p = ctx.p
        raw = []
        for i, c in enumerate(self.coeffs):
            if i % p == 0:
                raw.append(ctx.rpth_root(c))
            elif not ctx.ris_zero(c):
                raise ValueError("polynomial is not a p-th power")
        return Poly._tuple(ctx, raw)

    # ---- gcd and factorization

    def gcd(self, other: "Poly") -> "Poly":
        if other.ctx is not self.ctx and other.ctx != self.ctx:
            raise ValueError("polynomials over different fields")
        if type(self) is F2Poly:
            return _f2(self.ctx, _b2_gcd(self.bits, other.bits))
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def pow_mod(self, n: int, mod: "Poly") -> "Poly":
        out = self._like([self.ctx.rone])
        base = self % mod
        while n:
            if n & 1:
                out = (out * base) % mod
            base = (base * base) % mod
            n >>= 1
        return out

    def squarefree_decomposition(self):
        """Monic squarefree parts with multiplicities; handles derivative-zero
        descent through p-th roots."""
        f = self.monic()
        out = {}

        def accumulate(g: Poly, scale: int):
            if g.is_one():
                return
            gp = g.derivative()
            if gp.is_zero():
                accumulate(g.pth_root_poly(), scale * self.ctx.p)
                return
            t = g.gcd(gp)
            w = g // t
            i = 1
            while not w.is_one():
                y = w.gcd(t)
                z = w // y
                if not z.is_one():
                    out[z] = out.get(z, 0) + i * scale
                w = y
                t = t // y
                i += 1
            if not t.is_one():
                accumulate(t.pth_root_poly(), scale * self.ctx.p)

        accumulate(f, 1)
        return sorted(out.items(), key=lambda kv: kv[0].sort_key())

    def _equal_degree_split(self, d: int, rng) -> list:
        """Split a monic squarefree product of degree-d irreducibles."""
        ctx = self.ctx
        n = self.degree()
        if n == d:
            return [self]
        q = ctx.q
        while True:
            h = self._like([ctx.random_elem(rng).raw for _ in range(n)])
            if h.is_constant():
                continue
            if ctx.p == 2:
                # trace map sum h^{2^i}, i < d*k
                acc = h % self
                term = h % self
                for _ in range(d * ctx.k - 1):
                    term = (term * term) % self
                    acc = acc + term
                w = acc
            else:
                w = h.pow_mod((q ** d - 1) // 2, self) - self._like([ctx.rone])
            u = self.gcd(w)
            if 0 < u.degree() < n:
                rest = self // u
                return u._equal_degree_split(d, rng) + rest._equal_degree_split(d, rng)

    def factor(self):
        """Return (leading coefficient, [(monic irreducible, multiplicity)]).

        The factor list is sorted canonically so repeated runs agree.
        """
        if self.is_zero():
            raise ZeroDivisionError("cannot factor the zero polynomial")
        lc = self.lc()
        ctx = self.ctx
        rng = random.Random(0x5EED)  # deterministic splitting choices
        factors = []
        for g, mult in self.squarefree_decomposition():
            # distinct-degree stage
            x = self._like([ctx.rzero, ctx.rone])
            h = x
            v = g
            d = 0
            while v.degree() > 0:
                d += 1
                if 2 * d > v.degree():
                    factors.append((v, mult))
                    break
                h = h.pow_mod(ctx.q, v)
                u = v.gcd(h - x)
                if not u.is_one():
                    for irr in u._equal_degree_split(d, rng):
                        factors.append((irr, mult))
                    v = v // u
                    h = h % v
        factors.sort(key=lambda fm: fm[0].sort_key())
        return lc, factors

    def is_irreducible(self) -> bool:
        if self.degree() < 1:
            return False
        _, factors = self.factor()
        return len(factors) == 1 and factors[0][1] == 1

    def multiplicity_of(self, pi: "Poly") -> int:
        """Multiplicity of the monic factor pi in self."""
        if self.is_zero():
            raise ZeroDivisionError("zero polynomial")
        m = 0
        f = self
        while True:
            q, r = divmod(f, pi)
            if not r.is_zero():
                return m
            m += 1
            f = q

    # ---- text form

    def __repr__(self):
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        ctx = self.ctx
        terms = []
        for i in range(len(coeffs) - 1, -1, -1):
            c = coeffs[i]
            if ctx.ris_zero(c):
                continue
            cs = ctx._raw_str(c)
            need_parens = ctx.k > 1 and ("+" in cs or "-" in cs)
            if i == 0:
                terms.append(f"({cs})" if need_parens and terms else cs)
                continue
            var = "x" if i == 1 else f"x^{i}"
            if c == ctx.rone:
                terms.append(var)
            elif need_parens:
                terms.append(f"({cs})*{var}")
            else:
                terms.append(f"{cs}*{var}")
        return "+".join(terms)


class F2Poly(Poly):
    """A polynomial over F_2, held as one int `bits` whose bit i is the
    coefficient of x^i.  Every operation acts on the int; `coeffs`, the
    coefficient tuple, is built only when it is read.

    Multiplication, division, gcd and factorization are not overridden:
    the `Poly` methods branch on the type, so each of these operations has
    one entry point for every field (the one `perfbench/tracer.py` wraps).
    """

    __slots__ = ("bits",)

    def __init__(self, ctx: FqCtx, coeffs: Iterable = ()):
        self.ctx = ctx
        self.bits = _b2_pack(_read_raw(ctx, coeffs))

    @property
    def coeffs(self):
        return _b2_unpack(self.bits)

    def __reduce__(self):
        return _f2, (self.ctx, self.bits)

    def _like(self, raw_list) -> "F2Poly":
        return _f2(self.ctx, _b2_pack(raw_list))

    def degree(self):
        return self.bits.bit_length() - 1 if self.bits else MINUS_INF

    def is_zero(self) -> bool:
        return not self.bits

    def is_constant(self) -> bool:
        return self.bits < 2

    def is_one(self) -> bool:
        return self.bits == 1

    def is_monic(self) -> bool:
        return self.bits != 0

    def coeff(self, i: int) -> FqElem:
        return FqElem(self.ctx, (self.bits >> i) & 1) if i >= 0 else self.ctx.zero

    def lc(self) -> FqElem:
        return FqElem(self.ctx, 1 if self.bits else 0)

    def __bool__(self):
        return self.bits != 0

    def __eq__(self, other):
        return (
            type(other) is F2Poly
            and self.bits == other.bits
            and (self.ctx is other.ctx or self.ctx == other.ctx)
        )

    def __hash__(self):
        return hash(self.bits)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _f2(self.ctx, self.bits ^ other.bits)

    __radd__ = __sub__ = __add__

    def monic(self) -> "F2Poly":
        return self

    def derivative(self) -> "F2Poly":
        odd = bin(self.bits)[:1:-1][1::2]  # coefficients of x, x^3, x^5, ...
        return _f2(self.ctx, int(odd[::-1], 4) if odd else 0)

    def shift(self, n: int) -> "F2Poly":
        """Multiply by x^n."""
        return _f2(self.ctx, self.bits << n)

    def pth_root_poly(self) -> "F2Poly":
        """For f with f = g(x^2) return the unique g with g^2 = f."""
        digits = bin(self.bits)[:1:-1]
        if "1" in digits[1::2]:
            raise ValueError("polynomial is not a p-th power")
        return _f2(self.ctx, int(digits[::2][::-1], 2))


def _f2(ctx: FqCtx, bits: int) -> F2Poly:
    p = object.__new__(F2Poly)
    p.ctx = ctx
    p.bits = bits
    return p


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RatFunc:
    """Element of K = F_q(x) in canonical form (monic denominator, coprime)."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Optional[Poly] = None):
        if den is None:
            den = Poly.one(num.ctx)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not num.is_zero():
            g = num.gcd(den)
            if not g.is_one():
                num = num // g
                den = den // g
        else:
            den = Poly.one(num.ctx)
        if not den.is_monic():
            ctx = num.ctx
            inv_e = FqElem(ctx, ctx.rinv(den.lc().raw))
            num = num * inv_e
            den = den * inv_e
        self.num = num
        self.den = den

    @classmethod
    def of(cls, v, ctx: FqCtx) -> "RatFunc":
        if isinstance(v, RatFunc):
            return v
        if isinstance(v, Poly):
            return cls(v)
        if isinstance(v, FqElem):
            return cls(Poly.constant(ctx.elem(v)))
        if isinstance(v, int):
            return cls(Poly._make(ctx, [ctx.rfrom_int(v)]))
        raise TypeError(f"cannot coerce {v!r} to a rational function")

    @classmethod
    def gen(cls, ctx: FqCtx) -> "RatFunc":
        return cls(Poly.x(ctx))

    @property
    def ctx(self) -> FqCtx:
        return self.num.ctx

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def is_polynomial(self) -> bool:
        return self.den.is_one()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_one()

    def constant_value(self) -> FqElem:
        if not self.is_constant():
            raise ValueError("not a constant")
        return self.num.coeff(0)

    def __bool__(self):
        return not self.num.is_zero()

    def _coerce(self, other) -> Optional["RatFunc"]:
        if isinstance(other, RatFunc):
            if other.num.ctx is not self.num.ctx and other.ctx != self.ctx:
                raise ValueError("rational functions over different fields")
            return other
        if isinstance(other, (Poly, FqElem, int)):
            return RatFunc.of(other, self.ctx)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if n < 0:
            return (RatFunc(Poly.one(self.ctx)) / self) ** (-n)
        return RatFunc(self.num ** n, self.den ** n)

    def __eq__(self, other):
        if isinstance(other, (int, Poly, FqElem)):
            other = RatFunc.of(other, self.ctx)
        return (
            isinstance(other, RatFunc)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def sort_key(self):
        return (self.num.sort_key(), self.den.sort_key())

    def __repr__(self):
        if self.den.is_one():
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


# ---------------------------------------------------------------------------
# places, valuations, T-integers
# ---------------------------------------------------------------------------

class Place:
    """A place of K = F_q(x): a monic irreducible, or infinity (n_v = 1)."""

    __slots__ = ("pi",)

    def __init__(self, pi: Optional[Poly], _checked: bool = False):
        if pi is not None:
            pi = pi.monic()
            if not _checked and not pi.is_irreducible():
                raise ValueError(f"{pi} is not irreducible")
        self.pi = pi

    @classmethod
    def finite(cls, pi: Poly) -> "Place":
        return cls(pi)

    @classmethod
    def infinity(cls) -> "Place":
        return cls(None)

    @property
    def is_infinite(self) -> bool:
        return self.pi is None

    @property
    def degree(self) -> int:
        return 1 if self.pi is None else self.pi.degree()

    def __eq__(self, other):
        return isinstance(other, Place) and self.pi == other.pi

    def __hash__(self):
        return hash(self.pi)

    def sort_key(self):
        if self.pi is None:
            return (1, ())
        return (0, self.pi.sort_key())

    def __repr__(self):
        return "inf" if self.pi is None else repr(self.pi)


INFINITY = Place.infinity()


class PlaceSet:
    """A finite set of places; infinity is always included (S = {inf})."""

    __slots__ = ("places",)

    def __init__(self, places: Iterable[Place] = ()):
        s = {INFINITY}
        for v in places:
            if not isinstance(v, Place):
                raise TypeError("PlaceSet takes Place values")
            s.add(v)
        self.places = tuple(sorted(s, key=Place.sort_key))

    @classmethod
    def of(cls, *finite_pis: Poly) -> "PlaceSet":
        return cls([Place.finite(pi) for pi in finite_pis])

    def __contains__(self, v: Place) -> bool:
        return v in set(self.places)

    def __iter__(self):
        return iter(self.places)

    def __len__(self):
        return len(self.places)

    def finite_places(self):
        return [v for v in self.places if not v.is_infinite]

    def __repr__(self):
        return "{" + ", ".join(repr(v) for v in self.places) + "}"


def valuation(a: RatFunc, v: Place) -> int:
    """v(a) for nonzero a.  The zero input is reported as a distinct signal
    (ValueError) rather than an integer, since v(0) = +infinity."""
    if a.is_zero():
        raise ValueError("valuation of zero is +infinity")
    if v.is_infinite:
        return a.den.degree() - a.num.degree()
    return a.num.multiplicity_of(v.pi) - a.den.multiplicity_of(v.pi)


def support(a: RatFunc):
    """All places with v(a) != 0, through factorization, plus infinity if
    deg num != deg den."""
    if a.is_zero():
        raise ValueError("zero has no support")
    out = {}
    _, nf = a.num.factor()
    for pi, m in nf:
        out[Place(pi, _checked=True)] = out.get(Place(pi, _checked=True), 0) + m
    _, df = a.den.factor()
    for pi, m in df:
        key = Place(pi, _checked=True)
        out[key] = out.get(key, 0) - m
    vinf = a.den.degree() - a.num.degree()
    if vinf:
        out[INFINITY] = vinf
    return {v: m for v, m in out.items() if m}


def product_formula_sum(a: RatFunc) -> int:
    """sum over the support of n_v * v(a); zero for every nonzero a."""
    return sum(v.degree * m for v, m in support(a).items())


def is_T_integer(a: RatFunc, T: PlaceSet) -> bool:
    """v(a) >= 0 at every place outside T."""
    if a.is_zero():
        return True
    allowed = {v.pi for v in T.finite_places()}
    _, df = a.den.factor()
    return all(pi in allowed for pi, _ in df)


def is_T_unit(a: RatFunc, T: PlaceSet) -> bool:
    """v(a) = 0 at every place outside T.  With T = {inf} this recognizes
    exactly the nonzero constants."""
    if a.is_zero():
        raise ValueError("zero is not a unit")
    allowed = {v.pi for v in T.finite_places()}
    _, nf = a.num.factor()
    if any(pi not in allowed for pi, _ in nf):
        return False
    _, df = a.den.factor()
    return all(pi in allowed for pi, _ in df)


def unit_group_rank(T: PlaceSet):
    """Rank of O_{K,T}^* for K = F_q(x): exactly |T| - 1, attained on the
    projective line (class number one).  Returns (rank, generators), the
    generators being the finite-place monic irreducibles of T."""
    gens = [v.pi for v in T.finite_places()]
    return len(T) - 1, gens
