"""The base ring O = F_q[x] and its fraction field K = F_q(x).

A polynomial has one representation, chosen by its field, and every
representation holds its value in one slot, `code`:

- over F_2, an `F2Poly`: `code` is one int whose bit i is the coefficient
  of x^i;
- over F_p for an odd prime p < 128, an `FpPoly`, and over F_{2^k} for
  2 <= k <= 4, an `F2kPoly`: `code` is one bytes string whose byte i is the
  code of the coefficient of x^i (over F_p the residue itself; over
  F_{2^k} the k coordinates of the element as the bits of a byte);
- over every other field (p >= 128, odd p with k > 1, 2^k with k > 4), the
  fallback: a `Poly` whose `code` is the tuple of raw coefficients from
  `gf`, on which the operations loop coefficient by coefficient.  The
  tests keep this tuple path as the oracle of the packed kernels.

`coeffs`, the little-endian raw coefficients, is read off `code`: it is
`code` itself on the fallback and over F_p, and is built when it is read
over F_2 and F_{2^k}.  `Poly` implements what the representations share
(construction, pickling, equality, hashing, the zero test); a
representation says how it encodes raw coefficients and runs its kernels.

The packed kernels let CPython's int and bytes operations do the work per
coefficient (Kronecker substitution; Harvey, arXiv:0712.4046).  Over F_p a
sum is one int addition of the packed strings and one `bytes.translate`
through a 256-entry table of residues mod p; a product is one int product,
reduced the same way when no slot can exceed a byte, and in slots of
several bytes otherwise.  Over F_{2^k} a sum is an XOR and a product is the
carry-less product of the packed ints, each slot of which stays below
2^(2k-1) <= 2^7, reduced by one `translate` modulo the field's modulus.
Division and gcd hold the remainder as one int and take one int addition
(or XOR) per quotient coefficient.  The tables of a field are built on
first use and shared by its contexts.

Powers go through `gf.power`.  `evaluate` also takes a point of an
extension of a prime field, which the irreducibility scan of `tower` needs.
Every representation stores little-endian coefficients with trailing zeros
stripped.  The zero polynomial has the distinguished degree `MINUS_INF`.
Rational functions are kept in the canonical form num/den with den monic
and gcd(num, den) = 1.

Places of K are the monic irreducible polynomials (degree n_v = deg pi)
together with the place at infinity (n_v = 1).  The valuation at a finite
place is the multiplicity of pi in num minus in den; at infinity it is
deg(den) - deg(num).  A place set T is the ring O_{K,T} of T-integers;
it always contains infinity, and `PlaceSet()` = {inf} is F_q[x].  Every
question about T's places is one `split_over` of the finite places of T,
which divides them out of num and den without factoring anything: a is a
T-integer when no denominator is left, a T-unit when a constant alone is
left, and `unit_class` is what is left, up to a unit.

Factorization is squarefree decomposition (with p-th-power descent for the
derivative-zero parts, which are common in characteristic p), followed by
distinct-degree and Cantor-Zassenhaus equal-degree splitting.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Sequence, Tuple

from .gf import FqCtx, FqElem, _fp_poly_mul, power

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
    """The carry-less product.  It also multiplies F_{2^k}[x] polynomials
    packed one element per byte: there each slot stays within 7 bits."""
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
# byte-slot kernels: byte i of a bytes string is the code of the
# coefficient of x^i (F_p: the residue; F_{2^k}: bit i = coordinate of z^i)
# ---------------------------------------------------------------------------

class _ByteField:
    """The 256-entry byte tables of one field, for `bytes.translate`."""

    __slots__ = ("p", "xor", "raw", "code", "mod", "mul", "inv", "neg", "root", "rank",
                 "bound", "fold", "fresh")

    def __init__(self, ctx: FqCtx):
        p, k, q = ctx.p, ctx.k, ctx.q
        self.p = p
        self.xor = p == 2  # codes add by XOR, and a product needs no carry
        # a row of `mul` is read at codes below q only
        if k == 1:
            self.raw = list(range(p))
            self.mod = bytes(x % p for x in range(256))
            self.mul = [bytes(x * c % p for x in range(q)) + bytes(256 - q) for c in range(q)]
        else:  # F_{2^k}, k <= 4: products of codes stay below 2^(2k-1)
            self.raw = [tuple(c >> i & 1 for i in range(k)) for c in range(q)]
            modulus = _b2_pack(ctx.modulus)
            top = 1 << (2 * k - 1)
            self.mod = bytes(_b2_divmod(x, modulus)[1] for x in range(top)) + bytes(256 - top)
            self.mul = [bytes(self.mod[_b2_mul(c, x)] for x in range(q)) + bytes(256 - q)
                        for c in range(q)]
        self.code = {r: c for c, r in enumerate(self.raw)}
        self.inv = [0] + [row.index(1) for row in self.mul[1:]]
        self.neg = [-c % p for c in range(q)] if k == 1 else list(range(q))
        # the p-th root a^(p^(k-1)), and the place of each code in the order
        # of raw tuples (sort keys); both the identity over a prime field
        self.root = self.rank = None
        if k > 1:
            root = list(range(q))
            for _ in range(k - 1):
                root = [self.mul[c][c] for c in root]
            order = sorted(range(q), key=self.raw.__getitem__)
            self.root = bytes(root) + bytes(256 - q)
            self.rank = bytes(order.index(c) for c in range(q)) + bytes(256 - q)
        # F_p products: (p-1)^2 bounds each term of a product slot, and
        # fold[j] maps a byte b to b * 256^j mod p (slots of several bytes)
        self.bound = (p - 1) ** 2
        self.fold = [self.mod]
        # F_p division: a slot that starts below p stays below 256 for
        # this many additions of at most p - 1
        self.fresh = 255 // (p - 1) - 1

    def folded(self, j: int) -> bytes:
        while len(self.fold) <= j:
            m = pow(256, len(self.fold), self.p)
            self.fold.append(bytes(x * m % self.p for x in range(256)))
        return self.fold[j]


_BYTE_FIELDS = {}


def _tables(ctx: FqCtx) -> _ByteField:
    """The byte tables of ctx, built once per field."""
    tables = ctx.packed
    if tables is None:
        key = (ctx.p, ctx.k, ctx.modulus)
        tables = _BYTE_FIELDS.get(key)
        if tables is None:
            tables = _BYTE_FIELDS[key] = _ByteField(ctx)
        ctx.packed = tables
    return tables


def _int(code) -> int:
    return int.from_bytes(code, "little")


def _spread(code: bytes, width: int) -> int:
    """The int of code with each byte in a slot of `width` bytes."""
    slots = bytearray(width * len(code))
    slots[::width] = code
    return _int(slots)


def _fp_mul(a: bytes, b: bytes, F: _ByteField) -> bytes:
    """The product over F_p of two packed polynomials of degree >= 1."""
    n = len(a) + len(b) - 1
    # bytes per slot: enough for the largest slot sum of the product
    width = ((F.bound * min(len(a), len(b))).bit_length() + 7) >> 3
    if width == 1:
        x = _int(a)
        return (x * (x if a is b else _int(b))).to_bytes(n, "little").translate(F.mod)
    prod = (_spread(a, width) * _spread(b, width)).to_bytes(width * n, "little")
    out = prod[::width].translate(F.mod)
    for j in range(1, width):
        high = prod[j::width].translate(F.folded(j))
        out = (_int(out) + _int(high)).to_bytes(n, "little").translate(F.mod)
    return out


def _f2k_mul(a: bytes, b: bytes, F: _ByteField) -> bytes:
    """The product over F_{2^k} of two packed polynomials of degree >= 1:
    the carry-less product, each slot reduced by the modulus."""
    prod = _b2_mul(_int(a), _int(b)).to_bytes(len(a) + len(b) - 1, "little")
    return prod.translate(F.mod)


def _slot_divmod(a: bytes, b: bytes, F: _ByteField):
    """(q, r) with a = q*b + r and deg r < deg b, for deg a >= deg b >= 1.

    The remainder stays one int.  Each quotient coefficient is read from
    its slot and costs one int addition (XOR over F_{2^k}) of a multiple
    of the monic divisor's lower part.  Over F_p a slot gains at most one
    addition per step and at most deg b in all, so the slots are reduced
    mod p every F.fresh steps, before any can pass 255, and only when
    deg b > F.fresh."""
    db = len(b) - 1
    inv = F.inv[b[-1]]
    low = b[:db] if inv == 1 else b[:db].translate(F.mul[inv])
    rem = _int(a)
    quo = bytearray(len(a) - db)
    steps = [None] * len(F.mul)  # c -> the packed int of -c * low
    mul, neg, p = F.mul, F.neg, F.p
    top = 8 * db
    if F.xor:
        for i in range(len(a) - 1 - db, -1, -1):
            c = rem >> 8 * i + top & 255
            if c:
                quo[i] = c
                step = steps[c]
                if step is None:
                    step = steps[c] = _int(low.translate(mul[c]))
                rem ^= step << 8 * i
        out = rem.to_bytes(len(a), "little")[:db]
    else:
        left = F.fresh if db > F.fresh else len(a)
        for i in range(len(a) - 1 - db, -1, -1):
            c = (rem >> 8 * i + top & 255) % p
            if c:
                quo[i] = c
                step = steps[c]
                if step is None:
                    step = steps[c] = _int(low.translate(mul[neg[c]]))
                rem += step << 8 * i
                left -= 1
                if not left:
                    rem = _int(rem.to_bytes(len(a), "little").translate(F.mod))
                    left = F.fresh
        out = rem.to_bytes(len(a), "little")[:db].translate(F.mod)
    if inv != 1:
        quo = quo.translate(mul[inv])
    return bytes(quo), out.rstrip(b"\0")


def _slot_monic(code: bytes, F: _ByteField) -> bytes:
    if not code or code[-1] == 1:
        return code
    return code.translate(F.mul[F.inv[code[-1]]])


def _slot_gcd(a: bytes, b: bytes, F: _ByteField) -> bytes:
    while len(b) > 1:
        a, b = b, (_slot_divmod(a, b, F)[1] if len(a) >= len(b) else a)
    return b"\x01" if b else _slot_monic(a, F)


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def _poly_class(ctx: FqCtx):
    """The class that holds a polynomial over ctx."""
    if ctx.p == 2:
        return F2Poly if ctx.k == 1 else F2kPoly if ctx.k <= 4 else Poly
    return FpPoly if ctx.k == 1 and ctx.p < 128 else Poly


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

    `Poly(ctx, coeffs)` returns the representation of the field (see the
    module docstring): an `F2Poly`, `FpPoly` or `F2kPoly`, or over the
    fallback fields a `Poly` whose `code` is the tuple of little-endian
    raw coefficients with trailing zeros stripped.

    Every representation holds `ctx` and `code`.  What they share is
    defined here once: construction through the class's `_encode`,
    pickling, equality (same class, field and `code`), hashing and the
    zero test.  The ring operations that `perfbench/tracer.py` wraps (`*`,
    `divmod`, `gcd`, `factor`) have one entry point here for every
    representation.  It runs the `F2Poly` kernels itself and calls `_mul`,
    `_divmod` or `_gcd` of every other representation.
    """

    __slots__ = ("ctx", "code")

    def __new__(cls, ctx: FqCtx, coeffs: Iterable = ()):
        return object.__new__(_poly_class(ctx))

    def __init__(self, ctx: FqCtx, coeffs: Iterable = ()):
        self.ctx = ctx
        self.code = self._encode(ctx, _read_raw(ctx, coeffs))

    @staticmethod
    def _encode(ctx: FqCtx, raw_list) -> tuple:
        raw = list(raw_list)
        while raw and ctx.ris_zero(raw[-1]):
            raw.pop()
        return tuple(raw)

    @classmethod
    def _from_raw(cls, ctx: FqCtx, raw_list) -> "Poly":
        return _wrap(cls, ctx, cls._encode(ctx, raw_list))

    # `Poly._tuple` is a tuple-held polynomial.  The library builds these
    # over the fallback fields only; over the packed fields they run the
    # coefficient loops, which the tests keep as the oracle of the packed
    # kernels.
    _tuple = _from_raw

    @staticmethod
    def _make(ctx: FqCtx, raw_list) -> "Poly":
        """The polynomial of a list of raw coefficients, over any field."""
        return _poly_class(ctx)._from_raw(ctx, raw_list)

    def __reduce__(self):
        return _wrap, (type(self), self.ctx, self.code)

    @property
    def coeffs(self):
        """The little-endian raw coefficients, here `code` itself."""
        return self.code

    def _like(self, raw_list) -> "Poly":
        """A polynomial over the same field, in the same representation."""
        return self._from_raw(self.ctx, raw_list)

    @classmethod
    def zero(cls, ctx) -> "Poly":
        return Poly._make(ctx, [])

    @classmethod
    def one(cls, ctx) -> "Poly":
        return _monomial(ctx, 0)

    @classmethod
    def x(cls, ctx) -> "Poly":
        return _monomial(ctx, 1)

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
        return len(self.code) - 1 if self.code else MINUS_INF

    def is_zero(self) -> bool:
        return not self.code

    def is_constant(self) -> bool:
        return len(self.code) <= 1

    def is_one(self) -> bool:
        return len(self.code) == 1 and self.code[0] == self.ctx.rone

    def is_monic(self) -> bool:
        return bool(self.code) and self.code[-1] == self.ctx.rone

    def coeff(self, i: int) -> FqElem:
        if 0 <= i < len(self.code):
            return FqElem(self.ctx, self.code[i])
        return self.ctx.zero

    def lc(self) -> FqElem:
        if not self.code:
            return self.ctx.zero
        return FqElem(self.ctx, self.code[-1])

    def constant_value(self) -> FqElem:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.coeff(0)

    def __bool__(self):
        return bool(self.code)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.code == other.code
            and (self.ctx is other.ctx or self.ctx == other.ctx)
        )

    def __hash__(self):
        return hash(self.code)

    def sort_key(self):
        coeffs = self.coeffs
        return (len(coeffs), coeffs)

    # ---- ring operations

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ctx = self.ctx
        a, b = self.code, other.code
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
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __neg__(self):
        ctx = self.ctx
        if ctx.p == 2:
            return self
        return Poly._tuple(ctx, [ctx.rneg(c) for c in self.code])

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if type(self) is F2Poly:  # the hottest case, without a second call
            return _wrap(F2Poly, self.ctx, _b2_mul(self.code, other.code))
        return self._mul(other)

    __rmul__ = __mul__

    def _mul(self, other: "Poly") -> "Poly":
        ctx = self.ctx
        a, b = self.code, other.code
        if not a or not b:
            return Poly._tuple(ctx, ())
        if ctx.k == 1:
            return Poly._tuple(ctx, _fp_poly_mul(a, b, ctx.p))
        out = [ctx.rzero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if not ctx.ris_zero(x):
                for j, y in enumerate(b):
                    out[i + j] = ctx.radd(out[i + j], ctx.rmul(x, y))
        return Poly._tuple(ctx, out)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return power(self, n) if n else self._like([self.ctx.rone])

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if type(self) is F2Poly:
            q, r = _b2_divmod(self.code, other.code)
            return _wrap(F2Poly, self.ctx, q), _wrap(F2Poly, self.ctx, r)
        return self._divmod(other)

    def _divmod(self, other: "Poly"):
        ctx = self.ctx
        da, db = len(self.code) - 1, len(other.code) - 1
        if da < db:
            return Poly._tuple(ctx, ()), self
        inv_lc = ctx.rinv(other.code[-1])
        rem = list(self.code)
        quo = [ctx.rzero] * (da - db + 1)
        for i in range(da - db, -1, -1):
            c = ctx.rmul(rem[i + db], inv_lc)
            if ctx.ris_zero(c):
                continue
            quo[i] = c
            for j, m in enumerate(other.code):
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
        lead = self.code[-1]
        if lead == ctx.rone:
            return self
        inv = ctx.rinv(lead)
        return Poly._tuple(ctx, [ctx.rmul(c, inv) for c in self.code])

    def derivative(self) -> "Poly":
        ctx = self.ctx
        raw = []
        for i in range(1, len(self.code)):
            raw.append(ctx.rmul(self.code[i], ctx.rfrom_int(i)))
        return Poly._tuple(ctx, raw)

    def shift(self, n: int) -> "Poly":
        """Multiply by x^n."""
        if self.is_zero():
            return self
        return Poly._tuple(self.ctx, [self.ctx.rzero] * n + list(self.code))

    def evaluate(self, a: FqElem) -> FqElem:
        """The value at a point a of F_q or, over a prime field F_p, of an
        extension of F_p (Horner's rule)."""
        ctx, base = a.ctx, self.ctx
        if ctx != base and (base.k != 1 or ctx.p != base.p):
            raise ValueError("evaluation point from an unrelated field")
        coeffs = self.coeffs
        if base.k == 1 and _poly_class(ctx) is not Poly:
            # Horner's rule on codes: a coefficient of F_p has the code c
            F = _tables(ctx)
            times_a = F.mul[F.code[a.raw]]
            acc = 0
            if F.xor:
                for c in reversed(coeffs):
                    acc = times_a[acc] ^ c
            else:
                p = ctx.p
                for c in reversed(coeffs):
                    acc = (times_a[acc] + c) % p
            return FqElem(ctx, F.raw[acc])
        if ctx != base:
            coeffs = [ctx.rfrom_int(c) for c in coeffs]
        acc = ctx.rzero
        for c in reversed(coeffs):
            acc = ctx.radd(ctx.rmul(acc, a.raw), c)
        return FqElem(ctx, acc)

    def pth_parts(self) -> list:
        """The p polynomials g_0..g_{p-1} with self = sum g_m^p x^m."""
        ctx = self.ctx
        p = ctx.p
        return [
            self._like([ctx.rpth_root(c) for c in self.code[m::p]]) for m in range(p)
        ]

    def pth_root_poly(self) -> "Poly":
        """For f with f = g(x^p) return the unique g with g^p = f."""
        root, *rest = self.pth_parts()
        if any(rest):
            raise ValueError("polynomial is not a p-th power")
        return root

    # ---- gcd and factorization

    def gcd(self, other: "Poly") -> "Poly":
        if other.ctx is not self.ctx and other.ctx != self.ctx:
            raise ValueError("polynomials over different fields")
        if type(self) is F2Poly:
            return _wrap(F2Poly, self.ctx, _b2_gcd(self.code, other.code))
        return self._gcd(other)

    def _gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def pow_mod(self, n: int, mod: "Poly") -> "Poly":
        if not n:
            return self._like([self.ctx.rone])
        return power(self % mod, n, lambda a, b: a * b % mod)

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

    def split_off(self, b: "Poly") -> Tuple[int, "Poly"]:
        """(k, self / b^k) for the largest k with b^k dividing self."""
        if self.is_zero():
            raise ZeroDivisionError("zero polynomial")
        k = 0
        f = self
        while True:
            q, r = divmod(f, b)
            if r:
                return k, f
            k += 1
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
    """A polynomial over F_2: `code` is one int whose bit i is the
    coefficient of x^i.  Every operation acts on the int; `coeffs`, the
    coefficient tuple, is built only when it is read.  `Poly` runs its
    product, division and gcd."""

    __slots__ = ()

    @staticmethod
    def _encode(ctx: FqCtx, raw_list) -> int:
        return _b2_pack(raw_list)

    @property
    def coeffs(self) -> tuple:
        return _b2_unpack(self.code)

    def degree(self):
        return self.code.bit_length() - 1 if self.code else MINUS_INF

    def is_constant(self) -> bool:
        return self.code < 2

    def is_one(self) -> bool:
        return self.code == 1

    def is_monic(self) -> bool:
        return self.code != 0

    def coeff(self, i: int) -> FqElem:
        return FqElem(self.ctx, (self.code >> i) & 1) if i >= 0 else self.ctx.zero

    def lc(self) -> FqElem:
        return FqElem(self.ctx, 1 if self.code else 0)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return _wrap(F2Poly, self.ctx, self.code ^ other.code)

    __radd__ = __sub__ = __add__

    def monic(self) -> "F2Poly":
        return self

    def derivative(self) -> "F2Poly":
        odd = bin(self.code)[:1:-1][1::2]  # coefficients of x, x^3, x^5, ...
        return _wrap(F2Poly, self.ctx, int(odd[::-1], 4) if odd else 0)

    def shift(self, n: int) -> "F2Poly":
        """Multiply by x^n."""
        return _wrap(F2Poly, self.ctx, self.code << n)

    def pth_parts(self) -> list:
        """[g_0, g_1] with self = g_0^2 + g_1^2 x."""
        digits = bin(self.code)[:1:-1]
        halves = (digits[::2], digits[1::2])
        return [_wrap(F2Poly, self.ctx, int(half[::-1] or "0", 2)) for half in halves]


class _BytePoly(Poly):
    """A polynomial whose `code` is a bytes string, one byte per
    coefficient (see the byte-slot kernels above): the part `FpPoly` and
    `F2kPoly` share.  A subclass says how raw coefficients encode, how
    codes add, and in `_product` how two polynomials of degree >= 1
    multiply."""

    __slots__ = ()

    def _new(self, code: bytes) -> "_BytePoly":
        return _wrap(type(self), self.ctx, code)

    def is_one(self) -> bool:
        return self.code == b"\x01"

    def is_monic(self) -> bool:
        return self.code[-1:] == b"\x01"

    def coeff(self, i: int) -> FqElem:
        if 0 <= i < len(self.code):
            return FqElem(self.ctx, _tables(self.ctx).raw[self.code[i]])
        return self.ctx.zero

    def lc(self) -> FqElem:
        return self.coeff(len(self.code) - 1)

    def _mul(self, other: "_BytePoly") -> "_BytePoly":
        a, b = self.code, other.code
        F = self.ctx.packed or _tables(self.ctx)
        if len(a) > 1 < len(b):
            return self._new(self._product(a, b, F))
        if not a or not b:
            return self._new(b"")
        if len(a) > 1:
            a, b = b, a
        return self._new(b.translate(F.mul[a[0]]))

    def _divmod(self, other: "_BytePoly"):
        a, b = self.code, other.code
        if len(a) < len(b):
            return self._new(b""), self
        F = self.ctx.packed or _tables(self.ctx)
        if len(b) == 1:
            return self._new(a.translate(F.mul[F.inv[b[0]]])), self._new(b"")
        q, r = _slot_divmod(a, b, F)
        return self._new(q), self._new(r)

    def _gcd(self, other: "_BytePoly") -> "_BytePoly":
        return self._new(_slot_gcd(self.code, other.code, self.ctx.packed or _tables(self.ctx)))

    def monic(self) -> "_BytePoly":
        code = self.code
        if not code or code[-1] == 1:
            return self
        return self._new(_slot_monic(code, self.ctx.packed or _tables(self.ctx)))

    def derivative(self) -> "_BytePoly":
        code, p = self.code, self.ctx.p
        mul = (self.ctx.packed or _tables(self.ctx)).mul
        out = bytearray(max(len(code) - 1, 0))
        for i in range(1, p):  # x^j with j = i mod p gets the factor i
            out[i - 1::p] = code[i::p].translate(mul[i])
        return self._new(bytes(out.rstrip(b"\0")))

    def shift(self, n: int) -> "_BytePoly":
        """Multiply by x^n."""
        return self._new(bytes(n) + self.code) if self.code else self

    def pth_parts(self) -> list:
        """The p polynomials g_0..g_{p-1} with self = sum g_m^p x^m."""
        code, p = self.code, self.ctx.p
        root = (self.ctx.packed or _tables(self.ctx)).root
        parts = (code[m::p].rstrip(b"\0") for m in range(p))
        return [self._new(part if root is None else part.translate(root)) for part in parts]


class FpPoly(_BytePoly):
    """A polynomial over F_p, p an odd prime below 128: `code` holds one
    residue per byte, and `coeffs` is that same bytes string, so it reads,
    prints, hashes and sorts like the coefficient tuple."""

    __slots__ = ()

    @staticmethod
    def _encode(ctx: FqCtx, raw_list) -> bytes:
        return bytes(raw_list).rstrip(b"\0")

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.code, other.code
        F = self.ctx.packed or _tables(self.ctx)
        total = (_int(a) + _int(b)).to_bytes(max(len(a), len(b)), "little")
        return _wrap(FpPoly, self.ctx, total.translate(F.mod).rstrip(b"\0"))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.code, other.code
        F = self.ctx.packed or _tables(self.ctx)
        minus_b = b.translate(F.mul[F.neg[1]])
        total = (_int(a) + _int(minus_b)).to_bytes(max(len(a), len(b)), "little")
        return _wrap(FpPoly, self.ctx, total.translate(F.mod).rstrip(b"\0"))

    def __neg__(self):
        F = self.ctx.packed or _tables(self.ctx)
        return _wrap(FpPoly, self.ctx, self.code.translate(F.mul[F.neg[1]]))

    _product = staticmethod(_fp_mul)


class F2kPoly(_BytePoly):
    """A polynomial over F_{2^k}, 2 <= k <= 4: `code` holds one element per
    byte, bit i the coordinate of z^i; `coeffs`, the tuple of raw
    coordinate tuples, is built only when it is read."""

    __slots__ = ()

    @staticmethod
    def _encode(ctx: FqCtx, raw_list) -> bytes:
        return bytes(map(_tables(ctx).code.__getitem__, raw_list)).rstrip(b"\0")

    @property
    def coeffs(self) -> tuple:
        return tuple(map(_tables(self.ctx).raw.__getitem__, self.code))

    def sort_key(self):
        return (len(self.code), self.code.translate(_tables(self.ctx).rank))

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.code, other.code
        total = (_int(a) ^ _int(b)).to_bytes(max(len(a), len(b)), "little")
        return _wrap(F2kPoly, self.ctx, total.rstrip(b"\0"))

    __radd__ = __sub__ = __add__

    _product = staticmethod(_f2k_mul)


def _monomial(ctx: FqCtx, n: int) -> Poly:
    """x^n over ctx."""
    cls = _poly_class(ctx)
    if cls is Poly:
        return Poly._tuple(ctx, [ctx.rzero] * n + [ctx.rone])
    return _wrap(cls, ctx, 1 << n if cls is F2Poly else bytes(n) + b"\x01")


def _wrap(cls, ctx: FqCtx, code) -> Poly:
    """The polynomial of class cls holding `code` as it stands."""
    p = object.__new__(cls)
    p.ctx = ctx
    p.code = code
    return p


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RatFunc:
    """Element of K = F_q(x) in canonical form (monic denominator, coprime);
    +, -, * and exact / of two polynomials are canonical without a gcd."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Optional[Poly] = None):
        if den is None:  # num/1 is canonical as it stands
            self.num = num
            self.den = Poly.one(num.ctx)
            return
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

    @staticmethod
    def _coprime(num: Poly, den: Poly) -> "RatFunc":
        """num/den as given: den monic and coprime to num (1 when num = 0)."""
        r = object.__new__(RatFunc)
        r.num = num
        r.den = den
        return r

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
        if self.den.is_one() and o.den.is_one():
            return RatFunc._coprime(self.num + o.num, self.den)
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den.is_one() and o.den.is_one():
            return RatFunc._coprime(self.num - o.num, self.den)
        return RatFunc(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return RatFunc._coprime(-self.num, self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den.is_one() and o.den.is_one():
            return RatFunc._coprime(self.num * o.num, self.den)
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        if self.den.is_one() and o.den.is_one():
            q, r = divmod(self.num, o.num)
            if not r:  # an exact quotient, as in fraction-free elimination
                return RatFunc._coprime(q, self.den)
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if n < 0:
            return (RatFunc(Poly.one(self.ctx)) / self) ** (-n)
        # powers of coprime polynomials stay coprime, and of monic ones monic
        return RatFunc._coprime(self.num ** n, self.den ** n)

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
    """A finite set T of places, infinity always included, and the ring
    O_{K,T} of T-integers; `finite_pis` is the coprime monic basis of
    polynomials of its finite places, over which `split_over` splits."""

    __slots__ = ("places", "finite_pis")

    def __init__(self, places: Iterable[Place] = ()):
        s = {INFINITY}
        for v in places:
            if not isinstance(v, Place):
                raise TypeError("PlaceSet takes Place values")
            s.add(v)
        self.places = tuple(sorted(s, key=Place.sort_key))
        self.finite_pis = tuple(v.pi for v in self.places if not v.is_infinite)

    @classmethod
    def of(cls, *finite_pis: Poly) -> "PlaceSet":
        return cls([Place.finite(pi) for pi in finite_pis])

    def __contains__(self, v: Place) -> bool:
        return v in set(self.places)

    def __iter__(self):
        return iter(self.places)

    def __len__(self):
        return len(self.places)

    def __repr__(self):
        return "{" + ", ".join(repr(v) for v in self.places) + "}"


def valuation(a: RatFunc, v: Place) -> int:
    """v(a) for nonzero a.  The zero input is reported as a distinct signal
    (ValueError) rather than an integer, since v(0) = +infinity."""
    if a.is_zero():
        raise ValueError("valuation of zero is +infinity")
    if v.is_infinite:
        return a.den.degree() - a.num.degree()
    return a.num.split_off(v.pi)[0] - a.den.split_off(v.pi)[0]


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


def split_over(basis: Sequence[Poly], a: RatFunc) -> Tuple[Tuple[int, ...], Poly, Poly]:
    """(e, num, den) with a = num/den * prod basis_i^{e_i}, for nonzero a
    and a coprime monic basis: each basis element divides at most one of
    a.num and a.den, and is split off it as often as it divides it."""
    num, den = a.num, a.den
    vec = []
    for b in basis:
        e, num = num.split_off(b)
        if not e:
            e, den = den.split_off(b)
            e = -e
        vec.append(e)
    return tuple(vec), num, den


def is_T_integer(a: RatFunc, T: PlaceSet) -> bool:
    """v(a) >= 0 at every place outside T."""
    return a.is_zero() or split_over(T.finite_pis, a)[2].is_one()


def is_T_unit(a: RatFunc, T: PlaceSet) -> bool:
    """v(a) = 0 at every place outside T.  With T = {inf} this recognizes
    exactly the nonzero constants."""
    if a.is_zero():
        raise ValueError("zero is not a unit")
    _, num, den = split_over(T.finite_pis, a)
    return num.is_constant() and den.is_one()


def unit_class(a: RatFunc, T: PlaceSet) -> Tuple[Poly, Poly]:
    """Nonzero a up to a unit of O_{K,T}, as (monic numerator, denominator)
    once the places of T are split off: a / b is a T-unit exactly when a
    and b have the same class."""
    _, num, den = split_over(T.finite_pis, a)
    return num.monic(), den


def unit_group_rank(T: PlaceSet):
    """Rank of O_{K,T}^* for K = F_q(x): exactly |T| - 1, attained on the
    projective line (class number one).  Returns (rank, generators), the
    generators being the finite-place monic irreducibles of T."""
    return len(T) - 1, list(T.finite_pis)
