"""Arithmetic in small finite fields F_{p^k}.

An element of F_{p^k} is a coordinate vector over F_p with respect to the
power basis 1, z, ..., z^{k-1} of a fixed monic irreducible modulus.  The
"raw" coordinate encoding used internally is

    k == 1 : a single int in {0, ..., p-1}
    k  > 1 : a tuple of k such ints, little-endian in z

All raw-level arithmetic lives on the context object `FqCtx`; `FqElem` is a
thin value wrapper with operator overloads.  Contexts are immutable after
construction, apart from the byte tables of the packed polynomial kernels
that `funcfield` caches on them at first use (the same tables, however
often built), and elements never mutate, so values can be shared freely
between concurrent tasks.

Canonical text form: prime-field elements print as decimal residues,
extension elements as polynomials in z (`z^2+z+1`), and so do the modulus
in a context's repr, polynomials in x, bivariate polynomials and tower
elements, whose coefficients are the texts of the ring below.  Each lists
its nonzero terms, highest first, and `format_terms` writes them: a unit
coefficient before a monomial is left out, `*` joins a coefficient to its
monomial and `+` joins terms; a sum coefficient is bracketed before a
monomial or after another term, a quotient `(a)/(b)` before a monomial;
no terms is `0`.  `power` is the one square-and-multiply of the package,
for every type that raises to a power, and `split_power` the one p-adic
split of an integer, n = b^e * m.

A modulus of degree k > 1 is checked by `funcfield.Poly.is_irreducible`,
Ben-Or's test, which every irreducibility question of the package goes
through.  A linear modulus z - c gives F_p itself, and every context of
F_p stores the modulus z, so they compare equal.  The check first refuses
p^(k//2) > 10^6, the bound an earlier trial division imposed, so the set
of accepted bases stays as it was.  The bound stays until a work budget
(ROADMAP item 2) bounds the later work on a large base: the certification
scan of `tower` over F_{2^30} already takes seconds.

`RingElement` is the one operator protocol of the exact element types: a
type writes `_coerce`, `+`, unary `-`, `*` and, where it divides, `/`, and
the base derives `-` and the reflected `+`, `-`, `*` and `/`.
"""

from __future__ import annotations

import itertools
import operator
from typing import Iterator

# Default moduli for the small fields used throughout: fixed, reproducible
# choices (not Conway polynomials; desk scale does not need compatibility
# between extensions).  Little-endian, monic, length k+1.
_DEFAULT_MODULI = {
    (2, 2): (1, 1, 1),        # z^2+z+1
    (2, 3): (1, 1, 0, 1),     # z^3+z+1
    (2, 4): (1, 1, 0, 0, 1),  # z^4+z+1
    (3, 2): (1, 0, 1),        # z^2+1
    (7, 2): (1, 0, 1),        # z^2+1
}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def check_characteristic(p: int) -> None:
    """A characteristic is a prime in [2, 2^16]; the bound keeps the trial
    division of `_is_prime` short."""
    if not (2 <= p <= 2 ** 16) or not _is_prime(p):
        raise ValueError(f"p must be a prime in [2, 2^16], got {p}")


def split_power(n: int, b: int):
    """(e, m) with n = b^e * m and b not dividing m, for n != 0 and b >= 2."""
    e = 0
    while n % b == 0:
        n //= b
        e += 1
    return e, n


def power(base, n: int, mul=operator.mul):
    """base^n for n >= 1 by square-and-multiply with `mul`.  It starts from
    base, so it never multiplies by one; each caller handles n <= 0."""
    out = None
    while True:
        if n & 1:
            out = base if out is None else mul(out, base)
        n >>= 1
        if not n:
            return out
        base = mul(base, base)


class RingElement:
    """Base of `FqElem`, `Poly`, `RatFunc`, `AlgElem`, `BivarPoly` and
    `SymbolPoly`.  A subclass writes `_coerce` (the operand in its ring, or
    None), `__add__`, `__neg__`, `__mul__` and, where it divides,
    `__truediv__`; it keeps its own `__sub__` only where that is faster.
    Every ring here is commutative, so the reflected `+` and `*` call the
    subclass's; an operand that does not coerce gives NotImplemented.
    `__pow__` and `__bool__` stay each type's own."""

    __slots__ = ()

    def __radd__(self, other):
        return self.__add__(other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self


def format_terms(terms) -> str:
    """The canonical text (see the module docstring) of the nonzero terms,
    listed highest first.  A term is (coefficient text, monomial text): the
    coefficient is None for a 1 before a monomial, the monomial "" when
    there is none.  A coefficient is a sum when it has a `+`, or a `-`
    after its first character, and a quotient when it has a `/`."""
    out = []
    for c, m in terms:
        if c is None:
            out.append(m)
        elif m:
            if "+" in c or "/" in c or "-" in c[1:]:
                out.append(f"({c})*{m}")
            else:
                out.append(f"{c}*{m}")
        elif out and ("+" in c or "-" in c[1:]):
            out.append(f"({c})")
        else:
            out.append(c)
    return "+".join(out) or "0"


def _fp_poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def _fp_poly_mod(a, m, p):
    # m monic
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(dm):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    while len(a) > dm:
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


class FqCtx:
    """Context of a finite field F_{p^k}: prime, extension degree, modulus."""

    # `rzero`, `rone`: the raw zero and one; `packed`: the byte tables of
    # the packed polynomial kernels, set by `funcfield` on their first use
    __slots__ = ("p", "k", "q", "modulus", "rzero", "rone", "packed")

    gen_label = "z"  # the name of the extension generator in text forms

    def __init__(self, p: int, k: int = 1, modulus=None):
        check_characteristic(p)
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        # p >= 2, so k >= 64 fails without the power, whose cost grows with k
        if k >= 64 or p ** k >= 2 ** 64:
            raise ValueError("field cardinality must fit in 64 bits")
        q = p ** k
        if modulus is None:
            if k > 1 and (p, k) not in _DEFAULT_MODULI:
                raise ValueError(f"no default modulus for (p, k) = ({p}, {k})")
            modulus = _DEFAULT_MODULI.get((p, k), (0, 1))
        modulus = tuple(int(c) % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        if k == 1:
            modulus = (0, 1)
        elif p ** (k // 2) > 10 ** 6:
            raise ValueError(f"modulus too large: keep p^(k//2) <= 10^6, got {p}^{k // 2}")
        else:
            from .funcfield import Poly  # funcfield imports this module
            if not Poly(FqCtx(p), modulus).is_irreducible():
                raise ValueError("modulus is not irreducible over F_p")
        self.p = p
        self.k = k
        self.q = q
        self.modulus = modulus
        self.rzero = 0 if k == 1 else (0,) * k
        self.rone = 1 if k == 1 else (1,) + (0,) * (k - 1)
        self.packed = None

    # contexts compare by value so fields built twice interoperate
    def __eq__(self, other):
        return (
            isinstance(other, FqCtx)
            and (self.p, self.k, self.modulus) == (other.p, other.k, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.k, self.modulus))

    def __repr__(self):
        if self.k == 1:
            return f"F{self.p}"
        return f"F{self.q}=F{self.p}[{self.gen_label}]/({self._raw_str(self.modulus)})"

    # ---- raw-scalar arithmetic -------------------------------------------

    def rgen(self):
        if self.k == 1:
            raise ValueError("prime field has no extension generator")
        return (0, 1) + (0,) * (self.k - 2)

    def rfrom_int(self, n: int):
        n %= self.p
        return n if self.k == 1 else (n,) + (0,) * (self.k - 1)

    def ris_zero(self, a) -> bool:
        return a == 0 if self.k == 1 else not any(a)

    def radd(self, a, b):
        if self.k == 1:
            return (a + b) % self.p
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def rsub(self, a, b):
        if self.k == 1:
            return (a - b) % self.p
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def rneg(self, a):
        if self.k == 1:
            return (-a) % self.p
        p = self.p
        return tuple((-x) % p for x in a)

    def rmul(self, a, b):
        if self.k == 1:
            return (a * b) % self.p
        prod = _fp_poly_mul(a, b, self.p)
        red = _fp_poly_mod(prod, self.modulus, self.p)
        red += [0] * (self.k - len(red))
        return tuple(red)

    def rpow(self, a, n: int):
        if n < 0:
            return self.rpow(self.rinv(a), -n)
        if self.k == 1:
            return pow(a, n, self.p)
        return power(a, n, self.rmul) if n else self.rone

    def rinv(self, a):
        if self.ris_zero(a):
            raise ZeroDivisionError("division by zero in finite field")
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        return self.rpow(a, self.q - 2)

    def rdiv(self, a, b):
        return self.rmul(a, self.rinv(b))

    def rfrob(self, a, e: int = 1):
        """a -> a^{p^e}."""
        if e < 0:
            raise ValueError("Frobenius exponent must be non-negative")
        if self.ris_zero(a):
            return a
        # reduce the exponent mod q-1 so huge e stays cheap
        exp = pow(self.p, e, self.q - 1) if self.q > 2 else 1
        return self.rpow(a, exp)

    def rpth_root(self, a):
        """The unique b with b^p = a, namely a^{p^{k-1}}."""
        return self.rfrob(a, self.k - 1)

    # ---- element interface -----------------------------------------------

    def elem(self, v) -> "FqElem":
        if isinstance(v, FqElem):
            if v.ctx != self:
                raise ValueError("element from a different field context")
            return v
        if isinstance(v, int):
            return FqElem(self, self.rfrom_int(v))
        if isinstance(v, tuple):
            if self.k == 1:
                if len(v) != 1:
                    raise ValueError("prime-field raw value must have length 1")
                return FqElem(self, v[0] % self.p)
            if len(v) > self.k:
                raise ValueError("coordinate vector too long")
            vv = tuple(int(c) % self.p for c in v) + (0,) * (self.k - len(v))
            return FqElem(self, vv)
        raise TypeError(f"cannot build field element from {v!r}")

    @property
    def zero(self) -> "FqElem":
        return FqElem(self, self.rzero)

    @property
    def one(self) -> "FqElem":
        return FqElem(self, self.rone)

    @property
    def gen(self) -> "FqElem":
        return FqElem(self, self.rgen())

    def elements(self) -> Iterator["FqElem"]:
        if self.k == 1:
            for v in range(self.p):
                yield FqElem(self, v)
        else:
            for tup in itertools.product(range(self.p), repeat=self.k):
                yield FqElem(self, tup)

    def random_elem(self, rng) -> "FqElem":
        if self.k == 1:
            return FqElem(self, rng.randrange(self.p))
        return FqElem(self, tuple(rng.randrange(self.p) for _ in range(self.k)))

    def _raw_str(self, a) -> str:
        """The text form of a raw value, or of the modulus (k + 1 coordinates)."""
        if self.k == 1:
            return str(a)
        z = self.gen_label
        terms = []
        for i in range(len(a) - 1, -1, -1):
            c = a[i]
            if c:
                terms.append((None if c == 1 and i else str(c),
                              f"{z}^{i}" if i > 1 else z if i else ""))
        return format_terms(terms)


class FqElem(RingElement):
    """A value of F_{p^k} tied to its context."""

    __slots__ = ("ctx", "raw")

    def __init__(self, ctx: FqCtx, raw):
        self.ctx = ctx
        self.raw = raw

    def _coerce(self, other):
        if isinstance(other, FqElem):
            if other.ctx != self.ctx:
                raise ValueError("field context mismatch")
            return other
        if isinstance(other, int):
            return FqElem(self.ctx, self.ctx.rfrom_int(other))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FqElem(self.ctx, self.ctx.radd(self.raw, o.raw))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FqElem(self.ctx, self.ctx.rsub(self.raw, o.raw))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FqElem(self.ctx, self.ctx.rmul(self.raw, o.raw))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FqElem(self.ctx, self.ctx.rdiv(self.raw, o.raw))

    def __neg__(self):
        return FqElem(self.ctx, self.ctx.rneg(self.raw))

    def __pow__(self, n: int):
        return FqElem(self.ctx, self.ctx.rpow(self.raw, n))

    def __eq__(self, other):
        if isinstance(other, int):
            return self.raw == self.ctx.rfrom_int(other)
        return (
            isinstance(other, FqElem)
            and self.ctx == other.ctx
            and self.raw == other.raw
        )

    def __hash__(self):
        return hash((self.ctx, self.raw))

    def __bool__(self):
        return not self.ctx.ris_zero(self.raw)

    def is_zero(self) -> bool:
        return self.ctx.ris_zero(self.raw)

    def frobenius(self, e: int = 1) -> "FqElem":
        return FqElem(self.ctx, self.ctx.rfrob(self.raw, e))

    def __repr__(self):
        return self.ctx._raw_str(self.raw)

