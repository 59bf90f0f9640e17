"""Finite separable extensions of K = F_q(x) presented as explicit towers.

A tower is a chain K = L_0 < L_1 < ... < L_n where L_i = L_{i-1}(g_i) for a
monic separable defining polynomial f_i over L_{i-1}.  A value at level i is
a tuple of level-(i-1) values of length deg f_i (level 0: a RatFunc).  The
product power basis g_n^{a_n} ... g_1^{a_1} orders flattened coordinates.

Galois action is by declared generator images only: automatic splitting
fields are out of scope, and every caller-declared map is verified to send
each generator to a root of its (mapped) defining polynomial.

Irreducibility of a level-1 defining polynomial is certified by
specialization: clear denominators to F_q[x][Y], then scan x -> c over
small extensions of F_q looking for an irreducible specialization of full
degree.  Success is sound (a factorization over F_q[x] would specialize);
failure after the bounded scan records the level as "assumed".
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .funcfield import Poly, RatFunc
from .gf import FqCtx, FqElem
from .linalg import SpanTracker, solve_in_span


# ---------------------------------------------------------------------------
# polynomials over K (coefficient lists of RatFunc), used for minimal
# polynomials, resultants and defining-polynomial bookkeeping
# ---------------------------------------------------------------------------

def kp_trim(coeffs: List[RatFunc]) -> List[RatFunc]:
    c = list(coeffs)
    while c and c[-1].is_zero():
        c.pop()
    return c


def kp_divmod(f, g, ctx):
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    zero = RatFunc.of(0, ctx)
    f = list(f)
    dg = len(g) - 1
    if len(f) - 1 < dg:
        return [], kp_trim(f)
    inv = RatFunc.of(1, ctx) / g[-1]
    quo = [zero] * (len(f) - dg)
    for i in range(len(f) - 1 - dg, -1, -1):
        c = f[i + dg] * inv
        if c.is_zero():
            continue
        quo[i] = c
        for j, m in enumerate(g):
            f[i + j] = f[i + j] - c * m
    return kp_trim(quo), kp_trim(f[:dg])


def kp_derivative(f, ctx):
    return kp_trim([f[i] * i for i in range(1, len(f))])


def kp_resultant(f, g, ctx) -> RatFunc:
    """Res(f, g) over K by the Euclidean remainder recursion."""
    one = RatFunc.of(1, ctx)
    zero = RatFunc.of(0, ctx)
    f, g = kp_trim(f), kp_trim(g)
    sign_flip = (ctx.p != 2)
    acc = one
    neg = False
    while True:
        if not f or not g:
            return zero
        df, dg = len(f) - 1, len(g) - 1
        if df < dg:
            f, g = g, f
            if sign_flip and (df * dg) % 2 == 1:
                neg = not neg
            continue
        if dg == 0:
            acc = acc * (g[0] ** df)
            break
        r = kp_divmod(f, g, ctx)[1]
        if not r:
            return zero
        dr = len(r) - 1
        acc = acc * (g[-1] ** (df - dr))
        if sign_flip and (df * dg) % 2 == 1:
            neg = not neg
        f, g = g, r
    return -acc if neg else acc


def kp_eval(f, t: "AlgElem") -> "AlgElem":
    tower = t.tower
    acc = tower.from_base(RatFunc.of(0, tower.base))
    for c in reversed(f):
        acc = acc * t + c
    return acc


def kp_str(f, var: str = "Y") -> str:
    if not f:
        return "0"
    parts = []
    for i in range(len(f) - 1, -1, -1):
        c = f[i]
        if c.is_zero():
            continue
        if i == 0:
            parts.append(repr(c))
            continue
        v = var if i == 1 else f"{var}^{i}"
        if c.is_one():
            parts.append(v)
        else:
            parts.append(f"({c!r})*{v}")
    return "+".join(parts)


# ---------------------------------------------------------------------------
# towers
# ---------------------------------------------------------------------------

class Level:
    __slots__ = ("label", "coeffs", "degree", "status")

    def __init__(self, label: str, coeffs, degree: int, status: str):
        self.label = label
        self.coeffs = coeffs  # tuple of lower-level values, length degree+1, monic
        self.degree = degree
        self.status = status  # "certified(...)" or "assumed"


class Tower:
    """Extension tower over K = F_q(x)."""

    def __init__(self, base: FqCtx):
        self.base = base
        self.levels: List[Level] = []

    # ---- construction

    def extend(self, label: str, coeffs: Sequence, assume_irreducible: bool = False) -> "Tower":
        """Append a level with monic defining polynomial given by `coeffs`
        (little-endian values of the current top level)."""
        lvl = len(self.levels)
        if any(existing.label == label for existing in self.levels) or label == "x":
            raise ValueError(f"generator label {label!r} is already taken")
        cs = [self._coerce_val(lvl, c) for c in coeffs]
        d = len(cs) - 1
        if d < 1:
            raise ValueError("defining polynomial must have degree >= 1")
        if cs[-1] != self._embed_to(0, lvl, RatFunc.of(1, self.base)):
            raise ValueError("defining polynomial must be monic")
        status = self._certify(lvl, cs, assume_irreducible)
        self._check_separable(lvl, cs)
        self.levels.append(Level(label, tuple(cs), d, status))
        return self

    def _certify(self, lvl: int, cs, assume: bool) -> str:
        if assume:
            return "assumed"
        if lvl > 0:
            # no specialization route above level 1 without subfield maps
            return "assumed"
        if self.base.k != 1:
            return "assumed"
        d = len(cs) - 1
        dens = [c.den for c in cs]
        lcm = Poly.one(self.base)
        for dd in dens:
            lcm = (lcm * dd) // lcm.gcd(dd)
        cleared = [c.num * (lcm // c.den) for c in cs]
        # scan c over F_q, F_{q^2}, ... using the built-in modulus table
        for j in (1, 2, 3, 4):
            try:
                ext = FqCtx(self.base.p, j * self.base.k)
            except ValueError:
                break
            for c in ext.elements():
                if cleared[-1].evaluate_ext(c).is_zero():
                    continue  # degree would drop
                img = Poly(ext, [cf.evaluate_ext(c) for cf in cleared])
                if img.degree() == d and img.is_irreducible():
                    return f"certified(x={c!r} in F_{ext.q})"
        return "assumed"

    def _check_separable(self, lvl: int, cs):
        der = [
            self._mul(lvl, cs[i], self._embed_to(0, lvl, RatFunc.of(i, self.base)))
            for i in range(1, len(cs))
        ]
        if len(self._poly_gcd(lvl, cs, der)) != 1:
            raise ValueError("defining polynomial is not separable")

    def _coerce_val(self, lvl: int, v):
        """Coerce v (int, FqElem, Poly, RatFunc, AlgElem, or nested value)
        into a level-`lvl` value."""
        if isinstance(v, AlgElem):
            if v.tower is not self:
                raise ValueError("element from another tower")
            return v.val  # only valid at top level
        if isinstance(v, (int, FqElem, Poly)):
            v = RatFunc.of(v, self.base)
        if isinstance(v, RatFunc):
            return self._embed_to(0, lvl, v)
        return v  # trust nested tuples (internal use)

    # ---- structural helpers on nested values

    def degree_total(self) -> int:
        d = 1
        for lv in self.levels:
            d *= lv.degree
        return d

    def _dim(self, lvl: int) -> int:
        d = 1
        for lv in self.levels[:lvl]:
            d *= lv.degree
        return d

    def _embed_to(self, from_lvl: int, to_lvl: int, v):
        """The level-`from_lvl` value v as a level-`to_lvl` value; from
        level 0 this gives the zero, the one and every element of K."""
        if from_lvl == to_lvl:
            return v
        zero = RatFunc.of(0, self.base)
        for l in range(to_lvl):
            d = self.levels[l].degree
            if l >= from_lvl:
                v = (v,) + (zero,) * (d - 1)
            zero = (zero,) * d
        return v

    def _is_zero(self, lvl: int, a) -> bool:
        if lvl == 0:
            return a.is_zero()
        return all(self._is_zero(lvl - 1, c) for c in a)

    def _add(self, lvl: int, a, b):
        if lvl == 0:
            return a + b
        return tuple(self._add(lvl - 1, x, y) for x, y in zip(a, b))

    def _sub(self, lvl: int, a, b):
        if lvl == 0:
            return a - b
        return tuple(self._sub(lvl - 1, x, y) for x, y in zip(a, b))

    def _neg(self, lvl: int, a):
        if lvl == 0:
            return -a
        return tuple(self._neg(lvl - 1, c) for c in a)

    def _mul(self, lvl: int, a, b):
        if lvl == 0:
            return a * b
        low = lvl - 1
        d = self.levels[low].degree
        zero = self._embed_to(0, low, RatFunc.of(0, self.base))
        prod = [zero] * (2 * d - 1)
        for i, x in enumerate(a):
            if not self._is_zero(low, x):
                for j, y in enumerate(b):
                    prod[i + j] = self._add(low, prod[i + j], self._mul(low, x, y))
        modulus = self.levels[lvl - 1].coeffs
        for i in range(2 * d - 2, d - 1, -1):
            c = prod[i]
            if self._is_zero(low, c):
                continue
            prod[i] = zero
            for j in range(d):
                prod[i - d + j] = self._sub(
                    low, prod[i - d + j], self._mul(low, c, modulus[j])
                )
        return tuple(prod[:d])

    def _pow(self, lvl: int, a, n: int):
        out = self._embed_to(0, lvl, RatFunc.of(1, self.base))
        base = a
        while n:
            if n & 1:
                out = self._mul(lvl, out, base)
            base = self._mul(lvl, base, base)
            n >>= 1
        return out

    def _flatten(self, lvl: int, a) -> List[RatFunc]:
        if lvl == 0:
            return [a]
        out = []
        for c in a:
            out.extend(self._flatten(lvl - 1, c))
        return out

    def _unflatten(self, lvl: int, flat: Sequence[RatFunc]):
        if lvl == 0:
            return flat[0]
        low = lvl - 1
        step = self._dim(low)
        return tuple(
            self._unflatten(low, flat[i * step : (i + 1) * step])
            for i in range(self.levels[low].degree)
        )

    # generic polynomial gcd with coefficients at level `lvl`

    def _trim_poly(self, lvl, f):
        f = list(f)
        while f and self._is_zero(lvl, f[-1]):
            f.pop()
        return f

    def _poly_gcd(self, lvl, f, g):
        f, g = self._trim_poly(lvl, f), self._trim_poly(lvl, g)
        while g:
            inv = self._inv(lvl, g[-1])
            r = list(f)
            dg = len(g) - 1
            while len(r) - 1 >= dg and r:
                c = self._mul(lvl, r[-1], inv)
                sh = len(r) - 1 - dg
                for j in range(len(g)):
                    r[sh + j] = self._sub(lvl, r[sh + j], self._mul(lvl, c, g[j]))
                r = self._trim_poly(lvl, r)
                if not r:
                    break
            f, g = g, r
        if f:
            inv = self._inv(lvl, f[-1])
            f = [self._mul(lvl, c, inv) for c in f]
        return f

    def _inv(self, lvl: int, a):
        if lvl == 0:
            if a.is_zero():
                raise ZeroDivisionError("division by zero in tower")
            return RatFunc.of(1, self.base) / a
        if self._is_zero(lvl, a):
            raise ZeroDivisionError("division by zero in tower")
        n = self._dim(lvl)
        cols = []
        basis_flat = [[RatFunc.of(1 if i == j else 0, self.base) for j in range(n)] for i in range(n)]
        for i in range(n):
            b = self._unflatten(lvl, basis_flat[i])
            cols.append(self._flatten(lvl, self._mul(lvl, a, b)))
        target = basis_flat[0]
        zero = RatFunc.of(0, self.base)
        one = RatFunc.of(1, self.base)
        sol = solve_in_span(cols, target, zero, one)
        if sol is None:
            raise ZeroDivisionError("non-invertible tower value (not a field?)")
        return self._unflatten(lvl, sol)

    # ---- public element constructors

    @property
    def top(self) -> int:
        return len(self.levels)

    def from_base(self, r) -> "AlgElem":
        return AlgElem(self, self._embed_to(0, self.top, RatFunc.of(r, self.base)))

    def gen(self, i: int = -1) -> "AlgElem":
        """The i-th tower generator as a top-level element."""
        if i < 0:
            i += len(self.levels)
        if not (0 <= i < len(self.levels)):
            raise IndexError("no such tower level")
        d = self.levels[i].degree
        zero = self._embed_to(0, i, RatFunc.of(0, self.base))
        val = (zero, self._embed_to(0, i, RatFunc.of(1, self.base))) + (zero,) * (d - 2)
        return AlgElem(self, self._embed_to(i + 1, self.top, val))

    def x(self) -> "AlgElem":
        return self.from_base(RatFunc.gen(self.base))

    def gen_labels(self) -> List[str]:
        return [lv.label for lv in self.levels]

    def from_coords(self, coords: Sequence[RatFunc]) -> "AlgElem":
        n = self.degree_total()
        flat = [RatFunc.of(c, self.base) for c in coords]
        if len(flat) != n:
            raise ValueError("coordinate vector has wrong length")
        return AlgElem(self, self._unflatten(self.top, flat))

    def describe(self) -> str:
        parts = [f"F{self.base.q}(x)"]
        for lv in self.levels:
            parts.append(f"{lv.label}[deg {lv.degree}, {lv.status}]")
        return " < ".join(parts)


class AlgElem:
    """Element of the top level of a tower."""

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
        return AlgElem(self.tower, self.tower._add(self.tower.top, self.val, o.val))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return AlgElem(self.tower, self.tower._sub(self.tower.top, self.val, o.val))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return AlgElem(self.tower, self.tower._neg(self.tower.top, self.val))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return AlgElem(self.tower, self.tower._mul(self.tower.top, self.val, o.val))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        inv = self.tower._inv(self.tower.top, o.val)
        return AlgElem(self.tower, self.tower._mul(self.tower.top, self.val, inv))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if n < 0:
            inv = self.tower._inv(self.tower.top, self.val)
            return AlgElem(self.tower, self.tower._pow(self.tower.top, inv, -n))
        return AlgElem(self.tower, self.tower._pow(self.tower.top, self.val, n))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.val == o.val

    def __hash__(self):
        return hash((id(self.tower), self.val))

    def is_zero(self) -> bool:
        return self.tower._is_zero(self.tower.top, self.val)

    def __bool__(self):
        return not self.is_zero()

    def coords(self) -> List[RatFunc]:
        """Flattened coordinates over K in the product power basis."""
        return self.tower._flatten(self.tower.top, self.val)

    def in_base(self) -> Optional[RatFunc]:
        """The value as an element of K, or None if it is not in K."""
        flat = self.coords()
        if any(not c.is_zero() for c in flat[1:]):
            return None
        return flat[0]

    def common_denominator(self) -> Poly:
        den = Poly.one(self.tower.base)
        for c in self.coords():
            den = (den * c.den) // den.gcd(c.den)
        return den

    def __repr__(self):
        labels = self.tower.gen_labels()

        def render(lvl, v):
            if lvl == 0:
                return repr(v), v.is_zero(), v.is_one()
            label = labels[lvl - 1]
            parts = []
            for i in range(len(v) - 1, -1, -1):
                s, zero, one = render(lvl - 1, v[i])
                if zero:
                    continue
                if i == 0:
                    parts.append(f"({s})" if "+" in s or "-" in s[1:] else s)
                    continue
                var = label if i == 1 else f"{label}^{i}"
                if one:
                    parts.append(var)
                elif "+" in s or "/" in s or "-" in s[1:]:
                    parts.append(f"({s})*{var}")
                else:
                    parts.append(f"{s}*{var}")
            if not parts:
                return "0", True, False
            joined = "+".join(parts)
            return joined, False, joined == "1"

        return render(self.tower.top, self.val)[0]


# ---------------------------------------------------------------------------
# minimal polynomials, discriminants, Galois maps
# ---------------------------------------------------------------------------

def minimal_polynomial(
    t: AlgElem, columns: Optional[List[List[RatFunc]]] = None
) -> Tuple[List[RatFunc], int]:
    """Monic minimal polynomial of t over K (little-endian RatFunc list)
    and its degree d = [K(t):K], by exact linear algebra on powers of t.
    When a list `columns` is given, the coordinate vectors of the power
    basis 1, t, ..., t^{d-1} found on the way are appended to it."""
    tower = t.tower
    if tower.degree_total() > 64:
        raise ValueError("tower degree exceeds the supported desk scale")
    ctx = tower.base
    zero, one = RatFunc.of(0, ctx), RatFunc.of(1, ctx)
    tracker = SpanTracker(zero, one)
    power = tower.from_base(one)
    while True:
        vec = power.coords()
        combo = tracker.add(vec)
        if combo is not None:
            coeffs = [-c for c in combo] + [one]
            return kp_trim(coeffs), len(coeffs) - 1
        if columns is not None:
            columns.append(vec)
        power = power * t


def discriminant(t: AlgElem, minpoly: Optional[Tuple[List[RatFunc], int]] = None) -> RatFunc:
    """discr_K(t) = (-1)^{d(d-1)/2} Res(g, g') for the monic minimal
    polynomial g of t; nonzero exactly when t is separable of degree d >= 2.
    A caller that already holds `minimal_polynomial(t)` passes it as
    `minpoly`."""
    tower = t.tower
    ctx = tower.base
    g, d = minpoly if minpoly is not None else minimal_polynomial(t)
    if d < 2:
        raise ValueError("discriminant needs degree >= 2 over K")
    gp = kp_derivative(g, ctx)
    if len(tower._poly_gcd(0, g, gp)) != 1:
        raise ValueError("inseparable element: gcd(g, g') is nontrivial")
    res = kp_resultant(g, gp, ctx)
    if ctx.p != 2 and (d * (d - 1) // 2) % 2 == 1:
        res = -res
    return res


def frobenius_power(t: AlgElem, e: int) -> AlgElem:
    """t -> t^{p^e}."""
    if e < 0:
        raise ValueError("Frobenius exponent must be non-negative")
    return t ** (t.tower.base.p ** e)


class GaloisMap:
    """Automorphism of the tower over K, declared by generator images."""

    def __init__(self, tower: Tower, images: dict, name: str = "sigma"):
        self.tower = tower
        self.name = name
        self.images = {}
        for lv in tower.levels:
            if lv.label not in images:
                raise ValueError(f"missing image for generator {lv.label!r}")
            img = images[lv.label]
            if not isinstance(img, AlgElem) or img.tower is not tower:
                raise ValueError("images must be elements of the same tower")
            self.images[lv.label] = img
        self._verify()

    def _verify(self):
        # each image must be a root of the sigma-mapped defining polynomial
        for i, lv in enumerate(self.tower.levels):
            coeffs = [
                self.apply(AlgElem(self.tower, self.tower._embed_to(i, self.tower.top, c)))
                for c in lv.coeffs
            ]
            img = self.images[lv.label]
            acc = self.tower.from_base(0)
            for c in reversed(coeffs):
                acc = acc * img + c
            if not acc.is_zero():
                raise ValueError(
                    f"image of {lv.label!r} is not a root of its defining polynomial"
                )

    def apply(self, t: AlgElem) -> AlgElem:
        tower = self.tower
        if t.tower is not tower:
            raise ValueError("element of a different tower")

        def walk(lvl, v):
            if lvl == 0:
                return tower.from_base(v)
            img = self.images[tower.levels[lvl - 1].label]
            acc = tower.from_base(0)
            for c in reversed(v):
                acc = acc * img + walk(lvl - 1, c)
            return acc

        return walk(tower.top, t.val)

    def __repr__(self):
        ims = ", ".join(f"{k} -> {v!r}" for k, v in self.images.items())
        return f"{self.name}: {ims}"


class ConjugateSet:
    """An element together with its d distinct conjugates over K."""

    __slots__ = ("element", "conjugates")

    def __init__(self, element: AlgElem, conjugates: Sequence[AlgElem]):
        self.element = element
        self.conjugates = tuple(conjugates)

    def __len__(self):
        return len(self.conjugates)

    def product_discriminant(self) -> RatFunc:
        """prod_{i<j} (a_i - a_j)^2, which must land in K."""
        tower = self.element.tower
        acc = tower.from_base(1)
        cs = self.conjugates
        for i in range(len(cs)):
            for j in range(i + 1, len(cs)):
                diff = cs[i] - cs[j]
                acc = acc * diff * diff
        r = acc.in_base()
        if r is None:
            raise ValueError("conjugate product did not land in K")
        return r


def conjugates(t: AlgElem, maps: Sequence[GaloisMap]) -> ConjugateSet:
    """Images of t under the given maps; they must be exactly the d distinct
    roots of the minimal polynomial of t."""
    g, d = minimal_polynomial(t)
    images = []
    for m in maps:
        img = m.apply(t)
        if all(not (img == u) for u in images):
            images.append(img)
    if len(images) != d:
        raise ValueError(
            f"maps induce {len(images)} distinct images, need d={d} (cosets not covered)"
        )
    for img in images:
        if not kp_eval(g, img).is_zero():
            raise ValueError("a declared conjugate is not a root of the minimal polynomial")
    return ConjugateSet(t, images)


def conjugate_difference_unit(s: ConjugateSet, t: ConjugateSet, i: int, j: int) -> AlgElem:
    """(t_(i) - t_(j)) / (s_(i) - s_(j)) inside the ambient tower."""
    if i == j:
        raise ValueError("need distinct indices")
    ds = s.conjugates[i] - s.conjugates[j]
    if ds.is_zero():
        raise ValueError("coincident conjugates")
    dt = t.conjugates[i] - t.conjugates[j]
    return dt / ds
