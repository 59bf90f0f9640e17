"""Sparse bivariate polynomials over F_q and the symmetric subring.

This is the backend for the base ring O = F_q[x+y, xy] inside F_q[x, y]:
the quadratic example where the nontrivial automorphism of Frac(O) swaps
the two variables.  Only what that example needs is here: arithmetic, the
swap, exact division, scaling to monic, and rewriting a symmetric
polynomial in the elementary symmetric generators e1 = x+y, e2 = xy
(Gauss's algorithm by lexicographic leading-term elimination).

Over a prime field (raw coefficients are ints) a product adds the
unreduced int products of each exponent and reduces every output
coefficient mod p once, dropping zeros in that pass; over F_{p^k}, k > 1,
each term product goes through `FqCtx.radd`/`rmul`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .gf import FqCtx, FqElem, RingElement, format_terms, power


class BivarPoly(RingElement):
    """Bivariate polynomial as a sparse exponent map {(i, j): coeff}."""

    __slots__ = ("ctx", "terms", "names")

    def __init__(self, ctx: FqCtx, terms: Dict[Tuple[int, int], object] = None,
                 names: Tuple[str, str] = ("x", "y")):
        clean = {}
        for (i, j), c in (terms or {}).items():
            if isinstance(c, FqElem):
                c = c.raw
            elif isinstance(c, int):
                c = ctx.rfrom_int(c)
            if not ctx.ris_zero(c):
                clean[(i, j)] = c
        self.ctx = ctx
        self.terms = clean
        self.names = names

    @classmethod
    def gens(cls, ctx: FqCtx, names=("x", "y")):
        a = cls(ctx, {(1, 0): ctx.rone}, names)
        b = cls(ctx, {(0, 1): ctx.rone}, names)
        return a, b

    @classmethod
    def constant(cls, ctx: FqCtx, c, names=("x", "y")) -> "BivarPoly":
        return cls(ctx, {(0, 0): c}, names)

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(e == (0, 0) for e in self.terms)

    def constant_value(self) -> FqElem:
        if not self.is_constant():
            raise ValueError("not a constant")
        return FqElem(self.ctx, self.terms.get((0, 0), self.ctx.rzero))

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(i + j for i, j in self.terms)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (
            isinstance(other, BivarPoly)
            and self.ctx == other.ctx
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def _coerce(self, other) -> Optional["BivarPoly"]:
        if isinstance(other, BivarPoly):
            if other.ctx != self.ctx:
                raise ValueError("polynomials over different fields")
            return other
        if isinstance(other, (int, FqElem)):
            return BivarPoly.constant(self.ctx, self.ctx.elem(other), self.names)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ctx = self.ctx
        out = dict(self.terms)
        for e, c in o.terms.items():
            _accumulate(ctx, out, e, c)
        return _wrap(ctx, out, self.names)

    def __neg__(self):
        ctx = self.ctx
        return _wrap(ctx, {e: ctx.rneg(c) for e, c in self.terms.items()}, self.names)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ctx = self.ctx
        out = {}
        if ctx.k == 1:
            # prime field: unreduced int sums, one reduction per coefficient
            get, p, other_terms = out.get, ctx.p, o.terms.items()
            for (i1, j1), c1 in self.terms.items():
                for (i2, j2), c2 in other_terms:
                    e = (i1 + i2, j1 + j2)
                    out[e] = get(e, 0) + c1 * c2
            return _wrap(ctx, {e: r for e, c in out.items() if (r := c % p)}, self.names)
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in o.terms.items():
                _accumulate(ctx, out, (i1 + i2, j1 + j2), ctx.rmul(c1, c2))
        return _wrap(ctx, out, self.names)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return power(self, n) if n else BivarPoly.constant(self.ctx, 1, self.names)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_constant():
            inv = self.ctx.rinv(o.constant_value().raw)
            return self * FqElem(self.ctx, inv)
        q = self.divide_exact(o)
        if q is None:
            raise ValueError("inexact bivariate division")
        return q

    def swap(self) -> "BivarPoly":
        """The automorphism x <-> y."""
        return _wrap(self.ctx, {(j, i): c for (i, j), c in self.terms.items()}, self.names)

    def antisym(self) -> "BivarPoly":
        """u - sigma(u) in one pass: 0 on the diagonal, and at (j, i) the
        negative of the coefficient at (i, j), a term of u or not."""
        ctx, terms = self.ctx, self.terms
        prime, p, zero = ctx.k == 1, ctx.p, ctx.rzero
        out = {}
        for (i, j), c in terms.items():
            # each pair once, from its i > j side when both are terms
            if i > j or i < j and (j, i) not in terms:
                m = terms.get((j, i), zero)
                d = (c - m) % p if prime else ctx.rsub(c, m)
                if d != zero:
                    out[(i, j)], out[(j, i)] = d, p - d if prime else ctx.rneg(d)
        return _wrap(ctx, out, self.names)

    def is_symmetric(self) -> bool:
        for (i, j), c in self.terms.items():
            if self.terms.get((j, i)) != c:
                return False
        return True

    def _leading(self):
        return max(self.terms)  # pure lex with x > y

    def monic(self) -> "BivarPoly":
        """self scaled to lex-leading coefficient 1; 0 stays 0."""
        if not self.terms:
            return self
        ctx = self.ctx
        inv = ctx.rinv(self.terms[self._leading()])
        if ctx.k == 1:
            p = ctx.p
            return _wrap(ctx, {e: c * inv % p for e, c in self.terms.items()}, self.names)
        return _wrap(ctx, {e: ctx.rmul(c, inv) for e, c in self.terms.items()}, self.names)

    def divide_exact(self, d: "BivarPoly") -> Optional["BivarPoly"]:
        """Exact division in F_q[x, y]; None when d does not divide self."""
        if d.is_zero():
            raise ZeroDivisionError("bivariate division by zero")
        ctx = self.ctx
        r = dict(self.terms)  # the remainder, reduced in place
        out = {}
        ld = d._leading()
        cd_inv = ctx.rinv(d.terms[ld])
        while r:
            lr = max(r)
            e = (lr[0] - ld[0], lr[1] - ld[1])
            if e[0] < 0 or e[1] < 0:
                return None
            c = out[e] = ctx.rmul(r[lr], cd_inv)
            minus_c = ctx.rneg(c)
            for (i, j), cd in d.terms.items():
                _accumulate(ctx, r, (i + e[0], j + e[1]), ctx.rmul(minus_c, cd))
        return _wrap(ctx, out, self.names)

    def sym_decompose(self) -> Optional["BivarPoly"]:
        """Rewrite a symmetric polynomial in e1 = x+y, e2 = xy.

        Returns g with g(x+y, xy) = self, or None (a failure signal, not an
        exception) when self is not symmetric.
        """
        if not self.is_symmetric():
            return None
        ctx = self.ctx
        e1 = BivarPoly(ctx, {(1, 0): 1, (0, 1): 1}, self.names)
        e2 = BivarPoly(ctx, {(1, 1): 1}, self.names)
        pow_cache = {}

        def sym_power(a: int, b: int) -> BivarPoly:
            if (a, b) not in pow_cache:
                pow_cache[(a, b)] = (e1 ** a) * (e2 ** b)
            return pow_cache[(a, b)]

        r = self
        out = {}
        while not r.is_zero():
            (i, j) = r._leading()
            # symmetric leading lex term always has i >= j
            c = r.terms[(i, j)]
            out[(i - j, j)] = c
            r = r - sym_power(i - j, j) * FqElem(ctx, c)
        return _wrap(ctx, out, ("e1", "e2"))

    def __repr__(self):
        ctx, terms = self.ctx, self.terms
        nx, ny = self.names
        parts = []
        for (i, j) in sorted(terms, reverse=True):
            c = terms[(i, j)]
            xs = f"{nx}^{i}" if i > 1 else nx if i else ""
            ys = f"{ny}^{j}" if j > 1 else ny if j else ""
            mono = f"{xs}*{ys}" if xs and ys else xs or ys
            parts.append((None if c == ctx.rone and mono else ctx._raw_str(c), mono))
        return format_terms(parts)


def _accumulate(ctx: FqCtx, out: dict, e: Tuple[int, int], c) -> None:
    """Add the raw c to the term of out at e in place; a sum of 0 drops it."""
    s = ctx.radd(out.get(e, ctx.rzero), c)
    if ctx.ris_zero(s):
        out.pop(e, None)
    else:
        out[e] = s


def _wrap(ctx: FqCtx, terms: dict, names: Tuple[str, str]) -> BivarPoly:
    """A BivarPoly over terms that are already raw and nonzero."""
    r = BivarPoly.__new__(BivarPoly)
    r.ctx, r.terms, r.names = ctx, terms, names
    return r
