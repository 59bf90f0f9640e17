"""Finitely generated multiplicative subgroups of F_q(x)* and the
constructive x + y = 1 machinery of characteristic p.

A group context holds a coprime basis (gcd-refinement of the generators'
numerators and denominators, each squarefree-decomposed first), the lattice
spanned by the generators' exponent vectors, and the full constant subgroup
F_q* as torsion.  The radical H is the saturation of that lattice together
with F_q*; H/H^p is an F_p-vector space of dimension rank(H), which makes
the coset enumeration of the solver finite.

The solver turns the constructive finiteness proof into an algorithm:
enumerate coset representatives eps of H/H^p; for each ordered pair
(eps_i, eps_j) with both nontrivial and eps_j in L^p + L^p eps_i, the
directness of that sum pins the unique candidate solution, which is kept
when it lands in H and descends into G after at most v_p([H:G]) Frobenius
twists.  Write eps = sum d_m^p x^m over the p-basis.  Then eps_j = a + b
eps_i with a, b in L^p exactly when the tails (d_1..d_{p-1}) of the two
cosets are proportional, and the factor b is never 0 because a nontrivial
coset is not a p-th power.  So the cosets are bucketed by the projective
class of their tail, (m0, d_m/d_m0) at the first nonzero d_m0, and only
pairs within a bucket are solved.  Values are built in exponent space (the
basis is coprime and monic), and only x1, y1 with x = x1^p eps_i are
factored.  Torsion solutions (inside F_q*) are enumerated directly and
grouped into Frobenius orbits.

The four-term p-power identity A p^{X1} - A p^{X2} + B p^{X3} - B p^{X4} = 0
is explored by bounded enumeration only; the full difference set is not
enumerable and nothing here claims completeness beyond the box.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from typing import List, Optional, Sequence, Tuple

from .funcfield import Poly, RatFunc, split_over
from .gf import FqCtx, FqElem

# the most torsion candidates (q - 2) or cosets of H/H^p (p^rank) that
# solve_xy1 enumerates: 3^6, the cosets of the largest rank over F_3
ENUMERATION_CAP = 3 ** 6

# ---------------------------------------------------------------------------
# small exact integer lattice helpers
# ---------------------------------------------------------------------------

def _hnf_rows(rows: List[List[int]]) -> List[List[int]]:
    """Row-style Hermite normal form, one per lattice: nonzero echelon rows,
    positive pivots, every entry above a pivot in [0, pivot)."""
    rows = [list(r) for r in rows if any(r)]
    if not rows:
        return []
    ncols = len(rows[0])
    out = []
    col = 0
    while rows and col < ncols:
        piv = None
        for r in rows:
            if r[col]:
                if piv is None or abs(r[col]) < abs(piv[col]):
                    piv = r
        if piv is None:
            col += 1
            continue
        rows.remove(piv)
        if piv[col] < 0:
            piv = [-v for v in piv]
        done = True
        for r in rows:
            if r[col]:
                k = r[col] // piv[col]
                for i in range(ncols):
                    r[i] -= k * piv[i]
                if r[col]:
                    done = False
        if done:
            out.append(piv)
            rows = [r for r in rows if any(r)]
            col += 1
        else:
            rows.append(piv)
    # reduce above-pivot entries top-down: reducing by row i changes only
    # the columns from its pivot on, so earlier pivots stay reduced
    for i in range(len(out)):
        pc = next(c for c in range(ncols) if out[i][c])
        for j in range(i):
            k = out[j][pc] // out[i][pc]
            if k:
                out[j] = [a - k * b for a, b in zip(out[j], out[i])]
    return out


def _int_kernel(mat: List[List[int]], ncols: int) -> List[List[int]]:
    """Saturated integer basis of the right kernel {v in Z^n : mat . v = 0}:
    the rows of the Hermite normal form of [mat^T | identity] that vanish on
    the mat^T part (Cohen, GTM 138, ch. 2)."""
    m = len(mat)
    rows = [[r[j] for r in mat] + [int(i == j) for i in range(ncols)] for j in range(ncols)]
    return [row[m:] for row in _hnf_rows(rows) if not any(row[:m])]


def _saturate(rows: List[List[int]], ncols: int) -> Tuple[List[List[int]], List[List[int]]]:
    """(kernel, saturation): an integer basis of the right kernel of the
    rows, and a basis of the saturation (Q-span intersected with Z^n) of the
    row span.  The saturation is the double integer kernel, since the
    Q-row-space is the orthogonal complement of the right kernel; so v lies
    in the Q-span exactly when k.v = 0 for every kernel vector k."""
    identity = [[1 if i == j else 0 for j in range(ncols)] for i in range(ncols)]
    rows = [r for r in rows if any(r)]
    if not rows:
        return identity, []
    ker = _int_kernel(rows, ncols)
    if not ker:
        return [], identity
    return ker, _hnf_rows(_int_kernel(ker, ncols))


def _pivot_product(hnf: List[List[int]]) -> int:
    return math.prod(next(c for c in row if c) for row in hnf)


def _in_lattice(hnf: List[List[int]], v: Sequence[int]) -> bool:
    v = list(v)
    for row in hnf:
        pc = next(c for c in range(len(row)) if row[c])
        if v[pc] % row[pc] != 0:
            return False
        k = v[pc] // row[pc]
        v = [a - k * b for a, b in zip(v, row)]
    return not any(v)


# ---------------------------------------------------------------------------
# group contexts
# ---------------------------------------------------------------------------

class GroupCtx:
    """Multiplicative subgroup of F_q(x)*: torsion F_q* times the lattice of
    exponent vectors over a coprime squarefree monic basis."""

    def __init__(self, ctx: FqCtx, basis: List[Poly], gen_vectors: List[List[int]],
                 gen_torsion: List[FqElem]):
        if not all(b.is_monic() for b in basis):
            raise ValueError("a group basis must be monic")
        self.ctx = ctx
        self.basis = tuple(basis)
        self.rank = len(basis)
        self.gen_vectors = tuple(tuple(v) for v in gen_vectors)
        self.gen_torsion = tuple(gen_torsion)
        self.lattice = _hnf_rows([list(v) for v in gen_vectors])
        self._kernel, self.sat_basis = _saturate([list(v) for v in gen_vectors], self.rank)

    def in_lattice(self, v: Sequence[int]) -> bool:
        return _in_lattice(self.lattice, v)

    def in_saturation(self, v: Sequence[int]) -> bool:
        return all(sum(a * b for a, b in zip(k, v)) == 0 for k in self._kernel)

    def value(self, torsion: FqElem, exponents: Sequence[int]) -> RatFunc:
        """tau * prod basis_i^{e_i}, already in lowest terms: the basis is
        monic and coprime, so num and den are the positive and negative powers."""
        num, den = Poly.constant(torsion), Poly.one(self.ctx)
        for b, e in zip(self.basis, exponents):
            if e > 0:
                num = num * b ** e
            elif e < 0:
                den = den * b ** -e
        return RatFunc._coprime(num, den) if num else RatFunc(num)

    def factor_over_basis(self, a: RatFunc) -> Optional[Tuple[FqElem, Tuple[int, ...]]]:
        """Write a = tau * prod basis_i^{e_i}; None when a does not factor
        over (torsion x basis)."""
        return None if a.is_zero() else _factor_over(self.basis, a)

    def __repr__(self):
        bs = ", ".join(repr(b) for b in self.basis)
        return f"<group over F{self.ctx.q}(x): basis [{bs}], rank {self.rank}>"


def _factor_over(basis: Sequence[Poly], a: RatFunc) -> Optional[Tuple[FqElem, Tuple[int, ...]]]:
    """(tau, e) with a = tau * prod basis_i^{e_i} (a != 0, a coprime monic
    basis), or None: a factors when `split_over` leaves a constant."""
    vec, num, den = split_over(basis, a)
    return (num.coeff(0), vec) if num.is_constant() and den.is_one() else None


@dataclass(frozen=True)
class GroupElem:
    gctx: GroupCtx
    torsion: FqElem
    exponents: Tuple[int, ...]
    known_value: Optional[RatFunc] = field(default=None, compare=False)

    def value(self) -> RatFunc:
        if self.known_value is not None:
            return self.known_value
        return self.gctx.value(self.torsion, self.exponents)

    def key(self):
        return (self.torsion.raw, self.exponents)

    def pth_power(self, n: int = 1) -> "GroupElem":
        p = self.gctx.ctx.p
        return GroupElem(
            self.gctx,
            self.torsion.frobenius(n),
            tuple(e * p ** n for e in self.exponents),
        )

    def __repr__(self):
        return repr(self.value())


def build_group(generators: Sequence, ctx: FqCtx) -> GroupCtx:
    """Coprime-basis context for the group generated by the given nonzero
    elements of F_q(x)*, by iterated gcd-refinement."""
    gens = [RatFunc.of(g, ctx) for g in generators]
    if any(g.is_zero() for g in gens):
        raise ValueError("zero generator")

    pool: List[Poly] = []
    for g in gens:
        for poly in (g.num, g.den):
            for sf, _ in poly.monic().squarefree_decomposition():
                if not sf.is_constant():
                    pool.append(sf)

    base: List[Poly] = []

    def insert(f: Poly):
        if f.is_constant():
            return
        i = 0
        while i < len(base):
            b = base[i]
            g = f.gcd(b)
            if g.is_one():
                i += 1
                continue
            # split b (and f) along the common part and restart the scan
            base.pop(i)
            parts = [g, b // g]
            rest = f // g
            for part in parts:
                insert(part)
            insert(rest)
            return
        base.append(f)

    for f in pool:
        insert(f)
    base.sort(key=Poly.sort_key)

    factored = [_factor_over(base, g) for g in gens]
    if None in factored:
        raise AssertionError("generator did not factor over the refined basis")
    return GroupCtx(ctx, base, [list(f[1]) for f in factored], [f[0] for f in factored])


# ---------------------------------------------------------------------------
# p-th power decomposition over the p-basis of F_q(x)
# ---------------------------------------------------------------------------

def pth_power_decompose(a: RatFunc) -> List[RatFunc]:
    """Unique c_0..c_{p-1} in K with a = sum c_m^p x^m over the p-basis
    {1, x, ..., x^{p-1}} of K over K^p."""
    w = a.num * a.den ** (a.ctx.p - 1)
    return [RatFunc(g, a.den) for g in w.pth_parts()]


# ---------------------------------------------------------------------------
# the x + y = 1 solver and its brute-force oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolutionFamily:
    """Orbit representative: all (x0^{p^k}, y0^{p^k}), k >= 0, solve x+y=1."""

    x0: GroupElem
    y0: GroupElem
    torsion: bool

    def describe(self) -> str:
        return f"({self.x0!r}, {self.y0!r}) ^ p^k, k>=0"

    def orbit_in_box(self, box: int):
        """Orbit members whose exponent vectors stay in the max-norm box."""
        out = []
        k = 0
        while True:
            x = self.x0.pth_power(k) if k else self.x0
            y = self.y0.pth_power(k) if k else self.y0
            if any(abs(e) > box for e in x.exponents + y.exponents):
                break
            out.append((x, y))
            if not any(x.exponents + y.exponents):
                break  # torsion orbit repeats
            k += 1
        return out


def solve_xy1(gctx: GroupCtx, height_bound: int = 64) -> List[SolutionFamily]:
    """All solutions of x + y = 1 in G^2 as finitely many Frobenius-orbit
    families, by coset enumeration over H/H^p and p-th power descent."""
    ctx = gctx.ctx
    p = ctx.p
    if gctx.rank > 6:
        raise ValueError("rank too large for the desk-scale coset enumeration")
    sat = gctx.sat_basis
    if ctx.q - 2 > ENUMERATION_CAP:
        raise ValueError(f"{ctx.q - 2} torsion candidates exceed the desk-scale "
                         f"cap of {ENUMERATION_CAP}")
    if p ** len(sat) > ENUMERATION_CAP:
        raise ValueError(f"{p ** len(sat)} cosets of H/H^p exceed the desk-scale "
                         f"cap of {ENUMERATION_CAP}")

    families: List[SolutionFamily] = []

    # torsion families: solutions inside F_q* x F_q*, one per Frobenius orbit
    # (Frobenius has order k on F_q, q = p^k)
    seen = set()
    zvec = (0,) * gctx.rank
    for xe in ctx.elements():
        ye = ctx.one - xe
        if xe.is_zero() or ye.is_zero() or (xe.raw, ye.raw) in seen:
            continue
        orbit = [(xe, ye)]
        for _ in range(1, ctx.k):
            orbit.append((orbit[-1][0].frobenius(), orbit[-1][1].frobenius()))
        seen.update((a.raw, b.raw) for a, b in orbit)
        rep = min(orbit, key=lambda t: (t[0].raw, t[1].raw))
        families.append(SolutionFamily(
            GroupElem(gctx, rep[0], zvec), GroupElem(gctx, rep[1], zvec), True))

    # the descent: p^k v lies in L for some k only when the order of v + L
    # in Sat/L is a power of p; it divides the index [Sat:L], so the least
    # such k is at most v_p([Sat:L]).  The two HNFs span the same Q-space,
    # so they share their pivot columns and the index is the pivot ratio.
    index = _pivot_product(gctx.lattice) // _pivot_product(sat)
    descent = 0
    while index % p == 0 and descent < height_bound:
        index //= p
        descent += 1

    # nontorsion families via H/H^p cosets, bucketed by the projective class
    # of the p-basis tail (d_1..d_{p-1}) of each coset's value
    rho = len(sat)
    buckets = {}
    for tup in itertools.product(range(p), repeat=rho):
        if not any(tup):
            continue
        vec = tuple(
            sum(tup[i] * sat[i][c] for i in range(rho)) for c in range(gctx.rank)
        )
        val = gctx.value(ctx.one, vec)
        d = pth_power_decompose(val)
        m0 = next((m for m in range(1, p) if not d[m].is_zero()), None)
        if m0 is None:
            raise AssertionError("nontrivial coset representative is a p-th power")
        key = (m0, tuple(d[m] / d[m0] for m in range(1, p)))
        buckets.setdefault(key, []).append((vec, val, d))

    one_rf = RatFunc.of(1, ctx)
    for (m0, _), members in buckets.items():
        for vi, val_i, d in members:
            for vj, val_j, c in members:
                # c = a + b d over L^p with b = c_m0 / d_m0 != 0
                b_val = c[m0] / d[m0]
                a_val = c[0] - b_val * d[0]
                if a_val.is_zero():
                    continue
                y1 = one_rf / a_val
                x1 = -b_val / a_val
                x = x1 ** p * val_i
                y = y1 ** p * val_j
                if x + y != one_rf:
                    raise AssertionError("coset solution does not satisfy x + y = 1")
                # x = x1^p * prod basis^{v_i}: factor x1 only
                f1x = gctx.factor_over_basis(x1)
                f1y = gctx.factor_over_basis(y1)
                if f1x is None or f1y is None:
                    continue
                ex = tuple(p * e + v for e, v in zip(f1x[1], vi))
                ey = tuple(p * e + v for e, v in zip(f1y[1], vj))
                if not (gctx.in_saturation(ex) and gctx.in_saturation(ey)):
                    continue
                # descend: least p-power twist landing inside G
                n = next((k for k in range(descent + 1)
                          if gctx.in_lattice([e * p ** k for e in ex])
                          and gctx.in_lattice([e * p ** k for e in ey])), None)
                if n is None:
                    continue
                q = p ** n
                families.append(SolutionFamily(
                    GroupElem(gctx, f1x[0].frobenius(n + 1), tuple(e * q for e in ex), x ** q),
                    GroupElem(gctx, f1y[0].frobenius(n + 1), tuple(e * q for e in ey), y ** q),
                    False))

    families.sort(key=lambda f: (not f.torsion, f.x0.key(), f.y0.key()))
    return families


def brute_force_xy1(gctx: GroupCtx, exponent_box: int) -> List[Tuple[GroupElem, GroupElem]]:
    """Independent oracle: all (x, y) in G^2 with x + y = 1 and both
    exponent vectors within the max-norm box, by exhaustive expansion."""
    ctx = gctx.ctx
    r = gctx.rank
    count = (2 * exponent_box + 1) ** r * (ctx.q - 1)
    if count > 2_000_000:
        raise ValueError("enumeration budget exceeded")
    out = []
    one = RatFunc.of(1, ctx)
    for vec in itertools.product(range(-exponent_box, exponent_box + 1), repeat=r):
        if not gctx.in_lattice(vec):
            continue
        for tau in ctx.elements():
            if tau.is_zero():
                continue
            x = gctx.value(tau, vec)
            y = one - x
            if y.is_zero():
                continue
            fy = gctx.factor_over_basis(y)
            if fy is None:
                continue
            if any(abs(e) > exponent_box for e in fy[1]):
                continue
            if not gctx.in_lattice(fy[1]):
                continue
            out.append(
                (GroupElem(gctx, tau, tuple(vec)), GroupElem(gctx, fy[0], fy[1]))
            )
    out.sort(key=lambda t: (t[0].key(), t[1].key()))
    return out


def brute_force_xyz1(gctx: GroupCtx, exponent_box: int):
    """Bounded search for x + y + z = 1 in G^3 (no structural claim: the
    three-term theory of this setting is nonconstructive)."""
    ctx = gctx.ctx
    r = gctx.rank
    singles = []
    for vec in itertools.product(range(-exponent_box, exponent_box + 1), repeat=r):
        if not gctx.in_lattice(vec):
            continue
        for tau in ctx.elements():
            if not tau.is_zero():
                singles.append(GroupElem(gctx, tau, tuple(vec)))
    if len(singles) ** 2 > 2_000_000:
        raise ValueError("enumeration budget exceeded")
    one = RatFunc.of(1, ctx)
    out = []
    for gx in singles:
        vx = gx.value()
        for gy in singles:
            z = one - vx - gy.value()
            if z.is_zero():
                continue
            fz = gctx.factor_over_basis(z)
            if fz is None or not gctx.in_lattice(fz[1]):
                continue
            if any(abs(e) > exponent_box for e in fz[1]):
                continue
            out.append((gx, gy, GroupElem(gctx, fz[0], fz[1])))
    out.sort(key=lambda t: (t[0].key(), t[1].key(), t[2].key()))
    return out


# ---------------------------------------------------------------------------
# exponent bounds and the four-term difference set
# ---------------------------------------------------------------------------

def _ord_p(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def subsum_exponent_bound(e: Sequence[int], p: int) -> int:
    """A sound C1 such that every integer tuple (u_i) with
    sum e_i p^{u_i} in Z \\ {0} and no vanishing proper subsum satisfies
    u_i + C1 >= 0, computed by the inductive scheme: one term forces
    u + ord_p(e) >= 0; with more terms, |sum| >= 1 bounds max(u_i) below
    by -C2, and the remaining terms scaled by p^{C2} recurse.

    A zero entry makes the hypotheses unsatisfiable and C1 = 0 is returned.
    """
    e = list(e)
    if not e:
        raise ValueError("empty coefficient list")
    if any(v == 0 for v in e):
        return 0
    if len(e) == 1:
        return _ord_p(abs(e[0]), p)
    # if all u_i <= -C2-1 then |sum| <= N max|e| p^{-C2-1} < 1
    c2 = 0
    n_max = len(e) * max(abs(v) for v in e)
    while p ** (c2 + 1) <= n_max:
        c2 += 1
    best = 0
    for j in range(len(e)):
        sub = e[:j] + e[j + 1 :]
        best = max(best, subsum_exponent_bound(sub, p))
    return c2 + best


def subsum_bound_violations(e: Sequence[int], p: int, c1: int, box: int):
    """Brute-force check of `subsum_exponent_bound`: tuples u in the given
    max-norm box satisfying the two side conditions but with min u < -C1.
    Empty result = no counterexample in the box."""
    e = list(e)
    n = len(e)
    shift = p ** box
    idx = list(range(n))
    proper = [
        js for r in range(1, n) for js in itertools.combinations(idx, r)
    ]
    violations = []
    for u in itertools.product(range(-box, box + 1), repeat=n):
        terms = [e[i] * p ** (u[i] + box) for i in idx]
        total = sum(terms)
        if total == 0 or total % shift != 0:
            continue
        if any(sum(terms[j] for j in js) == 0 for js in proper):
            continue
        if min(u) < -c1:
            violations.append(u)
    return violations


def four_term_delta_set(p: int, a: int, b: int, exponent_box: int) -> List[int]:
    """Observed values of (x3 - x4) - (x1 - x2) over all solutions of
    A p^{X1} - A p^{X2} + B p^{X3} - B p^{X4} = 0 with 0 <= X_i <= box.

    Box-bounded observation only; the full difference set is finite but far
    beyond enumeration, so this must never be read as complete.
    """
    if a == b:
        raise ValueError("the coefficients must be distinct")
    if a == 0 or b == 0 or a % p == 0 or b % p == 0:
        raise ValueError("coefficients must be nonzero and coprime to p")
    deltas = set()
    powers = [p ** i for i in range(exponent_box + 1)]
    for x1, x2, x3, x4 in itertools.product(range(exponent_box + 1), repeat=4):
        if a * powers[x1] - a * powers[x2] + b * powers[x3] - b * powers[x4] == 0:
            deltas.add((x3 - x4) - (x1 - x2))
    return sorted(deltas)


def ess_bound_log10(n: int, r: int) -> Decimal:
    """log10 of the characteriztic-zero bound exp((6n)^{3n}(nr+1)) on
    non-degenerate solution counts, evaluated to 50 significant digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        return Decimal((6 * n) ** (3 * n) * (n * r + 1)) / Decimal(10).ln()
