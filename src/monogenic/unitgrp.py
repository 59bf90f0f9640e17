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
(eps_i, eps_j) with both nontrivial, decide eps_j in L^p + L^p eps_i via
the p-basis decomposition; the directness of L^p + L^p eps_i then pins the
unique candidate solution, which is kept when it lands in H and descends
into G after finitely many Frobenius twists.  Torsion solutions (inside
F_q*) are enumerated directly and grouped into Frobenius orbits.

The four-term p-power identity A p^{X1} - A p^{X2} + B p^{X3} - B p^{X4} = 0
is explored by bounded enumeration only; the full difference set is not
enumerable and nothing here claims completeness beyond the box.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import List, Optional, Sequence, Tuple

from .funcfield import Poly, RatFunc
from .gf import FqCtx, FqElem


# ---------------------------------------------------------------------------
# small exact integer lattice helpers
# ---------------------------------------------------------------------------

def _hnf_rows(rows: List[List[int]]) -> List[List[int]]:
    """Row-style Hermite normal form (nonzero rows, positive pivots)."""
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
    # reduce above-pivot entries for a canonical form
    for i in range(len(out) - 1, -1, -1):
        pc = next(c for c in range(ncols) if out[i][c])
        for j in range(i):
            k = out[j][pc] // out[i][pc]
            if k:
                out[j] = [a - k * b for a, b in zip(out[j], out[i])]
    return out


def _int_kernel(mat: List[List[int]], ncols: int) -> List[List[int]]:
    """Integer basis of the right kernel {v in Z^n : mat . v = 0}, by
    unimodular column operations on [mat; identity]."""
    m = len(mat)
    cols = [
        [mat[r][j] for r in range(m)] + [1 if i == j else 0 for i in range(ncols)]
        for j in range(ncols)
    ]
    active = list(range(ncols))
    for r in range(m):
        while True:
            nz = [j for j in active if cols[j][r] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda j: abs(cols[j][r]))
            jp = nz[0]
            for j in nz[1:]:
                k = cols[j][r] // cols[jp][r]
                if k:
                    cols[j] = [a - k * b for a, b in zip(cols[j], cols[jp])]
        nz = [j for j in active if cols[j][r] != 0]
        if nz:
            active.remove(nz[0])
    return [cols[j][m:] for j in active]


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
    exponent vectors over a coprime squarefree basis."""

    def __init__(self, ctx: FqCtx, basis: List[Poly], gen_vectors: List[List[int]],
                 gen_torsion: List[FqElem]):
        self.ctx = ctx
        self.basis = tuple(basis)
        self.rank = len(basis)
        self.gen_vectors = tuple(tuple(v) for v in gen_vectors)
        self.gen_torsion = tuple(gen_torsion)
        self.lattice = _hnf_rows([list(v) for v in gen_vectors])
        self._kernel, self.sat_basis = _saturate([list(v) for v in gen_vectors], self.rank)
        # an irreducible witness factor of each basis element, for valuations
        self._witness = []
        for b in basis:
            _, fs = b.factor()
            self._witness.append(fs[0][0])

    def in_lattice(self, v: Sequence[int]) -> bool:
        return _in_lattice(self.lattice, v)

    def in_saturation(self, v: Sequence[int]) -> bool:
        return all(sum(a * b for a, b in zip(k, v)) == 0 for k in self._kernel)

    def value(self, torsion: FqElem, exponents: Sequence[int]) -> RatFunc:
        out = RatFunc.of(torsion, self.ctx)
        for b, e in zip(self.basis, exponents):
            if e:
                out = out * RatFunc(b) ** e
        return out

    def factor_over_basis(self, a: RatFunc) -> Optional[Tuple[FqElem, Tuple[int, ...]]]:
        """Write a = tau * prod basis_i^{e_i}; None when a does not factor
        over (torsion x basis)."""
        if a.is_zero():
            return None
        vec = []
        rest = a
        for b, pi in zip(self.basis, self._witness):
            e = rest.num.multiplicity_of(pi) - rest.den.multiplicity_of(pi)
            vec.append(e)
            if e:
                rest = rest / RatFunc(b) ** e
        if not rest.is_constant():
            return None
        return rest.constant_value(), tuple(vec)

    def __repr__(self):
        bs = ", ".join(repr(b) for b in self.basis)
        return f"<group over F{self.ctx.q}(x): basis [{bs}], rank {self.rank}>"


@dataclass(frozen=True)
class GroupElem:
    gctx: GroupCtx
    torsion: FqElem
    exponents: Tuple[int, ...]

    def value(self) -> RatFunc:
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

    witnesses = []
    for b in base:
        _, fs = b.factor()
        witnesses.append(fs[0][0])

    vectors = []
    torsions = []
    for g in gens:
        vec = []
        rest = g
        for b, pi in zip(base, witnesses):
            e = rest.num.multiplicity_of(pi) - rest.den.multiplicity_of(pi)
            vec.append(e)
            if e:
                rest = rest / RatFunc(b) ** e
        if not rest.is_constant():
            raise AssertionError("generator did not factor over the refined basis")
        vectors.append(vec)
        torsions.append(rest.constant_value())
    return GroupCtx(ctx, base, vectors, torsions)


# ---------------------------------------------------------------------------
# p-th power decomposition over the p-basis of F_q(x)
# ---------------------------------------------------------------------------

def pth_power_decompose(a: RatFunc) -> List[RatFunc]:
    """Unique c_0..c_{p-1} in K with a = sum c_m^p x^m over the p-basis
    {1, x, ..., x^{p-1}} of K over K^p."""
    ctx = a.ctx
    p = ctx.p
    w = a.num * a.den ** (p - 1)
    buckets = [[] for _ in range(p)]
    for i, c in enumerate(w.coeffs):
        m = i % p
        j = i // p
        bucket = buckets[m]
        while len(bucket) <= j:
            bucket.append(ctx.rzero)
        bucket[j] = ctx.rpth_root(c)
    return [RatFunc(Poly._make(ctx, b), a.den) for b in buckets]


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

    families: List[SolutionFamily] = []

    # torsion families: solutions inside F_q* x F_q*, one per Frobenius orbit
    seen = set()
    for xe in ctx.elements():
        if xe.is_zero() or xe == ctx.one:
            continue
        ye = ctx.one - xe
        if ye.is_zero():
            continue
        if (xe.raw, ye.raw) in seen:
            continue
        orbit = []
        cur = (xe, ye)
        while cur not in orbit:
            orbit.append(cur)
            cur = (cur[0].frobenius(), cur[1].frobenius())
        rep = min(orbit, key=lambda t: (t[0].raw, t[1].raw))
        for o in orbit:
            seen.add((o[0].raw, o[1].raw))
        zvec = (0,) * gctx.rank
        families.append(
            SolutionFamily(
                GroupElem(gctx, rep[0], zvec), GroupElem(gctx, rep[1], zvec), True
            )
        )

    # nontorsion families via H/H^p cosets
    sat = gctx.sat_basis
    rho = len(sat)
    cosets = []
    for tup in itertools.product(range(p), repeat=rho):
        vec = tuple(
            sum(tup[i] * sat[i][c] for i in range(rho)) for c in range(gctx.rank)
        )
        cosets.append((tup, vec))
    nonzero = [cv for cv in cosets if any(cv[0])]

    decomp_cache = {}

    def decomp(vec):
        if vec not in decomp_cache:
            decomp_cache[vec] = pth_power_decompose(gctx.value(ctx.one, vec))
        return decomp_cache[vec]

    one_rf = RatFunc.of(1, ctx)
    for (ti, vi) in nonzero:
        d = decomp(vi)
        support = [m for m in range(1, p) if not d[m].is_zero()]
        if not support:
            raise AssertionError("nontrivial coset representative is a p-th power")
        for (tj, vj) in nonzero:
            c = decomp(vj)
            m0 = support[0]
            b_val = c[m0] / d[m0]
            if any(c[m] != b_val * d[m] for m in range(1, p)):
                continue  # the sum L^p + L^p eps_i + L^p eps_j is direct
            a_val = c[0] - b_val * d[0]
            if a_val.is_zero():
                continue
            y1 = one_rf / a_val
            x1 = -b_val / a_val
            if x1.is_zero():
                continue
            x = x1 ** p * gctx.value(ctx.one, vi)
            y = y1 ** p * gctx.value(ctx.one, vj)
            if x + y != one_rf:
                raise AssertionError("coset solution does not satisfy x + y = 1")
            fx = gctx.factor_over_basis(x)
            fy = gctx.factor_over_basis(y)
            if fx is None or fy is None:
                continue
            if not (gctx.in_saturation(fx[1]) and gctx.in_saturation(fy[1])):
                continue
            # descend: least p-power twist landing inside G
            n = None
            for k in range(height_bound + 1):
                scale = p ** k
                if gctx.in_lattice([e * scale for e in fx[1]]) and gctx.in_lattice(
                    [e * scale for e in fy[1]]
                ):
                    n = k
                    break
            if n is None:
                continue
            ex = GroupElem(gctx, fx[0], fx[1]).pth_power(n) if n else GroupElem(gctx, fx[0], fx[1])
            ey = GroupElem(gctx, fy[0], fy[1]).pth_power(n) if n else GroupElem(gctx, fy[0], fy[1])
            families.append(SolutionFamily(ex, ey, False))

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
        base_val = gctx.value(ctx.one, vec)
        for tau in ctx.elements():
            if tau.is_zero():
                continue
            x = RatFunc.of(tau, ctx) * base_val
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
