"""Finitely generated multiplicative subgroups of F_q(x)* and the
constructive x + y = 1 machinery of characteristic p.

A group context holds a coprime basis (`funcfield.coprime_basis` of the
generators' numerators and denominators), the lattice spanned by the
generators' exponent vectors, and the full constant subgroup F_q* as
torsion.  The radical H is the saturation of that lattice together with
F_q*; H/H^p is an F_p-vector space of dimension rank(H), which makes
the coset enumeration of the solver finite.

The solver turns the constructive finiteness proof into an algorithm:
enumerate coset representatives eps of H/H^p; for each pair (eps_i, eps_j)
with both nontrivial and eps_j in L^p + L^p eps_i, the directness of that
sum pins the unique candidate solution x = x1^p eps_i, y = y1^p eps_j with
x1 = -b/a, y1 = 1/a, which is kept when it lands in H and descends into G
after at most v_p([H:G]) Frobenius twists.  Write eps = N/D and
W = N D^{p-1} = sum g_m^p x^m over the p-basis, so eps = sum (g_m/D)^p x^m.
Then eps_j = a + b eps_i with a, b in L^p exactly when the tails
(g_1..g_{p-1}) of the two cosets are proportional, and b is never 0
because a nontrivial coset is not a p-th power.  So the cosets are bucketed
by the projective class of their tail, and only pairs within a bucket are
solved.

A pair is solved on numerators, with no gcd.  With g the parts of eps_i, h
those of eps_j and g_m0 the first nonzero tail part, Delta = h_0 g_m0 -
h_m0 g_0 is a g_m0 D_j: a = 0 exactly when Delta = 0, and otherwise
x1 = -h_m0 D_i / Delta, y1 = g_m0 D_j / Delta, and x + y = 1 reads
-h_m0^p W_i + g_m0^p W_j = Delta^p.  Each g_m0 is split over the basis
once (`funcfield.split_over`), and Delta once per pair: x1 factors exactly
when h_m0 and Delta leave the same monic part, y1 when g_m0 and Delta do.
A kept value is built from its exponents and tied to the checked fraction.

Each unordered pair is solved once: the pair (j, i) has b' = 1/b and
a' = -a/b, so its candidate is the swap (y, x), and none exactly when
a = 0.  The later tests treat x and y alike, so both families of a pair
are emitted together.  Torsion solutions (inside F_q*) are enumerated
directly and grouped into Frobenius orbits.

The four-term p-power identity A p^{X1} - A p^{X2} + B p^{X3} - B p^{X4} = 0
is explored by bounded enumeration only; the full difference set is not
enumerable and nothing here claims completeness beyond the box.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .funcfield import Poly, RatFunc, coprime_basis, factor_over, split_over
from .gf import FqCtx, FqElem, split_power

# the largest basis that solve_xy1 takes, and the most torsion candidates
# (q - 2) or cosets of H/H^p (p^rank) that it enumerates: 3^6, the cosets
# of the largest rank over F_3
MAX_RANK = 6
ENUMERATION_CAP = 3 ** MAX_RANK

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
    ker = _int_kernel(rows, ncols)
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
        self._powers = {}  # (i, e) -> basis_i^e, for `value`

    def in_lattice(self, v: Sequence[int]) -> bool:
        return _in_lattice(self.lattice, v)

    def in_saturation(self, v: Sequence[int]) -> bool:
        return all(sum(a * b for a, b in zip(k, v)) == 0 for k in self._kernel)

    def value(self, torsion: FqElem, exponents: Sequence[int]) -> RatFunc:
        """tau * prod basis_i^{e_i}, already in lowest terms: the basis is
        monic and coprime, so num and den are the positive and negative powers."""
        num, den = Poly.constant(torsion), Poly.one(self.ctx)
        for i, e in enumerate(exponents):
            if e:
                power = self._powers.get((i, abs(e)))
                if power is None:
                    power = self._powers[i, abs(e)] = self.basis[i] ** abs(e)
                if e > 0:
                    num = num * power
                else:
                    den = den * power
        return RatFunc._coprime(num, den) if num else RatFunc(num)

    def factor_over_basis(self, a: RatFunc) -> Optional[Tuple[FqElem, Tuple[int, ...]]]:
        """Write a = tau * prod basis_i^{e_i}; None when a does not factor
        over (torsion x basis)."""
        return None if a.is_zero() else factor_over(self.basis, a)

    def __repr__(self):
        bs = ", ".join(repr(b) for b in self.basis)
        return f"<group over F{self.ctx.q}(x): basis [{bs}], rank {self.rank}>"


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


def check_size(ctx: FqCtx, rank: int = 0) -> None:
    """Refuse too many torsion candidates for solve_xy1, then a large rank."""
    if ctx.q - 2 > ENUMERATION_CAP:
        raise ValueError(f"{ctx.q - 2} torsion candidates exceed the desk-scale "
                         f"cap of {ENUMERATION_CAP}")
    if rank > MAX_RANK:
        raise ValueError("rank too large for the desk-scale coset enumeration")


def build_group(generators: Sequence, ctx: FqCtx, for_solver: bool = False) -> GroupCtx:
    """Coprime-basis context for the group generated by the given nonzero
    elements of F_q(x)*.

    With `for_solver`, a field that solve_xy1 refuses is refused before
    any refinement, and a basis past its MAX_RANK as soon as the
    refinement's working basis passes it (see `coprime_basis`)."""
    if for_solver:
        check_size(ctx)
    gens = [RatFunc.of(g, ctx) for g in generators]
    if any(g.is_zero() for g in gens):
        raise ValueError("zero generator")
    base = coprime_basis([part for g in gens for part in (g.num, g.den)],
                         MAX_RANK if for_solver else None)
    if for_solver:
        check_size(ctx, len(base))
    factored = [factor_over(base, g) for g in gens]
    if None in factored:
        raise AssertionError("generator did not factor over the refined basis")
    return GroupCtx(ctx, base, [list(f[1]) for f in factored], [f[0] for f in factored])


# ---------------------------------------------------------------------------
# p-th power decomposition over the p-basis of F_q(x)
# ---------------------------------------------------------------------------

def pth_power_decompose(a: RatFunc) -> List[Poly]:
    """The numerators g_0..g_{p-1} over a.den of the unique c_0..c_{p-1} in
    K with a = sum c_m^p x^m over the p-basis {1, x, ..., x^{p-1}} of K
    over K^p: a.num a.den^{p-1} = sum g_m^p x^m."""
    return (a.num * a.den ** (a.ctx.p - 1)).pth_parts()


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
    check_size(ctx, gctx.rank)
    sat = gctx.sat_basis
    if p ** len(sat) > ENUMERATION_CAP:
        raise ValueError(f"{p ** len(sat)} cosets of H/H^p exceed the desk-scale "
                         f"cap of {ENUMERATION_CAP}")

    families: List[SolutionFamily] = []

    # torsion families: solutions inside F_q* x F_q*, one per Frobenius
    # orbit, each led by its x of least raw value (Frobenius has order k on
    # F_q, q = p^k, and y = 1 - x follows x)
    zvec = (0,) * gctx.rank
    for xe in ctx.elements():
        ye = ctx.one - xe
        if xe.is_zero() or ye.is_zero() or any(
                ctx.rfrob(xe.raw, e) < xe.raw for e in range(1, ctx.k)):
            continue
        families.append(SolutionFamily(
            GroupElem(gctx, xe, zvec), GroupElem(gctx, ye, zvec), True))

    # the descent: p^k v lies in L for some k only when the order of v + L
    # in Sat/L is a power of p; it divides the index [Sat:L], so the least
    # such k is at most v_p([Sat:L]).  The two HNFs span the same Q-space,
    # so they share their pivot columns and the index is the pivot ratio.
    index = _pivot_product(gctx.lattice) // _pivot_product(sat)
    descent = min(split_power(index, p)[0], height_bound)

    def split(g: Poly):  # (e, lc, r) with g = lc * r * prod basis_i^{e_i}, r monic
        vec, rest, _ = split_over(gctx.basis, RatFunc(g))
        return vec, rest.lc(), rest.monic()

    def tied(torsion, exponents, num, den) -> RatFunc:  # the value, equal to num/den
        val = gctx.value(torsion, exponents)
        if val.num * den != num * val.den:
            raise AssertionError("family value does not match its checked fraction")
        return val

    # nontorsion families via H/H^p cosets, bucketed by the projective class
    # of the p-basis tail of each coset's value; a coset keeps its vector v,
    # W = N D^{p-1}, the parts g, g_m0^p, D's exponents and the split of g_m0
    rho = len(sat)
    buckets = {}
    for tup in itertools.product(range(p), repeat=rho):
        if not any(tup):
            continue
        vec = tuple(
            sum(tup[i] * sat[i][c] for i in range(rho)) for c in range(gctx.rank)
        )
        val = gctx.value(ctx.one, vec)
        g = pth_power_decompose(val)
        m0 = next((m for m in range(1, p) if g[m]), None)
        if m0 is None:
            raise AssertionError("nontrivial coset representative is a p-th power")
        key = (m0, tuple(RatFunc(g[m], g[m0]) for m in range(m0 + 1, p)))
        buckets.setdefault(key, []).append((vec, val.num * val.den ** (p - 1), g, g[m0] ** p,
                                            [max(-v, 0) for v in vec], split(g[m0])))

    for (m0, _), members in buckets.items():
        for i, (vi, wi, g, gp, di, (eg, cg, rg)) in enumerate(members):
            # (j, i) gives the swap of (i, j)'s solution, and (i, i) none
            for vj, wj, h, hp, dj, (eh, ch, rh) in members[i + 1:]:
                delta = h[0] * g[m0] - h[m0] * g[0]
                if not delta:
                    continue
                # x = -h_m0^p W_i / delta^p and y = g_m0^p W_j / delta^p
                xn, yn, dp = -hp * wi, gp * wj, delta ** p
                if xn + yn != dp:
                    raise AssertionError("coset solution does not satisfy x + y = 1")
                # x1 = -h_m0 D_i / delta and y1 = g_m0 D_j / delta
                ed, cd, rd = split(delta)
                if rh != rd or rg != rd:
                    continue
                ex = tuple(p * (a - b + c) + v for a, b, c, v in zip(eh, ed, di, vi))
                ey = tuple(p * (a - b + c) + v for a, b, c, v in zip(eg, ed, dj, vj))
                if not (gctx.in_saturation(ex) and gctx.in_saturation(ey)):
                    continue
                # descend: least p-power twist landing inside G (none when Sat = L)
                n = 0 if index == 1 else next(
                    (k for k in range(descent + 1)
                     if gctx.in_lattice([e * p ** k for e in ex])
                     and gctx.in_lattice([e * p ** k for e in ey])), None)
                if n is None:
                    continue
                q = p ** n
                tx, ty = (-ch / cd).frobenius(), (cg / cd).frobenius()
                x0 = GroupElem(gctx, tx.frobenius(n), tuple(e * q for e in ex),
                               tied(tx, ex, xn, dp) ** q)
                y0 = GroupElem(gctx, ty.frobenius(n), tuple(e * q for e in ey),
                               tied(ty, ey, yn, dp) ** q)
                families += [SolutionFamily(x0, y0, False), SolutionFamily(y0, x0, False)]

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


# ---------------------------------------------------------------------------
# exponent bounds and the four-term difference set
# ---------------------------------------------------------------------------

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
        return split_power(e[0], p)[0]
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

