"""Bounded enumeration and structure of {(m, n) : O[s^m] = O[t^n]}.

The grid search is exact order equality, run through either the tower
backend or the quadratic symmetric backend, as a join: each power s^m
and t^n gets one index key, equal for equal orders, and `equal` runs only
on the cells whose two keys agree.  The tower backend keeps one order
record per power (degree, power-basis span, key), fed s^{m*i} from one
cache of the powers of s; its minimal polynomial is built only when read.
Equal orders span one field K(s^m) = K(t^n), so their pivot columns
agree, and the change of basis between the two power bases is invertible
over the ring, so the index [O[s^m]:O[t^n]], its determinant, is the
ratio pv_t/pv_s of the last pivots up to sign and a unit of the ring
O_{K,T} (a T-unit; a nonzero constant when O = F_q[x]); this is
disc(t^n) = [O[s^m]:O[t^n]]^2 disc(s^m) without the discriminants.  The
key is the pivot columns and the last pivot up to a unit, and a cell of
equal keys goes to `orders_equal`, which decides it by the one membership
t^n in O[s^m]: then O[t^n] is a sub-order of unit index.  In the symmetric
backend the key of u is u - sigma(u) made monic, and equal keys decide
the cell (`sym_orders_equal`).  Per-pair flags mark the degenerate families
(quotient, twisted quotient in the quadratic case, and product being a
unit), which always sit inside the searched set; a nondegeneracy witness
is recorded for the rest when an automorphism is available.

Pattern fitting is heuristic and box-relative: emitted patterns are
descriptions of the observed data, validated to regenerate exactly their
in-box pairs, and never claims about the infinite set.  Reports therefore
say "consistent with".  The Frobenius kinds F1, F2 and F share one integer
generator of the points (c1 q^i + c2 q^j, c3 q^i + c4 q^j).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Context, Decimal, localcontext
from fractions import Fraction
from functools import partial
from typing import Dict, List, Optional, Tuple

from .bivar import BivarPoly
from .funcfield import PlaceSet, RatFunc, coprime_basis, factor_over, is_T_unit, split_over
from .gf import check_characteristic, split_power
from .monorder import (
    MonOrder,
    POLY_RING,
    express_in_power_basis,
    orders_equal,
    sym_index_key,
)
from .tower import AlgElem, power_of


# ---------------------------------------------------------------------------
# backends
# ---------------------------------------------------------------------------

class _PowerPair:
    """The powers of s and of t, each computed once and kept by exponent,
    and one record per power (`_record`), built on first use and serving
    every cell of its row or column; when t is s, both sides share one
    cache of powers and records.  `s_key(m)` and `t_key(n)` are the index
    keys of the powers, equal for equal orders, on which `enumerate_M`
    joins."""

    def __init__(self, s, t, p: int, shared: bool):
        if s.is_zero() or t.is_zero():
            raise ValueError("search elements s and t must be nonzero")
        self.s, self.t, self.p = s, t, p
        self._s_pows, self._s_records = {1: s}, {}
        self._t_pows = self._s_pows if shared else {1: t}
        self._t_records = self._s_records if shared else {}

    def s_pow(self, m: int):
        return power_of(self._s_pows, 1, m)

    def t_pow(self, n: int):
        return power_of(self._t_pows, 1, n)

    def _cached(self, records: dict, pows: dict, n: int):
        if n not in records:
            records[n] = self._record(pows, n)
        return records[n]

    def s_record(self, m: int):
        return self._cached(self._s_records, self._s_pows, m)

    def t_record(self, n: int):
        return self._cached(self._t_records, self._t_pows, n)


class TowerPowerPair(_PowerPair):
    """Oracle over a tower: s, t integral over the ring O_{K,T} of the
    place set `ring` (F_q[x] by default).  The record of a power is its
    `MonOrder`, whose `key` is the power's index key, and `equal` makes
    one membership solve on a cell of equal keys.  The record of s^m
    takes its power basis s^{m*i} from the shared cache of powers."""

    def __init__(self, s: AlgElem, t: AlgElem, ring: PlaceSet = POLY_RING):
        self.ring = ring
        super().__init__(s, t, s.tower.base.p, t.tower is s.tower and t == s)
        # the m = n = 1 records double as the integrality check of the inputs
        self.s_record(1)
        self.t_record(1)

    def _record(self, pows: dict, n: int) -> MonOrder:
        return MonOrder(power_of(pows, 1, n), self.ring, power=partial(power_of, pows, n))

    def s_key(self, m: int):
        return self.s_record(m).key

    def t_key(self, n: int):
        return self.t_record(n).key

    def equal(self, m: int, n: int) -> bool:
        """O[s^m] = O[t^n]: a cell whose index keys differ (different pivot
        columns, or an index [O[s^m]:O[t^n]] that is not a unit) is
        rejected before `orders_equal` makes its membership solve."""
        order_s, order_t = self.s_record(m), self.t_record(n)
        return order_s.key == order_t.key and bool(orders_equal(order_t, order_s))

    def _unit_in_K(self, v: AlgElem) -> bool:
        r = v.in_base()
        return r is not None and not r.is_zero() and is_T_unit(r, self.ring)

    def _unit_quotient(self, u: AlgElem, w: AlgElem) -> bool:
        # u/w is the unit r of the ring iff u = r*w coordinate-wise over K,
        # with r read off the first nonzero coordinate of w
        u_coords, w_coords = u.coords(), w.coords()
        k = next((i for i, c in enumerate(w_coords) if not c.is_zero()), None)
        if k is None:
            return False
        r = u_coords[k] / w_coords[k]
        return (
            not r.is_zero()
            and all(a == r * b for a, b in zip(u_coords, w_coords))
            and is_T_unit(r, self.ring)
        )

    def flags(self, m: int, n: int):
        sm, tn = self.s_pow(m), self.t_pow(n)
        in_a = self._unit_quotient(sm, tn)
        in_c = self._unit_in_K(sm * tn)
        in_b = False
        order_t = self.t_record(n)
        if order_t.d == 2:
            # the quadratic conjugate is trace - t^n, no declared map needed
            conj = tn.tower.from_base(-order_t.minpoly[1]) - tn
            if not (conj - tn).is_zero():
                in_b = self._unit_quotient(sm, conj)
        return in_a, in_b, in_c

    def nondegenerate_witness(self, m: int, n: int) -> Optional[str]:
        return None  # needs a declared automorphism; quadratic case is in SymPowerPair


def sym_flags(sm: BivarPoly, tn: BivarPoly) -> Tuple[bool, bool, bool]:
    """(in_A, in_B, in_C) of a cell of the symmetric backend (s^m, t^n
    nonzero): whether s^m/t^n, s^m/sigma(t^n) (only when [K(t^n):K] = 2)
    and s^m*t^n are units of F_q[x, y], the nonzero constants: u/w is one
    iff u and w have one monic form, and u*w iff both are constants."""
    stn = tn.swap()
    monic = sm.monic()
    in_b = stn != tn and monic == stn.monic()
    return monic == tn.monic(), in_b, sm.is_constant() and tn.is_constant()


class SymPowerPair(_PowerPair):
    """Oracle over the symmetric quadratic backend (sigma swaps x and y).
    The record of a power u is its index key `sym_index_key(u)`,
    u - sigma(u) made monic, and equal keys decide a cell on their own:
    O[s^m] = O[t^n] exactly when the two keys agree (`sym_orders_equal`)."""

    def __init__(self, s: BivarPoly, t: BivarPoly):
        super().__init__(s, t, s.ctx.p, t == s)

    def _record(self, pows: dict, n: int) -> BivarPoly:
        return sym_index_key(power_of(pows, 1, n))

    s_key = _PowerPair.s_record
    t_key = _PowerPair.t_record

    def equal(self, m: int, n: int) -> bool:
        return self.s_key(m) == self.t_key(n)

    def flags(self, m: int, n: int):
        return sym_flags(self.s_pow(m), self.t_pow(n))

    def nondegenerate_witness(self, m: int, n: int) -> Optional[str]:
        """For (m, n) in the searched set and in none of A, B, C: the swap
        when the three-term solution (s^m/sig(s^m), -u t^n/sig(s^m),
        u sig(t^n)/sig(s^m)), u = (s^m - sig s^m)/(t^n - sig t^n), has no
        vanishing proper subsum.  Equal keys make u a nonzero constant, or
        make both powers symmetric (no solution, None); then x + y = 0
        would put s^m = u t^n in A, x + z = 0 would put s^m = -u sig(t^n)
        in B, and y + z = 0 would need t^n symmetric."""
        return None if self.s_key(m).is_zero() else "x<->y"


# ---------------------------------------------------------------------------
# search results and degenerate classification
# ---------------------------------------------------------------------------

@dataclass
class PairFlags:
    in_a: bool
    in_b: bool
    in_c: bool
    witness: Optional[str]


@dataclass
class MSearchResult:
    m_max: int
    n_max: int
    p: int
    pairs: List[Tuple[int, int]]
    flags: Dict[Tuple[int, int], PairFlags]
    closure_violations: List[Tuple[int, int]]
    patterns: List["FrobPattern"] = field(default_factory=list)
    residual: List[Tuple[int, int]] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "box": [self.m_max, self.n_max],
            "p": self.p,
            "pairs": [list(mn) for mn in self.pairs],
            "flags": {
                f"{m},{n}": {
                    "in_A": f.in_a,
                    "in_B": f.in_b,
                    "in_C": f.in_c,
                    "nondegenerate_witness": f.witness,
                }
                for (m, n), f in sorted(self.flags.items())
            },
            "closure_violations": [list(mn) for mn in self.closure_violations],
            "patterns": [pat.to_dict() for pat in self.patterns],
            "residual": [list(mn) for mn in self.residual],
        }


def classify_degenerate(pair_oracle, m: int, n: int) -> PairFlags:
    in_a, in_b, in_c = pair_oracle.flags(m, n)
    witness = None
    if not (in_a or in_b or in_c):
        witness = pair_oracle.nondegenerate_witness(m, n)
    return PairFlags(in_a, in_b, in_c, witness)


def enumerate_M(pair_oracle, m_max: int, n_max: int) -> MSearchResult:
    """Exact order equality on the grid [1..m_max] x [1..n_max], as a join:
    equal orders have equal index keys, so the powers t^n are bucketed by
    key and `equal` runs only on the cells of matching keys."""
    if m_max * n_max > 10_000:
        raise ValueError("grid larger than the supported desk scale")
    p = pair_oracle.p
    buckets: Dict[object, List[int]] = {}
    for n in range(1, n_max + 1):
        buckets.setdefault(pair_oracle.t_key(n), []).append(n)
    pairs = [
        (m, n)
        for m in range(1, m_max + 1)
        for n in buckets.get(pair_oracle.s_key(m), ())
        if pair_oracle.equal(m, n)
    ]
    pair_set = set(pairs)
    violations = [
        (m, n)
        for (m, n) in pairs
        if p * m <= m_max and p * n <= n_max and (p * m, p * n) not in pair_set
    ]
    flags = {mn: classify_degenerate(pair_oracle, *mn) for mn in pairs}
    return MSearchResult(m_max, n_max, p, pairs, flags, violations)


# ---------------------------------------------------------------------------
# pattern fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrobPattern:
    """One structural component of observed search data.

    kinds: "F1" q-power orbit of a root pair; "F2" doubly-Frobenius grid;
    "F" two-parameter family (c1 q^i + c2 q^j, c3 q^i + c4 q^j);
    "A" arithmetic progression of pairs; "finite" explicit leftovers.
    """

    kind: str
    q: Optional[int]
    params: tuple

    def generate(self, m_max: int, n_max: int) -> frozenset:
        if self.kind == "F1":
            m0, n0 = self.params
            return _frobenius_points(self.q, (m0, 0, n0, 0), m_max, n_max)
        if self.kind == "F2":
            a, b = self.params
            return _frobenius_points(self.q, (a, 0, 0, b), m_max, n_max)
        if self.kind == "F":
            return _frobenius_points(self.q, self.params, m_max, n_max)
        if self.kind == "finite":
            return frozenset(self.params)
        if self.kind != "A":
            raise ValueError(f"unknown pattern kind {self.kind!r}")
        (m, n), (dm, dn) = self.params
        out = set()
        while m <= m_max and n <= n_max:
            out.add((m, n))
            m, n = m + dm, n + dn
        return frozenset(out)

    def describe(self) -> str:
        if self.kind == "F1":
            return f"F1({self.q}; {self.params})"
        if self.kind == "F2":
            return f"F2({self.q}; {self.params[0]}, {self.params[1]})"
        if self.kind == "F":
            cs = ", ".join(str(Fraction(c)) for c in self.params)
            return f"F({self.q}; {cs})"
        if self.kind == "A":
            return f"A(base {self.params[0]}, step {self.params[1]})"
        return f"finite {sorted(self.params)}"

    def to_dict(self) -> dict:
        if self.kind == "F":
            params = [str(Fraction(c)) for c in self.params]
        elif self.kind == "finite":
            params = [list(mn) for mn in sorted(self.params)]
        elif self.kind == "A":
            params = [list(self.params[0]), list(self.params[1])]
        else:
            params = list(self.params)
        return {"kind": self.kind, "q": self.q, "params": params}


def _frobenius_points(q: int, coeffs, m_max: int, n_max: int) -> frozenset:
    """The integer points (c1 q^i + c2 q^j, c3 q^i + c4 q^j) of the box
    [1..m_max] x [1..n_max] for 0 <= i, j <= L, the one generator of the
    Frobenius kinds: F1 is (m0, 0, n0, 0) and F2 is (a, 0, 0, b).  The
    coefficients are scaled by their common denominator d, so a point costs
    two integer multiply-adds, a range test and a divisibility test by d.
    L = 2 l + 3 for the least l with q^l > (m_max + n_max + 4) * scale * den
    (the largest |numerator| and the largest denominator of the reduced
    coefficients), which covers near-cancelling exponent pairs and, as
    q^L > m_max, every point of an F1 or F2 orbit in the box."""
    cs = [Fraction(c) for c in coeffs]
    scale = max(abs(c.numerator) for c in cs) or 1
    den = max(c.denominator for c in cs)
    lim = 1
    while q ** lim <= (m_max + n_max + 4) * scale * den:
        lim += 1
    d = math.lcm(*(c.denominator for c in cs))
    c1, c2, c3, c4 = (c.numerator * (d // c.denominator) for c in cs)
    hi_m, hi_n = d * m_max, d * n_max
    powers = [q ** e for e in range(2 * lim + 4)]
    # without a j term every j gives the point of j = 0; with c2, c4 >= 0 a
    # point only grows with j, so the j loop ends once the point leaves the box
    j_powers = powers if c2 or c4 else powers[:1]
    grows = c2 >= 0 and c4 >= 0
    out = set()
    for qi in powers:
        m_i, n_i = c1 * qi, c3 * qi
        for qj in j_powers:
            mm, nn = m_i + c2 * qj, n_i + c4 * qj
            if d <= mm <= hi_m and d <= nn <= hi_n:
                if not (mm % d or nn % d):
                    out.add((mm // d, nn // d))
            elif grows and (mm > hi_m or nn > hi_n):
                break
    return frozenset(out)


def _f1_candidates(pairs: set, p: int, m_max: int, n_max: int):
    for (m, n) in sorted(pairs):
        if (m % p == 0 and n % p == 0 and (m // p, n // p) in pairs):
            continue  # not an orbit root
        pat = FrobPattern("F1", p, (m, n))
        gen = pat.generate(m_max, n_max)
        if len(gen) >= 2 and gen <= pairs:
            yield pat, gen


def _f2_candidates(pairs: set, p: int, m_max: int, n_max: int):
    roots = {(split_power(m, p)[1], split_power(n, p)[1]) for (m, n) in pairs}
    for (a, b) in sorted(roots):
        pat = FrobPattern("F2", p, (a, b))
        gen = pat.generate(m_max, n_max)
        if len(gen) >= 4 and gen <= pairs:
            yield pat, gen


def _f_candidates(pairs: set, p: int, m_max: int, n_max: int):
    if len(pairs) > 80:
        return  # quadratic candidate generation is not worth it at this size
    plist = sorted(pairs)
    qs = []
    q = p
    while q <= max(m_max, n_max):
        qs.append(q)
        q *= p
    for q in qs:
        for m00, n00 in plist:
            for m10, n10 in plist:
                # (m00, n00) plays (i,j) = (0,0) and (m10, n10) plays (1,0)
                dm, dn = m10 - m00, n10 - n00
                if dm < 0 or dn < 0 or not (dm or dn):
                    continue
                # cheap necessary check on the (0,1) point before generating:
                # c1 + c2 q = q m00 - dm is always an integer
                m01, n01 = q * m00 - dm, q * n00 - dn
                if 1 <= m01 <= m_max and 1 <= n01 <= n_max and (m01, n01) not in pairs:
                    continue
                c1, c3 = Fraction(dm, q - 1), Fraction(dn, q - 1)
                pat = FrobPattern("F", q, (c1, m00 - c1, c3, n00 - c3))
                gen = pat.generate(m_max, n_max)
                if len(gen) >= 3 and gen <= pairs:
                    yield pat, gen


def _a_candidates(pairs: set, m_max: int, n_max: int):
    plist = sorted(pairs)
    for i, p1 in enumerate(plist):
        for p2 in plist[i + 1 :]:
            dm, dn = p2[0] - p1[0], p2[1] - p1[1]
            if dm < 0 or dn < 0 or (dm == 0 and dn == 0):
                continue
            pat = FrobPattern("A", None, (p1, (dm, dn)))
            gen = pat.generate(m_max, n_max)
            if len(gen) >= 3 and gen <= pairs:
                yield pat, gen


_KIND_PRIORITY = {"F1": 0, "F2": 1, "F": 2, "A": 3}


def fit_patterns(result: MSearchResult, p: int) -> List[FrobPattern]:
    """Greedy cover of the observed pairs by validated patterns.

    Candidates of every kind are generated against the full pair set (so a
    two-parameter family is not starved by its own p-power sub-orbits), then
    chosen by descending fresh coverage with kind priority on ties; pairs
    covered by nothing become one explicit finite pattern.
    """
    pairs = set(result.pairs)
    if not pairs:
        result.patterns = []
        result.residual = []
        return []
    m_max, n_max = result.m_max, result.n_max
    candidates = []
    candidates.extend(_f1_candidates(pairs, p, m_max, n_max))
    candidates.extend(_f2_candidates(pairs, p, m_max, n_max))
    candidates.extend(_f_candidates(pairs, p, m_max, n_max))
    candidates.extend(_a_candidates(pairs, m_max, n_max))
    # dedupe by generated set, preferring the highest-priority kind
    by_set = {}
    for pat, gen in candidates:
        cur = by_set.get(gen)
        if cur is None or _KIND_PRIORITY[pat.kind] < _KIND_PRIORITY[cur.kind]:
            by_set[gen] = pat
    pool = sorted(
        by_set.items(),
        key=lambda kv: (-len(kv[0]), _KIND_PRIORITY[kv[1].kind], kv[1].describe()),
    )
    chosen = []
    uncovered = set(pairs)
    while uncovered:
        best = None
        best_fresh = 1
        for gen, pat in pool:
            fresh = len(gen & uncovered)
            if fresh > best_fresh or (
                best is not None
                and fresh == best_fresh
                and _KIND_PRIORITY[pat.kind] < _KIND_PRIORITY[best[1].kind]
            ):
                best = (gen, pat)
                best_fresh = fresh
        if best is None:
            break
        chosen.append(best[1])
        uncovered -= best[0]
    residual = sorted(uncovered)
    if residual:
        chosen.append(FrobPattern("finite", None, tuple(residual)))
    # validation: every pattern regenerates only observed pairs
    for pat in chosen:
        if not pat.generate(m_max, n_max) <= pairs:
            raise AssertionError(f"pattern {pat.describe()} regenerates unobserved pairs")
    result.patterns = chosen
    result.residual = residual
    return chosen


# ---------------------------------------------------------------------------
# stable power exponents e and f
# ---------------------------------------------------------------------------

@dataclass
class StableExponent:
    value: Optional[int]
    verified: bool
    degrees: List[Tuple[int, int]]  # (n, [K(s^n):K]) certificates

    def __bool__(self):
        return self.value is not None


def compute_ef(s: AlgElem, search_bound: int = 24) -> StableExponent:
    """Smallest e with K(s^e) inside K(s^n) for all n <= search_bound,
    with membership decided by power-basis linear algebra.  The result is
    box-verified only; gcd(e, p) = 1 is asserted on success."""
    if search_bound > 64:
        raise ValueError("a record is built for every power up to the bound; keep bound <= 64")
    p = s.tower.base.p
    if s.in_base() is not None:
        return StableExponent(1, True, [(1, 1)])
    # s need not be integral: a record only needs its degree and its span,
    # fed from one cache of the powers of s
    pows = {1: s}
    records = {
        n: MonOrder(power_of(pows, 1, n), require_integral=False, power=partial(power_of, pows, n))
        for n in range(1, search_bound + 1)
    }
    degrees = [(n, rec.d) for n, rec in records.items()]

    def contained(a: int, b: int) -> bool:
        # K(s^a) subset of K(s^b) iff s^a in K(s^b)
        return express_in_power_basis(pows[a], records[b]) is not None

    for e in range(1, search_bound + 1):
        if e % p == 0:
            continue  # the stable exponent is coprime to p
        if all(contained(e, n) for n in range(1, search_bound + 1)):
            return StableExponent(e, True, degrees)
    return StableExponent(None, False, degrees)


# ---------------------------------------------------------------------------
# the easy branch: some power of s or t lies in O
# ---------------------------------------------------------------------------

@dataclass
class AddendumReport:
    e: int
    f: int
    s_power_in_O: bool
    t_power_in_O: bool
    s_unit: bool
    t_unit: bool
    minimal_MN: Optional[Tuple[int, int]]
    verdict: str

    def to_dict(self) -> dict:
        return {
            "e": self.e,
            "f": self.f,
            "s_power_in_O": self.s_power_in_O,
            "t_power_in_O": self.t_power_in_O,
            "s_unit": self.s_unit,
            "t_unit": self.t_unit,
            "minimal_MN": list(self.minimal_MN) if self.minimal_MN else None,
            "verdict": self.verdict,
        }


def addendum_report(s: RatFunc, t: RatFunc, ring: PlaceSet = POLY_RING) -> AddendumReport:
    """The branch where the searched elements have a power inside O; here
    both inputs are already rational, so e = f = 1 and everything reduces
    to divisor proportionality at the places outside T."""
    e = f = 1
    if s.is_zero() or t.is_zero():
        raise ValueError(f"addendum element {'s' if s.is_zero() else 't'} must be nonzero")
    # one split of T's places per side: no denominator left is a T-integer,
    # a constant numerator besides a T-unit; the numerator is the part outside T
    (_, num_s, den_s), (_, num_t, den_t) = (split_over(ring.finite_pis, a) for a in (s, t))
    s_in, t_in = den_s.is_one(), den_t.is_one()
    if not (s_in or t_in):
        raise ValueError("hypothesis violated: route back to the grid search")
    s_unit = s_in and num_s.is_constant()
    t_unit = t_in and num_t.is_constant()
    if s_in and t_in:
        if s_unit and t_unit:
            return AddendumReport(e, f, True, True, True, True, None,
                                  "both units: full residue grid (k,l) + eN x fN")
        if s_unit != t_unit:
            return AddendumReport(e, f, True, True, s_unit, t_unit, None,
                                  "empty: exactly one side is a unit")
        # neither unit: minimal (M, N) with s^{eM}/t^{fN} a unit.  Over the
        # squarefree coprime basis of the two parts outside T, v_pi(s) is
        # the exponent of the one b that pi divides, so the divisors are
        # proportional exactly when the exponent vectors are
        basis = coprime_basis([num_s, num_t])
        fs, ft = (factor_over(basis, RatFunc(num)) for num in (num_s, num_t))
        if fs is None or ft is None:
            raise AssertionError("a side did not factor over its coprime basis")
        es, et = fs[1], ft[1]
        gs, gt = math.gcd(*es), math.gcd(*et)
        if [v // gs for v in es] != [v // gt for v in et]:
            return AddendumReport(e, f, True, True, False, False, None,
                                  "empty: divisors are not proportional")
        # both vectors are nonzero and nonnegative, so M, N >= 1
        g = math.gcd(gs, gt)
        M, N = gt // g, gs // g
        if any(M * u != N * v for u, v in zip(es, et)):
            raise AssertionError("the minimal pair's ratio s^M/t^N is not a unit")
        return AddendumReport(e, f, True, True, False, False, (M, N),
                              "progression structure with the minimal unit-ratio pair")
    side = "s" if s_in else "t"
    other_unit = s_unit if s_in else t_unit
    verdict = (
        f"only {side}-powers lie in O; "
        + ("unit side: residue-progression structure" if other_unit
           else "Frobenius-union structure on the searched set")
    )
    return AddendumReport(e, f, s_in, t_in, s_unit, t_unit, None, verdict)


# ---------------------------------------------------------------------------
# bound calculator
# ---------------------------------------------------------------------------

@dataclass
class BoundReport:
    log10_main: Decimal
    log10_refined: Optional[Decimal]
    main_terms: Tuple[Decimal, Decimal] = None
    refined_terms: Optional[Tuple[Decimal, Decimal]] = None

    def to_dict(self) -> dict:
        out = {
            "log10_main": _digits25(self.log10_main),
            "log10_main_terms": [_digits25(t) for t in self.main_terms],
        }
        if self.log10_refined is not None:
            out["log10_refined"] = _digits25(self.log10_refined)
            out["log10_refined_terms"] = [_digits25(t) for t in self.refined_terms]
        return out


_DIGITS25 = Context(prec=25, rounding=ROUND_HALF_UP)


def _digits25(x: Decimal) -> str:
    """x as the reports print it: 25 significant digits rounded half up,
    trailing zeros stripped, fixed notation when the leading digit's
    exponent lies in [-7, 24] and d.ddd...e+NN otherwise."""
    if not x:
        return "0.0"
    x = _DIGITS25.plus(x)
    sign, digit_tuple, _ = x.as_tuple()
    digits = "".join(map(str, digit_tuple))
    exp = x.adjusted()
    if -8 < exp < 25:
        digits = "0" * -exp + digits if exp < 0 else digits.ljust(exp + 1, "0")
        split, exp = max(exp, 0) + 1, 0
    else:
        split = 1
    text = (digits[:split] + "." + digits[split:]).rstrip("0")
    if text.endswith("."):
        text += "0"
    if exp:
        text += f"e{exp:+d}"
    return "-" + text if sign else text


def bound_calculator(
    d: int,
    p: int,
    q_K: int,
    S_size: int,
    q_L: Optional[int] = None,
    r: Optional[int] = None,
    lam: Optional[int] = None,
) -> BoundReport:
    """log10 of the generator-count bound
    q_K^{d^6} + (exp(18^10) p^{3 d^4 |S|} log_p q_K)^{d^3}, plus the refined
    variant (min{q_L, q_K^{d^3}})^{d^3} + (exp(18^10) p^{2r} d^8 lam)^{d^3}
    when (q_L, r, lam) are supplied.  Extended-precision (60-digit)
    logarithms, no overflow."""
    if d < 2:
        raise ValueError("the bound needs degree d >= 2")
    for name, value, least in (
        ("p", p, 2), ("q_K", q_K, 2), ("S_size", S_size, 0),
        ("q_L", q_L, 1), ("r", r, 0), ("lambda", lam, 1),
    ):
        if value is not None and value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    check_characteristic(p)
    # q_L, the size of L's constant field, is q_K^j with j >= 1
    for name, value, over, base in (("q_K", q_K, "p", p), ("q_L", q_L or q_K, "q_K", q_K)):
        e, rest = split_power(value, base)
        if rest != 1 or not e:
            raise ValueError(f"{name} must be a power of {over} = {base}, got {value}")
    with localcontext() as ctx:
        ctx.prec = 60
        ln10 = Decimal(10).ln()
        ln_qK, ln_p = Decimal(q_K).ln(), Decimal(p).ln()
        log10_qK = ln_qK / ln10
        log10_p = ln_p / ln10
        term1 = (d ** 6) * log10_qK
        inner = (
            Decimal(18 ** 10) / ln10
            + (3 * d ** 4 * S_size) * log10_p
            + (ln_qK / ln_p).ln() / ln10
        )
        term2 = (d ** 3) * inner
        main = _log10_sum(term1, term2)
        refined = None
        refined_terms = None
        if q_L is not None and r is not None and lam is not None:
            first = (d ** 3) * min(Decimal(q_L).ln() / ln10, (d ** 3) * log10_qK)
            second = (d ** 3) * (
                Decimal(18 ** 10) / ln10
                + (2 * r) * log10_p
                + 8 * Decimal(d).ln() / ln10
                + Decimal(lam).ln() / ln10
            )
            refined = _log10_sum(first, second)
            refined_terms = (first, second)
        return BoundReport(main, refined, (term1, term2), refined_terms)


def _log10_sum(a: Decimal, b: Decimal) -> Decimal:
    """log10(10^a + 10^b) without overflow, at 60 digits."""
    hi, lo = (a, b) if a >= b else (b, a)
    with localcontext() as ctx:
        ctx.prec = 60
        return hi + (1 + Decimal(10) ** (lo - hi)).ln() / Decimal(10).ln()
