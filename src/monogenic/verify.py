"""Scripted mechanical verification of the explicitly checkable
constructions: the twisted quartic family over F_2, the shifted-generator
family built from the quartic Y^4 + x^4 Y^2 + x^3 Y + eta, and the
symmetric quadratic power family over F_7.

Universally quantified impossibility claims are only ever checked over
explicit finite boxes, and every report states its box: honesty about what
a finite computation establishes.  Reports are deterministic (canonical
ordering, no timing) so that identical inputs give byte-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .bivar import BivarPoly
from .funcfield import Place, Poly, RatFunc, valuation
from .frobsearch import sym_flags
from .gf import FqCtx
from .monorder import (
    MonOrder,
    POLY_RING,
    express_in_power_basis,
    fit_generator_relation,
    orders_equal,
    sym_in_order,
)
from .tower import Tower, frobenius_power, kp_eval


@dataclass
class CheckResult:
    name: str
    status: str  # "pass" | "fail" | "info"
    detail: str


@dataclass
class VerificationReport:
    title: str
    params: dict
    checks: List[CheckResult] = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str):
        self.checks.append(CheckResult(name, "pass" if ok else "fail", detail))

    def info(self, name: str, detail: str):
        self.checks.append(CheckResult(name, "info", detail))

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "params": {k: str(v) for k, v in sorted(self.params.items())},
            "passed": self.passed,
            "checks": [
                {"name": c.name, "status": c.status, "detail": c.detail}
                for c in self.checks
            ],
        }


# ---------------------------------------------------------------------------
# twisted quartic family over F_2: y^4 + x^2 y^2 + y + 1 = 0, s = x*y,
# s_m = x * y^{4^m} = x^{1-4^m} s^{4^m}
# ---------------------------------------------------------------------------

def quartic_twist_tower() -> Tower:
    ctx = FqCtx(2)
    x = RatFunc.gen(ctx)
    one = RatFunc.of(1, ctx)
    tw = Tower(ctx)
    tw.extend("y", [one, one, x * x, RatFunc.of(0, ctx), one])  # Y^4+x^2*Y^2+Y+1
    return tw


def verify_quartic_twist_family(m_max: int = 3, relation_box: int = 8) -> VerificationReport:
    """Checks on the family s_m = x y^{4^m}: equal discriminants, the
    membership chain, order equality, the exact twist identity, and the
    bounded non-affinity search (no s_i = s_j^{2^e} + b with b polynomial,
    the unit group being trivial here)."""
    if m_max > 4:
        raise ValueError("coordinate sizes grow as 4^m; keep m_max <= 4")
    if relation_box > 10:
        raise ValueError("check (v) squares each s_j relation_box times; keep relation_box <= 10")
    rep = VerificationReport(
        "twisted quartic family over F_2",
        {"m_max": m_max, "relation_box": relation_box},
    )
    tw = quartic_twist_tower()
    ctx = tw.base
    x = tw.x()
    y = tw.gen(0)
    s = x * y
    xr = RatFunc.gen(ctx)

    family = []
    y_power = y  # y^{4^m}
    for m in range(m_max + 2):
        family.append(x * y_power)
        y_power = frobenius_power(y_power, 2)

    order_s = MonOrder(s, POLY_RING)
    disc_s = order_s.disc
    rep.add(
        "disc(s) = x^12",
        disc_s == RatFunc(Poly.x(ctx) ** 12),
        f"disc(s) = {disc_s!r}",
    )

    for m in range(m_max + 1):
        sm = family[m]
        order_m = MonOrder(sm, POLY_RING)
        d = order_m.disc
        rep.add(f"(i) disc(s_{m}) = disc(s)", d == disc_s, f"disc(s_{m}) = {d!r}")
        coords = express_in_power_basis(family[m + 1], order_m)
        nxt = coords is not None and all(c.is_polynomial() for c in coords)
        # independent cross-check: re-evaluate the claimed coordinates
        nxt = nxt and (kp_eval(coords, sm) - family[m + 1]).is_zero()
        rep.add(f"(ii) s_{m+1} in O[s_{m}]", nxt,
                "power-basis coordinates are polynomial and re-evaluate exactly")
        eq = orders_equal(order_m, order_s)
        rep.add(f"(iii) O[s_{m}] = O[s]", bool(eq), eq.reason)
        twist = (xr ** (1 - 4 ** m)) * order_s.frobenius(2 * m)  # s^{4^m}
        rep.add(
            f"(iv) s_{m} = x^(1-4^{m}) * s^(4^{m})",
            (family[m] - twist).is_zero(),
            "exact identity in the tower",
        )

    # (v) bounded search: for i != j no s_i = s_j^{2^e} + b with b in O
    # (a is forced to 1 since the unit group of F_2[x] is trivial)
    violations = []
    twists = {}
    for j in range(m_max + 1):
        cur = family[j]
        for e in range(relation_box + 1):
            twists[(j, e)] = cur
            cur = frobenius_power(cur, 1)
    for i in range(m_max + 1):
        for j in range(m_max + 1):
            if i == j:
                continue
            for e in range(relation_box + 1):
                r = (family[i] - twists[(j, e)]).in_base()
                if r is not None and r.is_polynomial():
                    violations.append((i, j, e))
    rep.add(
        f"(v) no affine 2^e-twist between distinct s_i, s_j (e <= {relation_box})",
        not violations,
        f"searched e in [0, {relation_box}]; violations: {violations!r}",
    )
    return rep


# ---------------------------------------------------------------------------
# shifted-generator family: P(Y) = Y^4 + x^4 Y^2 + x^3 Y + eta over F_2,
# eta_{m+1} = eta^{4^m} + x^{3*4^m} eta_m + x^{4^{m+1}} eta_m^2,
# z_m = (s^{4^m} + eta_m) / x^{4^m - 1}
# ---------------------------------------------------------------------------

@dataclass
class EtaSequence:
    """The shift sequence eta_1 = seed, with the quartic recursion above."""

    seed: Poly
    terms: List[Poly] = field(default_factory=list)

    def term(self, m: int) -> Poly:
        """eta_m (1-indexed)."""
        if m < 1:
            raise ValueError("terms are 1-indexed")
        ctx = self.seed.ctx
        x = Poly.x(ctx)
        while len(self.terms) < m:
            if not self.terms:
                self.terms.append(self.seed)
                continue
            k = len(self.terms)  # building eta_{k+1}
            prev = self.terms[-1]
            nxt = self.seed ** (4 ** k) + x ** (3 * 4 ** k) * prev + x ** (4 ** (k + 1)) * prev * prev
            self.terms.append(nxt)
        return self.terms[m - 1]


def eta_conditions_hold(eta: Poly) -> Optional[str]:
    """The two seed conditions: x does not divide eta, and the quartic is
    irreducible (certified by specialization).  Returns None when they hold,
    else a description of the failure."""
    try:
        _seed_tower(eta)
    except ValueError as exc:
        return str(exc)
    return None


def _seed_tower(eta: Poly) -> Tower:
    """The certified tower of the quartic for a seed that meets the seed
    conditions; a ValueError names the condition that fails."""
    ctx = eta.ctx
    if ctx.p != 2 or ctx.k != 1:
        raise ValueError("seed must live over F_2")
    if eta.is_constant():
        raise ValueError("seed must be non-constant")
    if eta.coeff(0).is_zero():
        raise ValueError("x divides the seed")
    return shifted_tower(eta)


def shifted_tower(eta: Poly) -> Tower:
    ctx = eta.ctx
    x = RatFunc.gen(ctx)
    tw = Tower(ctx)
    tw.extend("s", [RatFunc(eta), x ** 3, x ** 4, RatFunc.of(0, ctx), RatFunc.of(1, ctx)])
    return tw


def verify_shifted_generator_family(eta: Optional[Poly] = None, m_max: int = 4) -> VerificationReport:
    if m_max > 6:
        raise ValueError("s^(4^m) grows as 4^m; keep m_max <= 6")
    ctx = FqCtx(2)
    if eta is None:
        eta = Poly(ctx, [1, 1])  # x + 1
    try:
        tw = _seed_tower(eta)
    except ValueError as exc:
        raise ValueError(f"eta seed rejected: {exc}") from None
    rep = VerificationReport(
        "shifted-generator family over F_2",
        {"eta": repr(eta), "m_max": m_max},
    )
    rep.info("tower", tw.describe())
    s = tw.gen(0)
    xr = RatFunc.gen(ctx)
    xp = Poly.x(ctx)
    seq = EtaSequence(eta)
    vx = Place.finite(xp)

    order_s = MonOrder(s, POLY_RING)
    disc_s = order_s.disc
    rep.add("disc(s) = x^12", disc_s == RatFunc(xp ** 12), f"disc(s) = {disc_s!r}")

    # w_m = s^{4^m} + eta_m and z_m = w_m / x^{4^m - 1}, for m <= m_max + 1
    ws = {m: order_s.frobenius(2 * m) + RatFunc(seq.term(m)) for m in range(1, m_max + 2)}
    zs = {m: w / (xr ** (4 ** m - 1)) for m, w in ws.items()}
    orders_z = {}

    for m in range(1, m_max + 1):
        zm = zs[m]
        coords = express_in_power_basis(zm, order_s)
        ok = coords is not None and all(c.is_polynomial() for c in coords)
        ok = ok and (kp_eval(coords, s) - zm).is_zero()  # oracle cross-check
        detail = "no expression" if coords is None else f"coords {[repr(c) for c in coords]}"
        if m == 1:
            expected = (
                coords is not None
                and list(coords) == [RatFunc.of(0, ctx), RatFunc.of(1, ctx), RatFunc(xp), RatFunc.of(0, ctx)]
            )
            rep.add("(a) z_1 = x*s^2 + s with coordinates (0,1,x,0)", ok and expected, detail)
        else:
            rep.add(f"(a) z_{m} in O[s]", ok, detail if not ok else "polynomial coordinates")

        order_z = orders_z[m] = MonOrder(zm, POLY_RING, require_integral=False)
        eq = orders_equal(order_z, order_s)
        rep.add(f"(b) O[z_{m}] = O[s]", bool(eq), eq.reason)

        gap = RatFunc(seq.term(m + 1) - seq.term(m) ** 4)
        v = valuation(gap, vx)
        rep.add(
            f"(c) v(eta_{m+1} - eta_{m}^4) = 4^{m+1}-4",
            v == 4 ** (m + 1) - 4,
            f"v = {v}, expected {4 ** (m + 1) - 4}",
        )

        w = ws[m]
        chained = RatFunc(xp) * w * w + zm
        rep.add(
            f"(d) z_{m+1} = x*(s^(4^{m})+eta_{m})^2 + (s^(4^{m})+eta_{m})/x^(4^{m}-1)",
            (zs[m + 1] - chained).is_zero(),
            "chained identity from the membership proof",
        )

        dz = order_z.disc
        rep.add(f"(e) disc(z_{m}) = x^12", dz == RatFunc(xp ** 12), f"disc(z_{m}) = {dz!r}")

    # (f) the escape phenomenon: fitting z_m over z_j forces q = 4^{m-j} and
    # a shift b with negative valuation once m - j is large enough
    for j in range(1, m_max):
        for m in range(j + 1, m_max + 1):
            rel = fit_generator_relation(zs[m], orders_z[j], max_e=2 * (m - j) + 2)
            if rel is None:
                rep.add(f"(f) relation z_{m} over z_{j}", False, "no relation found in the horizon")
                continue
            ok_q = rel.q == 4 ** (m - j)
            expected_a = xr ** ((4 ** j - 1) * 4 ** (m - j) - (4 ** m - 1))
            expected_b = RatFunc(seq.term(m) - seq.term(j) ** (4 ** (m - j))) / xr ** (4 ** m - 1)
            ok_ab = rel.a == expected_a and rel.b == expected_b
            vb = valuation(rel.b, vx) if not rel.b.is_zero() else None
            lhs = 4 ** (j + 1) - 4
            rhs = 4 ** m - 4 ** (m - j)
            escaped = vb is not None and vb < 0 and not rel.b_in_ring
            rep.add(
                f"(f) z_{m} = a*z_{j}^(4^{m-j}) + b with b escaping O",
                ok_q and ok_ab and escaped and rel.disc_unit_ok,
                f"q={rel.q}, v(b)={vb}, shift valuation {lhs} vs floor {rhs}",
            )
    return rep


# ---------------------------------------------------------------------------
# symmetric quadratic power family over F_7: s = x, t = 3x + 2y,
# m = n = 7^i + 7^j
# ---------------------------------------------------------------------------

def symmetric_pair():
    ctx = FqCtx(7)
    x, y = BivarPoly.gens(ctx)
    s = x
    t = 3 * x + 2 * y
    return ctx, s, t


def verify_symmetric_quadratic_powers(i_max: int = 2, j_max: int = 2) -> VerificationReport:
    if max(i_max, j_max) > 2:
        raise ValueError("polynomial sizes grow as 7^i; keep exponents <= 2")
    rep = VerificationReport(
        "symmetric quadratic power family over F_7",
        {"i_max": i_max, "j_max": j_max},
    )
    ctx, s, t = symmetric_pair()

    mem = sym_in_order(t, t)
    rep.add("sanity: t in O[t]", mem.contained, mem.reason)

    for i in range(1, i_max + 1):
        for j in range(1, j_max + 1):
            m = 7 ** i + 7 ** j
            sm = s ** m
            tn = t ** m
            fwd = sym_in_order(sm, tn)
            rev = sym_in_order(tn, sm)
            rep.add(
                f"s^{m} in O[t^{m}] (i={i}, j={j})",
                fwd.contained,
                fwd.reason + (f"; B = {fwd.b.sym_decompose()!r}" if fwd.b is not None else ""),
            )
            rep.add(f"t^{m} in O[s^{m}] (i={i}, j={j})", rev.contained, rev.reason)

            # degenerate flags must all be false for these pairs
            in_a, in_b, in_c = sym_flags(sm, tn)
            rep.add(
                f"(m,n)=({m},{m}) is not in A, B, or C",
                not (in_a or in_b or in_c),
                f"in_A={in_a}, in_B={in_b}, in_C={in_c}",
            )

    # boundary probe: i = j = 0 is outside the asserted family; record only
    m0 = 2
    probe = sym_in_order(s ** m0, t ** m0)
    rep.info(
        "boundary probe (i,j)=(0,0), m=n=2",
        f"membership {'holds' if probe.contained else 'fails'}: {probe.reason} (recorded, not asserted)",
    )
    return rep
