"""The four seeded workloads and the correctness gate of every task.

A workload turns a `random.Random` seeded from `--seed` into an endless
stream of tasks, one round after another.  A round lists fixed slots (the
task kind and its size); the seed fills in the data of each slot.  Finite
choice sets (the eta seeds, the symmetric coefficients) are dealt from a
shuffled deck, so that every run of a few rounds sees each choice about
equally often whatever the seed.

An untraced run times the first `rounds` rounds of the stream, pass after
pass (see run.py).  Per-task times of one slot still vary by about a fifth
from seed to seed, so the rounds are laid out to keep the median of that
list and of its 90th percentile (the tail) away from a jump between task
sizes: the tasks that rank around the middle by time are several of one
size, and so are those that rank around the top tenth.

Inputs are drawn and checked here, outside the timed region; draws that the
library would reject (eta conditions, separability, irreducibility
certification) or that would exceed the per-task size caps are thrown away
and drawn again.  Integrality holds by construction: defining polynomials
and search elements are drawn with polynomial coefficients.  The size caps
come from per-task times measured on a 2-core x86 machine with CPython
3.11: search towers of degree <= 4 at box <= 10 (<= 1.9 s), fit inputs of
<= 30 pairs in box <= 40 (<= 5 s), unit groups of rank <= 4 over F_3 and
<= 3 over F_5 and F_4 (<= 1.5 s; rank 4 over F_5 took 24 s and over F_7
428 s).

A task is one call into the public API: `cli.run_scenario` plus
`json.dumps(report, sort_keys=True)`, or `frobsearch.fit_patterns` for
`fit`.  Each task carries a check of invariants that do not come from the
code path under test; a failed check counts the task as failed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, List, Optional


@dataclass
class Task:
    kind: str
    label: str
    run: Callable  # run(tracer or None) -> output; the timed call
    check: Callable  # check(output) -> None, or a failure description
    text: Callable  # text(output) -> canonical report text for the digest
    status: Callable = lambda out: None  # what the check reads beside the text

    def key(self, out):
        """Equal for two outputs the check cannot tell apart."""
        return self.text(out), self.status(out)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Deck:
    """Deals a finite choice set in seeded shuffles, one full pass at a time."""

    def __init__(self, rng, items):
        self.rng = rng
        self.items = list(items)
        self.pending = []

    def draw(self):
        if not self.pending:
            self.pending = list(self.items)
            self.rng.shuffle(self.pending)
        return self.pending.pop()


def poly_text(coeffs, var: str = "x") -> str:
    """Little-endian coefficient strings (or ints) as parser input text."""
    terms = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = str(coeffs[i])
        if c == "0":
            continue
        if i == 0:
            terms.append(c if "+" not in c else f"({c})")
            continue
        mono = var if i == 1 else f"{var}^{i}"
        if c == "1":
            terms.append(mono)
        else:
            terms.append(f"({c})*{mono}" if "+" in c else f"{c}*{mono}")
    return "+".join(terms) or "0"


def random_poly(rng, p: int, degree: int) -> List[int]:
    return [rng.randrange(p) for _ in range(degree + 1)]


def _scenario_task(lib, kind, label, scenario, check) -> Task:
    def run(tracer):
        report, code = lib.cli.run_scenario(scenario)
        if tracer is None:
            text = json.dumps(report, sort_keys=True)
        else:
            with tracer.span("cli.report_json"):
                text = json.dumps(report, sort_keys=True)
        return report, code, text

    def gate(out):
        report, code, _ = out
        if code != 0:
            return f"exit code {code}"
        return check(report)

    return Task(kind, label, run, gate, lambda out: out[2], lambda out: out[1])


def _search_check(expect_identity: bool, box: int):
    def check(report):
        res = report["search"]
        if res["box"] != [box, box]:
            return f"box {res['box']} != {box}"
        if res["closure_violations"]:
            return f"closure violations {res['closure_violations']}"
        if expect_identity and [1, 1] not in res["pairs"]:
            return "(1, 1) missing although O[t] = O[s] by construction"
        return None

    return check


def _tower_scenario(p, poly, t, params, task="search"):
    return {
        "task": task,
        "base": {"p": p},
        "tower": {"levels": [{"label": "s", "poly": poly}]},
        "elements": {"s": "s", "t": t},
        "params": params,
    }


def _shifted_poly(eta: str) -> str:
    return f"s^4+x^4*s^2+x^3*s+{eta}"


class _EtaDeck:
    """Eta seeds of degree <= 3 over F_2, dealt in shuffles; draws failing
    `eta_conditions_hold` are rejected."""

    def __init__(self, lib, rng):
        self.lib = lib
        self.ctx = lib.gf.FqCtx(2)
        self.deck = Deck(rng, [c for c in range(2, 16)])
        self.verdict = {}

    def draw(self) -> str:
        while True:
            bits = self.deck.draw()
            coeffs = [(bits >> i) & 1 for i in range(4)]
            while coeffs[-1] == 0:
                coeffs.pop()
            if bits not in self.verdict:
                eta = self.lib.funcfield.Poly(self.ctx, coeffs)
                self.verdict[bits] = self.lib.verify.eta_conditions_hold(eta) is None
            if self.verdict[bits]:
                return poly_text(coeffs)


# ---------------------------------------------------------------------------
# search: tower power-pair searches
# ---------------------------------------------------------------------------

# (tower, t form, box); "lin" is c*s + b(x) and "xs2" is x*s^2 + s, both
# with O[t] = O[s]; "sq" is s^2 + b(x), which exercises the reject paths.
# Rounds are laid out for steady medians (see the module docstring): two
# small F_3 slots, five quartic slots at box 6 that hold the median, four
# at box 7 that hold the tail, one at box 10.
SEARCH_ROUND = [
    ("quartic", "lin", 6),
    ("quartic", "lin", 7),
    ("quadratic", "lin", 10),
    ("quartic", "xs2", 6),
    ("quartic", "sq", 7),
    ("cubic", "sq", 6),
    ("quartic", "sq", 6),
    ("quartic", "xs2", 7),
    ("quartic", "xs2", 10),
    ("quartic", "lin", 6),
    ("quartic", "lin", 7),
    ("quartic", "xs2", 6),
]


class SearchWorkload:
    name = "search"
    round = SEARCH_ROUND
    rounds = 1
    trace_count = 4

    def __init__(self, lib, rng):
        self.lib = lib
        self.rng = rng
        self.etas = _EtaDeck(lib, rng)
        self.f3 = lib.gf.FqCtx(3)

    def _f3_level(self, degree: int) -> str:
        """A certified, separable level over F_3(x).  Its coefficients are
        drawn as polynomials, so s is integral over F_3[x] by construction."""
        lib, ctx, rng = self.lib, self.f3, self.rng
        RatFunc, Poly = lib.funcfield.RatFunc, lib.funcfield.Poly
        while True:
            # cubic levels keep lower coefficient degrees: a cubic search at
            # box 10 with quadratic a_1, a_2 took up to 2.5 s
            top = 2 if degree == 2 else 1
            lows = [random_poly(rng, 3, top if i else top + 1) for i in range(degree)]
            if lows[0][-1] == 0:
                continue  # keep deg a_0 fixed, so task sizes stay alike
            coeffs = [RatFunc(Poly(ctx, c)) for c in lows] + [RatFunc.of(1, ctx)]
            tw = lib.tower.Tower(ctx)
            try:
                tw.extend("s", coeffs)
            except ValueError:
                continue  # inseparable
            if tw.levels[0].status == "assumed":
                continue  # not certified irreducible
            parts = [f"s^{degree}"]
            for i in range(degree - 1, -1, -1):
                c = poly_text(lows[i])
                if c == "0":
                    continue
                mono = "" if i == 0 else ("*s" if i == 1 else f"*s^{i}")
                parts.append(f"({c}){mono}")
            return "+".join(parts)

    def make(self, slot) -> Task:
        tower, form, box = slot
        rng = self.rng
        if tower == "quartic":
            p, poly = 2, _shifted_poly(self.etas.draw())
        else:
            p, poly = 3, self._f3_level(2 if tower == "quadratic" else 3)
        b = poly_text(random_poly(rng, p, 3))
        if form == "lin":
            c = rng.randrange(1, p)
            t = ("s" if c == 1 else f"{c}*s") + ("" if b == "0" else f"+{b}")
        elif form == "xs2":
            t = "x*s^2+s"
        else:
            t = "s^2" + ("" if b == "0" else f"+{b}")
        params = {"s": "s", "t": "t", "m_max": box, "n_max": box}
        scenario = _tower_scenario(p, poly, t, params)
        check = _search_check(form != "sq", box)
        return _scenario_task(self.lib, "search", f"{poly} | t={t} | box {box}", scenario, check)


# ---------------------------------------------------------------------------
# fit: pattern fitting on planted pair sets
# ---------------------------------------------------------------------------

# (q, box, pair count, comparable pairs, planted kinds).  fit_patterns
# time follows the number of ordered pairs of input pairs that are
# comparable, (m, n) <= (m', n') in both coordinates, which is how many
# two-point fits it tries; it doubles across draws of one pair count, so
# each slot also fixes that number to within one.  Three q = 3 inputs, five
# at box 16 that hold the median, four at box 20 that hold the tail.
FIT_ROUND = [
    (2, 16, 10, 34, ("F2", "A")),
    (2, 20, 12, 50, ("F", "A")),
    (3, 20, 12, 54, ("F1", "F", "A")),
    (2, 16, 10, 34, ("F", "A")),
    (2, 20, 12, 50, ("F1", "F2", "A")),
    (2, 16, 10, 34, ("F1", "F2", "A")),
    (3, 24, 14, 65, ("F1", "F2", "F", "A")),
    (2, 20, 12, 50, ("F", "F1", "F2")),
    (2, 16, 10, 34, ("F", "F1")),
    (3, 24, 14, 65, ("F2", "F", "A")),
    (2, 20, 12, 50, ("F2", "F", "A")),
    (2, 16, 10, 34, ("F2", "F")),
]


def comparable_pairs(pairs) -> int:
    """Ordered pairs of distinct input pairs with the second above the first
    in both coordinates."""
    return sum(1 for a in pairs for b in pairs if a != b and a[0] <= b[0] and a[1] <= b[1])


def plant(kind: str, q: int, params, box: int) -> set:
    """Pairs of one planted pattern, generated independently of the library."""
    out = set()
    if kind == "F1":
        m, n = params
        while m <= box and n <= box:
            out.add((m, n))
            m, n = m * q, n * q
    elif kind == "F2":
        a, b = params
        rows, cols = [], []
        while a <= box:
            rows.append(a)
            a *= q
        while b <= box:
            cols.append(b)
            b *= q
        out = {(m, n) for m in rows for n in cols}
    elif kind == "F":
        c1, c2, c3, c4 = params
        powers = [q ** i for i in range(box.bit_length() + 1)]
        for a in powers:
            for b in powers:
                m, n = c1 * a + c2 * b, c3 * a + c4 * b
                if 1 <= m <= box and 1 <= n <= box:
                    out.add((m, n))
    elif kind == "A":
        (m, n), (dm, dn) = params
        while m <= box and n <= box:
            out.add((m, n))
            m, n = m + dm, n + dn
    return out


_MIN_SIZE = {"F1": 2, "F2": 4, "F": 3, "A": 3}


def _draw_pattern(rng, kind: str, q: int, box: int):
    while True:
        if kind in ("F1", "F2"):
            params = (rng.randint(1, box // q), rng.randint(1, box // q))
        elif kind == "F":
            params = tuple(rng.randint(1, 3) for _ in range(4))
        else:
            params = ((rng.randint(1, box // 2), rng.randint(1, box // 2)),
                      (rng.randint(0, 4), rng.randint(1, 4)))
        pairs = plant(kind, q, params, box)
        if len(pairs) >= _MIN_SIZE[kind]:
            return kind, params, pairs


class FitWorkload:
    name = "fit"
    round = FIT_ROUND
    rounds = 1
    trace_count = 4

    def __init__(self, lib, rng):
        self.lib = lib
        self.rng = rng

    def make(self, slot) -> Task:
        q, box, size, comparable, kinds = slot
        rng = self.rng
        for _ in range(1_000_000):
            planted = [_draw_pattern(rng, kind, q, box) for kind in kinds]
            pairs = set().union(*(pp for _, _, pp in planted))
            if len(pairs) == size and abs(comparable_pairs(pairs) - comparable) <= 1:
                break
        else:
            raise RuntimeError(f"no planted set of {size} pairs for {slot}")
        pairs = sorted(pairs)
        orbits = [pp for kind, _, pp in planted if kind in ("F1", "F2")]
        fs = self.lib.frobsearch

        def run(tracer):
            result = fs.MSearchResult(box, box, q, list(pairs), {}, [])
            chosen = fs.fit_patterns(result, q)
            return chosen, list(result.residual)

        def check(out):
            chosen, residual = out
            want = set(pairs)
            covered = set(residual)
            for pat in chosen:
                if pat.kind == "finite":
                    if sorted(pat.params) != sorted(residual):
                        return "finite pattern differs from the residual"
                    continue
                gen = set(fs.FrobPattern.generate(pat, box, box))
                if not gen <= want:
                    return f"{pat.describe()} generates pairs outside the input"
                covered |= gen
            if covered != want:
                return "patterns plus residual do not cover the input exactly"
            for orbit in orbits:
                if not orbit <= covered:
                    return "a planted F1/F2 orbit is not covered"
            return None

        def text(out):
            chosen, residual = out
            return json.dumps(
                {"patterns": [pat.to_dict() for pat in chosen],
                 "residual": [list(mn) for mn in residual]},
                sort_keys=True,
            )

        label = f"q={q} box {box} {len(pairs)} pairs " + "+".join(k for k, _, _ in planted)
        return Task("fit", label, run, check, text)


# ---------------------------------------------------------------------------
# verify: the worked families and their neighbours
# ---------------------------------------------------------------------------

# verify-b, the symmetric family over F_7, runs in sym_unit so that bivar
# work stays in that workload.  The two verify-a1 tasks (a fixed input)
# rank fourth and fifth of eight by time, so they hold the median.
VERIFY_ROUND = ["verify-a1", "verify-33", "disc", "ef", "verify-a1", "order-eq",
                "verify-33", "verify-33"]


def _verification_passed(report):
    return None if report["verification"]["passed"] else "verification checks failed"


def _verify_b_task(lib) -> Task:
    scenario = {"task": "verify-b", "params": {"i_max": 2, "j_max": 2}}
    return _scenario_task(lib, "verify-b", "i_max 2, j_max 2", scenario, _verification_passed)


class VerifyWorkload:
    name = "verify"
    round = VERIFY_ROUND
    rounds = 2
    trace_count = 7

    def __init__(self, lib, rng):
        self.lib = lib
        self.rng = rng
        # one deck per task kind, so each kind cycles through every seed
        self.etas = {kind: _EtaDeck(lib, rng) for kind in VERIFY_ROUND}

    def make(self, kind) -> Task:
        lib, rng = self.lib, self.rng
        if kind == "verify-a1":
            scenario = {"task": kind, "params": {"m_max": 3, "relation_box": 8}}
            return _scenario_task(lib, kind, "m_max 3", scenario, _verification_passed)
        eta = self.etas[kind].draw()
        if kind == "verify-33":
            scenario = {"task": kind, "base": {"p": 2}, "params": {"m_max": 4, "eta": eta}}
            return _scenario_task(lib, kind, f"eta={eta}", scenario, _verification_passed)
        poly = _shifted_poly(eta)
        if kind == "disc":
            scenario = _tower_scenario(2, poly, "s", {"element": "s", "places": ["inf", "x"]}, "disc")

            def check(report):
                if report["discriminant"] != "x^12":
                    return f"disc(s) = {report['discriminant']}, expected x^12"
                if report["disc_form_predicate"] is not True:
                    return "disc(s) = x^12 is a T-unit for T = {inf, x}"
                return None

            return _scenario_task(lib, kind, f"eta={eta}", scenario, check)
        if kind == "ef":
            scenario = _tower_scenario(2, poly, "s", {"element": "s", "bound": 8}, "ef")

            def check(report):
                e = report["stable_exponent"]
                if e is None or not report["verified_up_to_bound"]:
                    return "no verified stable exponent"
                if math.gcd(e, 2) != 1:
                    return f"stable exponent {e} is not coprime to p"
                if any(d != 4 for _, d in report["degrees"]):
                    return "a power of s left the quartic field"
                return None

            return _scenario_task(lib, kind, f"eta={eta}", scenario, check)
        if rng.random() < 0.5:
            t = "x*s^2+s"
        else:
            b = poly_text(random_poly(rng, 2, 3))
            t = "s" + ("" if b == "0" else f"+{b}")
        scenario = _tower_scenario(2, poly, t, {"s": "s", "t": "t"}, "order-eq")

        def check(report):
            return None if report["equal"] is True else f"O[{t}] != O[s]: {report['reason']}"

        return _scenario_task(lib, kind, f"eta={eta} t={t}", scenario, check)


# ---------------------------------------------------------------------------
# sym_unit: symmetric-backend searches and the x + y = 1 solver
# ---------------------------------------------------------------------------

# ("sym", box), ("antisym", box), ("unit", p, k, rank) or ("verify-b",):
# five small tasks, three symmetric searches at box 60 that hold the
# median, four large tasks.  Rank 3 over F_5 is left out: its time moves
# by a fifth with the generators drawn, and as the slowest task it would
# set the tail alone.
SYM_UNIT_ROUND = [
    ("sym", 60),
    ("unit", 3, 1, 3),
    ("unit", 3, 1, 4),
    ("sym", 60),
    ("unit", 2, 2, 3),
    ("sym", 100),
    ("unit", 5, 1, 2),
    ("sym", 60),
    ("verify-b",),
    ("unit", 3, 1, 4),
    ("sym", 30),
    ("antisym", 100),
]


def _field_text(v, p: int) -> str:
    """An element of F_{p^k} given by its coordinates in z."""
    return poly_text([c % p for c in v], "z")


def _parse_family(describe: str):
    head, tail = "(", ") ^ p^k, k>=0"
    if not (describe.startswith(head) and describe.endswith(tail)):
        return None
    parts = describe[len(head):-len(tail)].split(", ")
    return tuple(parts) if len(parts) == 2 else None


class SymUnitWorkload:
    name = "sym_unit"
    round = SYM_UNIT_ROUND
    rounds = 2
    trace_count = 5

    def __init__(self, lib, rng):
        self.lib = lib
        self.rng = rng
        # t = a(x - y) squares to a symmetric element and is three times
        # cheaper to search, so it has its own slot
        self.coeffs = Deck(rng, [(a, b) for a in range(1, 7) for b in range(1, 7)
                                 if a != b and (a + b) % 7])
        self.antisym = Deck(rng, [(a, 7 - a) for a in range(1, 7)])
        self.ctxs = {}

    def _ctx(self, p, k):
        if (p, k) not in self.ctxs:
            self.ctxs[(p, k)] = self.lib.gf.FqCtx(p, k)
        return self.ctxs[(p, k)]

    def _env(self, ctx):
        env = {"x": self.lib.funcfield.RatFunc.gen(ctx)}
        if ctx.k > 1:
            env[ctx.gen_label] = ctx.gen
        return env

    def _parse(self, ctx, text):
        RatFunc = self.lib.funcfield.RatFunc
        return RatFunc.of(self.lib.parse.parse_element(text, self._env(ctx), RatFunc.of(1, ctx)), ctx)

    def make(self, slot) -> Task:
        if slot[0] in ("sym", "antisym"):
            return self._sym(slot[1], self.coeffs if slot[0] == "sym" else self.antisym)
        if slot[0] == "verify-b":
            return _verify_b_task(self.lib)
        return self._unit(*slot[1:])

    def _sym(self, box, deck) -> Task:
        a, b = deck.draw()
        t = f"{a}*x+{b}*y"
        scenario = {
            "task": "search", "base": {"p": 7}, "backend": "symmetric",
            "elements": {"s": "x", "t": t},
            "params": {"s": "s", "t": "t", "m_max": box, "n_max": box},
        }
        # t = (a - b) x + b (x + y) with a != b, so O[t] = O[x]
        return _scenario_task(self.lib, "sym-search", f"t={t} box {box}", scenario,
                              _search_check(True, box))

    def _unit(self, p, k, rank) -> Task:
        lib, rng = self.lib, self.rng
        ctx = self._ctx(p, k)
        while True:
            c = [rng.randrange(p) for _ in range(k)]
            one_minus_c = [(1 if i == 0 else 0) - ci for i, ci in enumerate(c)]
            gens = [
                poly_text([_field_text(c, p), "1"]),
                poly_text([_field_text(one_minus_c, p), str(p - 1)]),
            ]
            for _ in range(rank - 2):
                deg = rng.randint(1, 2)
                coeffs = [_field_text([rng.randrange(p) for _ in range(k)], p) for _ in range(deg)]
                gens.append(poly_text(coeffs + ["1"]))
            if len(set(gens)) != len(gens):
                continue
            group = lib.unitgrp.build_group([self._parse(ctx, g) for g in gens], ctx)
            if group.rank == rank:
                break
        base = {"p": p} if k == 1 else {"p": p, "k": k}
        scenario = {"task": "unit-solve", "base": base,
                    "params": {"generators": gens, "height_bound": 32}}

        def check(report):
            if report["group"]["rank"] != rank:
                return f"rank {report['group']['rank']} != {rank}"
            if report["family_count"] != len(report["families"]):
                return "family_count disagrees with the family list"
            one = lib.funcfield.RatFunc.of(1, ctx)
            reps = []
            for fam in report["families"]:
                xy = _parse_family(fam)
                if xy is None:
                    return f"unreadable family {fam!r}"
                x0, y0 = (self._parse(ctx, v) for v in xy)
                if x0 + y0 != one:
                    return f"x0 + y0 != 1 for {fam!r}"
                reps.append((x0, y0))
            return self._agrees_with_brute_force(group, reps)

        return _scenario_task(lib, "unit-solve", f"F_{p}^{k} rank {rank}: {gens}", scenario, check)

    def _agrees_with_brute_force(self, group, reps, box: int = 1):
        """Every brute-force solution in the exponent box is a p-power
        twist of a family representative, and every representative inside
        the box is a brute-force solution."""
        p = group.ctx.p
        brute = {(x.value(), y.value()) for x, y in self.lib.unitgrp.brute_force_xy1(group, box)}
        twists = set()
        for x0, y0 in reps:
            x, y = x0, y0
            for _ in range(4):
                twists.add((x, y))
                x, y = x ** p, y ** p
        missing = brute - twists
        if missing:
            return f"{len(missing)} brute-force solutions in box {box} are in no family"
        for x0, y0 in reps:
            fx, fy = group.factor_over_basis(x0), group.factor_over_basis(y0)
            inside = all(abs(e) <= box for e in fx[1] + fy[1])
            if inside and (x0, y0) not in brute:
                return f"family ({x0!r}, {y0!r}) is missing from the brute-force box"
        return None


WORKLOADS = {
    w.name: w for w in (SearchWorkload, FitWorkload, VerifyWorkload, SymUnitWorkload)
}


def task_stream(workload):
    """Endless tasks, round after round."""
    while True:
        for slot in workload.round:
            yield workload.make(slot)


def timed_tasks(workload) -> List[Task]:
    """The task list of an untraced run: the first `rounds` rounds."""
    return list(itertools.islice(task_stream(workload), workload.rounds * len(workload.round)))


def trace_tasks(workload) -> List[Task]:
    """The fixed task list of a traced run: the first `trace_count` tasks
    of the stream, so that counts repeat exactly between traced runs."""
    return list(itertools.islice(task_stream(workload), workload.trace_count))


def first_failure(task: Task, out) -> Optional[str]:
    try:
        return task.check(out)
    except Exception as exc:  # a malformed report is a failed task
        return f"check raised {type(exc).__name__}: {exc}"
