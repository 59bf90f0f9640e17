"""Span tracing of the monogenic layers, installed from outside the library.

`Tracer.install` wraps the public entry points of each layer listed in
`LAYER_TARGETS`.  A wrapped module-level function is rebound under every
name that holds it in any `monogenic.*` module (for example
`minimal_polynomial` is imported by name into `monorder` and `frobsearch`),
and a wrapped method is rebound under every class attribute that holds it
(`__rmul__ = __mul__`), so no call escapes the count.  Nothing in `src/`
is edited.

While a task runs, every wrapped call records one span: name, start, end
and parent span.  After the task the spans are folded into per-name totals:
calls, total time, and self time (a span's duration minus the durations of
its direct children).  Small hooks record the outcome counts behind the
ratio metrics.  Outside `Tracer.active()` the wrappers only forward.
"""

from __future__ import annotations

import contextlib
import sys
import time
from array import array
from collections import defaultdict

# (module, class or None, attribute, span name, kind): a "span" target
# records a span; a "count" target only counts its calls, so its time stays
# in the enclosing span (the layer tables give these calls, no self time)
LAYER_TARGETS = [
    ("frobsearch", "TowerPowerPair", "equal", "frobsearch.equal", "span"),
    ("frobsearch", "SymPowerPair", "equal", "frobsearch.equal", "span"),
    ("frobsearch", None, "fit_patterns", "frobsearch.fit_patterns", "span"),
    ("frobsearch", "FrobPattern", "generate", "frobsearch.generate", "count"),
    ("frobsearch", None, "compute_ef", "frobsearch.compute_ef", "span"),
    ("monorder", None, "orders_equal", "monorder.orders_equal", "span"),
    ("monorder", "MonOrder", "__init__", "monorder.MonOrder", "count"),
    ("monorder", None, "in_order", "monorder.in_order", "count"),
    ("monorder", None, "sym_orders_equal", "monorder.sym_orders_equal", "span"),
    ("tower", None, "minimal_polynomial", "tower.minimal_polynomial", "span"),
    ("tower", None, "discriminant", "tower.discriminant", "span"),
    ("tower", "AlgElem", "__mul__", "tower.alg_mul", "span"),
    ("tower", "AlgElem", "__truediv__", "tower.alg_div", "span"),
    ("tower", "Tower", "extend", "tower.extend", "span"),
    ("linalg", None, "solve_in_span", "linalg.solve_in_span", "span"),
    ("linalg", "SpanTracker", "add", "linalg.span_add", "span"),
    ("funcfield", "Poly", "__mul__", "funcfield.poly_mul", "span"),
    ("funcfield", "Poly", "__divmod__", "funcfield.poly_divmod", "span"),
    ("funcfield", "Poly", "gcd", "funcfield.poly_gcd", "span"),
    ("funcfield", "Poly", "factor", "funcfield.factor", "count"),
    ("funcfield", "RatFunc", "__init__", "funcfield.ratfunc_new", "span"),
    ("gf", "FqCtx", "radd", "gf.raw_ops", "span"),
    ("gf", "FqCtx", "rsub", "gf.raw_ops", "span"),
    ("gf", "FqCtx", "rmul", "gf.raw_ops", "span"),
    ("gf", "FqCtx", "rinv", "gf.raw_ops", "span"),
    ("bivar", "BivarPoly", "__mul__", "bivar.mul", "span"),
    ("bivar", "BivarPoly", "divide_exact", "bivar.divide_exact", "span"),
    ("bivar", "BivarPoly", "sym_decompose", "bivar.sym_decompose", "span"),
    ("unitgrp", None, "build_group", "unitgrp.build_group", "span"),
    ("unitgrp", None, "solve_xy1", "unitgrp.solve_xy1", "span"),
    ("unitgrp", None, "pth_power_decompose", "unitgrp.pth_power_decompose", "span"),
    ("unitgrp", "GroupCtx", "factor_over_basis", "unitgrp.factor_over_basis", "count"),
    ("verify", None, "verify_quartic_twist_family", "verify", "span"),
    ("verify", None, "verify_shifted_generator_family", "verify", "span"),
    ("verify", None, "verify_symmetric_quadratic_powers", "verify", "span"),
    ("parse", None, "parse_element", "parse.parse_element", "span"),
    ("cli", None, "run_scenario", "cli.run_scenario", "span"),
]

# spans the benchmark opens itself around library calls
OWN_SPANS = ["cli.report_json"]

SPAN_NAMES = sorted({t[3] for t in LAYER_TARGETS if t[4] == "span"} | set(OWN_SPANS))


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self):
        self._ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self._on = False
        self._stack = [-1]
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(int)
        self._minpoly_args = set()
        self._fit_pairs = None
        self._in_order_parents = set()
        self._orders_equal_spans = []

    # ---- recording

    def _open(self, name_id):
        idx = len(self._name)
        self._name.append(name_id)
        self._parent.append(self._stack[-1])
        self._start.append(0.0)
        self._end.append(0.0)
        self._stack.append(idx)
        return idx

    def _wrap(self, fn, name, hook):
        name_id = self._ids[name]
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer._on:
                return fn(*args, **kwargs)
            idx = tracer._open(name_id)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                tracer._stack.pop()
                tracer._start[idx] = t0
                tracer._end[idx] = t1
            if hook is not None:
                hook(idx, args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _counted(self, fn, name, hook):
        tracer = self

        def counted(*args, **kwargs):
            if not tracer._on:
                return fn(*args, **kwargs)
            tracer.calls[name] += 1
            enclosing = tracer._stack[-1]
            out = fn(*args, **kwargs)
            if hook is not None:
                hook(enclosing, args, out)
            return out

        counted.__wrapped__ = fn
        counted.__name__ = getattr(fn, "__name__", name)
        return counted

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself (no-op when inactive)."""
        if not self._on:
            yield
            return
        idx = self._open(self._ids[name])
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self._start[idx] = t0
            self._end[idx] = t1

    @contextlib.contextmanager
    def active(self):
        """Record spans for the duration of one task, then fold them."""
        self._on = True
        try:
            yield
        finally:
            self._on = False
            self._fold()

    def _fold(self):
        names = SPAN_NAMES
        n = len(self._name)
        child = [0.0] * n
        dur = [e - s for s, e in zip(self._start, self._end)]
        for i in range(n):
            par = self._parent[i]
            if par >= 0:
                child[par] += dur[i]
        for i in range(n):
            name = names[self._name[i]]
            self.calls[name] += 1
            self.total_s[name] += dur[i]
            self.self_s[name] += dur[i] - child[i]
        rejected = sum(1 for i in self._orders_equal_spans if i not in self._in_order_parents)
        self.counters["orders_equal.degree_reject"] += rejected
        self.counters["minpoly.distinct"] += len(self._minpoly_args)
        self._minpoly_args.clear()
        self._in_order_parents.clear()
        self._orders_equal_spans = []
        self._fit_pairs = None
        for arr in (self._name, self._parent):
            del arr[:]
        for arr in (self._start, self._end):
            del arr[:]

    # ---- hooks behind the ratio metrics

    def _hook_equal(self, idx, args, out):
        if out:
            self.counters["equal.true"] += 1

    def _pre_fit(self, fn):
        def call(result, p, *rest, **kw):
            outer = self._fit_pairs
            if self._on:
                self._fit_pairs = frozenset(result.pairs)
            try:
                return fn(result, p, *rest, **kw)
            finally:
                self._fit_pairs = outer

        call.__wrapped__ = fn
        return call

    def _hook_generate(self, idx, args, out):
        if self._fit_pairs is not None:
            self.counters["generate.in_fit"] += 1
            if out <= self._fit_pairs:
                self.counters["generate.kept"] += 1

    def _hook_orders_equal(self, idx, args, out):
        self._orders_equal_spans.append(idx)
        if out:
            self.counters["orders_equal.true"] += 1

    def _hook_in_order(self, enclosing, args, out):
        self._in_order_parents.add(enclosing)

    def _hook_minpoly(self, idx, args, out):
        t = args[0]
        self._minpoly_args.add((id(t.tower), t.val))

    def _hook_poly_mul(self, idx, args, out):
        if out is NotImplemented:
            return
        a, b = args[0], args[1]
        la = len(a.coeffs)
        lb = len(b.coeffs) if hasattr(b, "coeffs") else 1
        self.counters["poly_mul.len_sum"] += max(la, lb)
        self._note_len(max(la, lb, len(out.coeffs)))

    def _hook_poly_divmod(self, idx, args, out):
        if out is NotImplemented:
            return
        self._note_len(len(args[0].coeffs))

    def _hook_gcd(self, idx, args, out):
        self._note_len(max(len(args[0].coeffs), len(args[1].coeffs)))
        if out.is_one():
            self.counters["gcd.trivial"] += 1

    def _note_len(self, n):
        if n > self.counters["poly.max_len"]:
            self.counters["poly.max_len"] = n

    def _hook_solve_xy1(self, idx, args, out):
        gctx = args[0]
        cosets = gctx.ctx.p ** len(gctx.sat_basis) - 1
        self.counters["xy1.coset_pairs"] += cosets * cosets
        self.counters["xy1.families"] += sum(1 for f in out if not f.torsion)

    # ---- installation

    def install(self, package):
        """Wrap every target in the imported `package` (the monogenic
        package with its submodules loaded) and rebind each name that
        refers to a target."""
        hooks = {
            "frobsearch.equal": self._hook_equal,
            "frobsearch.generate": self._hook_generate,
            "monorder.orders_equal": self._hook_orders_equal,
            "monorder.in_order": self._hook_in_order,
            "tower.minimal_polynomial": self._hook_minpoly,
            "funcfield.poly_mul": self._hook_poly_mul,
            "funcfield.poly_divmod": self._hook_poly_divmod,
            "funcfield.poly_gcd": self._hook_gcd,
            "unitgrp.solve_xy1": self._hook_solve_xy1,
        }
        prefix = package.__name__ + "."
        modules = {
            name[len(prefix):]: mod
            for name, mod in sys.modules.items()
            if name.startswith(prefix)
        }
        modules[package.__name__] = package
        replaced = {}
        for mod_name, cls_name, attr, span, kind in LAYER_TARGETS:
            owner = modules[mod_name]
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            orig = owner.__dict__[attr] if cls_name else getattr(owner, attr)
            make = self._wrap if kind == "span" else self._counted
            wrapped = make(orig, span, hooks.get(span))
            if span == "frobsearch.fit_patterns":
                wrapped = self._pre_fit(wrapped)
            replaced[id(orig)] = (orig, wrapped)
            if cls_name is not None:
                # every class attribute bound to the same function, e.g.
                # `__rmul__ = __mul__`
                for key, val in list(owner.__dict__.items()):
                    if val is orig:
                        setattr(owner, key, wrapped)
        for mod in modules.values():
            for key, val in list(vars(mod).items()):
                hit = replaced.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, key, hit[1])
        return self

    # ---- derived per-layer metrics

    def metrics(self, overhead: float) -> dict:
        """The per-layer metrics named in BENCHMARK.json, by name."""
        c, s, k = self.calls, self.self_s, self.counters
        out = {
            "frobsearch.equal.calls": c["frobsearch.equal"],
            "frobsearch.equal.self_s": s["frobsearch.equal"],
            "frobsearch.pairs_per_cell": _ratio(k["equal.true"], c["frobsearch.equal"]),
            "frobsearch.fit_patterns.calls": c["frobsearch.fit_patterns"],
            "frobsearch.fit_patterns.self_s": s["frobsearch.fit_patterns"],
            "frobsearch.generate.calls": c["frobsearch.generate"],
            "frobsearch.kept_per_generate": _ratio(k["generate.kept"], k["generate.in_fit"]),
            "frobsearch.compute_ef.self_s": s["frobsearch.compute_ef"],
            "monorder.orders_equal.calls": c["monorder.orders_equal"],
            "monorder.orders_equal.self_s": s["monorder.orders_equal"],
            "monorder.orders_equal.true_ratio": _ratio(
                k["orders_equal.true"], c["monorder.orders_equal"]
            ),
            "monorder.degree_reject_ratio": _ratio(
                k["orders_equal.degree_reject"], c["monorder.orders_equal"]
            ),
            "monorder.MonOrder.calls": c["monorder.MonOrder"],
            "monorder.in_order.calls": c["monorder.in_order"],
            "monorder.sym_orders_equal.calls": c["monorder.sym_orders_equal"],
            "monorder.sym_orders_equal.self_s": s["monorder.sym_orders_equal"],
            "tower.minimal_polynomial.calls": c["tower.minimal_polynomial"],
            "tower.minimal_polynomial.self_s": s["tower.minimal_polynomial"],
            "tower.minimal_polynomial.distinct_ratio": _ratio(
                k["minpoly.distinct"], c["tower.minimal_polynomial"]
            ),
            "tower.discriminant.calls": c["tower.discriminant"],
            "tower.discriminant.self_s": s["tower.discriminant"],
            "tower.alg_mul.calls": c["tower.alg_mul"],
            "tower.alg_mul.self_s": s["tower.alg_mul"],
            "tower.alg_div.calls": c["tower.alg_div"],
            "tower.alg_div.self_s": s["tower.alg_div"],
            "tower.extend.self_s": s["tower.extend"],
            "linalg.solve_in_span.calls": c["linalg.solve_in_span"],
            "linalg.solve_in_span.self_s": s["linalg.solve_in_span"],
            "linalg.span_add.calls": c["linalg.span_add"],
            "linalg.span_add.self_s": s["linalg.span_add"],
            "funcfield.poly_mul.calls": c["funcfield.poly_mul"],
            "funcfield.poly_mul.self_s": s["funcfield.poly_mul"],
            "funcfield.poly_mul.mean_len": _ratio(
                k["poly_mul.len_sum"], c["funcfield.poly_mul"]
            ),
            "funcfield.poly_max_len": k["poly.max_len"],
            "funcfield.poly_divmod.calls": c["funcfield.poly_divmod"],
            "funcfield.poly_divmod.self_s": s["funcfield.poly_divmod"],
            "funcfield.poly_gcd.calls": c["funcfield.poly_gcd"],
            "funcfield.poly_gcd.self_s": s["funcfield.poly_gcd"],
            "funcfield.gcd_trivial_ratio": _ratio(k["gcd.trivial"], c["funcfield.poly_gcd"]),
            "funcfield.ratfunc_new.calls": c["funcfield.ratfunc_new"],
            "funcfield.ratfunc_new.self_s": s["funcfield.ratfunc_new"],
            "funcfield.factor.calls": c["funcfield.factor"],
            "gf.raw_ops.calls": c["gf.raw_ops"],
            "gf.self_s": s["gf.raw_ops"],
            "bivar.mul.calls": c["bivar.mul"],
            "bivar.mul.self_s": s["bivar.mul"],
            "bivar.divide_exact.calls": c["bivar.divide_exact"],
            "bivar.divide_exact.self_s": s["bivar.divide_exact"],
            "bivar.sym_decompose.calls": c["bivar.sym_decompose"],
            "bivar.sym_decompose.self_s": s["bivar.sym_decompose"],
            "unitgrp.build_group.self_s": s["unitgrp.build_group"],
            "unitgrp.solve_xy1.self_s": s["unitgrp.solve_xy1"],
            "unitgrp.pth_power_decompose.calls": c["unitgrp.pth_power_decompose"],
            "unitgrp.pth_power_decompose.self_s": s["unitgrp.pth_power_decompose"],
            "unitgrp.factor_over_basis.calls": c["unitgrp.factor_over_basis"],
            "unitgrp.families_per_coset_pair": _ratio(
                k["xy1.families"], k["xy1.coset_pairs"]
            ),
            "verify.self_s": s["verify"],
            "parse.parse_element.self_s": s["parse.parse_element"],
            "cli.run_scenario.self_s": s["cli.run_scenario"],
            "cli.report_json_s": self.total_s["cli.report_json"],
            "trace.overhead": overhead,
        }
        return out
