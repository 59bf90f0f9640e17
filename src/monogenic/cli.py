"""Scenario-driven command line front end.

A scenario is a JSON file with a `task` plus the data it needs:

    {
      "task": "disc" | "order-eq" | "search" | "unit-solve" | "ef"
            | "verify-a1" | "verify-33" | "verify-b" | "bounds" | "addendum",
      "base": {"p": 2, "k": 1, "modulus": "..."},      # optional (default F_2)
      "backend": "tower" | "symmetric",                # optional
      "tower": {"levels": [{"label": "s", "poly": "s^4+..."}],
                "assume_irreducible": false},          # tower backend only
      "elements": {"s": "...", "t": "..."},            # named elements
      "params": { ... }                                # task parameters
    }

A task is declared once, in `_TASKS`: the top-level keys it reads, its
params and their defaults, its fixed field, the params `--box` sets and its
handler.  Unknown keys anywhere are rejected (exit 2), and so is every
top-level key the task does not read (a base on bounds, a backend on
unit-solve, a tower under the symmetric backend) and a base other than the
task's fixed field (verify-a1 and verify-33 run over F_2, verify-b over F_7).
Exit codes: 0 success, 1 failed verify checks or closure violations of a
search, 2 configuration error or a report that could not be written (a
closed pipe, a full device).
`--json` selects machine output; reports are deterministic and re-runs are
byte-identical (timing goes to stderr, never into the report).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Callable, Dict, NamedTuple, Optional, Tuple

from .bivar import BivarPoly
from .frobsearch import (
    SymPowerPair,
    TowerPowerPair,
    addendum_report,
    bound_calculator,
    compute_ef,
    enumerate_M,
    fit_patterns,
)
from .funcfield import Place, PlaceSet, Poly, RatFunc
from .gf import FqCtx
from .monorder import MonOrder, POLY_RING, disc_form_predicate, orders_equal, sym_orders_equal
from .parse import ParseError, SymbolPoly, parse_element
from .tower import Tower
from .unitgrp import build_group, solve_xy1
from .verify import (
    verify_quartic_twist_family,
    verify_shifted_generator_family,
    verify_symmetric_quadratic_powers,
)


class ConfigError(ValueError):
    pass


# the top-level keys a task may read, besides its task and params
_READ_KEYS = ("base", "backend", "tower", "elements")


def _json_type(value) -> str:
    names = {dict: "object", list: "array", str: "string", bool: "boolean", type(None): "null"}
    return names.get(type(value), "number")


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {_json_type(value)}")
    return value


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{where} must be a JSON array, got {_json_type(value)}")
    return value


def _check_keys(d: dict, allowed, where: str):
    unknown = set(_object(d, where)) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def _build_base(cfg: dict) -> FqCtx:
    _check_keys(cfg, {"p", "k", "modulus"}, "base")
    p = cfg.get("p", 2)
    k = cfg.get("k", 1)
    modulus = cfg.get("modulus")
    coeffs = None
    if modulus is not None:
        if not isinstance(modulus, (str, list)):
            raise ConfigError(f"modulus must be a digit string or an array, got {modulus!r}")
        coeffs = [_int(c, "modulus coefficient") for c in modulus]
    return FqCtx(_int(p, "p"), _int(k, "k"), coeffs)


def _build_tower(ctx: FqCtx, cfg: dict) -> Tower:
    _check_keys(cfg, {"levels", "assume_irreducible"}, "tower")
    assume = cfg.get("assume_irreducible", False)
    if not isinstance(assume, bool):
        raise ConfigError(f"assume_irreducible must be a JSON boolean, got {_json_type(assume)}")
    tw = Tower(ctx)
    for lvl in _list(cfg.get("levels", []), "tower levels"):
        _check_keys(lvl, {"label", "poly"}, "tower level")
        if not isinstance(lvl.get("label"), str) or "poly" not in lvl:
            raise ConfigError("a tower level needs a string label and a poly")
        label = lvl["label"]
        env = _tower_env(tw) if tw.levels else _base_env(ctx, RatFunc.gen(ctx))
        zero = tw.from_base(0) if tw.levels else RatFunc.of(0, ctx)
        one = tw.from_base(1) if tw.levels else RatFunc.of(1, ctx)
        env[label] = SymbolPoly([zero, one], zero)
        poly = _parse(lvl["poly"], env, one, f"defining polynomial for {label!r}")
        if not isinstance(poly, SymbolPoly):
            raise ConfigError(f"defining polynomial for {label!r} does not involve it")
        try:
            tw.extend(label, poly.coeffs, assume_irreducible=assume)
        except ValueError as exc:
            raise ConfigError(str(exc))
    if not tw.levels:
        raise ConfigError("tower must declare at least one level")
    return tw


def _base_env(ctx: FqCtx, x) -> Dict[str, object]:
    """Parser names for the variable x and, when k > 1, the generator of F_q."""
    env = {"x": x}
    if ctx.k > 1:
        env[ctx.gen_label] = ctx.gen
    return env


def _parse(text: str, env, one, what: str):
    if not isinstance(text, str):
        raise ConfigError(f"bad {what}: expected a string, got {text!r}")
    try:
        return parse_element(text, env, one)
    except ParseError as exc:
        raise ConfigError(f"bad {what}: {exc}")
    except ZeroDivisionError:
        raise ConfigError(f"bad {what}: division by zero") from None


def _parse_poly(ctx: FqCtx, text, what: str) -> Poly:
    """A polynomial of F_q[x] given as text; a quotient must reduce to one."""
    val = _parse(text, _base_env(ctx, RatFunc.gen(ctx)), RatFunc.of(1, ctx), what)
    val = RatFunc.of(val, ctx)
    if not val.is_polynomial():
        raise ConfigError(f"{what} is not a polynomial")
    return val.num


def _int(value, what: str) -> int:
    # int() would truncate 1.9 and read true as 1
    fraction = isinstance(value, float) and not value.is_integer()
    if fraction or isinstance(value, bool):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be an integer, got {value!r}") from None


def _tower_env(tw: Tower) -> Dict[str, object]:
    env = _base_env(tw.base, tw.x())
    for i, lvl in enumerate(tw.levels):
        env[lvl.label] = tw.gen(i)
    return env


def _ring(ctx: FqCtx, backend: Optional[str], tower):
    """Parser names and the one of the ring the elements live in: the
    tower's, F_q[x, y] under the symmetric backend, F_q(x) with no backend."""
    if backend is None:
        return _base_env(ctx, RatFunc.gen(ctx)), RatFunc.of(1, ctx)
    if backend == "symmetric":
        x, y = BivarPoly.gens(ctx)
        return dict(_base_env(ctx, x), y=y), BivarPoly.constant(ctx, 1)
    if tower is None:
        raise ConfigError("the tower backend needs a tower")
    tw = _build_tower(ctx, tower)
    return _tower_env(tw), tw.from_base(1)


class _Input(NamedTuple):
    """The checked parts of a scenario that a handler reads: `params` with
    every default filled in, and the element texts, parser names and one of
    their ring when the task reads elements (else None)."""

    ctx: FqCtx
    backend: str
    params: dict
    texts: Optional[dict]
    env: Optional[dict]
    one: object

    def element(self, key: str):
        """The element that the param `key` names."""
        name = self.params[key]
        if not isinstance(name, str) or name not in self.texts:
            raise ConfigError(f"scenario does not define element {name!r}")
        return _parse(self.texts[name], self.env, self.one, f"element {name!r}")


def _disc(inp: _Input) -> dict:
    if inp.backend == "symmetric":
        raise ConfigError("task 'disc' needs the tower backend")
    # one record of t; the places are read after its discriminant, so
    # a degree or separability fault is reported before a place fault
    rec = MonOrder(inp.element("element"), require_integral=False)
    if rec.d < 2:
        raise ConfigError("discriminant needs degree >= 2 over K")
    report = {"discriminant": repr(rec.disc)}
    if "places" in inp.params:
        T = PlaceSet([Place.finite(_parse_poly(inp.ctx, name, f"place {name!r}"))
                      for name in _list(inp.params["places"], "places") if name != "inf"])
        report["places"] = [repr(v) for v in T]
        report["disc_form_predicate"] = disc_form_predicate(rec, T)
    return report


def _order_eq(inp: _Input) -> dict:
    s, t = inp.element("s"), inp.element("t")
    if inp.backend == "symmetric":
        res = sym_orders_equal(t, s)
    else:
        res = orders_equal(t, MonOrder(s, POLY_RING))
    return {"equal": bool(res), "reason": res.reason}


def _search(inp: _Input) -> dict:
    s, t = inp.element("s"), inp.element("t")
    pair = SymPowerPair(s, t) if inp.backend == "symmetric" else TowerPowerPair(s, t)
    result = enumerate_M(pair, inp.params["m_max"], inp.params["n_max"])
    fit_patterns(result, inp.ctx.p)
    return {"search": result.to_dict(),
            "note": "patterns are box-relative descriptions, consistent with the data"}


def _unit_solve(inp: _Input) -> dict:
    ctx = inp.ctx
    env = _base_env(ctx, RatFunc.gen(ctx))
    gens = [_parse(text, env, RatFunc.of(1, ctx), f"generator {text!r}")
            for text in _list(inp.params["generators"], "generators")]
    if not gens:
        raise ConfigError("unit-solve needs at least one generator")
    gctx = build_group(gens, ctx, for_solver=True)
    fams = solve_xy1(gctx, inp.params["height_bound"])
    return {"group": {"basis": [repr(b) for b in gctx.basis], "rank": gctx.rank},
            "families": [f.describe() for f in fams], "family_count": len(fams)}


def _ef(inp: _Input) -> dict:
    if inp.backend == "symmetric":
        raise ConfigError("task 'ef' needs the tower backend")
    res = compute_ef(inp.element("element"), inp.params["bound"])
    return {"stable_exponent": res.value, "verified_up_to_bound": res.verified,
            "degrees": [[n, d] for n, d in res.degrees]}


def _verify_a1(inp: _Input) -> dict:
    rep = verify_quartic_twist_family(inp.params["m_max"], inp.params["relation_box"])
    return {"verification": rep.to_dict()}


def _verify_33(inp: _Input) -> dict:
    eta = inp.params.get("eta")
    if "eta" in inp.params:
        eta = _parse_poly(inp.ctx, eta, f"eta seed {eta!r}")
    # a seed that fails its conditions raises ValueError (exit 2)
    return {"verification": verify_shifted_generator_family(eta, inp.params["m_max"]).to_dict()}


def _verify_b(inp: _Input) -> dict:
    rep = verify_symmetric_quadratic_powers(inp.params["i_max"], inp.params["j_max"])
    return {"verification": rep.to_dict()}


def _bounds(inp: _Input) -> dict:
    params = inp.params
    try:
        required = [_int(params[k], k) for k in ("d", "p", "q_K", "S_size")]
    except KeyError as exc:
        raise ConfigError(f"bounds task needs parameter {exc}")
    opt = {k: _int(params[k], k) for k in ("q_L", "r", "lambda") if k in params}
    br = bound_calculator(*required, q_L=opt.get("q_L"), r=opt.get("r"), lam=opt.get("lambda"))
    return {"bounds": br.to_dict()}


def _addendum(inp: _Input) -> dict:
    s, t = RatFunc.of(inp.element("s"), inp.ctx), RatFunc.of(inp.element("t"), inp.ctx)
    return {"addendum": addendum_report(s, t).to_dict()}


class _Task(NamedTuple):
    """A task: the top-level keys it reads (of `_READ_KEYS`), its params
    mapped to their defaults (a size to (default, least value); a param
    mapped to None has none), its handler, which returns the report's
    fields, its fixed field as (p, k), and the params that --box sets."""

    reads: Tuple[str, ...]
    params: Dict[str, object]
    run: Callable[[_Input], dict]
    base: Optional[Tuple[int, int]] = None
    box: Tuple[str, ...] = ()


_TASKS = {
    "disc": _Task(_READ_KEYS, {"element": "s", "places": None}, _disc),
    "order-eq": _Task(_READ_KEYS, {"s": "s", "t": "t"}, _order_eq),
    "search": _Task(_READ_KEYS, {"s": "s", "t": "t", "m_max": (12, 1), "n_max": (12, 1)},
                    _search, box=("m_max", "n_max")),
    "unit-solve": _Task(("base",), {"generators": [], "height_bound": (64, 0)}, _unit_solve),
    "ef": _Task(_READ_KEYS, {"element": "s", "bound": (12, 1)}, _ef, box=("bound",)),
    "verify-a1": _Task(("base",), {"m_max": (3, 1), "relation_box": (8, 0)}, _verify_a1,
                       base=(2, 1)),
    "verify-33": _Task(("base",), {"m_max": (4, 1), "eta": None}, _verify_33, base=(2, 1)),
    "verify-b": _Task(("base",), {"i_max": (2, 1), "j_max": (2, 1)}, _verify_b, base=(7, 1)),
    "bounds": _Task((), dict.fromkeys(["d", "p", "q_K", "S_size", "q_L", "r", "lambda"]),
                    _bounds),
    "addendum": _Task(("base", "elements"), {"s": "s", "t": "t"}, _addendum),
}


def _task(name) -> Optional[_Task]:
    return _TASKS.get(name) if isinstance(name, str) else None


def run_scenario(scenario: dict, overrides: Optional[dict] = None) -> Tuple[dict, int]:
    """Execute one scenario; returns (report dict, exit code).  Bad input
    raises ConfigError, including every ValueError the library raises on
    the scenario's values and the ZeroDivisionError of a zero element."""
    try:
        return _run(scenario, overrides or {})
    except ConfigError:
        raise
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(str(exc)) from None


def _run(scenario: dict, overrides: dict) -> Tuple[dict, int]:
    _check_keys(scenario, ("task", "params") + _READ_KEYS, "scenario")
    name = scenario.get("task")
    task = _task(name)
    if task is None:
        raise ConfigError(f"unknown task {name!r}; expected one of {tuple(_TASKS)}")
    params = dict(_object(scenario.get("params", {}), "params"))
    params.update((key, val) for key, val in overrides.items() if val is not None)
    _check_keys(params, task.params, "params")
    for key in _READ_KEYS:
        if key in scenario and key not in task.reads:
            raise ConfigError(f"{key}: task {name!r} takes no {key}")
    ctx = _build_base(scenario.get("base", {}))
    if task.base and "base" in scenario and (ctx.p, ctx.k) != task.base:
        raise ConfigError(f"base: task {name!r} runs over F_{task.base[0]} only")
    backend = scenario.get("backend", "tower")
    if backend not in ("tower", "symmetric"):
        raise ConfigError(f"unknown backend {backend!r}")
    if backend == "symmetric" and "tower" in scenario:
        raise ConfigError("tower: the symmetric backend takes no tower")
    # every size is checked before a tower is built or a group factored; one
    # below its least value would leave the task nothing to compute or check
    for key, default in task.params.items():
        if isinstance(default, tuple):
            value = params[key] = _int(params.get(key, default[0]), key)
            if value < default[1]:
                need = "positive" if default[1] else "non-negative"
                raise ConfigError(f"{key} must be {need}, got {value}")
        elif default is not None:
            params.setdefault(key, default)
    texts = env = one = None
    if "elements" in task.reads:
        texts = _object(scenario.get("elements", {}), "elements")
        env, one = _ring(ctx, backend if "tower" in task.reads else None, scenario.get("tower"))
    report = {"task": name, **task.run(_Input(ctx, backend, params, texts, env, one))}
    failed = "verification" in report and not report["verification"]["passed"]
    return report, int(failed or bool(report.get("search", {}).get("closure_violations")))


def report_to_text(report: dict) -> str:
    lines = [f"task: {report.get('task')}"]
    verification = report.get("verification")
    if verification:
        lines.append(f"  {verification['title']}")
        for c in verification["checks"]:
            lines.append(f"  [{c['status']:4}] {c['name']}: {c['detail']}")
        lines.append(f"  passed: {verification['passed']}")
    for key in sorted(report):
        if key in ("task", "verification"):
            continue
        lines.append(f"  {key}: {json.dumps(report[key], sort_keys=True)}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="monogenic",
        description="Run a scenario file against the library.",
    )
    ap.add_argument("scenario", help="path to a scenario JSON file")
    ap.add_argument("--json", action="store_true", help="emit the JSON report")
    ap.add_argument("--box", type=int, default=None, help="override search box / bound")
    ap.add_argument("--mmax", type=int, default=None, help="override m_max")
    ap.add_argument("--seed-eta", default=None, help="override the eta seed polynomial")
    ap.add_argument("--places", default=None, help="comma-separated place list, e.g. inf,x")
    args = ap.parse_args(argv)

    try:
        with open(args.scenario, "r", encoding="utf-8") as fh:
            scenario = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    overrides = {}
    if args.box is not None:
        task = _task(scenario.get("task")) if isinstance(scenario, dict) else None
        if task is None or not task.box:
            boxed = " and ".join(name for name, t in _TASKS.items() if t.box)
            print(f"configuration error: --box applies to the {boxed} tasks", file=sys.stderr)
            return 2
        overrides.update(dict.fromkeys(task.box, args.box))
    if args.mmax is not None:
        overrides["m_max"] = args.mmax
    if args.seed_eta is not None:
        overrides["eta"] = args.seed_eta
    if args.places is not None:
        overrides["places"] = [s for s in args.places.split(",") if s]

    start = time.perf_counter()
    try:
        report, code = run_scenario(scenario, overrides)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start

    try:
        print(json.dumps(report, sort_keys=True, indent=2) if args.json
              else report_to_text(report), flush=True)
    except OSError as exc:
        # a closed pipe or a full device; keep the exit-time flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"output error: cannot write the report: {exc}", file=sys.stderr)
        return 2
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
