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

Unknown keys anywhere are rejected (exit 2), and so is a base the task
does not read: verify-a1 and verify-33 run over F_2 only, verify-b over
F_7 only, and bounds takes no base.  Exit codes: 0 success,
1 a verify-style task had failing checks, 2 configuration error or a
report that could not be written (a closed pipe, a full device).
`--json` selects machine output; reports are deterministic and re-runs are
byte-identical (timing goes to stderr, never into the report).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, Optional, Tuple

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


_TASKS = (
    "disc", "order-eq", "search", "unit-solve", "ef",
    "verify-a1", "verify-33", "verify-b", "bounds", "addendum",
)

_TOP_KEYS = {"task", "base", "backend", "tower", "elements", "params"}

# the params that --box sets, per task
_BOX_KEYS = {"search": ("m_max", "n_max"), "ef": ("bound",)}

# tasks whose field is fixed, as (p, k), or that read no field (None)
_FIXED_BASE = {"verify-a1": (2, 1), "verify-33": (2, 1), "verify-b": (7, 1), "bounds": None}


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
            raise ConfigError(f"level {label!r}: {exc}")
    if not tw.levels:
        raise ConfigError("tower must declare at least one level")
    for lvl in tw.levels:
        if lvl.status == "assumed" and not assume:
            raise ConfigError(
                f"irreducibility of level {lvl.label!r} did not certify; "
                "set assume_irreducible to proceed"
            )
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


def _int_param(params: dict, key: str, default: int, minimum: Optional[int] = None) -> int:
    """params[key] (or the default) as an int of at least `minimum`; sizes
    below it would leave the task with nothing to compute or check."""
    value = _int(params.get(key, default), key)
    if minimum is not None and value < minimum:
        need = {0: "non-negative", 1: "positive"}[minimum]
        raise ConfigError(f"{key} must be {need}, got {value}")
    return value


def _tower_env(tw: Tower) -> Dict[str, object]:
    env = _base_env(tw.base, tw.x())
    for i, lvl in enumerate(tw.levels):
        env[lvl.label] = tw.gen(i)
    return env


def _sym_env(ctx: FqCtx) -> Dict[str, object]:
    x, y = BivarPoly.gens(ctx)
    env = _base_env(ctx, x)
    env["y"] = y
    return env


def _parse_places(ctx: FqCtx, names) -> PlaceSet:
    places = [
        Place.finite(_parse_poly(ctx, name, f"place {name!r}"))
        for name in _list(names, "places")
        if name != "inf"
    ]
    return PlaceSet(places)


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
    _check_keys(scenario, _TOP_KEYS, "scenario")
    task = scenario.get("task")
    if task not in _TASKS:
        raise ConfigError(f"unknown task {task!r}; expected one of {_TASKS}")
    params = dict(_object(scenario.get("params", {}), "params"))
    for key, val in overrides.items():
        if val is not None:
            params[key] = val
    ctx = _build_base(scenario.get("base", {}))
    if task in _FIXED_BASE and "base" in scenario:
        fixed = _FIXED_BASE[task]
        if fixed is None:
            raise ConfigError(f"base: task {task!r} takes no base")
        if (ctx.p, ctx.k) != fixed:
            raise ConfigError(f"base: task {task!r} runs over F_{fixed[0]} only")
    backend = scenario.get("backend", "tower")
    if backend not in ("tower", "symmetric"):
        raise ConfigError(f"unknown backend {backend!r}")

    report: dict = {"task": task}
    code = 0

    def elements_env():
        if backend == "symmetric":
            if task in ("disc", "ef"):
                raise ConfigError(f"task {task!r} needs the tower backend")
            return _sym_env(ctx), BivarPoly.constant(ctx, 1)
        if "tower" not in scenario:
            raise ConfigError("the tower backend needs a tower")
        tw = _build_tower(ctx, scenario["tower"])
        return _tower_env(tw), tw.from_base(1)

    def named(name: str, env, one):
        texts = _object(scenario.get("elements", {}), "elements")
        if not isinstance(name, str) or name not in texts:
            raise ConfigError(f"scenario does not define element {name!r}")
        return _parse(texts[name], env, one, f"element {name!r}")

    if task == "disc":
        _check_keys(params, {"element", "places"}, "params")
        env, one = elements_env()
        t = named(params.get("element", "s"), env, one)
        # one record of t; the places are read after its discriminant, so
        # a degree or separability fault is reported before a place fault
        rec = MonOrder(t, require_integral=False)
        if rec.d < 2:
            raise ConfigError("discriminant needs degree >= 2 over K")
        report["discriminant"] = repr(rec.disc)
        if "places" in params:
            T = _parse_places(ctx, params["places"])
            report["places"] = [repr(v) for v in T]
            report["disc_form_predicate"] = disc_form_predicate(rec, T)

    elif task == "order-eq":
        _check_keys(params, {"s", "t"}, "params")
        env, one = elements_env()
        s = named(params.get("s", "s"), env, one)
        t = named(params.get("t", "t"), env, one)
        if backend == "symmetric":
            res = sym_orders_equal(t, s)
        else:
            res = orders_equal(t, MonOrder(s, POLY_RING))
        report["equal"] = bool(res)
        report["reason"] = res.reason

    elif task == "search":
        _check_keys(params, {"s", "t", "m_max", "n_max"}, "params")
        env, one = elements_env()
        s = named(params.get("s", "s"), env, one)
        t = named(params.get("t", "t"), env, one)
        m_max = _int_param(params, "m_max", 12, minimum=1)
        n_max = _int_param(params, "n_max", 12, minimum=1)
        pair = SymPowerPair(s, t) if backend == "symmetric" else TowerPowerPair(s, t)
        result = enumerate_M(pair, m_max, n_max)
        fit_patterns(result, ctx.p)
        if result.closure_violations:
            code = 1
        report["search"] = result.to_dict()
        report["note"] = "patterns are box-relative descriptions, consistent with the data"

    elif task == "unit-solve":
        _check_keys(params, {"generators", "height_bound"}, "params")
        env = _base_env(ctx, RatFunc.gen(ctx))
        gens = [
            _parse(text, env, RatFunc.of(1, ctx), f"generator {text!r}")
            for text in _list(params.get("generators", []), "generators")
        ]
        if not gens:
            raise ConfigError("unit-solve needs at least one generator")
        gctx = build_group(gens, ctx)
        fams = solve_xy1(gctx, _int_param(params, "height_bound", 64, minimum=0))
        report["group"] = {
            "basis": [repr(b) for b in gctx.basis],
            "rank": gctx.rank,
        }
        report["families"] = [f.describe() for f in fams]
        report["family_count"] = len(fams)

    elif task == "ef":
        _check_keys(params, {"element", "bound"}, "params")
        env, one = elements_env()
        s = named(params.get("element", "s"), env, one)
        res = compute_ef(s, _int_param(params, "bound", 12, minimum=1))
        report["stable_exponent"] = res.value
        report["verified_up_to_bound"] = res.verified
        report["degrees"] = [[n, d] for n, d in res.degrees]

    elif task == "verify-a1":
        _check_keys(params, {"m_max", "relation_box"}, "params")
        rep = verify_quartic_twist_family(
            _int_param(params, "m_max", 3, minimum=1),
            _int_param(params, "relation_box", 8, minimum=0),
        )
        report["verification"] = rep.to_dict()
        code = 0 if rep.passed else 1

    elif task == "verify-33":
        _check_keys(params, {"m_max", "eta"}, "params")
        eta = None
        if "eta" in params:
            eta = _parse_poly(ctx, params["eta"], f"eta seed {params['eta']!r}")
        # a seed that fails its conditions raises ValueError (exit 2)
        rep = verify_shifted_generator_family(eta, _int_param(params, "m_max", 4, minimum=1))
        report["verification"] = rep.to_dict()
        code = 0 if rep.passed else 1

    elif task == "verify-b":
        _check_keys(params, {"i_max", "j_max"}, "params")
        rep = verify_symmetric_quadratic_powers(
            _int_param(params, "i_max", 2, minimum=1),
            _int_param(params, "j_max", 2, minimum=1),
        )
        report["verification"] = rep.to_dict()
        code = 0 if rep.passed else 1

    elif task == "bounds":
        _check_keys(params, {"d", "p", "q_K", "S_size", "q_L", "r", "lambda"}, "params")
        try:
            required = [_int(params[k], k) for k in ("d", "p", "q_K", "S_size")]
        except KeyError as exc:
            raise ConfigError(f"bounds task needs parameter {exc}")
        opt = {k: _int(params[k], k) for k in ("q_L", "r", "lambda") if k in params}
        br = bound_calculator(*required, q_L=opt.get("q_L"), r=opt.get("r"), lam=opt.get("lambda"))
        report["bounds"] = br.to_dict()

    elif task == "addendum":
        _check_keys(params, {"s", "t"}, "params")
        env = _base_env(ctx, RatFunc.gen(ctx))
        s = named(params.get("s", "s"), env, one=RatFunc.of(1, ctx))
        t = named(params.get("t", "t"), env, one=RatFunc.of(1, ctx))
        rep = addendum_report(RatFunc.of(s, ctx), RatFunc.of(t, ctx))
        report["addendum"] = rep.to_dict()

    return report, code


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
        task = scenario.get("task") if isinstance(scenario, dict) else None
        if task not in _BOX_KEYS:
            print("configuration error: --box applies to the search and ef tasks",
                  file=sys.stderr)
            return 2
        for key in _BOX_KEYS[task]:
            overrides[key] = args.box
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
