import itertools
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from monogenic import FqCtx, Poly, cli
from monogenic.cli import ConfigError, main, run_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def load(name):
    with open(SCENARIOS / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_disc_scenario():
    report, code = run_scenario(load("disc_shifted.json"))
    assert code == 0
    assert report["discriminant"] == "x^12"
    assert report["disc_form_predicate"] is True


def test_order_eq_scenario():
    report, code = run_scenario(load("order_eq_shifted.json"))
    assert code == 0 and report["equal"] is True


def test_unit_solve_scenario():
    report, code = run_scenario(load("unit_solve_f2.json"))
    assert code == 0
    assert report["family_count"] == 6
    assert "(x, x+1) ^ p^k, k>=0" in report["families"]


def test_search_scenario_schema():
    report, code = run_scenario(load("search_diagonal.json"))
    assert code == 0
    s = report["search"]
    assert s["box"] == [10, 10]
    assert s["closure_violations"] == []
    assert [1, 1] in s["pairs"]
    assert s["patterns"]
    # round-trip through the documented JSON schema
    assert json.loads(json.dumps(s))["patterns"] == s["patterns"]


def test_bounds_scenario():
    report, code = run_scenario(load("bounds_small.json"))
    assert code == 0
    assert report["bounds"]["log10_main"].startswith("41867123789133.74")


def test_addendum_scenario():
    report, code = run_scenario(load("addendum_powers.json"))
    assert code == 0
    assert report["addendum"]["minimal_MN"] == [2, 1]


def test_verify_scenarios_pass():
    for name in ("verify_b.json",):
        report, code = run_scenario(load(name))
        assert code == 0
        assert report["verification"]["passed"] is True


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        run_scenario({"task": "disc", "bogus": 1})
    with pytest.raises(ConfigError):
        run_scenario({"task": "nope"})
    with pytest.raises(ConfigError):
        run_scenario({"task": "bounds", "params": {"d": 3}})


def test_nonmonic_tower_rejected():
    scenario = {
        "task": "disc",
        "base": {"p": 2},
        "tower": {"levels": [{"label": "s", "poly": "x*s^4+1"}]},
        "elements": {"s": "s"},
        "params": {"element": "s"},
    }
    with pytest.raises(ConfigError):
        run_scenario(scenario)


def test_overrides():
    report, code = run_scenario(load("verify_b.json"), {"i_max": 1, "j_max": 1})
    assert code == 0
    assert report["verification"]["params"]["i_max"] == "1"


def test_main_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"task": "disc", "bogus": 1}', encoding="utf-8")
    assert main([str(bad)]) == 2
    missing = tmp_path / "missing.json"
    assert main([str(missing)]) == 2
    assert main([str(SCENARIOS / "bounds_small.json"), "--json"]) == 0


def test_cli_subprocess_json():
    out = subprocess.run(
        [sys.executable, "-m", "monogenic.cli", str(SCENARIOS / "addendum_powers.json"), "--json"],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["addendum"]["minimal_MN"] == [2, 1]
    assert "elapsed" in out.stderr  # timing stays out of the report


@pytest.mark.parametrize("target", [
    "closed-pipe",
    pytest.param("full-device", marks=pytest.mark.skipif(
        not Path("/dev/full").exists(), reason="needs the /dev/full device")),
])
def test_unwritable_report_exits_2(target):
    # a report written to a closed pipe or a full device ended in a
    # traceback with exit 1, the code of failed checks
    cmd = [sys.executable, "-m", "monogenic.cli", str(SCENARIOS / "verify_b.json")]
    if target == "closed-pipe":
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT)
        proc.stdout.close()  # long before the child has a report to write
        err = proc.stderr.read().decode()
        code = proc.wait()
    else:
        with open("/dev/full", "w") as full:
            out = subprocess.run(cmd, stdout=full, stderr=subprocess.PIPE, text=True, cwd=ROOT)
        err, code = out.stderr, out.returncode
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("output error: cannot write the report")


def _write(tmp_path, scenario):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    return str(path)


def test_box_sets_the_task_keys(tmp_path, capsys):
    assert main([str(SCENARIOS / "search_diagonal.json"), "--json", "--box", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["search"]["box"] == [4, 4]
    assert main([str(SCENARIOS / "ef_shifted.json"), "--json", "--box", "4"]) == 0
    assert len(json.loads(capsys.readouterr().out)["degrees"]) == 4
    assert main([str(SCENARIOS / "disc_shifted.json"), "--box", "4"]) == 2
    # a task name that is not a string ended in a traceback of the --box lookup
    assert main([_write(tmp_path, {"task": ["search"]}), "--box", "4"]) == 2


_QUARTIC = {"levels": [{"label": "s", "poly": "s^4+x^4*s^2+x^3*s+x+1"}]}
# over F_3 both levels are reducible (u = +-s), so only assume_irreducible lets them build
_REDUCIBLE_F3 = {"levels": [{"label": "s", "poly": "s^2-x"}, {"label": "u", "poly": "u^2-x"}]}


@pytest.mark.parametrize("scenario", [
    {"task": "search", "tower": _QUARTIC, "elements": {"s": "s", "t": "s"},
     "params": {"m_max": -5, "n_max": 3}},
    {"task": "search", "tower": _QUARTIC, "elements": {"s": "s", "t": "s"},
     "params": {"m_max": 3, "n_max": 0}},
    {"task": "ef", "tower": _QUARTIC, "elements": {"s": "s"}, "params": {"bound": 0}},
], ids=["m_max", "n_max", "bound"])
def test_non_positive_box_rejected(tmp_path, capsys, scenario):
    assert main([_write(tmp_path, scenario)]) == 2
    assert "must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("scenario, message", [
    ({"task": "search", "tower": _QUARTIC, "elements": {"s": "s", "t": "s"},
      "params": {"m_max": 101, "n_max": 100}}, "grid larger"),
    ({"task": "disc", "tower": _QUARTIC, "elements": {"s": "x+1"}}, "degree >= 2"),
    ({"task": "search", "tower": _QUARTIC, "elements": {"s": "s/x", "t": "s"},
      "params": {"m_max": 3, "n_max": 3}}, "integral"),
    ({"task": "unit-solve", "base": {"p": 3}, "params": {"generators": ["x", "0"]}},
     "zero generator"),
], ids=["grid", "disc-degree-1", "non-integral", "zero-generator"])
def test_library_value_error_exits_2(tmp_path, capsys, scenario, message):
    assert main([_write(tmp_path, scenario)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and message in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("scenario, message", [
    ({"task": "verify-a1", "params": {"m_max": 0}}, "m_max must be positive"),
    ({"task": "verify-a1", "params": {"relation_box": -1}}, "relation_box must be non-negative"),
    ({"task": "verify-33", "params": {"m_max": 0}}, "m_max must be positive"),
    ({"task": "verify-b", "params": {"i_max": 0}}, "i_max must be positive"),
    ({"task": "verify-b", "params": {"j_max": -1}}, "j_max must be positive"),
    ({"task": "unit-solve", "base": {"p": 3}, "params": {"generators": ["x"], "height_bound": -1}},
     "height_bound must be non-negative"),
], ids=["a1-m_max", "a1-relation_box", "33-m_max", "b-i_max", "b-j_max", "height_bound"])
def test_sizes_below_minimum_rejected(tmp_path, capsys, scenario, message):
    # each value leaves a check with nothing to compare (verify-a1 at m_max 0
    # has no pair s_i != s_j for check (v)), or drops every family that
    # needs a p-power descent (a negative height_bound)
    assert main([_write(tmp_path, scenario)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and message in err
    assert len(err.strip().splitlines()) == 1


def test_smallest_verify_sizes_accepted(tmp_path):
    scenario = {"task": "verify-a1", "params": {"m_max": 1, "relation_box": 0}}
    assert main([_write(tmp_path, scenario)]) == 0


@pytest.mark.parametrize("scenario, message", [
    ([], "scenario must be a JSON object, got array"),
    ({"task": "verify-a1", "params": {"m_max": [3]}}, "m_max must be an integer, got [3]"),
    ({"task": "bounds", "params": {"d": "two", "p": 2, "q_K": 2, "S_size": 1}},
     "d must be an integer"),
    ({"task": "disc", "params": [1]}, "params must be a JSON object, got array"),
    ({"task": "disc", "tower": _QUARTIC, "elements": {"s": 5}}, "expected a string"),
    ({"task": "disc", "base": {"p": [2]}}, "p must be an integer"),
    ({"task": "unit-solve", "params": {"generators": "x"}}, "generators must be a JSON array"),
    ({"task": "verify-b", "params": {"i_max": 1.9}}, "i_max must be an integer, got 1.9"),
    ({"task": "verify-b", "params": {"j_max": True}}, "j_max must be an integer, got True"),
    ({"task": "verify-b", "params": {"j_max": float("inf")}}, "j_max must be an integer"),
    ({"task": "disc", "base": [], "tower": _QUARTIC, "elements": {"s": "s"}},
     "base must be a JSON object, got array"),
    ({"task": "disc", "base": None, "tower": _QUARTIC, "elements": {"s": "s"}},
     "base must be a JSON object, got null"),
    ({"task": "disc", "base": {"p": 3}, "tower": _REDUCIBLE_F3 | {"assume_irreducible": "false"},
      "elements": {"s": "u+s"}}, "assume_irreducible must be a JSON boolean, got string"),
    ({"task": "order-eq", "base": {"p": 3}, "tower": _REDUCIBLE_F3 | {"assume_irreducible": 1},
      "elements": {"s": "u", "t": "u+s"}}, "assume_irreducible must be a JSON boolean, got number"),
], ids=["array-scenario", "list-param", "string-param", "array-params", "number-element",
        "list-base", "string-generators", "fraction-param", "boolean-param", "infinite-param",
        "array-base", "null-base", "string-assume", "number-assume"])
def test_wrong_json_types_exit_2(tmp_path, capsys, scenario, message):
    assert main([_write(tmp_path, scenario)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and message in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("scenario, message", [
    ({"task": "disc", "tower": _QUARTIC, "elements": {"s": "s+x^99999999"}},
     "exponent 99999999 is above the limit"),
    ({"task": "disc", "tower": _QUARTIC, "elements": {"s": "s+x^-99999999"}},
     "exponent 99999999 is above the limit"),
    ({"task": "disc", "tower": _QUARTIC, "elements": {"s": "s+((x^999)^999)^999"}},
     "the degree of the expression is above the limit"),
    ({"task": "disc", "tower": {"levels": [{"label": "s", "poly": "s^4+x^99999999"}]},
      "elements": {"s": "s"}}, "exponent 99999999 is above the limit"),
    ({"task": "unit-solve", "base": {"p": 3}, "params": {"generators": ["x^99999999+1"]}},
     "exponent 99999999 is above the limit"),
], ids=["element", "negative", "nested", "level", "generator"])
def test_huge_exponent_rejected(tmp_path, capsys, scenario, message):
    path = _write(tmp_path, scenario)
    t0 = time.perf_counter()
    assert main([path]) == 2
    assert time.perf_counter() - t0 < 0.5
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and message in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("scenario, message", [
    ({"task": "unit-solve", "base": {"p": 131}, "params": {"generators": ["x", "x+1"]}},
     "17161 cosets of H/H^p exceed the desk-scale cap of 729"),
    ({"task": "unit-solve", "base": {"p": 65521}, "params": {"generators": ["2"]}},
     "65519 torsion candidates exceed the desk-scale cap of 729"),
    ({"task": "disc", "base": {"p": 65521},
      "tower": {"levels": [{"label": "s", "poly": "s^2-x^2"}]}, "elements": {"s": "s"}},
     "irreducibility of level 's' did not certify"),
    ({"task": "disc", "base": {"p": 3, "k": 30000000}}, "field cardinality must fit in 64 bits"),
    ({"task": "verify-a1", "params": {"m_max": 4, "relation_box": 13}},
     "keep relation_box <= 10"),
    ({"task": "ef", "tower": _QUARTIC, "elements": {"s": "s^3"}, "params": {"bound": 128}},
     "keep bound <= 64"),
    ({"task": "disc", "base": {"p": 65521},
      "tower": {"levels": [{"label": "s", "poly": "s^2-x"}], "assume_irreducible": True},
      "elements": {"s": "s"}, "params": {"places": ["x^100+x+3"]}},
     "keep place degrees <= 32"),
], ids=["unit-solve-cosets", "unit-solve-torsion", "certification-scan", "field-degree",
        "a1-relation_box", "ef-bound", "place-degree"])
def test_unbounded_enumeration_rejected(tmp_path, capsys, scenario, message):
    # uncapped, the coset enumeration over F_131 and the certification scan
    # over every point of F_65521 (the level is reducible, so no point
    # certifies it) ran past 30 s, and the torsion enumeration reported
    # 65519 families; the power p^k of the field check took 20 s at
    # k = 3*10^7, verify-a1 at relation_box 13 took 20 s, and ef at bound
    # 128 took 3.5 s, and factoring the reducible place x^100+x+3 over
    # F_65521 took 3 s.  Capped, each exits in about 0.2 s.  The time bound
    # only has to catch a return of the uncapped loops, so it leaves room
    # for a loaded machine.
    path = _write(tmp_path, scenario)
    t0 = time.perf_counter()
    assert main([path]) == 2
    assert time.perf_counter() - t0 < 20
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and message in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("modulus, message", [
    ("1000100000000000000000000000000000000001",
     "549755813886 torsion candidates exceed the desk-scale cap of 729"),
    ("11" + "0" * 61 + "1", "modulus too large: keep p^(k//2) <= 10^6, got 2^31"),
], ids=["F_2^39", "F_2^63"])
def test_large_base_modulus_checked_quickly(tmp_path, capsys, modulus, message):
    # trial division of x^39+x^4+1 took 24 s before the torsion cap was
    # reached, and that of x^63+x+1 took 46 s before it refused the size
    scenario = {"task": "unit-solve", "base": {"p": 2, "k": len(modulus) - 1, "modulus": modulus},
                "params": {"generators": ["x"]}}
    path = _write(tmp_path, scenario)
    t0 = time.perf_counter()
    assert main([path]) == 2
    assert time.perf_counter() - t0 < 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and message in err
    assert len(err.strip().splitlines()) == 1


def _refused_while_refined(tmp_path, capsys, p, factors, product_first):
    """The exit-2 message of `unit-solve` on the factors and their product."""
    product = "*".join(f"({u})" for u in factors)
    gens = [product] + factors if product_first else factors + [product]
    scenario = {"task": "unit-solve", "base": {"p": p}, "params": {"generators": gens}}
    path = _write(tmp_path, scenario)
    t0 = time.perf_counter()
    assert main([path]) == 2
    assert time.perf_counter() - t0 < 3
    return capsys.readouterr().err


@pytest.mark.parametrize("product_first", [False, True], ids=["product-last", "product-first"])
def test_over_rank_group_refused_while_refined(tmp_path, capsys, product_first):
    # x+1, ..., x+990 and their product over F_65521, a 16.7 KB scenario:
    # the whole refinement and the factoring of every generator took 28.5 s
    # before solve_xy1 refused the rank; now the field's 65519 torsion
    # candidates are refused before any refinement
    linear = [f"x+{i}" for i in range(1, 991)]
    err = _refused_while_refined(tmp_path, capsys, 65521, linear, product_first)
    assert err == ("configuration error: 65519 torsion candidates exceed the "
                   "desk-scale cap of 729\n")


def test_large_unit_solve_field_refused_before_parsing(tmp_path, capsys):
    # six random dense monic degree-500 generators over F_65521 (5.8 KB of
    # text each): parsing them took 0.44 s before the field, a fact of the
    # base alone, was refused
    rng = random.Random(5)
    gens = ["+".join(f"{rng.randrange(1, 65521)}*x^{i}" for i in range(500)) + "+x^500"
            for _ in range(6)]
    path = _write(tmp_path, {"task": "unit-solve", "base": {"p": 65521},
                             "params": {"generators": gens}})
    t0 = time.perf_counter()
    assert main([path]) == 2
    assert time.perf_counter() - t0 < 0.1
    assert capsys.readouterr().err == ("configuration error: 65519 torsion candidates exceed "
                                       "the desk-scale cap of 729\n")


@pytest.mark.parametrize("product_first", [False, True], ids=["product-last", "product-first"])
def test_over_rank_group_refused_below_the_torsion_cap(tmp_path, capsys, product_first):
    # the 140 monic irreducibles of degree <= 3 over F_7 and their product:
    # refused as soon as the refinement's working basis passes rank 6 (the
    # whole refinement alone takes 0.2-0.9 s)
    F7 = FqCtx(7)
    factors = [repr(f) for d in (1, 2, 3) for c in itertools.product(range(7), repeat=d)
               if (f := Poly(F7, list(c) + [1])).is_irreducible()]
    assert len(factors) == 140
    err = _refused_while_refined(tmp_path, capsys, 7, factors, product_first)
    assert err == "configuration error: rank too large for the desk-scale coset enumeration\n"


def test_linear_modulus_gives_the_default_base(tmp_path):
    # z + 1 over F_2 once made a second context of F_2, which verify-33
    # mixed with its own: "rational functions over different fields"
    scenario = {"task": "verify-33", "params": {"eta": "x+1", "m_max": 1}}
    own = run_scenario(scenario)
    assert own == run_scenario(dict(scenario, base={"p": 2, "modulus": "11"}))
    assert own[1] == 0


_BOUNDS = {"d": 2, "p": 2, "q_K": 4, "S_size": 1, "q_L": 16, "r": 3, "lambda": 4}


@pytest.mark.parametrize("scenario, message", [
    ({"task": "disc", "elements": {"s": "x"}}, "the tower backend needs a tower"),
    ({"task": "order-eq", "elements": {"s": "x", "t": "x"}}, "the tower backend needs a tower"),
    ({"task": "search", "elements": {"s": "x", "t": "x"}, "params": {"m_max": 2, "n_max": 2}},
     "the tower backend needs a tower"),
    ({"task": "ef", "elements": {"s": "x"}}, "the tower backend needs a tower"),
    ({"task": "disc", "backend": "symmetric", "base": {"p": 7}, "elements": {"s": "x"}},
     "task 'disc' needs the tower backend"),
    ({"task": "ef", "backend": "symmetric", "base": {"p": 7}, "elements": {"s": "x"}},
     "task 'ef' needs the tower backend"),
    ({"task": "disc", "tower": _QUARTIC, "elements": {"s": "s/0"}}, "division by zero"),
    ({"task": "disc", "tower": _QUARTIC, "elements": {"s": "1/(s+s)"}}, "division by zero"),
    ({"task": "unit-solve", "base": {"p": 3}, "params": {"generators": ["x/(x-x)"]}},
     "division by zero"),
    ({"task": "disc", "tower": _QUARTIC, "elements": {"s": "s"}, "params": {"places": ["1/x"]}},
     "place '1/x' is not a polynomial"),
    ({"task": "verify-33", "params": {"eta": "1/x"}}, "eta seed '1/x' is not a polynomial"),
    ({"task": "disc", "tower": {"levels": [{"label": "s", "poly": "s+x"}]}, "elements": {"s": "s"}},
     "degree >= 2"),
    ({"task": "bounds", "params": dict(_BOUNDS, p=1)}, "p must be at least 2"),
    ({"task": "bounds", "params": dict(_BOUNDS, q_K=1)}, "q_K must be at least 2"),
    ({"task": "bounds", "params": dict(_BOUNDS, q_L=0)}, "q_L must be at least 1"),
    ({"task": "bounds", "params": dict(_BOUNDS, **{"lambda": 0})}, "lambda must be at least 1"),
    ({"task": "bounds", "params": dict(_BOUNDS, S_size=-1)}, "S_size must be at least 0"),
    ({"task": "bounds", "params": dict(_BOUNDS, r=-1)}, "r must be at least 0"),
    ({"task": "bounds", "params": dict(_BOUNDS, p=4)}, "p must be a prime in [2, 2^16], got 4"),
    ({"task": "bounds", "params": dict(_BOUNDS, p=65537)}, "p must be a prime in [2, 2^16]"),
    ({"task": "bounds", "params": dict(_BOUNDS, p=3)}, "q_K must be a power of p = 3, got 4"),
    ({"task": "bounds", "params": dict(_BOUNDS, q_K=6)}, "q_K must be a power of p = 2, got 6"),
    ({"task": "bounds", "params": dict(_BOUNDS, q_L=6)}, "q_L must be a power of q_K = 4, got 6"),
    ({"task": "bounds", "params": dict(_BOUNDS, q_L=2)}, "q_L must be a power of q_K = 4, got 2"),
    ({"task": "order-eq", "tower": _QUARTIC, "elements": {"s": "s", "t": "s"},
      "params": {"s": ["s"]}}, "scenario does not define element ['s']"),
    ({"task": "verify-33", "params": {"m_max": 7}}, "keep m_max <= 6"),
    ({"task": "search", "backend": "symmetric", "base": {"p": 3},
      "elements": {"s": "x+y", "t": "0"}}, "search elements s and t must be nonzero"),
    ({"task": "search", "backend": "symmetric", "base": {"p": 3},
      "elements": {"s": "x-x", "t": "x+y"}}, "search elements s and t must be nonzero"),
    ({"task": "search", "tower": _QUARTIC, "elements": {"s": "s", "t": "s-s"},
      "params": {"m_max": 2, "n_max": 2}}, "search elements s and t must be nonzero"),
    ({"task": "disc", "tower": {"levels": [{"poly": "s^2+x"}]}, "elements": {"s": "s"}},
     "a tower level needs a string label and a poly"),
    ({"task": "disc", "tower": {"levels": [{"label": ["s"], "poly": "s^2+x"}]},
      "elements": {"s": "s"}}, "a tower level needs a string label and a poly"),
    ({"task": "disc", "tower": {"levels": [{"label": "s", "poly": "s^2+1/s"}]},
      "elements": {"s": "s"}}, "division by the formal symbol is not allowed"),
    ({"task": "disc", "tower": {"levels": [{"label": "s", "poly": "s^2+s+x"},
                                           {"label": "u", "poly": "u^2+u+s/u"}],
                                "assume_irreducible": True},
      "elements": {"s": "u"}}, "division by the formal symbol is not allowed"),
    ({"task": "disc", "base": {"p": 2, "k": 2},
      "tower": {"levels": [{"label": "s", "poly": "s^2+s+z/s"}]}, "elements": {"s": "s"}},
     "division by the formal symbol is not allowed"),
    ({"task": "search", "backend": "symmetric", "base": {"p": 2, "k": 2},
      "elements": {"s": "z/x", "t": "x+y"}}, "inexact bivariate division"),
    ({"task": "addendum", "base": {"p": 3}, "elements": {"s": "0", "t": "1"}},
     "addendum element s must be nonzero"),
    ({"task": "addendum", "base": {"p": 3}, "elements": {"s": "0", "t": "x"}},
     "addendum element s must be nonzero"),
    ({"task": "addendum", "base": {"p": 3}, "elements": {"s": "x", "t": "0"}},
     "addendum element t must be nonzero"),
    # no specialization certifies s^4+x either; the separability check speaks first
    ({"task": "disc", "base": {"p": 2}, "tower": {"levels": [{"label": "s", "poly": "s^4+x"}]},
      "elements": {"s": "s"}}, "not separable"),
], ids=["disc-no-tower", "order-eq-no-tower", "search-no-tower", "ef-no-tower",
        "disc-symmetric", "ef-symmetric", "element-div-0", "tower-div-0", "generator-div-0",
        "place-quotient", "eta-quotient", "degree-1-level", "bounds-p", "bounds-q_K",
        "bounds-q_L", "bounds-lambda", "bounds-S_size", "bounds-r", "bounds-p-composite",
        "bounds-p-past-2^16", "bounds-q_K-other-prime", "bounds-q_K-not-a-power",
        "bounds-q_L-not-a-power", "bounds-q_L-below-q_K",
        "list-element-name",
        "verify-33-m_max", "zero-element", "zero-s-symmetric", "zero-t-tower",
        "level-without-label",
        "list-label", "symbol-divisor", "symbol-divisor-level-2", "symbol-divisor-F4",
        "symmetric-inexact-z", "addendum-zero-s-unit-t", "addendum-zero-s",
        "addendum-zero-t", "inseparable-uncertified"])
def test_input_faults_exit_2(tmp_path, capsys, scenario, message):
    # each of these ended in a traceback (exit 1) or in a silent answer
    assert main([_write(tmp_path, scenario)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and message in err
    assert len(err.strip().splitlines()) == 1


def test_symmetric_search_names_the_field_generator(tmp_path):
    scenario = {"task": "search", "backend": "symmetric", "base": {"p": 2, "k": 2},
                "elements": {"s": "z*x+y", "t": "x+y"}, "params": {"m_max": 2, "n_max": 2}}
    assert main([_write(tmp_path, scenario)]) == 0


def test_polynomial_places_and_eta_accepted(tmp_path):
    scenario = {"task": "disc", "tower": _QUARTIC, "elements": {"s": "s"},
                "params": {"places": ["inf", "x^2/x", "x+1"]}}
    assert main([_write(tmp_path, scenario)]) == 0
    scenario = {"task": "verify-33", "params": {"eta": "(x^2+x)/x", "m_max": 1}}
    assert main([_write(tmp_path, scenario)]) == 0


_F7_SEARCH = {"task": "search", "backend": "symmetric", "base": {"p": 7},
              "elements": {"s": "x", "t": "x+y"}, "params": {"m_max": 2, "n_max": 2}}


@pytest.mark.parametrize("scenario, message", [
    ({"task": "verify-b", "base": {"p": 3}}, "base: task 'verify-b' runs over F_7 only"),
    ({"task": "verify-a1", "base": {"p": 5}}, "base: task 'verify-a1' runs over F_2 only"),
    ({"task": "verify-33", "base": {"p": 7}}, "base: task 'verify-33' runs over F_2 only"),
    ({"task": "bounds", "base": {"p": 3}, "params": _BOUNDS}, "base: task 'bounds' takes no base"),
    ({"task": "unit-solve", "backend": "symmetric", "base": {"p": 7},
      "params": {"generators": ["x", "x+1"]}}, "backend: task 'unit-solve' takes no backend"),
    ({"task": "addendum", "backend": "symmetric", "elements": {"s": "x", "t": "x^2"}},
     "backend: task 'addendum' takes no backend"),
    ({"task": "verify-a1", "backend": "symmetric"}, "backend: task 'verify-a1' takes no backend"),
    ({"task": "bounds", "backend": "tower", "params": _BOUNDS},
     "backend: task 'bounds' takes no backend"),
    ({"task": "verify-a1", "tower": _QUARTIC}, "tower: task 'verify-a1' takes no tower"),
    ({"task": "unit-solve", "tower": _QUARTIC, "params": {"generators": ["x"]}},
     "tower: task 'unit-solve' takes no tower"),
    (dict(_F7_SEARCH, tower=_QUARTIC), "tower: the symmetric backend takes no tower"),
    ({"task": "bounds", "elements": {"s": "x"}, "params": _BOUNDS},
     "elements: task 'bounds' takes no elements"),
    ({"task": "verify-b", "elements": {"s": "x"}}, "elements: task 'verify-b' takes no elements"),
], ids=["verify-b", "verify-a1", "verify-33", "bounds", "unit-solve-backend", "addendum-backend",
        "verify-a1-backend", "bounds-backend", "verify-a1-tower", "unit-solve-tower",
        "symmetric-search-tower", "bounds-elements", "verify-b-elements"])
def test_unread_keys_rejected(tmp_path, capsys, scenario, message):
    # a top-level key the task does not read, or a base other than its own
    # field, was silently ignored
    assert main([_write(tmp_path, scenario)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and message in err
    assert len(err.strip().splitlines()) == 1


def test_unpicked_element_accepted(tmp_path):
    # elements may name more than the params pick
    scenario = {"task": "disc", "tower": _QUARTIC, "elements": {"s": "s", "t": "s+x"}}
    assert main([_write(tmp_path, scenario)]) == 0


@pytest.mark.parametrize("scenario, message", [
    ({"task": "search", "base": {"p": 131},
      "tower": {"levels": [{"label": "s", "poly": "s^3-x"}]},
      "elements": {"s": "s", "t": "s"}, "params": {"m_max": 0}}, "m_max must be positive"),
    ({"task": "unit-solve", "base": {"p": 3}, "params": {"generators": ["x"], "height_bound": -1}},
     "height_bound must be non-negative"),
], ids=["search", "unit-solve"])
def test_sizes_checked_before_any_work(tmp_path, capsys, monkeypatch, scenario, message):
    # the F_131 level does not certify, and that fault was reported instead
    # of the size, after the certification scan
    def no_work(*args):
        raise AssertionError("work began before the sizes were checked")

    monkeypatch.setattr(cli, "_build_tower", no_work)
    monkeypatch.setattr(cli, "build_group", no_work)
    assert main([_write(tmp_path, scenario)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and message in err
    assert len(err.strip().splitlines()) == 1


def test_own_base_accepted(tmp_path):
    assert main([str(SCENARIOS / "verify_33.json")]) == 0
    scenario = {"task": "verify-33", "base": {"p": 2}, "params": {"m_max": 2, "eta": "x+1"}}
    assert main([_write(tmp_path, scenario)]) == 0
    scenario = {"task": "verify-b", "base": {"p": 7}, "params": {"i_max": 1, "j_max": 1}}
    assert main([_write(tmp_path, scenario)]) == 0


@pytest.mark.parametrize("args, check", [
    (["verify_a1.json", "--mmax", "1"],
     lambda r: r["verification"]["params"]["m_max"] == "1" and r["verification"]["passed"]),
    (["disc_shifted.json", "--places", "inf"],
     lambda r: r["places"] == ["inf"] and r["disc_form_predicate"] is False),
    (["verify_33.json", "--seed-eta", "x^3+x+1"],
     lambda r: r["verification"]["params"]["eta"] == "x^3+x+1" and r["verification"]["passed"]),
], ids=["mmax", "places", "seed-eta"])
def test_command_line_overrides(capsys, args, check):
    assert main([str(SCENARIOS / args[0]), "--json", *args[1:]]) == 0
    assert check(json.loads(capsys.readouterr().out))


@pytest.mark.parametrize("element", ["(" * 10000 + "s" + ")" * 10000, "-" * 10000 + "s"],
                         ids=["parentheses", "minuses"])
def test_deep_nesting_answers(tmp_path, capsys, element):
    # the recursive-descent parser ended such an element in a RecursionError
    # traceback with exit 1, from 300 parentheses or 2,000 minuses on
    scenario = {"task": "disc", "tower": _QUARTIC, "elements": {"s": element}}
    path = _write(tmp_path, scenario)
    t0 = time.perf_counter()
    assert main([path, "--json"]) == 0
    assert time.perf_counter() - t0 < 1
    assert json.loads(capsys.readouterr().out)["discriminant"] == "x^12"


def test_tower_past_degree_64_refused_while_built(tmp_path, capsys):
    # 20 quadratic levels a^2+a+x, b^2+b+a, ... over F_2: the order of the
    # element refused degree 128 and more only once the tower was built, and
    # each level built doubled the time (2.9 s at 14 levels)
    labels = "abcdefghijklmnopqrst"
    levels = [{"label": label, "poly": f"{label}^2+{label}+{below}"}
              for label, below in zip(labels, "x" + labels)]
    scenario = {"task": "disc", "tower": {"levels": levels, "assume_irreducible": True},
                "elements": {"s": "a"}}
    path = _write(tmp_path, scenario)
    t0 = time.perf_counter()
    assert main([path]) == 2
    assert time.perf_counter() - t0 < 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: level 'g': tower degree 128 exceeds "
                          "the supported desk scale of 64")
    assert len(err.strip().splitlines()) == 1
