import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

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


def _write(tmp_path, scenario):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario), encoding="utf-8")
    return str(path)


def test_box_sets_the_task_keys(capsys):
    assert main([str(SCENARIOS / "search_diagonal.json"), "--json", "--box", "4"]) == 0
    assert json.loads(capsys.readouterr().out)["search"]["box"] == [4, 4]
    assert main([str(SCENARIOS / "ef_shifted.json"), "--json", "--box", "4"]) == 0
    assert len(json.loads(capsys.readouterr().out)["degrees"]) == 4
    assert main([str(SCENARIOS / "disc_shifted.json"), "--box", "4"]) == 2


_QUARTIC = {"levels": [{"label": "s", "poly": "s^4+x^4*s^2+x^3*s+x+1"}]}


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
], ids=["array-scenario", "list-param", "string-param", "array-params", "number-element",
        "list-base", "string-generators", "fraction-param", "boolean-param", "infinite-param"])
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
