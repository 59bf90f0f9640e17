"""Random scenarios against the CLI contract.

Whatever the scenario holds, `run_scenario` either returns a report with
exit code 0 or 1, or raises `ConfigError` (exit 2); any other exception is
a fault.  The task table `cli._TASKS` says which top-level keys and params
each task reads.  Scenarios mix well-formed parts (fields, towers, element
texts, sizes from their least value up to their default) with values of
the wrong JSON type, unknown keys, keys the task does not read, malformed
text, texts nested in up to 2,000 parentheses or unary minuses, sizes just
past their default and sizes of 10^9, and each one must
finish in about a second: a size or field degree that reaches a loop
without a cap runs far longer.  Every size of every bundled scenario is
also set to 10^9 once.
"""

import copy
import json
import signal
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from monogenic.cli import _READ_KEYS, _TASKS, ConfigError, run_scenario

# a slow spell of a shared host can triple a one-second run
MAX_SECONDS = 3.0

_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8)
    | st.floats(-3, 8, allow_nan=False, allow_infinity=False)
    | st.sampled_from([float("nan"), float("inf")])
    | st.text(alphabet="xyzstu0123+-*/^() ", max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["p", "k", "label", "poly", "levels", "s", "junk"]),
                      inner, max_size=3),
    max_leaves=6,
)

def _nested(texts):
    """texts, now and then inside up to 2,000 pairs of parentheses or after
    a run of up to 2,000 unary minuses, which the parser reads without
    recursion"""
    depth = st.integers(1, 2000)
    return (texts | st.builds(lambda n, t: "(" * n + t + ")" * n, depth, texts)
            | st.builds(lambda n, t: "-" * n + t, depth, texts))


_TEXTS = _nested(st.sampled_from([
    "x", "s", "t", "y", "z", "u", "1", "0", "x+1", "x^2+x", "s^2+x", "s+1", "x*s",
    "2*x+3*y", "x*y+x", "x+y", "1/x", "s/0", "(x", "", "x^-1", "s^4+x^4*s^2+x^3*s+x+1",
    "s^2-x", "s^2+s+x", "z*x+1", "x^3+x+1", "s^2+1/s", "z/x",
]) | st.text(alphabet="xyzs0123+-*/^() ", max_size=10))

# (base, tower) pairs that build: levels of degree 2 to 4 over F_2, F_3, F_4 and F_7
_FIELDS_AND_TOWERS = [
    ({"p": 2}, {"levels": [{"label": "s", "poly": "s^4+x^4*s^2+x^3*s+x+1"}]}),
    ({"p": 3}, {"levels": [{"label": "s", "poly": "s^2-x"}]}),
    ({"p": 2}, {"levels": [{"label": "s", "poly": "s^2+s+x"}, {"label": "u", "poly": "u^2+u+s"}],
                "assume_irreducible": True}),
    ({"p": 3}, {"levels": [{"label": "s", "poly": "s^3-s-x"}]}),
    ({"p": 7}, {"levels": [{"label": "s", "poly": "s^2-x"}]}),
    ({"p": 2, "k": 2}, {"levels": [{"label": "s", "poly": "s^2+s+x"}]}),
]

_BASES = st.sampled_from([
    {"p": 2}, {"p": 3}, {"p": 5}, {"p": 7}, {"p": 2, "k": 2}, {"p": 3, "k": 2},
    {"p": 4}, {"p": 2, "k": 9}, {"p": 2, "modulus": "111"}, {"p": 2, "k": 2, "modulus": [1, 0, 1]},
    {"p": 3, "k": 10 ** 9},
])

_TOWERS = st.sampled_from([t for _, t in _FIELDS_AND_TOWERS] + [{"levels": []}]) \
    | st.fixed_dictionaries({"levels": st.lists(
        st.fixed_dictionaries({"label": _TEXTS, "poly": _TEXTS}), max_size=2)})

# values of the wrong kind or out of range, for any param
_BAD_PARAMS = _JUNK | _TEXTS | st.sampled_from([0, -1, 10 ** 9])

# values that fit the params taking text; the bounds task's p is a prime,
# its q_K is p or p^2 and its q_L is q_K or q_K^2 (a p or q_K of 10^9 is
# bad input, and `test_huge_sizes_answer_quickly` tries both); any other
# number is 10^9 about one time in four, else a size (a param whose default
# is (default, least value)) draws from its least value up to its default,
# or on an odd draw one or two past it (where a cap equals the default), and
# the other numbers from 2 to 5
_NAMES = st.sampled_from(["s", "t"])
_PARAM_VALUES = {
    "s": _NAMES, "t": _NAMES, "element": _NAMES,
    "eta": st.sampled_from(["x+1", "x^2+x+1", "x^3+x+1"]),
    "places": st.lists(st.sampled_from(["inf", "x", "x+1", "x^2+x+1"]), max_size=3),
    "generators": st.lists(st.sampled_from(["x", "x+1", "x^2+x+1", "2*x+1", "1-x"]),
                           min_size=1, max_size=3),
}

_ELEMENT_TEXTS = {
    "symmetric": _nested(st.sampled_from(["x", "2*x+3*y", "x*y+x", "x+y", "x-y"])),
    "tower": _nested(st.sampled_from(["s", "s+x", "x*s", "s^2", "s+1", "u", "s^3"])),
    "base": _nested(st.sampled_from(["x", "x^2", "x+1", "x^2+x", "x^3", "0", "1/x"])),
}


@st.composite
def scenarios(draw):
    """A scenario that mostly fits its task: it holds the top-level keys
    the task reads (`cli._TASKS`) with values that fit them.  Now and then
    a part is replaced by a value of another kind, dropped, or joined by a
    key the task does not read or an unknown key."""

    def odd():  # true about one draw in eight
        return draw(st.sampled_from("abcdefgh")) == "h"

    def huge():  # true about one draw in four
        return draw(st.sampled_from("abcd")) == "d"

    name = draw(_JUNK) if odd() else draw(st.sampled_from(tuple(_TASKS)))
    task = _TASKS.get(name) if isinstance(name, str) else None
    reads = task.reads if task else _READ_KEYS
    base, tower = copy.deepcopy(draw(st.sampled_from(_FIELDS_AND_TOWERS)))
    ring = "tower" if "tower" in reads else "base"
    if "backend" in reads and draw(st.booleans()):
        ring, base = "symmetric", {"p": draw(st.sampled_from([3, 5, 7]))}
    if task and task.base:
        base = {"p": task.base[0]}
    parts = {
        "base": draw(_BASES) if odd() else base,
        "backend": "symmetric" if ring == "symmetric" else "tower",
        "tower": draw(_TOWERS) if odd() else tower,
        "elements": {k: draw(_TEXTS) if odd() else draw(_ELEMENT_TEXTS[ring]) for k in "st"},
    }
    if ring == "symmetric":
        reads = tuple(key for key in reads if key != "tower")
    scenario = {"task": name, **{key: parts[key] for key in reads}}
    unread = [key for key in _READ_KEYS if key not in reads]
    if unread and odd():
        key = draw(st.sampled_from(unread))
        scenario[key] = parts[key]
    params = {}
    for key, default in (task.params if task else {}).items():
        if odd():
            params[key] = draw(_BAD_PARAMS)
        elif key in _PARAM_VALUES:
            params[key] = draw(_PARAM_VALUES[key])
        elif key == "p":  # bounds: a characteristic, and q_K a power of it
            params[key] = draw(st.sampled_from([2, 3, 5]))
        elif key == "q_K" and params.get("p") in (2, 3, 5):
            params[key] = params["p"] ** draw(st.integers(1, 2))
        elif key == "q_L" and params.get("q_K") in (2, 3, 4, 5, 9, 25):
            params[key] = params["q_K"] ** draw(st.integers(1, 2))
        elif huge():
            params[key] = 10 ** 9
        elif isinstance(default, tuple):
            least, most = (default[0] + 1, default[0] + 2) if odd() else (default[1], default[0])
            params[key] = draw(st.integers(least, most))
        else:
            params[key] = draw(st.integers(2, 5))
    if params and draw(st.booleans()):
        params = {k: v for k, v in params.items() if not odd()}
    scenario["params"] = params
    for key in list(scenario)[1:]:
        if not odd():
            continue
        fault = draw(st.sampled_from(["drop", "junk", "inner"]))
        if fault == "drop":
            del scenario[key]
        elif fault == "junk" or not (isinstance(scenario[key], dict) and scenario[key]):
            scenario[key] = draw(_JUNK)
        else:
            inner = draw(st.sampled_from(sorted(scenario[key])))
            scenario[key][inner] = draw(_JUNK)
    if odd():
        scenario[draw(st.sampled_from(["junk", "Task", "param"]))] = draw(_JUNK)
    return draw(_JUNK) if odd() else scenario


@pytest.mark.parametrize("base, tower", _FIELDS_AND_TOWERS, ids=[
    f"F{b['p']}^{b.get('k', 1)}-{t['levels'][0]['poly']}" for b, t in _FIELDS_AND_TOWERS])
def test_grammar_towers_build(base, tower):
    # the scenarios draw on these pairs as the ones that build
    label = tower["levels"][0]["label"]
    scenario = {"task": "disc", "base": base, "tower": tower, "elements": {label: label},
                "params": {"element": label}}
    assert run_scenario(scenario)[1] == 0


@given(scenarios())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_scenarios_keep_the_exit_contract(scenario):
    _keeps_the_exit_contract(scenario)


class _TooSlow(Exception):
    pass


def _too_slow(signum, frame):
    raise _TooSlow(f"no answer within {MAX_SECONDS} s")


def _keeps_the_exit_contract(scenario):
    # the alarm makes a loop without a cap fail the test instead of hanging
    # it; it rings again each second, as one that rings inside a garbage
    # collector callback is ignored
    previous = signal.signal(signal.SIGALRM, _too_slow)
    signal.setitimer(signal.ITIMER_REAL, MAX_SECONDS, 1.0)
    t0 = time.perf_counter()
    try:
        report, code = run_scenario(scenario)
    except ConfigError:
        pass
    else:
        assert code in (0, 1)
        json.dumps(report, sort_keys=True)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - t0 < MAX_SECONDS, scenario


@pytest.mark.parametrize("p, s, t", [
    (65521, "(x+1)^97", "(x+1)^100"),
    (65521, "x^240+x+3", "(x^240+x+3)^2"),
    (2, "(x+1)^997", "(x+1)^1000"),
], ids=["F65521-powers", "F65521-square", "F2-powers"])
def test_addendum_probes_answer_quickly(p, s, t):
    # the addendum factored both elements, and then checked its pair by the
    # power s^M/t^N of degree 9,700 in the first probe: 10 s to minutes
    _keeps_the_exit_contract({"task": "addendum", "base": {"p": p}, "elements": {"s": s, "t": t}})


def _bundled_sizes():
    scenarios_dir = Path(__file__).resolve().parent.parent / "scenarios"
    for path in sorted(scenarios_dir.glob("*.json")):
        scenario = json.loads(path.read_text(encoding="utf-8"))
        params = scenario.get("params", {})
        for key, default in _TASKS[scenario["task"]].params.items():
            if isinstance(default, tuple) or isinstance(params.get(key), int):
                yield pytest.param(scenario, key, id=f"{path.stem}-{key}")


@pytest.mark.parametrize("scenario, key", list(_bundled_sizes()))
def test_huge_sizes_answer_quickly(scenario, key):
    # each cap on a size (the search grid, the verify exponents, ef's bound)
    # answers 10^9 with exit 2 at once; a size without one (unit-solve's
    # height bound, the bounds task) must still return quickly
    scenario = copy.deepcopy(scenario)
    scenario.setdefault("params", {})[key] = 10 ** 9
    _keeps_the_exit_contract(scenario)
