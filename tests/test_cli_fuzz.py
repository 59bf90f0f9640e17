"""Random scenarios against the CLI contract.

Whatever the scenario holds, `run_scenario` either returns a report with
exit code 0 or 1, or raises `ConfigError` (exit 2); any other exception is
a fault.  Scenarios mix well-formed parts (fields, towers, element texts,
sizes up to 6) with values of the wrong JSON type, unknown keys, malformed
text and sizes of 10^9, and each one must finish in about a second: a size
or field degree that reaches a loop without a cap runs far longer.
"""

import copy
import json
import time

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from monogenic.cli import _TASKS, ConfigError, run_scenario

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

_TEXTS = st.sampled_from([
    "x", "s", "t", "y", "z", "u", "1", "0", "x+1", "x^2+x", "s^2+x", "s+1", "x*s",
    "2*x+3*y", "x*y+x", "x+y", "1/x", "s/0", "(x", "", "x^-1", "s^4+x^4*s^2+x^3*s+x+1",
    "s^2-x", "s^2+s+x", "z*x+1", "x^3+x+1", "s^2+1/s", "z/x",
]) | st.text(alphabet="xyzs0123+-*/^() ", max_size=10)

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

_SIZES = st.integers(0, 6) | st.just(10 ** 9)

_PARAM_VALUES = {
    "m_max": _SIZES, "n_max": _SIZES, "bound": _SIZES, "relation_box": _SIZES,
    "height_bound": _SIZES, "i_max": _SIZES, "j_max": _SIZES,
    "d": _SIZES, "p": _SIZES, "q_K": _SIZES, "S_size": _SIZES, "q_L": _SIZES,
    "r": _SIZES, "lambda": _SIZES,
    "s": st.sampled_from(["s", "t"]), "t": st.sampled_from(["s", "t"]),
    "element": st.sampled_from(["s", "t"]), "eta": st.sampled_from(["x+1", "x", "1"]) | _TEXTS,
    "places": st.lists(st.sampled_from(["inf", "x", "x+1", "x^2+x+1", "1/x"]) | _TEXTS,
                       max_size=3),
    "generators": st.lists(st.sampled_from(["x", "x+1", "x^2+x+1", "2*x+1", "1-x"]) | _TEXTS,
                           max_size=3),
}

# the params each task reads
_TASK_PARAMS = {
    "disc": ["element", "places"], "order-eq": ["s", "t"],
    "search": ["s", "t", "m_max", "n_max"], "unit-solve": ["generators", "height_bound"],
    "ef": ["element", "bound"], "verify-a1": ["m_max", "relation_box"],
    "verify-33": ["m_max", "eta"], "verify-b": ["i_max", "j_max"],
    "bounds": ["d", "p", "q_K", "S_size", "q_L", "r", "lambda"], "addendum": ["s", "t"],
}


@st.composite
def scenarios(draw):
    """A scenario that mostly fits its task, with each part replaced now and
    then by a value of another kind, dropped, or joined by an unknown key."""

    def odd():  # true about one draw in eight
        return draw(st.sampled_from("abcdefgh")) == "h"

    task = draw(_JUNK) if odd() else draw(st.sampled_from(_TASKS))
    base, tower = copy.deepcopy(draw(st.sampled_from(_FIELDS_AND_TOWERS)))
    symmetric = draw(st.booleans())
    if symmetric:
        base = {"p": draw(st.sampled_from([3, 5, 7]))}
    scenario = {"task": task, "base": draw(_BASES) if odd() else base,
                "backend": "symmetric" if symmetric else "tower", "tower": tower}
    if odd():
        scenario["tower"] = draw(_TOWERS)
    texts = st.sampled_from(["x", "2*x+3*y", "x*y+x", "x+y", "x-y"]) if symmetric else \
        st.sampled_from(["s", "s+x", "x*s", "s^2", "s+1", "u", "s^3"])
    scenario["elements"] = {name: draw(_TEXTS) if odd() else draw(texts) for name in ("s", "t")}
    keys = _TASK_PARAMS.get(task, []) if isinstance(task, str) else []
    params = {k: draw(_PARAM_VALUES[k]) for k in keys}
    if keys and draw(st.booleans()):
        params = {k: params[k] for k in keys if not odd()}
    scenario["params"] = params
    for key in ("base", "backend", "tower", "elements", "params"):
        if odd():
            del scenario[key]
        elif odd():
            scenario[key] = draw(_JUNK)
        elif odd() and isinstance(scenario[key], dict) and scenario[key]:
            inner = draw(st.sampled_from(sorted(scenario[key])))
            scenario[key][inner] = draw(_JUNK)
    if odd():
        scenario[draw(st.sampled_from(["junk", "Task", "param"]))] = draw(_JUNK)
    return draw(_JUNK) if odd() else scenario


@given(scenarios())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_random_scenarios_keep_the_exit_contract(scenario):
    t0 = time.perf_counter()
    try:
        report, code = run_scenario(scenario)
    except ConfigError:
        pass
    else:
        assert code in (0, 1)
        json.dumps(report, sort_keys=True)
    assert time.perf_counter() - t0 < MAX_SECONDS, scenario
