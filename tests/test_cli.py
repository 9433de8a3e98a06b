"""Scenario-driven CLI: builtins, schema validation, exit codes, determinism."""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nctorus.algebra import R15_TOP
from nctorus.cli import COMMANDS, main, run, ScenarioError
from nctorus.scenarios import BUILTIN_SCENARIOS, builtin


def run_cli(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main([*argv, "--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def scenario_file(tmp_path, scenario, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(scenario))
    return str(path)


# -- builtins ------------------------------------------------------------------


def test_builtin_scalar_wilson(tmp_path):
    code, text = run_cli(tmp_path, "--builtin", "paper-scalar")
    assert code == 0
    report = json.loads(text)
    assert report["command"] == "wilson"
    re_, im = report["result"]["value"]
    assert abs(complex(re_, im) - 1j) < 1e-12
    assert report["result"]["deck"] == [1, 0]


def test_builtin_4x4_wilson(tmp_path):
    code, text = run_cli(tmp_path, "--builtin", "paper-4x4")
    assert code == 0
    report = json.loads(text)
    matrix = report["result"]["matrix"]
    r = math.sqrt(2) / 2
    assert abs(matrix[0][0][0] - r) < 1e-12
    assert abs(matrix[0][1][0] + r) < 1e-12
    assert abs(matrix[1][0][0] - r) < 1e-12
    assert matrix[2][2] == [1.0, 0.0] and matrix[3][3] == [1.0, 0.0]


def test_builtin_cover_classification(tmp_path):
    code, text = run_cli(tmp_path, "--builtin", "paper-cover")
    assert code == 0
    reports = json.loads(text)["result"]["paths"]
    by_weight = {tuple(r["weight"]): r for r in reports}
    assert by_weight[(1, 0)]["closed"] and by_weight[(1, 0)]["deck"] == [1, 0]
    assert by_weight[(0, 1)]["closed"] and by_weight[(0, 1)]["deck"] == [0, 1]
    assert not by_weight[(2, 0)]["closed"] and by_weight[(2, 0)]["witness"] == 0.5
    assert by_weight[(1, 2)]["deck"] == [1, 0]


def test_builtin_infinite_wilson(tmp_path):
    code, text = run_cli(tmp_path, "--builtin", "paper-infinite")
    assert code == 0
    result = json.loads(text)["result"]
    assert result["deck"] == [1, 0]
    assert abs(complex(*result["value"]) - 1j) < 1e-12


def test_flat_command_on_builtin_connection(tmp_path):
    scenario = builtin("paper-scalar")
    scenario["command"] = "flat"
    code, text = run_cli(tmp_path, "--scenario", scenario_file(tmp_path, scenario))
    assert code == 0
    assert json.loads(text)["result"] == {"flat": True}


def test_flat_command_stops_at_the_first_curved_entry(monkeypatch):
    # an element connection curved at (0, 0): flat takes that entry's 2n products and agrees with curvature
    from nctorus import forms

    calls = []
    product = forms._product
    monkeypatch.setattr(forms, "_product", lambda x, y, terms: calls.append(1) or product(x, y, terms))
    scenario = builtin("paper-4x4")
    v = {"theta": scenario["theta"], "terms": [{"m": 0, "n": 1, "re": 1.0, "im": 0.0, "lk": 0}]}
    scenario["connection"]["theta_u"][0][0] = v  # -delta_v(v) = -2 pi i v at (0, 0)
    assert run({**scenario, "command": "flat"})["result"] == {"flat": False}
    assert len(calls) == 2 * 4
    calls.clear()
    assert run({**scenario, "command": "curvature"})["result"]["flat"] is False
    assert len(calls) == 2 * 4**3


def test_curvature_command(tmp_path):
    scenario = builtin("paper-4x4")
    scenario["command"] = "curvature"
    code, text = run_cli(tmp_path, "--scenario", scenario_file(tmp_path, scenario))
    assert code == 0
    result = json.loads(text)["result"]
    assert result["flat"] is True
    entries = result["curvature"]["entries"]
    assert all(e["dudv"]["terms"] == [] for row in entries for e in row)


def test_transport_command(tmp_path):
    scenario = builtin("paper-scalar")
    scenario["command"] = "transport"
    scenario["paths"] = [[1, 0]]
    scenario["params"] = {"tau": 0.5}
    code, text = run_cli(tmp_path, "--scenario", scenario_file(tmp_path, scenario))
    assert code == 0
    result = json.loads(text)["result"]
    import cmath

    assert abs(complex(*result["value"]) - cmath.exp(2j * math.pi * 0.25 * 0.5)) < 1e-12
    assert result["tau"] == 0.5


def test_independence_command(tmp_path):
    scenario = builtin("paper-scalar")
    scenario["command"] = "independence"
    scenario["paths"] = [[1, 0], [1, 2]]
    scenario["connection"]["theta_v"] = [[[0.0, 0.3]]]
    code, text = run_cli(tmp_path, "--scenario", scenario_file(tmp_path, scenario))
    assert code == 0
    result = json.loads(text)["result"]
    assert result["certified"] is False
    assert result["max_distance"] > 0.5


# -- report invariants ------------------------------------------------------------


def test_reports_are_byte_identical(tmp_path):
    _, first = run_cli(tmp_path, "--builtin", "paper-4x4")
    _, second = run_cli(tmp_path, "--builtin", "paper-4x4")
    assert first == second
    scenario = scenario_file(tmp_path, builtin("paper-scalar"))
    _, a = run_cli(tmp_path, "--scenario", scenario)
    _, b = run_cli(tmp_path, "--scenario", scenario)
    assert a == b


def test_report_embeds_round_trippable_scenario(tmp_path):
    scenario = builtin("paper-cover")
    path = scenario_file(tmp_path, scenario)
    code, text = run_cli(tmp_path, "--scenario", path)
    assert code == 0
    report = json.loads(text)
    assert report["scenario"] == scenario
    # re-running the embedded scenario reproduces the same result
    assert run(report["scenario"])["result"] == report["result"]


def _seeded_scenarios(seed: int) -> list[dict]:
    """One scenario per command, its floats drawn at full double precision."""
    rng = random.Random(seed)
    n = rng.randint(1, 4)

    def antihermitian():
        h = [[complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(n)] for _ in range(n)]
        return [[0.5 * (h[i][j] - h[j][i].conjugate()) for j in range(n)] for i in range(n)]

    def payload(a, b):
        pairs = [[[[z.real, z.imag] for z in row] for row in m] for m in (a, b)]
        return {"rank": n, "theta_u": pairs[0], "theta_v": pairs[1]}

    a, s = antihermitian(), rng.uniform(0.5, 2)
    flat = payload(a, [[s * z for z in row] for row in a])
    curved = payload(a, antihermitian())
    k = (rng.randint(2, 4), rng.randint(2, 4))
    deck = [1, rng.randrange(k[1])]
    closed = [[w0, w1] for w0 in (1, 1 + k[0], 1 - k[0]) for w1 in (deck[1], deck[1] + k[1]) if math.gcd(w0, w1) == 1]
    base = {"v": 1, "theta": rng.uniform(0.01, 0.99), "covering": {"degrees": list(k)}, "params": {"deck": deck}}
    return [
        {**base, "command": "curvature", "connection": curved},
        {**base, "command": "flat", "connection": curved},
        {**base, "command": "transport", "connection": curved, "paths": [[rng.uniform(-2, 2), 1]],
         "params": {"tau": rng.uniform(-1, 1)}},
        {**base, "command": "classify", "paths": [[1, 0], [2 * k[0], 2], [rng.randint(-9, 9), 3 * rng.randint(1, 3)]]},
        {**base, "command": "wilson", "connection": flat},
        {**base, "command": "independence", "connection": flat, "paths": closed},
        {**base, "command": "infinite-wilson", "params": {
            "deck": [rng.randint(-50, 50), rng.randint(-50, 50)], "c_u": rng.uniform(-1, 1), "c_v": rng.uniform(-1, 1)}},
    ]


def _leaves(tree, key=None):
    """(nearest dict key, value) for every scalar of a JSON tree."""
    if isinstance(tree, dict):
        for k, v in tree.items():
            yield from _leaves(v, k)
    elif isinstance(tree, list):
        for v in tree:
            yield from _leaves(v, key)
    else:
        yield key, tree


def test_report_floats_have_15_digits_and_the_scenario_is_verbatim():
    # every float of a result is its own 15-digit rounding, bools and ints keep their types, and
    # the echoed scenario is the input object with its full-precision floats
    bools, ints = {"flat", "closed", "certified"}, {"rank", "m", "n", "lk", "deck", "weights", "weight"}
    floats = {"matrix", "value", "tau", "theta", "re", "im", "witness", "max_distance"}
    scenarios = [builtin(name) for name in sorted(BUILTIN_SCENARIOS)]
    for seed in range(4):
        scenarios += _seeded_scenarios(seed)
    assert {s["command"] for s in scenarios} == set(COMMANDS)
    unrounded = 0
    for scenario in scenarios:
        before = json.dumps(scenario, sort_keys=True)
        report = run(scenario)
        assert report["scenario"] is scenario and json.dumps(scenario, sort_keys=True) == before
        unrounded += sum(float(f"{x:.15g}") != x for _, x in _leaves(scenario) if isinstance(x, float))
        path_types = [type(w) for w in scenario.get("paths", [[0, 0]])[0]]
        for key, x in _leaves(report["result"]):
            if x is None:  # an open path has no deck element and a closed one no witness
                assert scenario["command"] == "classify" and key in ("deck", "witness")
            elif key in bools:
                assert type(x) is bool, (scenario["command"], key, x)
            elif key == "weight" and scenario["command"] == "transport":
                assert type(x) in path_types and (type(x) is int or float(f"{x:.15g}") == x)
            elif key in ints:
                assert type(x) is int, (scenario["command"], key, x)
            else:
                assert key in floats and type(x) is float, (scenario["command"], key, x)
                assert float(f"{x:.15g}") == x, (scenario["command"], key, x)
    assert unrounded > 100


def test_pretty_flag_changes_layout_not_content(tmp_path):
    _, compact = run_cli(tmp_path, "--builtin", "paper-scalar")
    out = tmp_path / "pretty.json"
    assert main(["--builtin", "paper-scalar", "--pretty", "--out", str(out)]) == 0
    pretty = out.read_text()
    assert pretty != compact
    assert json.loads(pretty) == json.loads(compact)


def test_stdout_default(capsys):
    assert main(["--builtin", "paper-scalar"]) == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["command"] == "wilson"
    assert captured.err == ""  # a successful run writes nothing to stderr


# -- validation and error handling --------------------------------------------------


def test_missing_version_field(tmp_path):
    scenario = builtin("paper-scalar")
    del scenario["v"]
    code, text = run_cli(tmp_path, "--scenario", scenario_file(tmp_path, scenario))
    assert code == 2
    body = json.loads(text)
    assert body["error"] == "validation"


def test_unknown_command(tmp_path):
    scenario = builtin("paper-scalar")
    scenario["command"] = "holonomy"
    code, text = run_cli(tmp_path, "--scenario", scenario_file(tmp_path, scenario))
    assert code == 2
    assert json.loads(text)["error"] == "validation"


def test_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, text = run_cli(tmp_path, "--scenario", str(path))
    assert code == 2


def test_missing_file(tmp_path):
    code, text = run_cli(tmp_path, "--scenario", str(tmp_path / "absent.json"))
    assert code == 2


def test_unwritable_out_is_validation_error(tmp_path, capsys):
    # the report, and the error of a missing scenario, cannot go to --out: both exit 2 on stdout
    out = str(tmp_path / "absent-dir" / "report.json")
    for source in (["--builtin", "paper-cover"], ["--scenario", str(tmp_path / "absent.json")]):
        assert main([*source, "--out", out]) == 2
        captured = capsys.readouterr()
        assert json.loads(captured.out)["error"] == "validation"
        assert captured.err == ""


def test_math_domain_error_not_flat(tmp_path):
    scenario = builtin("paper-scalar")
    # Theta_u = v is not flat: stored as a full element payload
    scenario["connection"]["theta_u"] = [
        [{"theta": scenario["theta"], "terms": [{"m": 0, "n": 1, "re": 1.0, "im": 0.0, "lk": 0}]}]
    ]
    code, text = run_cli(tmp_path, "--scenario", scenario_file(tmp_path, scenario))
    assert code == 3
    assert json.loads(text)["error"] == "not-flat"


def test_math_domain_error_zero_weight(tmp_path):
    scenario = builtin("paper-cover")
    scenario["paths"] = [[0, 0]]
    code, text = run_cli(tmp_path, "--scenario", scenario_file(tmp_path, scenario))
    assert code == 3
    assert json.loads(text)["error"] == "zero-weight"


def test_run_rejects_non_dict():
    with pytest.raises(ScenarioError):
        run([1, 2, 3])


def test_declared_rank_mismatch_is_validation_error(tmp_path):
    scenario = builtin("paper-scalar")
    scenario["connection"]["rank"] = 3
    code, text = run_cli(tmp_path, "--scenario", scenario_file(tmp_path, scenario))
    assert code == 2
    assert json.loads(text)["error"] == "validation"


def test_non_integer_classify_weight_is_validation_error(tmp_path):
    scenario = builtin("paper-cover")
    scenario["paths"] = [[1.5, 0]]
    code, text = run_cli(tmp_path, "--scenario", scenario_file(tmp_path, scenario))
    assert code == 2


@pytest.mark.parametrize("paths", [[[0, 0], [0.5, 1]], [[0.5, 1], [0, 0]]], ids=["zero-first", "zero-last"])
def test_classify_checks_every_weight_before_classifying(tmp_path, paths):
    # the malformed weight is exit 2 in either order, not the zero weight's exit 3
    scenario = builtin("paper-cover")
    scenario["paths"] = paths
    code, text = run_cli(tmp_path, "--scenario", scenario_file(tmp_path, scenario))
    assert code == 2
    assert json.loads(text) == {"error": "validation", "message": "classify weight must be an integer, got 0.5"}


def test_non_integer_deck_is_validation_error(tmp_path):
    scenario = builtin("paper-scalar")
    scenario["params"]["deck"] = [0.5, 0]
    code, text = run_cli(tmp_path, "--scenario", scenario_file(tmp_path, scenario))
    assert code == 2


def test_rank_zero_connection_is_validation_error(tmp_path):
    scenario = builtin("paper-scalar")
    scenario["connection"] = {"rank": 0, "theta_u": [], "theta_v": []}
    scenario["paths"] = [[1, 0]]
    for command in ("curvature", "flat", "transport", "wilson", "independence"):
        scenario["command"] = command
        code, text = run_cli(tmp_path, "--scenario", scenario_file(tmp_path, scenario))
        assert code == 2, command
        assert json.loads(text)["error"] == "validation"


def test_non_integer_degrees_are_validation_error(tmp_path):
    scenario = builtin("paper-cover")
    scenario["covering"]["degrees"] = [2.5, 2]
    code, text = run_cli(tmp_path, "--scenario", scenario_file(tmp_path, scenario))
    assert code == 2
    assert json.loads(text)["error"] == "validation"


@pytest.mark.parametrize(
    "field, value", [("m", 1.5), ("n", True), ("lk", -0.9), ("rank", 1.5)], ids=["m", "n", "lk", "rank"]
)
def test_non_integer_element_exponent_is_validation_error(tmp_path, field, value):
    scenario = builtin("paper-scalar")
    term = {"m": 0, "n": 0, "re": 0.0, "im": 0.25, "lk": 0}
    scenario["command"] = "curvature"
    scenario["connection"]["theta_u"] = [[{"theta": scenario["theta"], "terms": [term]}]]
    if field == "rank":
        scenario["connection"]["rank"] = value
    else:
        term[field] = value
    code, text = run_cli(tmp_path, "--scenario", scenario_file(tmp_path, scenario))
    assert code == 2
    assert json.loads(text)["error"] == "validation"


_TERM = {"m": 0, "n": 0, "re": 0.0, "im": 0.25, "lk": 0}


@pytest.mark.parametrize(
    "entry",
    [
        True,
        "0.25j",
        [True, 0],
        {"theta": 0.3819660113, "terms": [{**_TERM, "re": "0.25"}]},
        {"theta": "0.3819660113", "terms": [_TERM]},
    ],
    ids=["bool", "string", "bool-pair", "element-string-re", "element-string-theta"],
)
def test_non_numeric_connection_entry_is_validation_error(tmp_path, entry):
    scenario = builtin("paper-scalar")
    scenario["command"] = "flat"
    scenario["connection"]["theta_u"] = [[entry]]
    code, text = run_cli(tmp_path, "--scenario", scenario_file(tmp_path, scenario))
    assert code == 2
    assert json.loads(text)["error"] == "validation"


def test_element_entry_over_another_theta_is_validation_error(tmp_path):
    scenario = builtin("paper-scalar")
    scenario["connection"]["theta_u"] = [[{"theta": 0.5, "terms": []}]]
    code, text = run_cli(tmp_path, "--scenario", scenario_file(tmp_path, scenario))
    assert code == 2
    assert json.loads(text)["error"] == "validation"


def test_exponent_overflow_is_validation_error(tmp_path):
    # u^m v^n exponents of 10^308: the derivation term 2 pi i m overflows to an infinite coefficient
    scenario = builtin("paper-scalar")
    scenario["command"] = "curvature"
    for key, m, n in (("theta_u", 0, 10**308), ("theta_v", 10**308, 0)):
        term = {"m": m, "n": n, "re": 1.0, "im": 0.0, "lk": 0}
        scenario["connection"][key] = [[{"theta": scenario["theta"], "terms": [term]}]]
    code, text = run_cli(tmp_path, "--scenario", scenario_file(tmp_path, scenario))
    assert code == 2
    assert json.loads(text)["error"] == "validation"


@pytest.mark.parametrize(
    "component", [math.nan, math.inf, -math.inf, True], ids=["nan", "inf", "-inf", "bool"]
)
def test_non_finite_path_weight_is_validation_error(component):
    scenario = builtin("paper-scalar")
    scenario["command"] = "transport"
    scenario["paths"] = [[component, 0]]
    with pytest.raises(ScenarioError, match="path weight"):
        run(scenario)


@pytest.mark.parametrize(
    "name, old, new",
    [
        ("paper-infinite", '"c_u": 0.25', '"c_u": NaN'),
        ("paper-scalar", '"params": {"deck": [1, 0]}', '"params": [1]'),
        ("paper-scalar", '"theta_u": [[[0.0, 0.25]]]', '"theta_u": [[[0.0, Infinity]]]'),
        ("paper-infinite", '"theta": 0.3819660113', '"theta": NaN'),
        ("paper-infinite", '"deck": [1, 0]', '"deck": [Infinity, 0]'),
        ("paper-infinite", '"c_v": 0.1', '"c_v": 1e400'),
        ("paper-infinite", '"c_v": 0.1', '"c_v": 0.1, "extra": ' + "[" * 100_000 + "]" * 100_000),
    ],
    ids=[
        "nan-coupling",
        "params-list",
        "infinite-entry",
        "nan-theta",
        "infinite-deck",
        "overflow-literal",
        "deeper-than-recursion-limit",
    ],
)
def test_scenario_text_contract_violation_exits_2(tmp_path, capsys, name, old, new):
    text = json.dumps(builtin(name))
    assert old in text
    path = tmp_path / "scenario.json"
    path.write_text(text.replace(old, new))
    code, body = run_cli(tmp_path, "--scenario", str(path))
    assert code == 2
    assert json.loads(body)["error"] == "validation"
    assert capsys.readouterr().err == ""


def _every_field(command: str) -> dict:
    """paper-scalar as ``command``, with a valid value for every field any command reads."""
    scenario = builtin("paper-scalar")
    scenario.update(command=command, paths=[[1, 0]])
    scenario["params"].update(tau=0.5, c_u=0.25, c_v=0.1)
    return scenario


_BAD_CONNECTION = {"rank": 1, "theta_u": [[[0.0, math.nan]]], "theta_v": [[0.0]]}
# (command, field) for every pair of cli.COMMANDS, with a malformed value of that field
_FIELD_CASES = [
    ("curvature", "connection", ("connection",), _BAD_CONNECTION),
    ("flat", "connection", ("connection",), _BAD_CONNECTION),
    ("transport", "connection", ("connection",), _BAD_CONNECTION),
    ("transport", "weight", ("paths",), [[math.nan, 0]]),
    ("transport", "tau", ("params", "tau"), math.inf),
    ("classify", "covering", ("covering",), {"degrees": [2, math.inf]}),
    ("classify", "weights", ("paths",), [[1, 0], [0.5, 1]]),
    ("wilson", "covering", ("covering",), {"degrees": [0, 2]}),
    ("wilson", "connection", ("connection",), _BAD_CONNECTION),
    ("wilson", "deck", ("params", "deck"), [1, 0.5]),
    ("independence", "covering", ("covering",), {}),
    ("independence", "connection", ("connection",), {"rank": 2, "theta_u": [[0.0]], "theta_v": [[0.0]]}),
    ("independence", "deck", ("params", "deck"), [1]),
    ("independence", "weights", ("paths",), [[1, 0], [2.5, 1]]),
    ("infinite-wilson", "c_u", ("params", "c_u"), math.nan),
    ("infinite-wilson", "c_v", ("params", "c_v"), "0.1"),
    ("infinite-wilson", "deck", ("params", "deck"), None),
]


@pytest.mark.parametrize(
    "name, keys, value",
    [
        ("paper-infinite", ("params", "c_u"), math.nan),
        ("paper-infinite", ("theta",), math.nan),
        ("paper-infinite", ("theta",), 10**400),
        ("paper-infinite", ("params", "deck"), [math.inf, 0]),
        ("paper-scalar", ("params", "deck"), [math.nan, 0]),
        ("paper-scalar", ("params",), [1]),
        ("paper-scalar", ("v",), True),
        *[(command, keys, value) for command, _, keys, value in _FIELD_CASES],
    ],
    ids=[
        "nan-coupling",
        "nan-theta",
        "huge-int-theta",
        "infinite-deck",
        "nan-deck",
        "params-list",
        "bool-version",
        *[f"{command}-{field}" for command, field, _, _ in _FIELD_CASES],
    ],
)
def test_run_rejects_non_finite_and_malformed_values(name, keys, value):
    # a builtin, or a command run on _every_field; the scenario runs until one value is replaced
    scenario = builtin(name) if name in BUILTIN_SCENARIOS else _every_field(name)
    run(scenario)
    target = scenario
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    with pytest.raises(ScenarioError):
        run(scenario)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_report_is_not_printed(tmp_path):
    scenario = builtin("paper-scalar")
    scenario.update(command="transport", paths=[[1, 0]], params={"tau": 1e308})
    code, text = run_cli(tmp_path, "--scenario", scenario_file(tmp_path, scenario))
    assert code == 2
    assert json.loads(text)["error"] == "validation"


def test_star_import_resolves_every_exported_name():
    import nctorus

    namespace = {}
    exec("from nctorus import *", namespace)  # AttributeError on a stale __all__ entry
    assert all(namespace[name] is getattr(nctorus, name) for name in nctorus.__all__)


def test_unknown_attributes_and_builtins_name_what_is_known():
    import nctorus

    with pytest.raises(AttributeError, match="^module 'nctorus' has no attribute 'nope'$"):
        nctorus.nope
    assert dir(nctorus) == sorted({*vars(nctorus), *nctorus._EXPORTS, *nctorus.__all__})
    assert {"connections", "is_flat", "TorusElement"} <= set(dir(nctorus))
    known = ", ".join(sorted(BUILTIN_SCENARIOS))
    with pytest.raises(KeyError) as info:
        builtin("nope")
    assert info.value.args == (f"unknown builtin scenario 'nope' (choose from: {known})",)


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "nctorus.cli", "--builtin", "paper-scalar"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "wilson"


_IMPORT_PROBE = """
import json, sys
from nctorus import cli
from nctorus.scenarios import builtin

def loaded():
    return ["numpy" in sys.modules, "scipy" in sys.modules]

seen = {"import": loaded()}
curvature = builtin("paper-4x4")
curvature["command"] = "curvature"
transport = {**builtin("paper-scalar"), "command": "transport", "paths": [[1, 0.5]], "params": {"tau": 0.7}}
independence = {**builtin("paper-scalar"), "command": "independence", "paths": [[1, 0], [1, 2]]}
for name, scenario in (
    ("paper-infinite", builtin("paper-infinite")),
    ("paper-cover", builtin("paper-cover")),
    ("rank-4 curvature", curvature),
    ("paper-scalar", builtin("paper-scalar")),
    ("rank-1 transport", transport),
    ("rank-1 independence", independence),
    ("paper-4x4", builtin("paper-4x4")),
):
    cli.run(scenario)
    seen[name] = loaded()
print(json.dumps(seen))
"""


def _fresh_interpreter(code: str, *args: str):
    """The JSON that ``code`` prints, run with ``args`` in a new interpreter on this checkout's nctorus."""
    import nctorus

    src = str(Path(nctorus.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cold_start_loads_numpy_and_scipy_only_where_used():
    # one fresh interpreter, scenarios in order: [numpy loaded, scipy loaded] after each
    assert _fresh_interpreter(_IMPORT_PROBE) == {
        "import": [False, False],
        "paper-infinite": [False, False],
        "paper-cover": [False, False],
        "rank-4 curvature": [False, False],
        "paper-scalar": [False, False],  # rank-1 wilson: one cmath.exp
        "rank-1 transport": [False, False],
        "rank-1 independence": [False, False],  # compares with Python's abs at every rank
        "paper-4x4": [True, True],
    }


_LIBRARY_PROBE = """
import json, sys
from nctorus.algebra import TorusParams
from nctorus.connections import Connection
from nctorus.coverings import CoveringSpec, check_path_independence
from nctorus.infinitecover import matrix_wilson_relation

matrix_wilson_relation(3, -2, 0.25, 0.1)
spec = CoveringSpec(TorusParams(0.3), (2, 2))
report = check_path_independence(spec, spec.deck(1, 0), Connection(spec.base, [[0.25j]], [[0.1j]]), [(1, 0), (1, 2)])
print(json.dumps([report.max_distance > 0, "numpy" in sys.modules]))
"""


def test_constant_matrices_load_no_numpy_at_rank_1():
    # the block Wilson relation and a rank-1 path comparison are complex rows and Python arithmetic
    assert _fresh_interpreter(_LIBRARY_PROBE) == [True, False]


_MODULE_PROBE = """
import json, os, sys
from nctorus import cli
from nctorus.scenarios import builtin

before = set()
def loaded():
    now = {name for name in sys.modules if name.startswith("nctorus.")}
    new = sorted(name.partition(".")[2] for name in now - before)
    before.update(now)
    return [new, "dataclasses" in sys.modules, "datetime" in sys.modules]

def one_shot(name):  # the whole main path
    assert cli.main(["--builtin", name, "--out", os.devnull]) == 0

seen = {"import": loaded()}
curvature = builtin("paper-4x4")
curvature["command"] = "curvature"
for name in sys.argv[1:]:
    if name == "rank-4 curvature":
        cli.run(curvature)
    elif name.endswith(".json"):  # a scenario file, run one-shot and named by its stem
        assert cli.main(["--scenario", name, "--out", os.devnull]) == 0
        name = os.path.basename(name)[:-5]
    else:
        one_shot(name)
    seen[name] = loaded()
print(json.dumps(seen))
"""


def test_cold_start_loads_only_the_modules_a_command_uses():
    # one fresh interpreter, scenarios in order: [submodules newly loaded, dataclasses loaded,
    # datetime loaded] after each; nctorus never imports datetime, numpy does
    order = ("paper-infinite", "rank-4 curvature", "paper-cover", "paper-scalar", "paper-4x4")
    assert _fresh_interpreter(_MODULE_PROBE, *order) == {
        "import": [["algebra", "cli", "errors", "scenarios"], False, False],
        "paper-infinite": [["infinitecover"], False, False],
        "rank-4 curvature": [["connections", "forms"], False, False],  # neither defines a dataclass
        "paper-cover": [["coverings"], True, False],
        "paper-scalar": [[], True, False],
        "paper-4x4": [[], True, True],  # numpy's import loads datetime
    }


def test_connection_commands_load_no_dataclasses(tmp_path):
    # one-shot flat, element curvature and rank-1 transport in one fresh interpreter: TwoForm is a slotted
    # class and the axiom report's module loads only with the axiom check, so none imports dataclasses
    element = {"rank": 1, "theta_u": [[_element(1, 0, 0.5)]], "theta_v": [[_element(0, 1, 0.25)]]}
    scenarios = {
        "flat": {**builtin("paper-scalar"), "command": "flat"},
        "element-curvature": {"v": 1, "command": "curvature", "theta": 0.3, "connection": element},
        "rank-1-transport": {**builtin("paper-scalar"), "command": "transport", "paths": [[1, 0.5]]},
    }
    paths = [scenario_file(tmp_path, scenario, f"{name}.json") for name, scenario in scenarios.items()]
    assert _fresh_interpreter(_MODULE_PROBE, *paths) == {
        "import": [["algebra", "cli", "errors", "scenarios"], False, False],
        "flat": [["connections", "forms"], False, False],
        "element-curvature": [[], False, False],
        "rank-1-transport": [[], False, False],
    }


_AXIOM_PROBE = """
import json, sys
from nctorus.algebra import TorusParams
from nctorus.connections import Connection, check_transport_axioms, curvature_form, is_flat, transport

def loaded():
    return ["nctorus.reports" in sys.modules, "dataclasses" in sys.modules]

conn = Connection(TorusParams(0.3), [[0.25j]], [[0.1j]])
seen = {"import": loaded()}
curvature_form(conn), is_flat(conn), transport(conn, (1, 0), 0.5)
seen["curvature, flat and transport"] = loaded()
report = check_transport_axioms(conn, (1, 0), samples=2)
seen["axiom check"] = loaded() + [type(report).__module__]
print(json.dumps(seen))
"""


def test_the_axiom_report_module_loads_with_the_first_axiom_check():
    assert _fresh_interpreter(_AXIOM_PROBE) == {
        "import": [False, False],
        "curvature, flat and transport": [False, False],
        "axiom check": [True, True, "nctorus.reports"],
    }


@pytest.mark.parametrize(
    "theta_u",
    [[[[200.0, 0.0]]], [[[200.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]],
    ids=["rank-1", "rank-2"],
)
def test_an_overflowing_transport_is_one_validation_error(tmp_path, theta_u):
    # under -W error, as tier-1 runs: no warning reaches stderr and none becomes a traceback
    import nctorus

    n = len(theta_u)
    connection = {"rank": n, "theta_u": theta_u, "theta_v": [[[0.0, 0.0]] * n] * n}
    scenario = {"v": 1, "command": "transport", "theta": 0.3, "connection": connection, "paths": [[1, 0]]}
    src = str(Path(nctorus.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "nctorus.cli", "--scenario", scenario_file(tmp_path, scenario)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stderr) == (2, "")
    assert json.loads(proc.stdout) == {
        "error": "validation",
        "message": "transport overflows: exp(2 pi tau Theta_X) has an entry that is not a finite double",
    }


def _element(m: int, n: int, c: float) -> dict:
    return {"theta": 0.3, "terms": [{"m": m, "n": n, "re": c, "im": 0.0, "lk": 0}]}


_OVERFLOWING = {
    "element": ([[_element(1, 0, 1e200)]], [[_element(0, 1, 1e200)]]),  # 1e400 (u v - v u)
    "scalar": ([[1e200, 1e200], [1e200, 0.0]], [[0.0, 1e200], [1e200, 1e200]]),  # scalar products overflow
}


@pytest.mark.parametrize(
    "command, theta_u, theta_v",
    [
        pytest.param(command, *_OVERFLOWING[case], id=case if command == "curvature" else f"{case}-{command}")
        for command in ("curvature", "flat", "wilson")
        for case in _OVERFLOWING
    ],
)
def test_an_overflowing_curvature_is_one_validation_error(tmp_path, command, theta_u, theta_v):
    # under -W error, as tier-1 runs: the error names the curvature, not the JSON encoder; flat and wilson
    # decide flatness by the same curvature, so they raise its error and do not call it curved
    import nctorus

    connection = {"rank": len(theta_u), "theta_u": theta_u, "theta_v": theta_v}
    scenario = {"v": 1, "command": command, "theta": 0.3, "connection": connection}
    if command == "wilson":
        scenario.update(covering={"degrees": [2, 3]}, params={"deck": [1, 1]})
    src = str(Path(nctorus.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "nctorus.cli", "--scenario", scenario_file(tmp_path, scenario)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stderr) == (2, "")
    assert json.loads(proc.stdout) == {
        "error": "validation",
        "message": "curvature overflows: F has a coefficient that is not a finite double",
    }


_CURVED_THEN_OVERFLOWING = {
    # F_00 = 1 is finite and curved; F_01 = 1e400 (u v for the elements) overflows
    "element": ([[_element(1, 0, 1e200), 1.0], [0.0, 0.0]], [[0.0, _element(0, 1, 1e200)], [1.0, 0.0]]),
    "scalar": ([[1e200, 1.0], [0.0, 0.0]], [[0.0, 1e200], [1.0, 0.0]]),
}


@pytest.mark.parametrize("theta_u, theta_v", _CURVED_THEN_OVERFLOWING.values(), ids=_CURVED_THEN_OVERFLOWING)
def test_flat_is_decided_before_a_later_entry_overflows(tmp_path, theta_u, theta_v):
    # the first curved entry, row-major, decides flatness alone; the report checks every entry, so here the
    # two commands part: flat answers false and curvature gives the overflow's validation error
    import nctorus

    connection = {"rank": 2, "theta_u": theta_u, "theta_v": theta_v}
    src = str(Path(nctorus.__file__).resolve().parents[1])
    outcomes = {}
    for command in ("curvature", "flat"):
        scenario = {"v": 1, "command": command, "theta": 0.3, "connection": connection}
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "nctorus.cli", "--scenario", scenario_file(tmp_path, scenario)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        out = json.loads(proc.stdout)
        outcomes[command] = (proc.returncode, proc.stderr, out.get("result", out))
    assert outcomes == {
        "curvature": (
            2,
            "",
            {"error": "validation", "message": "curvature overflows: F has a coefficient that is not a finite double"},
        ),
        "flat": (0, "", {"flat": False}),
    }


def _subprocess_cli(tmp_path, scenario) -> tuple:
    """(exit code, stderr, parsed stdout) of ``python -W error -m nctorus.cli --scenario`` on this checkout."""
    import nctorus

    src = str(Path(nctorus.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "nctorus.cli", "--scenario", scenario_file(tmp_path, scenario)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    return proc.returncode, proc.stderr, json.loads(proc.stdout)


#: 1.3e308 + 1.3e308i is a finite double whose modulus is not: abs raises on it
_HUGE = [1.3e308, 1.3e308]
_HUGE_TERM = {"m": 0, "n": 1, "re": 1.3e308, "im": 1.3e308, "lk": 0}
_HUGE_CURVATURE = {
    # F_01 = 1.3e308 + 1.3e308i, times v for the element twin; every other entry is zero
    "scalar": ([[1, 0], [0, 0]], [[0, _HUGE], [0, 0]], {**_HUGE_TERM, "n": 0}),
    "element": ([[1, 0], [0, 0]], [[0, {"theta": 0.3, "terms": [_HUGE_TERM]}], [0, 0]], _HUGE_TERM),
}


@pytest.mark.parametrize("theta_u, theta_v, term", _HUGE_CURVATURE.values(), ids=_HUGE_CURVATURE)
def test_a_curvature_whose_modulus_overflows_is_reported_curved(tmp_path, theta_u, theta_v, term):
    connection = {"rank": 2, "theta_u": theta_u, "theta_v": theta_v}
    outcomes = {}
    for command in ("curvature", "flat", "wilson"):
        scenario = {"v": 1, "command": command, "theta": 0.3, "connection": connection}
        if command == "wilson":
            scenario.update(covering={"degrees": [2, 3]}, params={"deck": [1, 1]})
        code, err, out = _subprocess_cli(tmp_path, scenario)
        outcomes[command] = (code, err, out.get("result", out))
    entries = [[[], [term]], [[], []]]
    curvature = {"rank": 2, "entries": [[{"dudv": {"theta": 0.3, "terms": t}} for t in row] for row in entries]}
    assert outcomes == {
        "curvature": (0, "", {"flat": False, "curvature": curvature}),
        "flat": (0, "", {"flat": False}),
        "wilson": (3, "", {"error": "not-flat", "message": "generalized Wilson lines are defined for flat connections"}),
    }


def test_an_entry_whose_modulus_overflows_is_not_constant(tmp_path):
    # 0.25i + (1.3e308 + 1.3e308i) u: its u coefficient is finite and not negligible
    terms = [{"m": 0, "n": 0, "re": 0.0, "im": 0.25, "lk": 0}, {**_HUGE_TERM, "m": 1, "n": 0}]
    connection = {"rank": 1, "theta_u": [[{"theta": 0.3, "terms": terms}]], "theta_v": [[0]]}
    scenario = {"v": 1, "command": "transport", "theta": 0.3, "connection": connection, "paths": [[1, 0]]}
    assert _subprocess_cli(tmp_path, scenario) == (
        3,
        "",
        {"error": "non-constant-connection", "message": "transport needs every Theta entry to be a complex multiple of 1"},
    )


def test_independence_whose_difference_overflows_is_reported_uncertified(tmp_path):
    # the two transports are finite and opposite and their distance is inf, which the report writes as the
    # largest 15-digit double, as r15 writes a rounding that overflows
    theta_u = [math.log(0.65e308 * math.sqrt(2)) / (2 * math.pi), 0.125]
    connection = {"rank": 1, "theta_u": [[theta_u]], "theta_v": [[[0.0, 0.25]]]}
    scenario = {**builtin("paper-scalar"), "command": "independence", "connection": connection, "paths": [[1, 0], [1, 2]]}
    import nctorus

    src = str(Path(nctorus.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "nctorus.cli", "--scenario", scenario_file(tmp_path, scenario)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    out = json.loads(proc.stdout, parse_constant=_reject_constant)
    assert (out["result"]["max_distance"], out["result"]["certified"]) == (R15_TOP, False)


def test_a_curvature_at_the_largest_double_reports_it_finite(tmp_path):
    # F_01 = -max: its 15-digit rounding overflows, so the report keeps the largest 15-digit double
    import nctorus

    connection = {"rank": 2, "theta_u": [[0, sys.float_info.max], [0, 0]], "theta_v": [[1, 0], [0, 0]]}
    scenario = {"v": 1, "command": "curvature", "theta": 0.3, "connection": connection}
    src = str(Path(nctorus.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "nctorus.cli", "--scenario", scenario_file(tmp_path, scenario)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stdout
    assert proc.stderr == ""

    def strict(name):
        raise AssertionError(f"{name} is not RFC 8259 JSON")

    report = json.loads(proc.stdout, parse_constant=strict)
    assert '"re":-1.79769313486231e+308' in proc.stdout
    assert report["result"]["flat"] is False
    terms = [[e["dudv"]["terms"] for e in row] for row in report["result"]["curvature"]["entries"]]
    assert terms == [[[], [{"m": 0, "n": 0, "re": -1.79769313486231e308, "im": 0.0, "lk": 0}]], [[], []]]


def test_cover_classification_loads_no_connection_module():
    # classify first: coverings reaches connections only when wilson or independence runs
    assert _fresh_interpreter(_MODULE_PROBE, "paper-cover", "paper-4x4") == {
        "import": [["algebra", "cli", "errors", "scenarios"], False, False],
        "paper-cover": [["coverings"], True, False],  # coverings defines dataclasses
        "paper-4x4": [["connections", "forms"], True, True],
    }


def test_every_builtin_runs_clean(tmp_path):
    for name in BUILTIN_SCENARIOS:
        code, text = run_cli(tmp_path, "--builtin", name)
        assert code == 0, name
        assert json.loads(text)["v"] == 1


def _benchmark_golden() -> dict:
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"
    spec = importlib.util.spec_from_file_location("perfbench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.GOLDEN


def test_builtin_reports_hash_to_benchmark_golden(tmp_path):
    # the printed report bytes, less the final newline, are the canonical ones the benchmark pins
    golden = _benchmark_golden()
    assert sorted(golden) == sorted(BUILTIN_SCENARIOS)
    for name, digest in golden.items():
        code, text = run_cli(tmp_path, "--builtin", name)
        assert code == 0 and text.endswith("\n"), name
        assert hashlib.sha256(text[:-1].encode("utf-8")).hexdigest() == digest, name


# -- fuzz over scenario JSON ------------------------------------------------------

_values = st.one_of(
    st.integers(-3, 3),
    st.floats(-2, 2),
    st.sampled_from([0.5, -0.9, 1e308, -1e308, 10**30, math.nan, math.inf, True, None, "1", []]),
)
_lists = st.one_of(st.tuples(_values, _values).map(list), st.lists(_values, max_size=3))
_exponents = st.one_of(st.integers(-2, 2), _values)
_terms = st.fixed_dictionaries(
    {"m": _exponents, "n": _exponents, "re": _values, "im": _values, "lk": _exponents}
)
_entries = st.one_of(
    st.tuples(st.floats(-2, 2), st.floats(-2, 2)).map(list),
    _values,
    _lists,
    st.fixed_dictionaries(
        {"theta": st.sampled_from([0.3819660113, 0.5, 1.5]), "terms": st.lists(_terms, max_size=2)}
    ),
)


@st.composite
def _connections(draw):
    rank = draw(st.integers(0, 3))
    matrices = [[[draw(_entries) for _ in range(rank)] for _ in range(rank)] for _ in range(2)]
    return {"rank": draw(st.one_of(st.just(rank), _values)), "theta_u": matrices[0], "theta_v": matrices[1]}


@st.composite
def _scenarios(draw):
    scenario = builtin(draw(st.sampled_from(sorted(BUILTIN_SCENARIOS))))
    scenario["command"] = draw(st.sampled_from(sorted(COMMANDS)))
    params = scenario.setdefault("params", {})
    if draw(st.booleans()):  # give every command the fields it needs
        for key, value in builtin("paper-4x4").items():
            scenario.setdefault(key, value)
        scenario.setdefault("paths", [[1, 0]])
        params.update({"c_u": 0.25, "c_v": 0.1, **params})
    mutations = {
        "theta": (scenario, "theta", st.one_of(st.floats(0.01, 0.99), _values)),
        "degrees": (scenario, "covering", st.builds(lambda d: {"degrees": d}, _lists)),
        "connection": (scenario, "connection", _connections()),
        "paths": (scenario, "paths", st.lists(_lists, max_size=3)),
        "deck": (params, "deck", _lists),
        "tau": (params, "tau", _values),
        "c_u": (params, "c_u", _values),
    }
    for name in draw(st.lists(st.sampled_from(sorted(mutations)), max_size=2, unique=True)):
        target, key, values = mutations[name]
        target[key] = draw(values)
    return scenario


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(derandomize=True, max_examples=200, deadline=None)
@given(scenario=_scenarios())
def test_fuzzed_scenarios_keep_the_cli_contract(scenario):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(scenario))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["--scenario", str(path)])
    assert code in (0, 2, 3)
    json.loads(stdout.getvalue(), parse_constant=_reject_constant)
    assert "Traceback" not in stderr.getvalue()
