"""Scenario-driven CLI: builtins, schema validation, exit codes, determinism."""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    assert "elapsed_ms" in captured.err
    assert "finished=" not in captured.out  # timestamps only on stderr


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


def test_exponent_overflow_is_validation_error(tmp_path):
    # u^m v^n products of huge exponents give a lambda power k with k theta beyond a double
    scenario = builtin("paper-scalar")
    scenario["command"] = "curvature"
    for key, m, n in (("theta_u", 0, 10**308), ("theta_v", 10**308, 0)):
        term = {"m": m, "n": n, "re": 1.0, "im": 0.0, "lk": 0}
        scenario["connection"][key] = [[{"theta": scenario["theta"], "terms": [term]}]]
    code, text = run_cli(tmp_path, "--scenario", scenario_file(tmp_path, scenario))
    assert code == 2
    assert json.loads(text)["error"] == "validation"


@pytest.mark.parametrize(
    "name, old, new",
    [
        ("paper-infinite", '"c_u": 0.25', '"c_u": NaN'),
        ("paper-scalar", '"params": {"deck": [1, 0]}', '"params": [1]'),
        ("paper-scalar", '"theta_u": [[[0.0, 0.25]]]', '"theta_u": [[[0.0, Infinity]]]'),
        ("paper-infinite", '"theta": 0.3819660113', '"theta": NaN'),
        ("paper-infinite", '"deck": [1, 0]', '"deck": [Infinity, 0]'),
        ("paper-infinite", '"c_v": 0.1', '"c_v": 1e400'),
    ],
    ids=["nan-coupling", "params-list", "infinite-entry", "nan-theta", "infinite-deck", "overflow-literal"],
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


@pytest.mark.parametrize(
    "name, keys, value",
    [
        ("paper-infinite", ("params", "c_u"), math.nan),
        ("paper-infinite", ("theta",), math.nan),
        ("paper-infinite", ("theta",), 10**400),
        ("paper-infinite", ("params", "deck"), [math.inf, 0]),
        ("paper-scalar", ("params", "deck"), [math.nan, 0]),
        ("paper-scalar", ("params",), [1]),
    ],
    ids=["nan-coupling", "nan-theta", "huge-int-theta", "infinite-deck", "nan-deck", "params-list"],
)
def test_run_rejects_non_finite_and_malformed_values(name, keys, value):
    scenario = builtin(name)
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


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "nctorus.cli", "--builtin", "paper-scalar"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["command"] == "wilson"


def test_every_builtin_runs_clean(tmp_path):
    for name in BUILTIN_SCENARIOS:
        code, text = run_cli(tmp_path, "--builtin", name)
        assert code == 0, name
        assert json.loads(text)["v"] == 1


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
    scenario["command"] = draw(st.sampled_from(COMMANDS))
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
