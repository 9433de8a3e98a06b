"""One-shot command line: JSON scenario in, deterministic JSON report out.

Exit codes: 0 success, 2 scenario validation error (including numbers too
large for a double in the computation or the report, JSON nested deeper than
the recursion limit and an --out path that cannot be written), 3 math-domain
error (not flat, non-constant connection, ...).  Reports carry no timestamps;
run metadata goes to stderr so identical scenarios produce byte-identical
reports.  Each float of a result is rounded to 15 significant digits once, by
the report object that emits it (``r15``); the echoed scenario is verbatim.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import re
import sys
import time

from .algebra import TorusParams, integral, r15, real
from .connections import Connection, curvature_form, transport
from .coverings import CoveringSpec, check_path_independence, classify_path, wilson
from .errors import NCTorusError, ParamMismatch, RankMismatch
from .infinitecover import wilson_relation
from .scenarios import BUILTIN_SCENARIOS, builtin

COMMANDS = ("curvature", "flat", "transport", "classify", "wilson", "independence", "infinite-wilson")


class ScenarioError(ValueError):
    """The scenario file does not match the schema."""


def _need(scenario: dict, key: str):
    if key not in scenario:
        raise ScenarioError(f"scenario is missing required field {key!r}")
    return scenario[key]


def _finite_json_number(text: str) -> float:
    """json.load hook for float literals and NaN/Infinity: only finite doubles pass."""
    x = float(text)
    if not math.isfinite(x):
        raise ScenarioError(f"scenario number {text} is not a finite double")
    return x


def _number(value, what: str) -> float:
    """A finite int or float of the scenario (not a bool), as a float."""
    try:
        return real(value, what)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def _params(scenario: dict) -> TorusParams:
    theta = _number(_need(scenario, "theta"), "theta")
    try:
        return TorusParams(theta)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def _connection(scenario: dict, params: TorusParams) -> Connection:
    raw = _need(scenario, "connection")
    try:
        return Connection.from_dict(raw, params)
    except (KeyError, TypeError, ValueError, ParamMismatch, RankMismatch) as exc:
        raise ScenarioError(f"bad connection: {exc}") from exc


def _covering(scenario: dict, params: TorusParams) -> CoveringSpec:
    raw = _need(scenario, "covering")
    try:
        return CoveringSpec(params, _int_pair(raw["degrees"], "covering.degrees"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ScenarioError(f"bad covering: {exc}") from exc


def _paths(scenario: dict) -> list[tuple]:
    raw = _need(scenario, "paths")
    if not isinstance(raw, list) or not raw:
        raise ScenarioError("paths must be a non-empty list of [alpha, beta] weights")
    out = []
    for w in raw:
        if not isinstance(w, (list, tuple)) or len(w) != 2:
            raise ScenarioError(f"bad weight {w!r}")
        for x in w:
            _number(x, "path weight")
        out.append((w[0], w[1]))  # as given: an int weight is reported as an int
    return out


def _int_pair(pair, what: str) -> tuple[int, int]:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ScenarioError(f"{what} must be an integer pair, got {pair!r}")
    try:
        return integral(pair[0], what), integral(pair[1], what)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def _deck_pair(scenario: dict) -> tuple[int, int]:
    return _int_pair(scenario.get("params", {}).get("deck"), "params.deck")


def wilson_relation_report(p: int, q: int, c_u: float, c_v: float) -> dict:
    """The infinite-wilson result: the deck pair and W(p, q) as [re, im]."""
    value = wilson_relation(p, q, c_u, c_v)
    return {"deck": [p, q], "value": [r15(value.real), r15(value.imag)]}


def run(scenario: dict) -> dict:
    """Validate and dispatch a scenario; return the full report dict."""
    if not isinstance(scenario, dict):
        raise ScenarioError("scenario must be a JSON object")
    version = scenario.get("v")
    if isinstance(version, bool) or version != 1:  # True == 1 in Python
        raise ScenarioError('scenario must declare schema version "v": 1')
    command = _need(scenario, "command")
    if command not in COMMANDS:
        raise ScenarioError(f"unknown command {command!r} (choose from: {', '.join(COMMANDS)})")
    if not isinstance(scenario.get("params", {}), dict):
        raise ScenarioError("params must be an object")

    if command in ("curvature", "flat"):
        form = curvature_form(_connection(scenario, _params(scenario)))
        result = {"flat": form.is_zero()}
        if command == "curvature":
            result["curvature"] = form.to_dict()
    elif command == "transport":
        params = _params(scenario)
        conn = _connection(scenario, params)
        weight = _paths(scenario)[0]
        tau = _number(scenario.get("params", {}).get("tau", 1.0), "params.tau")
        result = transport(conn, weight, tau).to_dict()
    elif command == "classify":
        spec = _covering(scenario, _params(scenario))
        reports = []
        for w in _paths(scenario):
            reports.append(classify_path(spec, _int_pair(w, "classify weight")).to_dict())
        result = {"paths": reports}
    elif command == "wilson":
        params = _params(scenario)
        spec = _covering(scenario, params)
        conn = _connection(scenario, params)
        a, b = _deck_pair(scenario)
        result = wilson(spec, spec.deck(a, b), conn).to_dict()
        result["deck"] = [a, b]
    elif command == "independence":
        params = _params(scenario)
        spec = _covering(scenario, params)
        conn = _connection(scenario, params)
        a, b = _deck_pair(scenario)
        weights = [_int_pair(w, "independence weight") for w in _paths(scenario)]
        result = check_path_independence(spec, spec.deck(a, b), conn, weights).to_dict()
    else:  # infinite-wilson
        _params(scenario)  # theta does not enter the relation but is still validated
        cp = scenario.get("params", {})
        c_u, c_v = (_number(cp.get(key), f"params.{key}") for key in ("c_u", "c_v"))
        p, q = _deck_pair(scenario)
        result = wilson_relation_report(p, q, c_u, c_v)

    return {
        "v": 1,
        "command": command,
        "scenario": scenario,
        "result": result,
    }


def _error_code(exc: Exception) -> str:
    name = type(exc).__name__
    return re.sub(r"(?<!^)(?=[A-Z])", "-", name).lower()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nctorus",
        description="Compute curvature, transports, covering lifts and Wilson lines "
        "on the noncommutative torus from a JSON scenario.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--scenario", help="path to a JSON scenario file")
    source.add_argument(
        "--builtin",
        choices=sorted(BUILTIN_SCENARIOS),
        help="run one of the bundled scenarios",
    )
    parser.add_argument("--out", help="report path (default: stdout)")
    parser.add_argument("--pretty", action="store_true", help="indent the report")
    args = parser.parse_args(argv)

    def render(payload: dict) -> str:
        """Strict RFC 8259 JSON: a non-finite float raises ValueError."""
        layout = {"indent": 2} if args.pretty else {"separators": (",", ":")}
        return json.dumps(payload, sort_keys=True, allow_nan=False, **layout) + "\n"

    def emit(text: str, code: int) -> int:
        """Write text to --out or stdout and return code; an unwritable --out is exit 2."""
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text)
            except OSError as exc:
                sys.stdout.write(render({"error": "validation", "message": str(exc)}))
                return 2
        else:
            sys.stdout.write(text)
        return code

    started = time.perf_counter()
    try:
        if args.builtin:
            scenario = builtin(args.builtin)
        else:
            with open(args.scenario, encoding="utf-8") as fh:
                scenario = json.load(
                    fh, parse_float=_finite_json_number, parse_constant=_finite_json_number
                )
        report = run(scenario)
        text = render(report)
    except NCTorusError as exc:
        return emit(render({"error": _error_code(exc), "message": str(exc)}), 3)
    except (ScenarioError, ValueError, TypeError, KeyError, OverflowError, RecursionError, OSError) as exc:
        # JSONDecodeError is a ValueError; RecursionError is JSON nested too deep to load or render
        return emit(render({"error": "validation", "message": str(exc)}), 2)

    if emit(text, 0):
        return 2  # --out could not be written
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    print(
        f"nctorus: command={report['command']} elapsed_ms={elapsed_ms:.2f} finished={stamp}",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
