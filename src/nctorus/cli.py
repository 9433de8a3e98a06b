"""One-shot command line: JSON scenario in, deterministic JSON report out.

``COMMANDS`` maps each command to the fields it reads and the handler of their
values; ``run`` checks theta and every field before it computes anything.
Exit codes: 0 success, 2 scenario validation error (including numbers too
large for a double in the computation or the report, JSON nested deeper than
the recursion limit and an --out path that cannot be written), 3 math-domain
error (not flat, non-constant connection, ...).  Reports carry no timestamps
and a successful run writes nothing to stderr, so identical scenarios produce
byte-identical output.  Each float of a result is rounded to 15 significant
digits once, by the report object that emits it (``r15``); the echoed
scenario is verbatim.

Only ``algebra``, ``errors`` and ``scenarios`` load with this module.  The
readers and handlers reach ``connections``, ``coverings``, ``forms`` and
``infinitecover`` as attributes of the package (``_lib.coverings.wilson``),
so a one-shot run loads only the modules its command uses, and a name
looked up at call time is whatever its home module holds now.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from typing import TYPE_CHECKING

import nctorus as _lib

from .algebra import TorusParams, integral, r15, real
from .errors import NCTorusError, ParamMismatch, RankMismatch
from .scenarios import BUILTIN_SCENARIOS, builtin

if TYPE_CHECKING:
    from .connections import Connection
    from .coverings import CoveringSpec


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


def _int_pair(pair, what: str) -> tuple[int, int]:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ScenarioError(f"{what} must be an integer pair, got {pair!r}")
    return integral(pair[0], what), integral(pair[1], what)


def _paths(scenario: dict, int_label: str | None = None) -> list[tuple]:
    raw = _need(scenario, "paths")
    if not isinstance(raw, list) or not raw:
        raise ScenarioError("paths must be a non-empty list of [alpha, beta] weights")
    for w in raw:
        if not isinstance(w, (list, tuple)) or len(w) != 2:
            raise ScenarioError(f"bad weight {w!r}")
        for x in w:
            real(x, "path weight")
    return [tuple(w) if int_label is None else _int_pair(w, int_label) for w in raw]


def _connection(scenario: dict, params: TorusParams) -> Connection:
    raw = _need(scenario, "connection")
    try:
        return _lib.connections.Connection.from_dict(raw, params)
    except (KeyError, TypeError, ValueError, ParamMismatch, RankMismatch) as exc:
        raise ValueError(f"bad connection: {exc}") from exc


def _covering(scenario: dict, params: TorusParams) -> CoveringSpec:
    raw = _need(scenario, "covering")
    try:
        return _lib.coverings.CoveringSpec(params, _int_pair(raw["degrees"], "covering.degrees"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"bad covering: {exc}") from exc


#: field -> its reader (scenario, TorusParams) -> value, which raises ValueError on a malformed value
FIELDS = {
    "connection": _connection,
    "covering": _covering,
    "deck": lambda scenario, params: _int_pair(scenario.get("params", {}).get("deck"), "params.deck"),
    "weight": lambda scenario, params: _paths(scenario)[0],
    "tau": lambda scenario, params: real(scenario.get("params", {}).get("tau", 1.0), "params.tau"),
    "weights": lambda scenario, params: _paths(scenario, f"{scenario['command']} weight"),
    "c_u": lambda scenario, params: real(scenario.get("params", {}).get("c_u"), "params.c_u"),
    "c_v": lambda scenario, params: real(scenario.get("params", {}).get("c_v"), "params.c_v"),
}


def _curvature(conn: Connection) -> dict:
    form = _lib.forms.curvature_form(conn)
    form.check_finite()
    return {"flat": form.is_zero(), "curvature": form.to_dict()}


def _infinite_wilson(c_u: float, c_v: float, deck: tuple[int, int]) -> dict:
    value = _lib.infinitecover.wilson_relation(*deck, c_u, c_v)
    return {"deck": list(deck), "value": [r15(value.real), r15(value.imag)]}


#: command -> (the fields it reads, checked in this order after theta; the handler of their values)
COMMANDS = {
    "curvature": (("connection",), _curvature),
    "flat": (("connection",), lambda conn: {"flat": _lib.connections.is_flat(conn)}),
    "transport": (
        ("connection", "weight", "tau"),
        lambda conn, w, tau: _lib.connections.transport(conn, w, tau).to_dict(),
    ),
    "classify": (
        ("covering", "weights"),
        lambda spec, weights: {"paths": [_lib.coverings.classify_path(spec, w).to_dict() for w in weights]},
    ),
    "wilson": (
        ("covering", "connection", "deck"),
        lambda spec, conn, deck: {
            **_lib.coverings.wilson(spec, spec.deck(*deck), conn).to_dict(),
            "deck": list(deck),
        },
    ),
    "independence": (
        ("covering", "connection", "deck", "weights"),
        lambda spec, conn, deck, ws: _lib.coverings.check_path_independence(
            spec, spec.deck(*deck), conn, ws
        ).to_dict(),
    ),
    "infinite-wilson": (("c_u", "c_v", "deck"), _infinite_wilson),
}


def run(scenario: dict) -> dict:
    """Check the header, theta and every field of the command, then compute; return the report."""
    if not isinstance(scenario, dict):
        raise ScenarioError("scenario must be a JSON object")
    version = scenario.get("v")
    if isinstance(version, bool) or version != 1:  # True == 1 in Python
        raise ScenarioError('scenario must declare schema version "v": 1')
    command = _need(scenario, "command")
    if not isinstance(command, str) or command not in COMMANDS:  # a list or dict is unhashable
        raise ScenarioError(f"unknown command {command!r} (choose from: {', '.join(COMMANDS)})")
    if not isinstance(scenario.get("params", {}), dict):
        raise ScenarioError("params must be an object")

    fields, handler = COMMANDS[command]
    try:  # theta first: every command checks it, though infinite-wilson does not use it
        params = TorusParams(real(_need(scenario, "theta"), "theta"))
        inputs = [FIELDS[field](scenario, params) for field in fields]
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc

    return {"v": 1, "command": command, "scenario": scenario, "result": handler(*inputs)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nctorus",
        description="Compute curvature, transports, covering lifts and Wilson lines "
        "on the noncommutative torus from a JSON scenario.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--scenario", help="path to a JSON scenario file")
    source.add_argument("--builtin", choices=sorted(BUILTIN_SCENARIOS), help="run one of the bundled scenarios")
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

    try:
        if args.builtin:
            scenario = builtin(args.builtin)
        else:
            with open(args.scenario, encoding="utf-8") as fh:
                scenario = json.load(fh, parse_float=_finite_json_number, parse_constant=_finite_json_number)
        text = render(run(scenario))
    except NCTorusError as exc:
        error = re.sub(r"(?<!^)(?=[A-Z])", "-", type(exc).__name__).lower()  # NotFlat -> not-flat
        return emit(render({"error": error, "message": str(exc)}), 3)
    except (ValueError, TypeError, KeyError, OverflowError, RecursionError, OSError) as exc:
        # JSONDecodeError is a ValueError; RecursionError is JSON nested too deep to load or render
        return emit(render({"error": "validation", "message": str(exc)}), 2)

    return emit(text, 0)


if __name__ == "__main__":
    sys.exit(main())
