"""Tests of the benchmark itself: seeded streams, oracles and traced spans.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import calls  # noqa: E402
import oracles  # noqa: E402
from run import HostSpeed, Loop  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Stream  # noqa: E402

from nctorus import connections  # noqa: E402
from nctorus.algebra import TorusElement  # noqa: E402
from nctorus.cli import ScenarioError  # noqa: E402
from nctorus.errors import NotFlat  # noqa: E402

#: Modules each workload's description says it exercises.
EXERCISED = {
    "paper-mix": {"cli", "algebra", "forms", "connections", "coverings", "infinitecover"},
    "rank-sweep": {"cli", "algebra", "forms", "connections", "coverings"},
    "symbolic": {"algebra", "forms", "connections"},
    "deep-deck": {"cli", "coverings", "infinitecover"},
}


def _cycles(workload: str, seed: int, count: int = 2) -> str:
    stream = Stream(workload, seed)
    return json.dumps([stream.cycle() for _ in range(count)], sort_keys=True)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_stream(workload):
    assert _cycles(workload, 7) == _cycles(workload, 7)
    assert _cycles(workload, 7) != _cycles(workload, 8)


# -- oracles -----------------------------------------------------------------


def _find(workload: str, match) -> dict:
    stream = Stream(workload, 3)
    for _ in range(20):
        for spec in stream.cycle():
            if match(spec):
                return spec
    raise LookupError("no matching operation in the stream")


def _cli(command: str, model: str | None = None, workload: str = "paper-mix"):
    def match(spec):
        return (
            spec["call"] == "cli.run"
            and spec.get("scenario", {}).get("command") == command
            and (model is None or spec["expect"].get("model") == model)
        )

    return workload, match


def _edit_report(edit):
    """Corrupt a canonical report through its parsed result."""

    def corrupt(text):
        report = json.loads(text)
        edit(report["result"])
        return json.dumps(report, sort_keys=True, separators=(",", ":"))

    return corrupt


def _scale_matrix(factor):
    def edit(result):
        result["matrix"] = [[[(complex(*z) * factor).real, (complex(*z) * factor).imag] for z in row] for row in result["matrix"]]

    return edit


def _bump_term(result):
    entry = result["curvature"]["entries"][0][0]["dudv"]
    entry["terms"].append({"m": 1, "n": 0, "re": 1e-6, "im": 0.0, "lk": 0})


def _flip_closed(result):
    result["paths"][0]["closed"] = not result["paths"][0]["closed"]


def _bump_value(result):
    result["value"][0] += 1e-9


def _bump_distance(result):
    result["max_distance"] += 1e-6


def _bump_element(element):
    key = next(iter(element.terms))
    return TorusElement(element.params, {**element.terms, key: element.terms[key] + 1e-9})


CORRUPTIONS = {
    "golden-bytes": (
        ("paper-mix", lambda s: s.get("builtin") == "paper-4x4"),
        lambda text: text.replace("0.707106781186548", "0.707106781186547", 1), "golden-bytes"),
    "scalar-closed-form": (_cli("wilson", "scalar"), _edit_report(_scale_matrix(np.exp(1e-9j))), "closed-form"),
    "block-closed-form": (_cli("wilson", "block"), _edit_report(_scale_matrix(np.exp(1e-9j))), "closed-form"),
    "dense-closed-form": (_cli("transport", workload="rank-sweep"), _edit_report(_scale_matrix(np.exp(1e-8j))), "closed-form"),
    "unitarity": (_cli("transport", "block"), _edit_report(_scale_matrix(1 + 1e-9)), "unitarity"),
    "flat": (_cli("flat", "block"), _edit_report(lambda r: r.update(flat=False)), "flatness"),
    "curvature": (_cli("curvature", "scalar"), _edit_report(_bump_term), "curvature"),
    "gcd-rule": (_cli("classify"), _edit_report(_flip_closed), "gcd-rule"),
    "independence": (_cli("independence"), _edit_report(_bump_distance), "closed-form"),
    "exact-phase": (_cli("infinite-wilson"), _edit_report(_bump_value), "exact-phase"),
    "matrix-wilson": (
        ("deep-deck", lambda s: s["call"] == "matrix_wilson_relation" and abs(s["p"]) + abs(s["q"]) < 300),
        lambda m: m @ np.diag(np.exp(1e-9j * np.arange(4))), "exact-phase"),
    "classify-path": (
        ("deep-deck", lambda s: s["call"] == "classify_path"),
        lambda r: dataclasses.replace(r, witness=0.25 if r.witness is None else None), "gcd-rule"),
    "project": (("deep-deck", lambda s: s["call"] == "project"), _bump_element, "project"),
    "deck-phase": (("deep-deck", lambda s: s["call"] == "deck_act"), _bump_element, "deck-phase"),
    "axioms": (
        ("symbolic", lambda s: s["call"] == "check_transport_axioms"),
        lambda r: dataclasses.replace(r, group_residual=1e-6), "axioms"),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_oracle_rejects_corrupted_result(name):
    (workload, match), corrupt, kind = CORRUPTIONS[name]
    spec = _find(workload, match)
    value = calls.prepare(spec)()
    assert oracles.check(spec, value, None, {}) is None
    assert oracles.check(spec, corrupt(value), None, {})[0] == kind


def test_deck_phase_drift_is_reported_and_larger_errors_fail():
    spec = _find("deep-deck", lambda s: s["call"] == "cli.run" and sum(map(abs, s["scenario"]["params"]["deck"])) > 10**4)
    params = spec["scenario"]["params"]
    p, q = params["deck"]
    exact = oracles.turn(p * oracles.Fraction(params["c_u"]) + q * oracles.Fraction(params["c_v"]))
    bound = oracles.TOL + oracles.STEP_ULPS * sys.float_info.epsilon * (abs(p) + abs(q))
    report = json.loads(calls.prepare(spec)())

    def verdict(err):
        value = exact * np.exp(1j * err)
        report["result"]["value"] = [value.real, value.imag]
        return oracles.check(spec, json.dumps(report, sort_keys=True, separators=(",", ":")), None, {})

    assert verdict(oracles.TOL / 2) is None
    assert verdict(2 * oracles.TOL)[0] == oracles.DRIFT
    assert verdict(2 * bound)[0] == "exact-phase"


def test_curvature_routes_and_flatness_oracles_reject_corruption():
    stream = Stream("symbolic", 3)
    form, comm, flat = stream.cycle()[:3]
    memo: dict = {}
    assert oracles.check(form, calls.prepare(form)(), None, memo) is None
    good = calls.prepare(comm)()
    bad = tuple(tuple(e + 1e-6 if (i, j) == (0, 0) else e for j, e in enumerate(row)) for i, row in enumerate(good))
    assert oracles.check(comm, bad, None, dict(memo))[0] == "routes"
    assert oracles.check(comm, good, None, memo) is None
    answer = calls.prepare(flat)()
    assert oracles.check(flat, answer, None, memo) is None
    assert oracles.check(flat, not answer, None, memo)[0] == "flatness"


def test_error_class_oracle():
    spec = {"call": "cli.run", "scenario": {}, "expect": {"error": 3}}
    assert oracles.check(spec, None, NotFlat("x"), {}) is None
    assert oracles.check(spec, None, ScenarioError("x"), {})[0] == "error-class"
    assert oracles.check(spec, "{}", None, {})[0] == "error-class"
    spec["expect"] = {"error": 2}
    assert oracles.check(spec, None, ScenarioError("x"), {}) is None
    assert oracles.check(spec, None, KeyError("x"), {})[0] == "error-class"
    assert oracles.check(spec, None, NotFlat("x"), {})[0] == "error-class"


def test_every_invalid_scenario_raises_its_documented_class():
    stream = Stream("paper-mix", 4)
    seen = 0
    for _ in range(60):
        for spec in stream.cycle():
            if "error" in spec["expect"]:
                seen += 1
                try:
                    value, error = calls.prepare(spec)(), None
                except Exception as exc:
                    value, error = None, exc
                assert oracles.check(spec, value, error, {}) is None, (spec, error)
    assert seen == 60


# -- traced runs ---------------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_cycle_records_every_exercised_module(workload):
    tracer = Tracer()
    original_expm = connections.expm
    tracer.install()
    try:
        ops = Loop(Stream(workload, 5), HostSpeed()).run(0.0, tracer)
    finally:
        tracer.uninstall()
    assert connections.expm is original_expm
    totals = tracer.totals()
    seen = {name.split(".")[0] for name, t in totals.items() if t["calls"]}
    assert EXERCISED[workload] <= seen, seen
    assert totals["bench.op"]["calls"] == len(ops)
    # self times partition each operation's time
    self_sum = sum(t["self_s"] for t in totals.values())
    assert self_sum == pytest.approx(totals["bench.op"]["s"], rel=1e-9)
