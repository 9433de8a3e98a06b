"""Independent oracles: each one decides whether one operation's result is right.

``check(spec, value, error, memo)`` returns ``None`` for a correct result and
a ``(kind, detail)`` pair otherwise.  Kind ``DRIFT`` marks a deck phase that
is right but outside the acceptance tolerance: its error is within the
rounding of one unit-modulus product per deck step.  Every other kind is a
failure: a wrong result.  Expected values are recomputed
from the generator's own description of the inputs (``spec["expect"]`` and
the scenario) with numpy, cmath and exact fractions.  From nctorus the
oracles take only the documented error class ``NCTorusError`` and the
fields of the result objects they inspect.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import sys
from fractions import Fraction

import numpy as np

from nctorus.errors import NCTorusError

#: Acceptance tolerance: closed forms of scalar and rank-4 block connections,
#: exact-phase references, deck phases and classification witnesses.
TOL = 1e-12
#: Closed forms of dense rank-8/16 connections, and unitarity of every
#: transport; the tolerance tests/test_connections.py uses for dense
#: random connections.
DENSE_TOL = 1e-10
#: Transport-axiom residuals (acceptance criterion 7).
AXIOM_TOL = 1e-10
#: curvature_form against curvature_commutator on non-constant entries, as in
#: tests/test_connections.py::test_two_curvature_routes_agree_symbolic.
ROUTES_TOL = 1e-9
#: check_path_independence certifies below this distance.
CERTIFY_AT = 1e-10
#: Rounding allowed per deck step, in ulps of 1: the phase exp(2 pi i a),
#: |a| <= 1, is rounded in its argument (up to 2 pi ulps) and in value,
#: and multiplied in once per step.  The seed's worst seen is about 3.
STEP_ULPS = 16
#: Verdict kind of a deck phase off by more than TOL but within the
#: rounding drift of its step count (ROADMAP item 3): reported, not failed.
DRIFT = "drift"

#: sha256 of the canonical report bytes of each bundled scenario, as the
#: unmodified library prints them.
GOLDEN = {
    "paper-4x4": "2aaa72953e44aca8f765b201ee70baf6bfbc31799af3fb3acd8fcbabb4d64243",
    "paper-cover": "e588b10f2d7fc1d28934a3b8324342a2b91fcad67eb8f944961cd1c552f21ed8",
    "paper-infinite": "bbc74f41ba2588cfa45e13844cbceeb0fced803dcb2402ec981a944fa62ac046",
    "paper-scalar": "6dc3bbe0ad4ed9d077780f15716da1bebc953a8cdbfba1576b4ab92aa3dbdc9b",
}


def label(spec: dict) -> str:
    """Short name of an operation's kind, for failure tallies."""
    if spec["call"] != "cli.run":
        return spec["call"]
    if "builtin" in spec:
        return "cli.run:" + spec["builtin"]
    return "cli.run:" + str(spec["scenario"].get("command"))


# -- exact phases and closed forms ------------------------------------------


def turn(x: Fraction) -> complex:
    """exp(2 pi i x), with x reduced mod 1 exactly before rounding."""
    return cmath.exp(2j * math.pi * float(x - math.floor(x)))


def rotation(x: Fraction) -> np.ndarray:
    z = turn(x)
    return np.array([[z.real, -z.imag], [z.imag, z.real]])


def closed_form(model: dict, weight, tau: float) -> np.ndarray:
    """exp(2 pi tau (alpha Theta_u + beta Theta_v)) for a generated connection."""
    alpha, beta = (Fraction(w) for w in weight)
    tau = Fraction(tau)
    kind = model["model"]
    if kind == "scalar":
        return np.array([[turn(tau * (alpha * Fraction(model["c_u"]) + beta * Fraction(model["c_v"])))]])
    if kind == "block":
        out = np.zeros((4, 4))
        out[:2, :2] = rotation(tau * alpha * Fraction(model["c_u"]))
        out[2:, 2:] = rotation(tau * beta * Fraction(model["c_v"]))
        return out
    q = np.array([[complex(*z) for z in row] for row in model["q"]])
    phases = np.exp(2j * math.pi * float(tau) * (float(alpha) * np.array(model["d_u"]) + float(beta) * np.array(model["d_v"])))
    return (q * phases) @ q.conj().T


def phase_verdict(err: float, steps: int, where: str) -> tuple | None:
    """None within TOL; DRIFT within the rounding of ``steps`` deck steps; else a failure."""
    if err <= TOL:
        return None
    bound = TOL + STEP_ULPS * sys.float_info.epsilon * steps
    kind = DRIFT if err <= bound else "exact-phase"
    return kind, f"{where}: error {err:.3g} > {TOL:g} (drift bound {bound:.3g})"


def _tol(model: dict) -> float:
    return DENSE_TOL if model["model"] == "unitary" else TOL


def _matrix(rows) -> np.ndarray:
    return np.array([[complex(*z) for z in row] for row in rows])


def _max_abs(a) -> float:
    return float(np.max(np.abs(a))) if np.size(a) else 0.0


def _fold(element) -> dict:
    """Coefficients of u^m v^n with lambda^k = exp(2 pi i k theta) folded in."""
    theta = element.params.theta
    out: dict = {}
    for (m, n, k), c in element.terms.items():
        out[(m, n)] = out.get((m, n), 0j) + c * cmath.exp(2j * math.pi * k * theta)
    return out


def _fold_dict(payload: dict) -> dict:
    out: dict = {}
    for t in payload["terms"]:
        key = (t["m"], t["n"])
        out[key] = out.get(key, 0j) + complex(t["re"], t["im"]) * cmath.exp(2j * math.pi * t["lk"] * payload["theta"])
    return out


def _distance(fa: dict, fb: dict) -> float:
    return max((abs(fa.get(k, 0j) - fb.get(k, 0j)) for k in set(fa) | set(fb)), default=0.0)


def classify_oracle(weight, degrees) -> dict:
    """The gcd rule: closed iff gcd(|alpha|, |beta|) = 1; else first hit at 1/gcd."""
    alpha, beta = weight
    g = math.gcd(alpha, beta)
    if g == 1:
        return {"closed": True, "deck": [alpha % degrees[0], beta % degrees[1]], "witness": None}
    return {"closed": False, "deck": None, "witness": 1.0 / g}


def _classify_mismatch(got: dict, weight, degrees) -> str | None:
    want = classify_oracle(weight, degrees)
    if got["closed"] != want["closed"] or got["deck"] != want["deck"]:
        return f"weight {weight}: got {got}, gcd rule gives {want}"
    if (got["witness"] is None) != (want["witness"] is None) or (
        want["witness"] is not None and abs(got["witness"] - want["witness"]) > TOL
    ):
        return f"weight {weight}: witness {got['witness']} vs {want['witness']}"
    return None


# -- CLI reports -------------------------------------------------------------


def _check_transport_result(result: dict, model: dict, weight, tau) -> tuple | None:
    m = _matrix(result["matrix"])
    defect = _max_abs(m @ m.conj().T - np.eye(len(m)))
    if defect > DENSE_TOL:
        return "unitarity", f"|WW* - I| = {defect:.3g} > {DENSE_TOL:g}"
    diff = _max_abs(m - closed_form(model, weight, tau))
    if diff > _tol(model):
        return "closed-form", f"off the closed form by {diff:.3g} > {_tol(model):g}"
    if len(m) == 1 and complex(*result["value"]) != m[0, 0]:
        return "echo", "rank-1 value differs from the matrix entry"
    return None


def _check_report(scenario: dict, model: dict, result: dict) -> tuple | None:
    command = scenario["command"]
    params = scenario.get("params", {})
    if command in ("wilson", "independence"):
        degrees = scenario["covering"]["degrees"]
        a, b = params["deck"]
        deck = [a % degrees[0], b % degrees[1]]
    if command == "wilson":
        if result["deck"] != [a, b]:
            return "echo", f"deck {result['deck']} != {[a, b]}"
        return _check_transport_result(result, model, deck, 1.0)
    if command == "transport":
        weight, tau = scenario["paths"][0], params["tau"]
        if result["weight"] != weight or result["tau"] != tau:
            return "echo", "weight or tau not echoed"
        return _check_transport_result(result, model, weight, tau)
    if command == "flat":
        return None if result == {"flat": True} else ("flatness", f"flat connection reported {result}")
    if command == "curvature":
        if result["flat"] is not True:
            return "flatness", "flat connection reported not flat"
        conn = scenario["connection"]
        tu, tv = _matrix(conn["theta_u"]), _matrix(conn["theta_v"])
        expect = tu @ tv - tv @ tu
        entries = result["curvature"]["entries"]
        for i, row in enumerate(entries):
            for j, entry in enumerate(row):
                folded = _fold_dict(entry["dudv"])
                if _distance(folded, {(0, 0): expect[i, j]}) > TOL:
                    return "curvature", f"entry ({i},{j}) differs from [Theta_u, Theta_v]"
        return None
    if command == "classify":
        degrees = scenario["covering"]["degrees"]
        for weight, got in zip(scenario["paths"], result["paths"]):
            if got["weight"] != weight:
                return "echo", f"weight {got['weight']} != {weight}"
            bad = _classify_mismatch(got, weight, degrees)
            if bad:
                return "gcd-rule", bad
        return None if len(result["paths"]) == len(scenario["paths"]) else ("echo", "path count")
    if command == "independence":
        mats = [closed_form(model, w, 1.0) for w in scenario["paths"]]
        ref = max(_max_abs(x - y) for i, x in enumerate(mats) for y in mats[i + 1 :])
        if result["deck"] != deck or result["weights"] != scenario["paths"]:
            return "echo", "deck or weights not echoed"
        if abs(result["max_distance"] - ref) > _tol(model):
            return "closed-form", f"max_distance {result['max_distance']} vs closed form {ref}"
        if (ref >= 10 * CERTIFY_AT and result["certified"]) or (ref <= CERTIFY_AT / 10 and not result["certified"]):
            return "certified", f"certified={result['certified']} at distance {ref:.3g}"
        return None
    if command == "infinite-wilson":
        p, q = params["deck"]
        ref = turn(p * Fraction(params["c_u"]) + q * Fraction(params["c_v"]))
        if result["deck"] != [p, q]:
            return "echo", "deck not echoed"
        return phase_verdict(abs(complex(*result["value"]) - ref), abs(p) + abs(q), f"deck ({p},{q})")
    return "oracle", f"no oracle for command {command!r}"


def _check_cli(spec: dict, text, error) -> tuple | None:
    expect = spec["expect"]
    if "error" in expect:
        if error is None:
            return "error-class", f"expected exit {expect['error']}, got a report"
        if expect["error"] == 3:
            ok = isinstance(error, NCTorusError)
        else:
            ok = isinstance(error, ValueError) and not isinstance(error, NCTorusError)
        return None if ok else ("error-class", f"exit {expect['error']} expected, raised {type(error).__name__}")
    if error is not None:
        return "exception", f"{type(error).__name__}: {error}"
    if expect.get("model") == "builtin":
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return None if digest == GOLDEN[expect["name"]] else ("golden-bytes", f"{expect['name']} digest {digest[:12]}")
    report = json.loads(text)
    scenario = spec["scenario"]
    if report.get("v") != 1 or report.get("command") != scenario["command"] or report.get("scenario") != scenario:
        return "echo", "report header does not echo the scenario"
    return _check_report(scenario, expect, report["result"])


# -- library calls -------------------------------------------------------------


def _check_symbolic(spec: dict, value, memo: dict) -> tuple | None:
    call, conn = spec["call"], spec["conn"]
    rank = spec["connection"]["rank"]
    if call == "curvature_form":
        if value.rank != rank:
            return "curvature", f"rank {value.rank} != {rank}"
        memo[conn] = {"form": [[_fold(e.dudv) for e in row] for row in value.entries]}
        return None
    seen = memo.get(conn, {})
    if call == "curvature_commutator":
        if "form" not in seen:
            return "routes", "no curvature_form result of this connection to compare"
        comm = [[_fold(e) for e in row] for row in value]
        diff = max(_distance(a, b) for ra, rb in zip(comm, seen["form"]) for a, b in zip(ra, rb))
        seen["size"] = max((abs(c) for row in comm for e in row for c in e.values()), default=0.0)
        return None if diff <= ROUTES_TOL else ("routes", f"curvature_form vs commutator differ by {diff:.3g}")
    # is_flat: decided by the commutator route wherever it is unambiguous
    if "size" not in seen:
        return "flatness", "no commutator result of this connection to compare"
    if (seen["size"] > ROUTES_TOL and value) or (seen["size"] < TOL / 10 and not value):
        return "flatness", f"is_flat={value} with curvature of size {seen['size']:.3g}"
    return None


def _check_library(spec: dict, value, memo: dict) -> tuple | None:
    call = spec["call"]
    if call in ("curvature_form", "curvature_commutator", "is_flat"):
        return _check_symbolic(spec, value, memo)
    if call == "check_transport_axioms":
        if value.samples != spec["samples"] or not value.max_residual < AXIOM_TOL:
            return "axioms", f"max residual {value.max_residual:.3g} over {value.samples} samples"
        return None
    if call == "matrix_wilson_relation":
        ref = np.zeros((4, 4))
        ref[:2, :2] = rotation(spec["p"] * Fraction(spec["c_u"]))
        ref[2:, 2:] = rotation(spec["q"] * Fraction(spec["c_v"]))
        p, q = spec["p"], spec["q"]
        return phase_verdict(_max_abs(value - ref), abs(p) + abs(q), f"deck ({p},{q})")
    k1, k2 = spec["degrees"]
    if call == "classify_path":
        got = {
            "closed": value.is_closed,
            "deck": None if value.associated is None else [value.associated.a, value.associated.b],
            "witness": value.witness,
        }
        bad = _classify_mismatch(got, spec["weight"], spec["degrees"])
        return ("gcd-rule", bad) if bad else None
    terms = {(t["m"], t["n"], t["lk"]): complex(t["re"], t["im"]) for t in spec["element"]["terms"]}
    if call == "project":
        want = {(k1 * m, k2 * n, k * k1 * k2): c for (m, n, k), c in terms.items()}
        if value.params.theta != spec["theta"] / (k1 * k2) or value.terms != want:
            return "project", "image is not u^m v^n -> x^(k1 m) y^(k2 n) with lambda^(k1 k2 k)"
        return None
    a, b = spec["deck"]
    if set(value.terms) != set(terms):
        return "deck-phase", "deck action changed the monomials"
    for (p, q, k), c in terms.items():
        err = abs(value.terms[(p, q, k)] - c * turn(Fraction(a * p, k1) + Fraction(b * q, k2)))
        if err > TOL:
            return "deck-phase", f"monomial ({p},{q}): error {err:.3g} > {TOL:g}"
    return None


def check(spec: dict, value, error, memo: dict) -> tuple | None:
    """Verdict on one operation: None if correct, else (kind, detail).

    Kind ``DRIFT`` is a correct result outside the acceptance tolerance;
    every other kind is a failure.

    ``memo`` carries results between operations of one cycle, so the two
    curvature routes of one connection can be compared.
    """
    if spec["call"] == "cli.run":
        return _check_cli(spec, value, error)
    if error is not None:
        return "exception", f"{type(error).__name__}: {error}"
    return _check_library(spec, value, memo)
