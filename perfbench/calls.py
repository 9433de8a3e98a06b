"""Turn an operation spec into a zero-argument call on the public nctorus API.

Inputs are built here, before the call is timed.  Entry points are looked
up on their modules at preparation time, so wrappers installed by the
tracer are the ones called.
"""

from __future__ import annotations

import json
from functools import partial

from nctorus import cli, connections, coverings, infinitecover, scenarios
from nctorus.algebra import TorusElement, TorusParams


def canonical_report(scenario: dict) -> str:
    """``cli.run`` followed by the serialization ``nctorus`` prints."""
    return json.dumps(cli.run(scenario), sort_keys=True, separators=(",", ":"))


def scenario_of(spec: dict) -> dict:
    return spec["scenario"] if "scenario" in spec else scenarios.builtin(spec["builtin"])


def prepare(spec: dict):
    call = spec["call"]
    if call == "cli.run":
        return partial(canonical_report, scenario_of(spec))
    if call == "matrix_wilson_relation":
        return partial(infinitecover.matrix_wilson_relation, spec["p"], spec["q"], spec["c_u"], spec["c_v"])
    params = TorusParams(spec["theta"])
    if "connection" in spec:
        conn = connections.Connection.from_dict(spec["connection"], params)
        if call == "check_transport_axioms":
            return partial(
                connections.check_transport_axioms,
                conn,
                tuple(spec["weight"]),
                samples=spec["samples"],
                seed=spec["seed"],
            )
        if call == "curvature_commutator":
            return partial(connections.curvature_commutator, conn, (1, 0), (0, 1))
        return partial(getattr(connections, call), conn)
    cover = coverings.CoveringSpec(params, tuple(spec["degrees"]))
    if call == "classify_path":
        return partial(coverings.classify_path, cover, tuple(spec["weight"]))
    element = TorusElement.from_dict(spec["element"])
    if call == "project":
        return partial(coverings.project, cover, element)
    return partial(coverings.deck_act, cover.deck(*spec["deck"]), element)
