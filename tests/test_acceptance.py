"""Acceptance criteria: every golden value at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` (one PASSED/FAILED line per
criterion) or with ``-s`` to also see the explicit summary prints.
"""

from __future__ import annotations

import cmath
import math
import random

import numpy as np

from conftest import ALT_THETA, THETA, deck_elements, rotation_block_connection, scalar_connection
from nctorus.algebra import TorusParams, random_element
from nctorus.connections import check_transport_axioms, curvature_commutator, curvature_form
from nctorus.coverings import CoveringSpec, check_path_independence, classify_path, deck_act, project, wilson
from nctorus.infinitecover import matrix_wilson_relation, wilson_relation
from test_coverings import oracle_classify


def _report(criterion: int, text: str):
    print(f"ACCEPTANCE criterion {criterion}: PASS — {text}")


def _block_diag(a, b):
    out = np.zeros((4, 4), dtype=complex)
    out[:2, :2], out[2:, 2:] = a, b
    return out


def _rotation(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]], dtype=complex)


def test_criterion_1_scalar_wilson_values():
    mats = {}
    for theta in (THETA, ALT_THETA):
        params = TorusParams(theta)
        spec = CoveringSpec(params, (2, 2))
        conn = scalar_connection(params, 0.25, 0.1)
        w_u = np.asarray(wilson(spec, spec.deck(1, 0), conn).matrix)
        w_v = np.asarray(wilson(spec, spec.deck(0, 1), conn).matrix)
        assert abs(w_u[0, 0] - 1j) < 1e-12
        assert abs(w_v[0, 0] - cmath.exp(0.2j * math.pi)) < 1e-12
        mats[theta] = (w_u, w_v)
    for a, b in zip(mats[THETA], mats[ALT_THETA]):
        assert np.max(np.abs(a - b)) < 1e-12
    _report(1, "wilson(g_u) = i, wilson(g_v) = e^{0.2 pi i}, theta-independent")


def test_criterion_2_block_wilson_matrices():
    params = TorusParams(THETA)
    spec = CoveringSpec(params, (2, 2))
    conn = rotation_block_connection(params, 1 / 8, 1 / 6)
    got_u = wilson(spec, spec.deck(1, 0), conn).matrix
    expect_u = _block_diag(_rotation(math.pi / 4), np.eye(2))
    assert np.max(np.abs(got_u - expect_u)) < 1e-12
    got_v = wilson(spec, spec.deck(0, 1), conn).matrix
    expect_v = _block_diag(np.eye(2), _rotation(math.pi / 3))
    assert np.max(np.abs(got_v - expect_v)) < 1e-12
    _report(2, "4x4 wilson matrices are R(pi/4) and R(pi/3) rotation blocks")


def test_criterion_3_flatness_of_both_connections():
    params = TorusParams(THETA)
    for conn in (
        scalar_connection(params, 0.25, 0.1),
        rotation_block_connection(params, 0.25, 0.1),
    ):
        curv = curvature_form(conn)
        assert all(e.dudv.terms == {} for row in curv.entries for e in row)
        comm = curvature_commutator(conn, (1, 0), (0, 1))
        for row in comm:
            for e in row:
                assert all(abs(c) < 1e-14 for c in e.folded().values())
    _report(3, "curvature symbolically empty; commutator curvature < 1e-14")


def test_criterion_4_closed_path_classification():
    params = TorusParams(THETA)
    spec = CoveringSpec(params, (2, 2))
    rep = classify_path(spec, (1, 0))
    assert rep.is_closed and rep.associated == spec.deck(1, 0)
    rep = classify_path(spec, (0, 1))
    assert rep.is_closed and rep.associated == spec.deck(0, 1)
    cases = 0
    for alpha in range(-4, 5):
        for beta in range(-4, 5):
            if (alpha, beta) == (0, 0):
                continue
            cases += 1
            rep = classify_path(spec, (alpha, beta))
            oracle = oracle_classify(spec, alpha, beta)
            assert rep.is_closed == oracle["closed"], (alpha, beta)
            if rep.is_closed:
                assert rep.associated == oracle["at_one"], (alpha, beta)
            else:
                assert abs(rep.witness - oracle["witness"]) < 1e-12, (alpha, beta)
    assert cases == 80
    _report(4, "classification matches the tau = j/840 brute-force oracle (80 cases)")


def test_criterion_5_covering_homomorphism_and_equivariance():
    params = TorusParams(THETA)
    spec = CoveringSpec(params, (2, 2))
    rng = random.Random(55)
    for _ in range(200):
        a = random_element(rng, params)
        b = random_element(rng, params)
        lhs = project(spec, a * b)
        rhs = project(spec, a) * project(spec, b)
        assert set(lhs.terms) == set(rhs.terms)  # lambda exponents exactly equal
        for key, c in lhs.terms.items():
            assert abs(c - rhs.terms[key]) <= 1e-12
    decks = deck_elements(spec)
    for i in range(200):
        g = decks[i % len(decks)]
        a = random_element(rng, params)
        atilde = random_element(rng, spec.cover)
        lhs = deck_act(g, project(spec, a) * atilde)
        rhs = project(spec, a) * deck_act(g, atilde)
        fl, fr = lhs.folded(), rhs.folded()
        assert all(abs(fl.get(k, 0j) - fr.get(k, 0j)) <= 1e-12 for k in set(fl) | set(fr))
    _report(5, "projection multiplicative (exact exponents); deck action equivariant")


def test_criterion_6_infinite_cover_wilson_relation():
    c_u, c_v = 0.25, 0.1
    grid = [(p, q) for p in range(-3, 4) for q in range(-3, 4)]
    values = {}
    for p, q in grid:
        got = wilson_relation(p, q, c_u, c_v)
        expect = cmath.exp(2j * math.pi * (p * c_u + q * c_v))
        assert abs(got - expect) < 1e-12, (p, q)
        values[(p, q)] = got
    for p, q in grid:
        for r, s in grid:
            joint = wilson_relation(p + r, q + s, c_u, c_v)
            assert abs(values[(p, q)] * values[(r, s)] - joint) < 1e-12
    _report(6, "wilson relation equals e^{2 pi i (p c_u + q c_v)} and is a homomorphism")


def test_criterion_7_transport_axiom_suite():
    params = TorusParams(THETA)
    for conn in (
        scalar_connection(params, 0.25, 0.1),
        rotation_block_connection(params, 0.25, 0.1),
    ):
        for weight in [(1, 0), (0, 1)]:
            report = check_transport_axioms(conn, weight, samples=100, seed=77)
            assert report.max_residual < 1e-10
    _report(7, "transport axioms hold to 1e-10 over 100 random samples per connection")


def test_criterion_8_path_dependence_demonstration():
    params = TorusParams(THETA)
    spec = CoveringSpec(params, (2, 2))
    dependent = scalar_connection(params, 0.25, 0.3)
    report = check_path_independence(spec, spec.deck(1, 0), dependent, [(1, 0), (1, 2)])
    assert report.max_distance > 0.5
    assert abs(report.max_distance - abs(cmath.exp(1.2j * math.pi) - 1)) < 1e-12
    independent = scalar_connection(params, 0.25, 0.5)
    report = check_path_independence(spec, spec.deck(1, 0), independent, [(1, 0), (1, 2)])
    assert report.max_distance < 1e-12
    _report(8, "transports differ by |e^{1.2 pi i} - 1| at c_v=0.3 and agree at c_v=0.5")


def test_criterion_9_pure_gauge_matches_finite_cover_wilson():
    # Two independent routes to the same Wilson line: expm transport on a
    # finite cover, and exact deck phases of the global pure gauge upstairs.
    params = TorusParams(THETA)
    rng = random.Random(99)
    for _ in range(20):
        c_u, c_v = rng.uniform(-1, 1), rng.uniform(-1, 1)
        scalar = scalar_connection(params, c_u, c_v)
        block = rotation_block_connection(params, c_u, c_v)
        for degrees in [(2, 2), (3, 5)]:
            spec = CoveringSpec(params, degrees)
            for g in deck_elements(spec):
                finite = wilson(spec, g, scalar).matrix[0][0]
                assert abs(finite - wilson_relation(g.a, g.b, c_u, c_v)) < 1e-12, (c_u, c_v, g)
                finite = wilson(spec, g, block).matrix
                gap = np.max(np.abs(finite - np.asarray(matrix_wilson_relation(g.a, g.b, c_u, c_v), dtype=complex)))
                assert gap < 1e-12, (c_u, c_v, g)
    _report(9, "finite-cover Wilson lines equal the pure-gauge deck relation on (2,2) and (3,5)")
