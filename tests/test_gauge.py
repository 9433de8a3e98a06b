"""Gauge covariance as the oracle for element curvature, and pure gauge as a flat family.

For a unitary g in M_n(A), Theta^g_X = g* Theta_X g + g* delta_X(g) is the connection g* nabla g, whose
curvature is g* F g (Connes & Rieffel, "Yang-Mills for noncommutative two-tori", Contemp. Math. 62 (1987)).
The gauge side is built with conftest's plain element-matrix helpers, so curvature_form and
curvature_commutator, which share the product kernel, are each checked against matrices they never built.
The pure gauge Theta_X = g* delta_X(g) is flat.

Each bound is a multiple of eps times the l1 sizes of the sums the two sides add up:
scale(Theta) = |Theta_u|_1 |Theta_v|_1 + 2 pi d (|Theta_u|_1 + |Theta_v|_1), d the largest |m|, |n|,
summed over the gauged connection and over g* . g (|g|_1^2 scale(Theta)).
"""

from __future__ import annotations

import cmath
import math
import random
import sys

import pytest
from conftest import adjoint, matrix_delta, matrix_l1, matrix_product

from nctorus.algebra import TorusParams, distance, mono, one, random_element, zero
from nctorus.connections import Connection, curvature_commutator, curvature_form, is_flat

EPS = sys.float_info.epsilon
THETAS = (0.3819660113, 0.25, 0.7)
#: The worst ratios seen on these seeds were 0.080 (covariance) and 0.082 (pure gauge).
COVARIANCE_BOUND = 1.0
PURE_GAUGE_BOUND = 1.0


def unit_monomial(params, rng, degree: int):
    """e^{i phi} lambda^k u^m v^n with |m|, |n| <= degree: a unitary element."""
    m, n, k = rng.randint(-degree, degree), rng.randint(-degree, degree), rng.randint(-2, 2)
    return mono(m, n, cmath.exp(1j * rng.uniform(0, 2 * math.pi)), params, lam_exp=k)


def monomial_gauge(params, rng, rank: int) -> list:
    """A permutation matrix times a diagonal of unitary monomials."""
    perm = rng.sample(range(rank), rank)
    diagonal = [unit_monomial(params, rng, 2) for _ in range(rank)]
    return [[diagonal[j] if i == perm[j] else zero(params) for j in range(rank)] for i in range(rank)]


def rotation_gauge(params, rng, factors: int) -> list:
    """A product of (1/sqrt 2)[[1, x], [-x*, 1]], x a unitary monomial of degree at most 1 (so g has degree at
    most factors)."""
    g = [[one(params), zero(params)], [zero(params), one(params)]]
    for _ in range(factors):
        x = unit_monomial(params, rng, 1)
        h = [[one(params) * 2**-0.5, x * 2**-0.5], [-x.star() * 2**-0.5, one(params) * 2**-0.5]]
        g = matrix_product(g, h)
    return g


def degree(a) -> int:
    return max((max(abs(m), abs(n)) for row in a for e in row for m, n, _ in e.terms), default=0)


def gauged(conn: Connection, g) -> Connection:
    """Theta^g_X = g* Theta_X g + g* delta_X(g), for X = u and v."""
    gs = adjoint(g)
    mats = []
    for theta, weight in ((conn.theta_u, (1, 0)), (conn.theta_v, (0, 1))):
        conj, drift = matrix_product(gs, matrix_product(theta, g)), matrix_product(gs, matrix_delta(weight, g))
        mats.append([[a + b for a, b in zip(r, s)] for r, s in zip(conj, drift)])
    return Connection(conn.params, *mats)


def scale(conn: Connection) -> float:
    a, b = matrix_l1(conn.theta_u), matrix_l1(conn.theta_v)
    return a * b + 2 * math.pi * max(degree(conn.theta_u), degree(conn.theta_v)) * (a + b)


def worst_distance(a, b) -> float:
    return max(distance(x, y) for r, s in zip(a, b) for x, y in zip(r, s))


def identity(params, rank: int) -> list:
    return [[one(params) if i == j else zero(params) for j in range(rank)] for i in range(rank)]


def random_connection(params, rng, rank: int) -> Connection:
    """Theta_u, Theta_v of random elements: up to 3 terms, |m|, |n| <= 1, |c| parts <= 1."""
    theta_u, theta_v = ([[random_element(rng, params, 3, 1) for _ in range(rank)] for _ in range(rank)] for _ in "uv")
    return Connection(params, theta_u, theta_v)


def gauges(params, rng, rank: int) -> list:
    out = [monomial_gauge(params, rng, rank) for _ in range(3)]
    if rank == 2:
        out += [rotation_gauge(params, rng, factors) for factors in (1, 2, 3)]
    return out


def covariance_ratios(theta: float, rank: int, seed: int) -> list[float]:
    """Per gauge: the larger of the two curvature routes' |F^g - g* F g| over eps times the l1 scale."""
    params, rng = TorusParams(theta), random.Random(seed)
    conn = random_connection(params, rng, rank)
    form = [[e.dudv for e in row] for row in curvature_form(conn).entries]
    commutator = curvature_commutator(conn, (1, 0), (0, 1))
    ratios = []
    for g in gauges(params, rng, rank):
        gs, other = adjoint(g), gauged(conn, g)
        assert worst_distance(matrix_product(gs, g), identity(params, rank)) < 1e-15  # g is unitary
        bound = EPS * (scale(other) + matrix_l1(g) ** 2 * scale(conn))
        got_form = [[e.dudv for e in row] for row in curvature_form(other).entries]
        got_commutator = curvature_commutator(other, (1, 0), (0, 1))
        err = max(
            worst_distance(got_form, matrix_product(gs, matrix_product(form, g))),
            worst_distance(got_commutator, matrix_product(gs, matrix_product(commutator, g))),
        )
        ratios.append(err / bound)
    return ratios


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_curvature_is_gauge_covariant_through_both_routes(theta, rank):
    ratios = [r for seed in range(4) for r in covariance_ratios(theta, rank, 1000 * rank + seed)]
    assert max(ratios) <= COVARIANCE_BOUND


def pure_gauge_ratios(theta: float, seed: int) -> list[float]:
    """Per pure gauge (every gauge here has degree at most 3): its curvature's largest coefficient over eps
    times the l1 scale, after asserting is_flat."""
    params, rng = TorusParams(theta), random.Random(seed)
    ratios = []
    for rank in (1, 2, 3):
        for g in gauges(params, rng, rank):
            assert degree(g) <= 3
            gs = adjoint(g)
            conn = Connection(params, *(matrix_product(gs, matrix_delta(w, g)) for w in ((1, 0), (0, 1))))
            assert is_flat(conn)
            entries = [[e.dudv for e in row] for row in curvature_form(conn).entries]
            err = worst_distance(entries, [[zero(params)] * rank] * rank)
            ratios.append(err and err / (EPS * scale(conn)))  # a gauge of degree 0 has Theta = 0, scale 0
    return ratios


@pytest.mark.parametrize("theta", THETAS)
def test_pure_gauges_of_low_degree_are_flat(theta):
    # degree <= 3 only: a higher degree's derivation terms grow past the absolute EQ_TOL (a scaled tolerance)
    ratios = [r for seed in range(6) for r in pure_gauge_ratios(theta, seed)]
    assert max(ratios) <= PURE_GAUGE_BOUND
