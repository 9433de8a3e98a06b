"""Gauge covariance as the oracle for element curvature, nabla and transport, and pure gauge as a flat family.

For a unitary g in M_n(A), Theta^g_X = g* Theta_X g + g* delta_X(g) is the connection g* nabla g, so
nabla^g_X(xi) = g* nabla_X(g xi), and its curvature is g* F g (Connes & Rieffel, "Yang-Mills for
noncommutative two-tori", Contemp. Math. 62 (1987)).  The gauge side is built with conftest's plain
element-matrix helpers, so curvature_form and curvature_commutator, which share the product kernel, and
_nabla are each checked against matrices they never built.  The pure gauge Theta_X = g* delta_X(g) is flat.
Transport is the parallel transport of delta + 2 pi Theta, so there the gauge term is (2 pi)^-1 g* delta_X(g)
and Phi^g_tau(s) = g* Phi_tau(g s); a monomial gauge with one (m, n) keeps a constant connection constant.

Each bound is a multiple of eps times the l1 sizes of the sums the two sides add up, summed over the
gauged connection and over g* . g (the original's size times |g|_1^2):
- curvature: |Theta_u|_1 |Theta_v|_1 + 2 pi d (|Theta_u|_1 + |Theta_v|_1), d the largest |m|, |n|;
- nabla: (|Theta_X|_1 + 2 pi (|alpha| + |beta|) d) |xi|_1, d the degree of xi (and of g xi);
- transport: |M|_1 |s|_1 (1 + 2 pi |tau| (|Theta_X|_1 + (|alpha| + |beta|) d)), the phase a rounding of the
  exponent or of the flow is relative to.
"""

from __future__ import annotations

import cmath
import math
import random
import sys

import pytest
from conftest import adjoint, antihermitian_connection, l1, matrix_delta, matrix_l1, matrix_product, nabla

from nctorus.algebra import TorusParams, distance, mono, one, random_element, zero
from nctorus.connections import Connection, curvature_commutator, curvature_form, is_flat, transport

EPS = sys.float_info.epsilon
THETAS = (0.3819660113, 0.25, 0.7)
#: The worst ratios seen on these seeds were 0.080 (covariance), 0.082 (pure gauge), 0.46 (nabla) and 0.33
#: (transport); over 40 seeds at rank 1, nabla reached 0.79, a few roundings a term of one side's size.
COVARIANCE_BOUND = 1.0
PURE_GAUGE_BOUND = 1.0
NABLA_BOUND = 2.0
TRANSPORT_BOUND = 1.0


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


def gauged(conn: Connection, g, drift: float = 1.0) -> Connection:
    """Theta^g_X = g* Theta_X g + drift g* delta_X(g), for X = u and v: drift 1 for nabla = delta + Theta,
    1 / (2 pi) for transport's delta + 2 pi Theta."""
    gs = adjoint(g)
    mats = []
    for theta, weight in ((conn.theta_u, (1, 0)), (conn.theta_v, (0, 1))):
        conj, drifts = matrix_product(gs, matrix_product(theta, g)), matrix_product(gs, matrix_delta(weight, g))
        mats.append([[a + b * drift for a, b in zip(r, s)] for r, s in zip(conj, drifts)])
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


def act(a, xs) -> list:
    """The vector a . xs, for an element matrix a, through matrix_product on a column."""
    return [row[0] for row in matrix_product(a, [[x] for x in xs])]


def theta_l1(conn: Connection, weight) -> float:
    """|alpha| |Theta_u|_1 + |beta| |Theta_v|_1, the l1 size of Theta_X."""
    return abs(weight[0]) * matrix_l1(conn.theta_u) + abs(weight[1]) * matrix_l1(conn.theta_v)


def nabla_size(conn: Connection, weight, xi_l1: float, d: int) -> float:
    """The l1 size of delta_X(xi) + Theta_X xi, for a vector of l1 size xi_l1 and degree at most d."""
    return (theta_l1(conn, weight) + 2 * math.pi * (abs(weight[0]) + abs(weight[1])) * d) * xi_l1


NABLA_WEIGHTS = ((1, 0), (0, 1), (0.5, -1.25))


def nabla_ratios(theta: float, rank: int, seed: int) -> list[float]:
    """Per gauge, weight and random vector xi: |nabla^g_X(xi) - g* nabla_X(g xi)| over eps times the l1 sizes
    of both sides (the original side scaled by |g|_1^2, as g and g* each multiply it)."""
    params, rng = TorusParams(theta), random.Random(seed)
    conn = random_connection(params, rng, rank)
    ratios = []
    for g in gauges(params, rng, rank):
        gs, other = adjoint(g), gauged(conn, g)
        for weight in NABLA_WEIGHTS:
            xi = [random_element(rng, params, 3, 2) for _ in range(rank)]
            xi_l1, d = sum(map(l1, xi)), degree([xi])
            got, want = nabla(other, weight, xi), act(gs, nabla(conn, weight, act(g, xi)))
            size = nabla_size(other, weight, xi_l1, d)
            size += matrix_l1(g) ** 2 * nabla_size(conn, weight, xi_l1, d + degree(g))
            ratios.append(worst_distance([got], [want]) / (EPS * size))
    return ratios


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_nabla_is_gauge_covariant_on_random_vectors(theta, rank):
    ratios = [r for seed in range(3) for r in nabla_ratios(theta, rank, 2000 * rank + seed)]
    assert max(ratios) <= NABLA_BOUND


def common_monomial_gauge(params, rng, rank: int) -> list:
    """A permutation matrix times diag(e^{i phi_j} lambda^{k_j} u^m v^n), one (m, n) for every entry.  Then
    g* M g is constant for every constant M, and g* delta_X(g) = 2 pi i (alpha m + beta n) I, so the gauged
    connection of a constant one is constant and has a transport."""
    (m, n), perm = (rng.randint(-2, 2) for _ in "mn"), rng.sample(range(rank), rank)
    phases = (cmath.exp(1j * rng.uniform(0, 2 * math.pi)) for _ in range(rank))
    diagonal = [mono(m, n, c, params, lam_exp=rng.randint(-2, 2)) for c in phases]
    return [[diagonal[j] if i == perm[j] else zero(params) for j in range(rank)] for i in range(rank)]


def transport_size(op, conn: Connection, weight, tau: float, s_l1: float, d: int) -> float:
    """The l1 size of M . phi_tau(s), times 1 + the largest phase 2 pi |tau| (|Theta_X|_1 + (|alpha| + |beta|) d)
    that a rounding in the exponent or the flow is relative to."""
    phase = 2 * math.pi * abs(tau) * (theta_l1(conn, weight) + (abs(weight[0]) + abs(weight[1])) * d)
    return sum(abs(z) for row in op.matrix for z in row) * s_l1 * (1 + phase)


TRANSPORT_PATHS = (((1, 0), 0.3), ((0, 1), -0.77), ((2, -1), 1.0), ((0.5, -1.25), 2.5))


def transport_ratios(theta: float, rank: int, seed: int) -> list[float]:
    """Per gauge, path and random vector s: |Phi^g_tau(s) - g* Phi_tau(g s)| over eps times the l1 sizes of
    both sides, Phi^g the transport of the gauged connection in transport's normalization (drift 1 / (2 pi))."""
    params, rng = TorusParams(theta), random.Random(seed)
    conn = antihermitian_connection(params, rank, seed)
    ratios = []
    for g in (common_monomial_gauge(params, rng, rank) for _ in range(3)):
        gs, other = adjoint(g), gauged(conn, g, 1 / (2 * math.pi))
        for weight, tau in TRANSPORT_PATHS:
            s = [random_element(rng, params, 3, 2) for _ in range(rank)]
            s_l1, d = sum(map(l1, s)), degree([s])
            op, op_g = transport(conn, weight, tau), transport(other, weight, tau)
            got, want = op_g.apply(s), act(gs, op.apply(act(g, s)))
            size = transport_size(op_g, other, weight, tau, s_l1, d)
            size += matrix_l1(g) ** 2 * transport_size(op, conn, weight, tau, s_l1, d + degree(g))
            ratios.append(worst_distance([got], [want]) / (EPS * size))
    return ratios


@pytest.mark.parametrize("theta", THETAS)
@pytest.mark.parametrize("rank", [1, 2, 4])
def test_transport_is_gauge_covariant_for_monomial_gauges(theta, rank):
    ratios = [r for seed in range(3) for r in transport_ratios(theta, rank, 3000 * rank + seed)]
    assert max(ratios) <= TRANSPORT_BOUND
