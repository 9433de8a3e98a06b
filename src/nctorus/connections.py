"""Connections on free modules over the torus algebra.

A connection of rank n is given by two n x n coefficient matrices Theta_u,
Theta_v of algebra elements; for a weight X = (alpha, beta) the covariant
derivative acts on column vectors as

    nabla_X(xi) = delta_X(xi) + (alpha Theta_u + beta Theta_v) xi.

Curvature is computed two independent ways: as the matrix 2-form
d Theta + Theta ^ Theta, and as the commutator of covariant derivatives on
the standard basis.  Parallel transport along the weight-X flow is
Phi_tau = exp(2 pi tau Theta_X) o phi_tau; the 2 pi normalization is fixed
here so that holonomies of closed unit-time paths come out as
exp(2 pi i c)-type values.  Transport requires constant coefficients (each
Theta entry a complex multiple of 1), where the path-ordered exponential
collapses to a dense matrix exponential.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .algebra import (
    TWO_PI,
    TorusElement,
    TorusParams,
    Weight,
    apply_auto,
    apply_derivation,
    distance,
    integral,
    mono,
    one,
    random_element,
    vector_distance,
    zero,
)
from .errors import NonConstantConnection, ParamMismatch, RankMismatch
from .forms import curvature_form


def _coerce_entry(entry, params: TorusParams) -> TorusElement:
    if isinstance(entry, TorusElement):
        if entry.params != params:
            raise ParamMismatch("connection entry over a different theta")
        return entry
    return mono(0, 0, complex(entry), params)


class Connection:
    """Rank-n connection with coefficient matrices Theta_u, Theta_v.

    Entries may be TorusElement or plain complex scalars (coerced to
    multiples of 1).
    """

    __slots__ = ("params", "rank", "theta_u", "theta_v")

    def __init__(self, params: TorusParams, theta_u, theta_v):
        tu = tuple(tuple(_coerce_entry(e, params) for e in row) for row in theta_u)
        tv = tuple(tuple(_coerce_entry(e, params) for e in row) for row in theta_v)
        n = len(tu)
        if n == 0:
            raise RankMismatch("a connection needs rank at least 1")
        for mat in (tu, tv):
            if len(mat) != n or any(len(row) != n for row in mat):
                raise RankMismatch("Theta_u, Theta_v must be square of equal rank")
        self.params = params
        self.rank = n
        self.theta_u = tu
        self.theta_v = tv

    @property
    def constant_coefficients(self) -> bool:
        return all(
            e.is_scalar()
            for mat in (self.theta_u, self.theta_v)
            for row in mat
            for e in row
        )

    def is_antihermitian(self, tol: float = 1e-12) -> bool:
        """(Theta_u)* = -Theta_u and (Theta_v)* = -Theta_v entrywise."""
        for mat in (self.theta_u, self.theta_v):
            for i in range(self.rank):
                for j in range(self.rank):
                    if distance(mat[j][i].star(), -1 * mat[i][j]) > tol:
                        return False
        return True

    def weight_matrix(self, weight: Weight) -> tuple[tuple[TorusElement, ...], ...]:
        """alpha Theta_u + beta Theta_v as a matrix of algebra elements."""
        alpha, beta = weight
        return tuple(
            tuple(
                alpha * self.theta_u[i][j] + beta * self.theta_v[i][j]
                for j in range(self.rank)
            )
            for i in range(self.rank)
        )

    def constant_weight_matrix(self, weight: Weight) -> np.ndarray:
        """Numeric alpha Theta_u + beta Theta_v; requires constant coefficients."""
        if not self.constant_coefficients:
            raise NonConstantConnection(
                "transport needs every Theta entry to be a complex multiple of 1"
            )
        alpha, beta = weight
        tu = np.array(
            [[e.scalar_value() for e in row] for row in self.theta_u], dtype=complex
        )
        tv = np.array(
            [[e.scalar_value() for e in row] for row in self.theta_v], dtype=complex
        )
        return alpha * tu + beta * tv

    @classmethod
    def from_dict(cls, data: dict, params: TorusParams) -> "Connection":
        def parse_entry(raw):
            if isinstance(raw, dict):
                return TorusElement.from_dict(raw)
            if isinstance(raw, (list, tuple)) and len(raw) == 2:
                return complex(float(raw[0]), float(raw[1]))
            return complex(raw)

        theta_u = [[parse_entry(e) for e in row] for row in data["theta_u"]]
        theta_v = [[parse_entry(e) for e in row] for row in data["theta_v"]]
        conn = cls(params, theta_u, theta_v)
        if conn.rank != integral(data["rank"], "rank"):
            raise RankMismatch(f"declared rank {data['rank']} != matrix rank {conn.rank}")
        return conn


def scalar_connection(params: TorusParams, c_u: float, c_v: float) -> Connection:
    """Rank-1 connection with antihermitian form i(c_u du + c_v dv)."""
    return Connection(params, [[1j * c_u]], [[1j * c_v]])


def rotation_block_connection(params: TorusParams, c_u: float, c_v: float) -> Connection:
    """Rank-4 flat connection rotating (e1,e2) in du and (e3,e4) in dv."""
    theta_u = [
        [0, -c_u, 0, 0],
        [c_u, 0, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ]
    theta_v = [
        [0, 0, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 0, -c_v],
        [0, 0, c_v, 0],
    ]
    return Connection(params, theta_u, theta_v)


# -- covariant derivative and curvature -------------------------------------


def nabla(conn: Connection, weight: Weight, xi) -> list[TorusElement]:
    """delta_X(xi) + (alpha Theta_u + beta Theta_v) xi on a column vector."""
    xi = list(xi)
    if len(xi) != conn.rank:
        raise RankMismatch(f"vector length {len(xi)} != rank {conn.rank}")
    theta = conn.weight_matrix(weight)
    out = []
    for i in range(conn.rank):
        acc = apply_derivation(weight, xi[i])
        for j in range(conn.rank):
            acc = acc + theta[i][j] * xi[j]
        out.append(acc)
    return out


def curvature_commutator(conn: Connection, X: Weight, Y: Weight):
    """Matrix of nabla_X nabla_Y - nabla_Y nabla_X on the standard basis.

    Torus weights commute, so the nabla_[X,Y] term is identically zero.
    """
    n = conn.rank
    columns = []
    for j in range(n):
        basis = [one(conn.params) if i == j else zero(conn.params) for i in range(n)]
        xy = nabla(conn, X, nabla(conn, Y, basis))
        yx = nabla(conn, Y, nabla(conn, X, basis))
        columns.append([a - b for a, b in zip(xy, yx)])
    return tuple(tuple(columns[j][i] for j in range(n)) for i in range(n))


def is_flat(conn: Connection, tol: float = 1e-12) -> bool:
    """True iff every curvature-form coefficient is below tol."""
    curv = curvature_form(conn)
    return all(e.dudv.is_zero(tol) for row in curv.entries for e in row)


# -- parallel transport ------------------------------------------------------


@dataclass(frozen=True)
class TransportOperator:
    """Phi_tau = s -> M . phi_tau(s), with phi_tau applied entrywise."""

    matrix: np.ndarray
    weight: Weight
    tau: float

    @property
    def rank(self) -> int:
        return self.matrix.shape[0]

    def apply(self, xs) -> list[TorusElement]:
        xs = list(xs)
        if len(xs) != self.rank:
            raise RankMismatch(f"vector length {len(xs)} != rank {self.rank}")
        twisted = [apply_auto(self.weight, self.tau, x) for x in xs]
        out = []
        for i in range(self.rank):
            acc = twisted[0] * complex(self.matrix[i, 0])
            for j in range(1, self.rank):
                acc = acc + twisted[j] * complex(self.matrix[i, j])
            out.append(acc)
        return out

    def to_dict(self) -> dict:
        """Matrix entries as [re, im] pairs; rank 1 adds the scalar as "value"."""
        out = {
            "matrix": [[[z.real, z.imag] for z in row] for row in self.matrix.tolist()],
            "weight": [self.weight[0], self.weight[1]],
            "tau": self.tau,
        }
        if self.rank == 1:
            out["value"] = list(out["matrix"][0][0])
        return out


def transport(conn: Connection, weight: Weight, tau: float) -> TransportOperator:
    """Module parallel transport at time tau along the weight flow.

    M = exp(2 pi tau (alpha Theta_u + beta Theta_v)); raises
    NonConstantConnection when Theta has non-scalar entries.
    """
    a = conn.constant_weight_matrix(weight)
    m = expm(TWO_PI * tau * a)
    return TransportOperator(matrix=m, weight=tuple(weight), tau=tau)


@dataclass(frozen=True)
class TransportAxiomReport:
    """Max residuals of the three module-parallel-transport axioms."""

    samples: int
    module_residual: float  # Phi_tau(s a) = Phi_tau(s) phi_tau(a)
    identity_residual: float  # Phi_0 = id
    group_residual: float  # Phi_{tau+sigma} = Phi_tau o Phi_sigma

    @property
    def max_residual(self) -> float:
        return max(self.module_residual, self.identity_residual, self.group_residual)


def check_transport_axioms(
    conn: Connection, weight: Weight, samples: int = 100, seed: int = 0
) -> TransportAxiomReport:
    """Exercise the transport axioms on random vectors, elements and times."""
    rng = random.Random(seed)
    res_module = res_identity = res_group = 0.0
    for _ in range(samples):
        s = [random_element(rng, conn.params, max_terms=3) for _ in range(conn.rank)]
        a = random_element(rng, conn.params, max_terms=3)
        tau = rng.uniform(-1.5, 1.5)
        sigma = rng.uniform(-1.5, 1.5)

        phi_tau = transport(conn, weight, tau)
        lhs = phi_tau.apply([x * a for x in s])
        rhs = [x * apply_auto(weight, tau, a) for x in phi_tau.apply(s)]
        res_module = max(res_module, vector_distance(lhs, rhs))

        res_identity = max(
            res_identity, vector_distance(transport(conn, weight, 0.0).apply(s), s)
        )

        both = transport(conn, weight, tau + sigma).apply(s)
        composed = phi_tau.apply(transport(conn, weight, sigma).apply(s))
        res_group = max(res_group, vector_distance(both, composed))
    return TransportAxiomReport(
        samples=samples,
        module_residual=res_module,
        identity_residual=res_identity,
        group_residual=res_group,
    )
