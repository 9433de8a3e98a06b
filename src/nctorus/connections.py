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
collapses to a dense matrix exponential, ``expm``.

numpy is imported where an array is built and scipy by ``expm`` at rank
2 and up, so curvature and flatness never load either.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .algebra import (
    EQ_TOL,
    TWO_PI,
    TorusElement,
    TorusParams,
    Weight,
    apply_auto,
    apply_derivation,
    integral,
    one,
    random_element,
    real,
    total,
    vector_distance,
    zero,
)
from .errors import NonConstantConnection, ParamMismatch, RankMismatch
from .forms import curvature_form

if TYPE_CHECKING:
    import numpy as np


def _coerce_entry(entry, params: TorusParams) -> TorusElement:
    if isinstance(entry, TorusElement):
        if entry.params != params:
            raise ParamMismatch("connection entry over a different theta")
        # over the connection's own params, so products share one lambda memo
        return TorusElement._wrap(params, entry.terms)
    c = complex(entry)
    return TorusElement._wrap(params, {(0, 0, 0): c} if c else {})


def _scalars(mats):
    """Each coefficient c of 1 as 0j + c, the value a fold gives; None unless every entry is one."""
    if not all(e.terms.keys() <= {(0, 0, 0)} for mat in mats for row in mat for e in row):
        return None
    return tuple(tuple(tuple(0j + e.terms.get((0, 0, 0), 0j) for e in row) for row in mat) for mat in mats)


def _scalar_coefficient(e: TorusElement) -> complex:
    """The folded coefficient of 1, from one fold; raises unless e is a multiple of 1."""
    folded = e.folded()
    if not all((m, n) == (0, 0) or abs(c) <= EQ_TOL for (m, n), c in folded.items()):
        raise NonConstantConnection(
            "transport needs every Theta entry to be a complex multiple of 1"
        )
    return folded.get((0, 0), 0j)


class Connection:
    """Rank-n connection with coefficient matrices Theta_u, Theta_v.

    Entries may be TorusElement or plain complex scalars (coerced to
    multiples of 1), decided once to be exact multiples or not (``scalars``).
    The numeric Theta_u, Theta_v of a constant connection are built once, on
    the first transport.
    """

    __slots__ = ("params", "rank", "theta_u", "theta_v", "_scalars", "_fold")

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
        self._scalars = _scalars((tu, tv))
        self._fold = None

    @property
    def scalars(self):
        """(Theta_u, Theta_v) as tuples of complex rows if every entry is an exact multiple of 1, else None."""
        return self._scalars

    def weight_matrix(self, weight: Weight) -> tuple[tuple[TorusElement, ...], ...]:
        """alpha Theta_u + beta Theta_v as a matrix of algebra elements."""
        alpha, beta = weight
        return tuple(
            tuple(alpha * a + beta * b for a, b in zip(row_u, row_v))
            for row_u, row_v in zip(self.theta_u, self.theta_v)
        )

    def constant_weight_matrix(self, weight: Weight) -> np.ndarray:
        """Numeric alpha Theta_u + beta Theta_v; requires constant coefficients."""
        if self._fold is None:
            scalars = self.scalars or [
                [[_scalar_coefficient(e) for e in row] for row in mat]
                for mat in (self.theta_u, self.theta_v)
            ]
            import numpy as np

            self._fold = tuple(np.array(mat, dtype=complex) for mat in scalars)
        alpha, beta = weight
        tu, tv = self._fold
        return alpha * tu + beta * tv

    @classmethod
    def from_dict(cls, data: dict, params: TorusParams) -> "Connection":
        def parse_entry(raw):
            """An element payload, a finite real number or an [re, im] pair of them."""
            if isinstance(raw, dict):
                return TorusElement.from_dict(raw)
            if isinstance(raw, (list, tuple)) and len(raw) == 2:
                return complex(real(raw[0], "entry re"), real(raw[1], "entry im"))
            return complex(real(raw, "connection entry"))

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
    return _nabla(conn.weight_matrix(weight), weight, xi)


def _nabla(theta, weight: Weight, xi: list[TorusElement]) -> list[TorusElement]:
    """nabla_X(xi) from the weight matrix theta = alpha Theta_u + beta Theta_v."""
    return [
        total(apply_derivation(weight, x), (t * y for t, y in zip(row, xi)))
        for row, x in zip(theta, xi)
    ]


def curvature_commutator(conn: Connection, X: Weight, Y: Weight):
    """Matrix of nabla_X nabla_Y - nabla_Y nabla_X on the standard basis.

    Torus weights commute, so the nabla_[X,Y] term is identically zero.
    """
    n = conn.rank
    tx, ty = conn.weight_matrix(X), conn.weight_matrix(Y)
    columns = []
    for j in range(n):
        basis = [one(conn.params) if i == j else zero(conn.params) for i in range(n)]
        xy = _nabla(tx, X, _nabla(ty, Y, basis))
        yx = _nabla(ty, Y, _nabla(tx, X, basis))
        columns.append([a - b for a, b in zip(xy, yx)])
    return tuple(tuple(columns[j][i] for j in range(n)) for i in range(n))


def is_flat(conn: Connection) -> bool:
    """True iff every curvature-form coefficient is at most EQ_TOL."""
    return curvature_form(conn).is_zero()


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
        for row in self.matrix.tolist():
            scaled = [x * complex(c) for x, c in zip(twisted, row)]
            out.append(total(scaled[0], scaled[1:]))
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


def expm(a: np.ndarray) -> np.ndarray:
    """The matrix exponential: the one entry point of every transport.

    A 1 x 1 matrix gives np.exp(a), scipy.linalg.expm's own scalar case, so
    rank 1 never loads scipy.  Larger matrices go to scipy.linalg.expm (the
    scaling-and-squaring method of Al-Mohy & Higham, SIAM J. Matrix Anal.
    Appl. 31, 2009), imported on first use.
    """
    import numpy as np

    a = np.asarray(a)
    if a.shape == (1, 1):
        return np.exp(a)
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(a)


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
    phi_0 = transport(conn, weight, 0.0) if samples > 0 else None
    for _ in range(samples):
        s = [random_element(rng, conn.params, max_terms=3) for _ in range(conn.rank)]
        a = random_element(rng, conn.params, max_terms=3)
        tau = rng.uniform(-1.5, 1.5)
        sigma = rng.uniform(-1.5, 1.5)

        phi_tau = transport(conn, weight, tau)
        lhs = phi_tau.apply([x * a for x in s])
        rhs = [x * apply_auto(weight, tau, a) for x in phi_tau.apply(s)]
        res_module = max(res_module, vector_distance(lhs, rhs))

        res_identity = max(res_identity, vector_distance(phi_0.apply(s), s))

        both = transport(conn, weight, tau + sigma).apply(s)
        composed = phi_tau.apply(transport(conn, weight, sigma).apply(s))
        res_group = max(res_group, vector_distance(both, composed))
    return TransportAxiomReport(
        samples=samples,
        module_residual=res_module,
        identity_residual=res_identity,
        group_residual=res_group,
    )
