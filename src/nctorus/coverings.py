"""Finite covering projections of the torus algebra and generalized Wilson lines.

A covering of degrees (k1, k2) embeds the base algebra (parameter theta)
into a cover algebra with theta' = theta/(k1 k2) via u -> x^{k1},
v -> y^{k2}; the deck group Z_{k1} x Z_{k2} acts by scaling x^p y^q with the
root of unity exp(2 pi i (a p / k1 + b q / k2)).  The weight-(alpha, beta)
flow on the base lifts uniquely to the cover as apply_auto at weight
(alpha/k1, beta/k2); integer-weight lifts reach deck elements at integer
times, and a flow is a closed path when its lift first meets the deck group
exactly at time 1.

The generalized Wilson line transports a flat constant-coefficient
connection along the canonical representative path of a deck element
(weight (a, b) for g = (a, b)); path independence is a hypothesis, not a
theorem, so check_path_independence exposes the comparison.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .algebra import CERTIFY_TOL, TWO_PI, TorusElement, TorusParams, integral
from .connections import Connection, TransportOperator, is_flat, transport
from .errors import NotFlat, ParamMismatch, PathNotAssociated, ZeroWeight


@dataclass(frozen=True)
class DeckElement:
    """Element (a, b) of the deck group Z_{k1} x Z_{k2}."""

    a: int
    b: int
    degrees: tuple[int, int]

    def __post_init__(self):
        k1, k2 = self.degrees
        if not (0 <= self.a < k1 and 0 <= self.b < k2):
            raise ValueError(f"deck element {(self.a, self.b)} out of range for {self.degrees}")

    def __add__(self, other: "DeckElement") -> "DeckElement":
        if self.degrees != other.degrees:
            raise ParamMismatch("deck elements of different coverings")
        k1, k2 = self.degrees
        return DeckElement((self.a + other.a) % k1, (self.b + other.b) % k2, self.degrees)


@dataclass(frozen=True)
class CoveringSpec:
    """Degrees (k1, k2) over a base theta; cover parameter is theta/(k1 k2)."""

    base: TorusParams
    degrees: tuple[int, int]

    def __post_init__(self):
        k1, k2 = self.degrees
        k1, k2 = integral(k1, "covering degree"), integral(k2, "covering degree")
        if k1 < 1 or k2 < 1:
            raise ValueError("covering degrees must be positive")
        object.__setattr__(self, "degrees", (k1, k2))

    @property
    def cover(self) -> TorusParams:
        k1, k2 = self.degrees
        return TorusParams(self.base.theta / (k1 * k2))

    def deck(self, a: int, b: int) -> DeckElement:
        k1, k2 = self.degrees
        return DeckElement(a % k1, b % k2, self.degrees)

    @property
    def g_u(self) -> DeckElement:
        return self.deck(1, 0)

    @property
    def g_v(self) -> DeckElement:
        return self.deck(0, 1)

    def deck_elements(self) -> list[DeckElement]:
        k1, k2 = self.degrees
        return [DeckElement(a, b, self.degrees) for a in range(k1) for b in range(k2)]


def project(spec: CoveringSpec, a: TorusElement) -> TorusElement:
    """*-homomorphism into the cover: u^m v^n -> x^{k1 m} y^{k2 n}.

    The lambda exponent rescales by k1 k2, exactly: lambda = (lambda')^{k1 k2}.
    """
    if a.params != spec.base:
        raise ParamMismatch("element does not live over the base parameter")
    k1, k2 = spec.degrees
    terms = {}
    for (m, n, k), c in a.terms.items():
        terms[(k1 * m, k2 * n, k * k1 * k2)] = c
    return TorusElement(spec.cover, terms)


def deck_act(g: DeckElement, a: TorusElement) -> TorusElement:
    """Deck automorphism: scales x^p y^q by exp(2 pi i (a p / k1 + b q / k2)).

    The phase exponent is reduced mod (k1, k2) in integer arithmetic, so
    monomials in the image of project are fixed exactly.
    """
    k1, k2 = g.degrees
    terms = {}
    for (p, q, k), c in a.terms.items():
        r = (g.a * p) % k1
        s = (g.b * q) % k2
        if r == 0 and s == 0:
            terms[(p, q, k)] = c
        else:
            terms[(p, q, k)] = c * cmath.exp(TWO_PI * 1j * (r / k1 + s / k2))
    return TorusElement(a.params, terms)


@dataclass(frozen=True)
class ClosedPathReport:
    """Classification of an integer-weight flow against the deck group."""

    weight: tuple[int, int]
    is_closed: bool
    associated: DeckElement | None
    witness: float | None  # smallest tau in (0,1) whose lift lies in the deck group

    def to_dict(self) -> dict:
        return {
            "weight": [self.weight[0], self.weight[1]],
            "closed": self.is_closed,
            "deck": None if self.associated is None else [self.associated.a, self.associated.b],
            "witness": self.witness,
        }


def classify_path(spec: CoveringSpec, weight) -> ClosedPathReport:
    """Decide whether the weight flow is a closed path and find its deck element.

    The lift lies in the deck group at time tau iff alpha tau and beta tau
    are both integers, so the first hit before time 1 is at 1/gcd;
    closedness is gcd(|alpha|, |beta|) <= 1.
    """
    alpha, beta = weight
    alpha, beta = integral(alpha, "loop weight"), integral(beta, "loop weight")
    if (alpha, beta) == (0, 0):
        raise ZeroWeight("weight (0,0) is the constant path")
    g = math.gcd(abs(alpha), abs(beta))
    if g <= 1:
        return ClosedPathReport(
            weight=(alpha, beta),
            is_closed=True,
            associated=spec.deck(alpha, beta),
            witness=None,
        )
    return ClosedPathReport(
        weight=(alpha, beta), is_closed=False, associated=None, witness=1.0 / g
    )


def wilson(spec: CoveringSpec, g: DeckElement, conn: Connection) -> TransportOperator:
    """Transport along the canonical closed path of g: weight (a, b) at time 1.

    Requires a flat connection with constant coefficients; the identity deck
    element yields the identity operator.
    """
    if conn.params != spec.base:
        raise ParamMismatch("connection does not live over the base parameter")
    if g.degrees != spec.degrees:
        raise ParamMismatch("deck element belongs to a different covering")
    if not is_flat(conn):
        raise NotFlat("generalized Wilson lines are defined for flat connections")
    return transport(conn, (g.a, g.b), 1.0)


@dataclass(frozen=True)
class PathIndependenceReport:
    """Pairwise comparison of transports along paths associated to one deck element."""

    deck: DeckElement
    weights: tuple[tuple[int, int], ...]
    max_distance: float
    certified: bool  # max_distance < CERTIFY_TOL: the Wilson hypothesis holds here

    def to_dict(self) -> dict:
        return {
            "deck": [self.deck.a, self.deck.b],
            "weights": [[w[0], w[1]] for w in self.weights],
            "max_distance": self.max_distance,
            "certified": self.certified,
        }


def check_path_independence(
    spec: CoveringSpec, g: DeckElement, conn: Connection, weights
) -> PathIndependenceReport:
    """Transport along each weight (all must be closed paths for g) and compare."""
    import numpy as np

    checked = []
    for w in weights:
        report = classify_path(spec, w)
        if not report.is_closed or report.associated != g:
            raise PathNotAssociated(
                f"weight {report.weight} is not a closed path associated with ({g.a},{g.b})"
            )
        checked.append(report.weight)
    weights = checked
    mats = [transport(conn, w, 1.0).matrix for w in weights]
    max_distance = 0.0
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            max_distance = max(max_distance, float(np.max(np.abs(mats[i] - mats[j]))))
    return PathIndependenceReport(
        deck=g,
        weights=tuple(weights),
        max_distance=max_distance,
        certified=max_distance < CERTIFY_TOL,
    )
