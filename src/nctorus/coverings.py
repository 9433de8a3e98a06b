"""Finite covering projections of the torus algebra and generalized Wilson lines.

A covering of degrees (k1, k2) embeds the base algebra (parameter theta)
into a cover algebra with theta' = theta/(k1 k2) via u -> x^{k1},
v -> y^{k2}; the deck group Z_{k1} x Z_{k2} acts by scaling x^p y^q with the
root of unity exp(2 pi i (a p / k1 + b q / k2)), one rounding per term and
none at a whole turn.  The weight-(alpha, beta) flow on the base lifts
uniquely to the cover as apply_auto at weight (alpha/k1, beta/k2);
integer-weight lifts reach deck elements at integer times, and a flow is a
closed path when its lift first meets the deck group exactly at time 1.

The generalized Wilson line transports a flat constant-coefficient
connection along the canonical representative path of a deck element
(weight (a, b) for g = (a, b)); path independence is a hypothesis, not a
theorem, so check_path_independence exposes the comparison, in Python
complex arithmetic like every other report value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import nctorus as _lib  # connections is read at call time, so classify never loads it

from .algebra import CERTIFY_TOL, R15_TOP, TorusElement, TorusParams, _worst, integral, r15, turn
from .errors import NotFlat, ParamMismatch, PathNotAssociated, ZeroWeight

if TYPE_CHECKING:
    from .connections import Connection, TransportOperator


@dataclass(frozen=True)
class DeckElement:
    """Element (a, b) of the deck group Z_{k1} x Z_{k2}."""

    a: int
    b: int
    degrees: tuple[int, int]

    def __post_init__(self):
        k1, k2 = self.degrees
        object.__setattr__(self, "a", integral(self.a, "deck a"))
        object.__setattr__(self, "b", integral(self.b, "deck b"))
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
        return DeckElement(integral(a, "deck a") % k1, integral(b, "deck b") % k2, self.degrees)


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
    return TorusElement._wrap(spec.cover, terms)  # the key map is injective: a's canonical terms stay canonical


def deck_act(g: DeckElement, a: TorusElement) -> TorusElement:
    """Deck automorphism: scales x^p y^q by exp(2 pi i (a p / k1 + b q / k2)).

    The phase is one ``turn`` of the integer ratio (a p k2 + b q k1, k1 k2),
    so a coefficient whose phase is an integer (every monomial in the image
    of project among them) is kept bit for bit.
    """
    k1, k2 = g.degrees
    a_turns, b_turns, den = g.a * k2, g.b * k1, k1 * k2
    terms = {}
    for key, c in a.terms.items():
        terms[key] = turn(c, a_turns * key[0] + b_turns * key[1], den)
    return TorusElement._wrap(a.params, terms)  # |c e^{i phi}| is |c| to a rounding: never zero


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
            "witness": r15(self.witness),
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
        return ClosedPathReport(weight=(alpha, beta), is_closed=True, associated=spec.deck(alpha, beta), witness=None)
    return ClosedPathReport(weight=(alpha, beta), is_closed=False, associated=None, witness=1.0 / g)


def _check_cover(spec: CoveringSpec, g: DeckElement, conn: Connection) -> None:
    """ParamMismatch unless conn lives over the base theta and g belongs to this covering."""
    if conn.params != spec.base:
        raise ParamMismatch("connection does not live over the base parameter")
    if g.degrees != spec.degrees:
        raise ParamMismatch("deck element belongs to a different covering")


def wilson(spec: CoveringSpec, g: DeckElement, conn: Connection) -> TransportOperator:
    """Transport along the canonical closed path of g: weight (a, b) at time 1.

    Requires a flat connection with constant coefficients; the identity deck
    element yields the identity operator.
    """
    _check_cover(spec, g, conn)
    if not _lib.connections.is_flat(conn):
        raise NotFlat("generalized Wilson lines are defined for flat connections")
    return _lib.connections.transport(conn, (g.a, g.b), 1.0)


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
            "max_distance": min(r15(self.max_distance), R15_TOP),  # inf, an overflowing difference, as r15's top
            "certified": self.certified,
        }


def check_path_independence(spec: CoveringSpec, g: DeckElement, conn: Connection, weights) -> PathIndependenceReport:
    """Transport along each weight (all must be closed paths for g) and compare: the cover is checked as in
    wilson, then each weight, and one _transports call gives every transport.  max_distance is the largest
    entrywise |M_i - M_j| over the pairs."""
    _check_cover(spec, g, conn)
    checked = []
    for w in weights:
        report = classify_path(spec, w)
        if not report.is_closed or report.associated != g:
            raise PathNotAssociated(f"weight {report.weight} is not a closed path associated with ({g.a},{g.b})")
        checked.append(report.weight)
    mats = _lib.connections._transports(conn, [(w, 1.0) for w in checked])
    pairs = [(m, n) for i, m in enumerate(mats) for n in mats[i + 1 :]]
    max_distance = _worst(x - y for m, n in pairs for row_m, row_n in zip(m, n) for x, y in zip(row_m, row_n))
    return PathIndependenceReport(g, tuple(checked), max_distance, certified=max_distance < CERTIFY_TOL)
