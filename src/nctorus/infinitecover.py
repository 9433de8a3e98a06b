"""Desk-scale model of the infinite Z^2 cover of the torus algebra.

An element is a ``CharacterSum``: a finite sum of normal-ordered character
terms c * pi_u(e^{iax}) * pi_v(e^{ibx}), stored sparsely as a map from the
frequency pair (a, b) to c.  A monomial is a one-term sum.  The deck group
Z^2 acts by argument shifts x -> x + 2 pi on one leg at a time, which scales
a frequency-a character by exp(2 pi i a).  That phase is reduced mod 1 in
exact integer arithmetic, so a deck element of any size costs one rounding
per leg.  Only products that stay inside the normal-ordered model are
defined: the commutation rule between the two legs is deliberately not
modeled, and anything requiring it raises UnsupportedProduct.  Every
computation the model supports cancels legs pairwise, which is all the
generalized-Wilson and pure-gauge checks need.

Cos/sin sums extend the model entrywise to the 4x4 block gauge field, whose
Wilson images are rotation blocks.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable

from .algebra import EQ_TOL, exact_phase
from .errors import UnsupportedProduct

if TYPE_CHECKING:
    import numpy as np


def shift_up(frequency: float, count: int = 1) -> complex:
    """The scalar exp(2 pi i count a) by which x -> x + 2 pi count scales e^{iax}.

    count * a is reduced mod 1 exactly on the integer ratio of the double a
    (``exact_phase``), so the scalar is exactly 1 when the phase is an
    integer and otherwise carries one rounding whatever the size of count.
    """
    if not math.isfinite(frequency):
        raise ValueError(f"character frequency {frequency} is not finite")
    return exact_phase(frequency.as_integer_ratio(), count)


class CharacterSum:
    """Finite sum of normal-ordered characters (u-leg left).

    ``terms`` maps (u-frequency, v-frequency) to a nonzero complex
    coefficient.  The constructor merges (a, b, c) triples in order and drops
    a pair whose coefficient sums to zero; iterating yields the triples back.
    Instances are value-like: never mutate ``terms`` after construction.
    """

    __slots__ = ("terms",)

    def __init__(self, triples: Iterable[tuple[float, float, complex]] = ()):
        # not a dict literal: -0.0 == 0.0, so cos(0 x) = 1/2 + 1/2 must add
        merged: dict[tuple[float, float], complex] = {}
        for a, b, c in triples:
            key = (a, b)
            s = merged.get(key, 0j) + c
            if s == 0:
                merged.pop(key, None)
            else:
                merged[key] = s
        self.terms = merged

    def __iter__(self):
        return ((a, b, c) for (a, b), c in self.terms.items())

    def __add__(self, other: "CharacterSum") -> "CharacterSum":
        return CharacterSum((*self, *other))

    def __neg__(self) -> "CharacterSum":
        return CharacterSum((a, b, -c) for a, b, c in self)

    def __mul__(self, other: "CharacterSum") -> "CharacterSum":
        """Product, defined only when an inner leg is trivial (normal order survives)."""
        out = []
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                if b1 != 0 and a2 != 0:
                    raise UnsupportedProduct("v-leg times u-leg needs the unmodeled leg commutation")
                out.append((a1 + a2, b2, c1 * c2) if b1 == 0 else (a1, b1 + b2, c1 * c2))
        return CharacterSum(out)

    def star(self) -> "CharacterSum":
        if any(a != 0 and b != 0 for a, b, _ in self):
            raise UnsupportedProduct("adjoint of a two-leg term needs the unmodeled leg commutation")
        return CharacterSum((-a, -b, c.conjugate()) for a, b, c in self)

    def mul_by_inverse(self, unit: "CharacterSum") -> "CharacterSum":
        """self * unit^{-1} for a one-term unit of unitary legs; inner v-legs must cancel.

        unit^{-1} = conj(c2) / |c2|^2 pi_v(-b2) pi_u(-a2) stands in anti-normal
        order, so the product is only defined when the v frequencies agree.
        """
        if len(unit.terms) != 1:
            raise UnsupportedProduct(f"inverse of a {len(unit.terms)}-term sum is not modeled")
        (((a2, b2), c2),) = unit.terms.items()
        inv = c2.conjugate() / (abs(c2) ** 2)
        out = []
        for (a, b), c in self.terms.items():
            if b - b2 != 0:
                raise UnsupportedProduct("v-legs do not cancel; the result leaves the model")
            out.append((a - a2, 0.0, c * inv))
        return CharacterSum(out)

    def deck(self, p: int, q: int) -> "CharacterSum":
        """Deck element (p, q) of Z^2: p argument shifts on the u-leg, q on the v-leg."""
        out = []
        for (a, b), c in self.terms.items():
            for frequency, count in ((a, p), (b, q)):
                phase = shift_up(frequency, count)
                if phase != 1:
                    c *= phase
            out.append((a, b, c))
        return CharacterSum(out)

    def constant_value(self) -> complex:
        """Scalar part; raises if any oscillating term survives above EQ_TOL."""
        value = 0j
        for (a, b), c in self.terms.items():
            if a == 0 and b == 0:
                value += c
            elif abs(c) > EQ_TOL:
                raise UnsupportedProduct(f"non-constant character of weight {abs(c)} survives")
        return value


def mono(c: complex, a: float, b: float) -> CharacterSum:
    """The one-term sum c * pi_u(e^{iax}) * pi_v(e^{ibx})."""
    return CharacterSum(((a, b, complex(c)),))


def gauge_unitary(c_u: float, c_v: float) -> CharacterSum:
    """The global pure-gauge unitary pi_u(e^{i c_u x}) pi_v(e^{i c_v x})."""
    return mono(1, c_u, c_v)


def wilson_relation(p: int, q: int, c_u: float, c_v: float) -> complex:
    """The scalar (deck(p,q) . U) U^{-1} = exp(2 pi i (p c_u + q c_v)).

    Computed inside the model: deck-act on the gauge unitary, then cancel
    legs against its inverse.
    """
    gauge = gauge_unitary(c_u, c_v)
    return gauge.deck(p, q).mul_by_inverse(gauge).constant_value()


# -- the 4x4 block gauge field ---------------------------------------------------


def cosine_sum(freq: float, leg: str) -> CharacterSum:
    """cos(freq * x) on the given leg as a two-character sum."""
    if leg == "u":
        return CharacterSum(((freq, 0.0, 0.5), (-freq, 0.0, 0.5)))
    return CharacterSum(((0.0, freq, 0.5), (0.0, -freq, 0.5)))


def sine_sum(freq: float, leg: str) -> CharacterSum:
    """sin(freq * x) on the given leg as a two-character sum."""
    if leg == "u":
        return CharacterSum(((freq, 0.0, -0.5j), (-freq, 0.0, 0.5j)))
    return CharacterSum(((0.0, freq, -0.5j), (0.0, -freq, 0.5j)))


def block_gauge_field(c_u: float, c_v: float) -> list[list[CharacterSum]]:
    """The 4x4 unitary with cos/sin character entries: u-rotation block + v-rotation block."""
    cu, su = cosine_sum(c_u, "u"), sine_sum(c_u, "u")
    cv, sv = cosine_sum(c_v, "v"), sine_sum(c_v, "v")
    z = CharacterSum()
    return [
        [cu, -su, z, z],
        [su, cu, z, z],
        [z, z, cv, -sv],
        [z, z, sv, cv],
    ]


def matrix_wilson_relation(p: int, q: int, c_u: float, c_v: float) -> np.ndarray:
    """(deck(p,q) . U) U^* for the 4x4 block gauge field, as a complex matrix."""
    import numpy as np

    gauge = block_gauge_field(c_u, c_v)
    n = len(gauge)
    shifted = [[entry.deck(p, q) for entry in row] for row in gauge]
    adjoint = [[gauge[j][i].star() for j in range(n)] for i in range(n)]
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            acc = CharacterSum()
            for k in range(n):
                acc = acc + shifted[i][k] * adjoint[k][j]
            out[i, j] = acc.constant_value()
    return out
