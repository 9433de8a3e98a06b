"""Desk-scale model of the infinite Z^2 cover of the torus algebra.

An element is a ``CharacterSum``: a finite sum of normal-ordered character
terms c * pi_u(e^{iax}) * pi_v(e^{ibx}), stored sparsely as a map from the
frequency pair (a, b) to c.  A monomial is a one-term sum.  The deck group
Z^2 acts by argument shifts x -> x + 2 pi on one leg at a time, so deck
element (p, q) scales a term of frequencies (a, b) by exp(2 pi i (p a + q b)).
That turn is reduced mod 1 in exact integer arithmetic, on the integer
ratios of a and b, so a deck element of any size costs one rounding per
term.  Only products that stay inside the normal-ordered model are
defined: the commutation rule between the two legs is deliberately not
modeled, and anything requiring it raises UnsupportedProduct.  Every
computation the model supports cancels legs pairwise, which is all the
generalized-Wilson and pure-gauge checks need.

Cos/sin sums extend the model entrywise to the 4x4 block gauge field
U = diag(R_u, R_v), with R = ((cos, -sin), (sin, cos)) on one leg.  Its
Wilson image (deck(p,q) . U) U^* is block diagonal too, so it is computed one
2x2 rotation block per leg, from that leg's two sums.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import TYPE_CHECKING, Iterable

from .algebra import EQ_TOL, turn
from .errors import UnsupportedProduct

if TYPE_CHECKING:
    import numpy as np


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

        unit^{-1} = (1 / c2) pi_v(-b2) pi_u(-a2) stands in anti-normal order, so
        the product is only defined when the v frequencies agree.  Complex
        division scales c2, so no |c2|^2 underflows or overflows.
        """
        if len(unit.terms) != 1:
            raise UnsupportedProduct(f"inverse of a {len(unit.terms)}-term sum is not modeled")
        (((a2, b2), c2),) = unit.terms.items()
        inv = 1 / c2
        out = []
        for (a, b), c in self.terms.items():
            if b - b2 != 0:
                raise UnsupportedProduct("v-legs do not cancel; the result leaves the model")
            out.append((a - a2, 0.0, c * inv))
        return CharacterSum(out)

    def deck(self, p: int, q: int) -> "CharacterSum":
        """Deck element (p, q) of Z^2: p argument shifts on the u-leg, q on the v-leg.

        A term turns by p a + q b, taken as one integer ratio: one rounding,
        and its coefficient untouched at a whole turn.
        """
        out = []
        for (a, b), c in self.terms.items():
            for frequency in (a, b):
                if not math.isfinite(frequency):
                    raise ValueError(f"character frequency {frequency} is not finite")
            (na, da), (nb, db) = a.as_integer_ratio(), b.as_integer_ratio()
            out.append((a, b, turn(c, p * na * db + q * nb * da, da * db)))
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


def matrix_wilson_relation(p: int, q: int, c_u: float, c_v: float) -> np.ndarray:
    """(deck(p,q) . U) U^* for the 4x4 block gauge field, as a complex matrix.

    U = diag(R_u, R_v), so the product is diag((deck R_u) R_u^*, (deck R_v) R_v^*):
    the off-diagonal blocks stay zero, and each leg deck-shifts and adjoins
    only its two distinct sums c and s.  Entry (i, j) of a block merges its
    two products in one sum.
    """
    import numpy as np

    out = np.zeros((4, 4), dtype=complex)
    for at, freq, leg in ((0, c_u, "u"), (2, c_v, "v")):
        c, s = cosine_sum(freq, leg), sine_sum(freq, leg)
        dc, ds = c.deck(p, q), s.deck(p, q)
        cs, ss = c.star(), s.star()
        shifted = ((dc, -ds), (ds, dc))
        adjoint = ((cs, ss), (-ss, cs))
        for i in (0, 1):
            for j in (0, 1):
                entry = CharacterSum(chain.from_iterable(shifted[i][k] * adjoint[k][j] for k in (0, 1)))
                out[at + i, at + j] = entry.constant_value()
    return out
