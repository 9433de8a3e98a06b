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

Every operation writes its result dict once, term by term in the order, and so
to the bits, of merging its term triples.  Cos/sin sums extend the model
entrywise to the 4x4 block gauge field U = diag(R_u, R_v), R = ((cos, -sin),
(sin, cos)) on one leg.  Its Wilson image (deck(p,q) . U) U^* is one 2x2 block
a leg: four products of the leg's two sums, one map for both diagonal entries.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable

from .algebra import EQ_TOL, integral, turn
from .errors import UnsupportedProduct

if TYPE_CHECKING:
    import numpy as np


class CharacterSum:
    """Finite sum of normal-ordered characters (u-leg left).

    ``terms`` maps (u-frequency, v-frequency) to a nonzero complex
    coefficient with no -0.0 part.  The constructor merges (a, b, c) triples
    in order as ``get(key, 0j) + c`` and drops a pair that sums to zero; each
    operation writes its one result dict as that merge of its terms would.
    Instances are value-like: never mutate ``terms`` after construction.
    """

    __slots__ = ("terms",)

    def __init__(self, triples: Iterable[tuple[float, float, complex]] = ()):
        # not a dict literal: -0.0 == 0.0, so cos(0 x) = 1/2 + 1/2 must add
        self.terms = _accumulate({}, (((a, b), c) for a, b, c in triples))

    @classmethod
    def _wrap(cls, terms: dict) -> "CharacterSum":
        """A sum over ``terms`` as given: every value a nonzero complex with no -0.0 part."""
        out = object.__new__(cls)
        out.terms = terms
        return out

    def __add__(self, other: "CharacterSum") -> "CharacterSum":
        return CharacterSum._wrap(_accumulate(dict(self.terms), other.terms.items()))

    def __neg__(self) -> "CharacterSum":
        return CharacterSum._wrap(_neg(self.terms))

    def __mul__(self, other: "CharacterSum") -> "CharacterSum":
        """Product, defined only when an inner leg is trivial (normal order survives)."""
        return CharacterSum._wrap(_product(self.terms, other.terms))

    def star(self) -> "CharacterSum":
        if any(a != 0 and b != 0 for a, b in self.terms):
            raise UnsupportedProduct("adjoint of a two-leg term needs the unmodeled leg commutation")
        return CharacterSum._wrap(_star(self.terms))

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
            out.append(((a - a2, 0.0), c * inv))
        return CharacterSum._wrap(_accumulate({}, out))

    def deck(self, p: int, q: int) -> "CharacterSum":
        """Deck element (p, q) of Z^2: p argument shifts on the u-leg, q on the v-leg.

        A term turns by p a + q b, taken as one integer ratio: one rounding,
        and its coefficient untouched at a whole turn.
        """
        return CharacterSum._wrap(_deck(integral(p, "deck p"), integral(q, "deck q"), self.terms, {}))

    def constant_value(self) -> complex:
        """Scalar part; raises if any oscillating term survives above EQ_TOL."""
        return _constant(self.terms)


def _neg(terms: dict) -> dict:
    # keys stay distinct and nothing becomes zero; 0j + turns a -0.0 part to +0.0, as the merge does
    return {key: 0j + -c for key, c in terms.items()}


def _star(terms: dict) -> dict:
    return {(-a, -b): 0j + c.conjugate() for (a, b), c in terms.items()}


def _constant(terms: dict) -> complex:
    value = 0j
    for (a, b), c in terms.items():
        if a == 0 and b == 0:
            value += c
        elif abs(c) > EQ_TOL:
            raise UnsupportedProduct(f"non-constant character of weight {abs(c)} survives")
    return value


def _product(x: dict, y: dict) -> dict:
    """The terms of x * y, each product merged in (x, y) loop order as the constructor merges."""
    out = {}
    for (a1, b1), c1 in x.items():
        for (a2, b2), c2 in y.items():
            if b1 != 0 and a2 != 0:
                raise UnsupportedProduct("v-leg times u-leg needs the unmodeled leg commutation")
            key = (a1 + a2, b2) if b1 == 0 else (a1, b1 + b2)
            s = out.get(key, 0j) + c1 * c2  # c1 c2 can underflow, or cancel an earlier product
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
    return out


def _deck(p: int, q: int, terms: dict, phases: dict) -> dict:
    """The terms deck-acted by (p, q), each key turned once across the calls that share ``phases``.  turn(1, ...)
    is the int 1 at a whole turn, where c stays as it is, and else e^{i phi} with no zero part: c e^{i phi} is
    turn(c, ...) bit for bit.  0.0 and -0.0 are one key, of one integer ratio."""
    out = {}
    for key, c in terms.items():
        e = phases.get(key)
        if e is None:
            for frequency in key:
                if not math.isfinite(frequency):
                    raise ValueError(f"character frequency {frequency} is not finite")
            (na, da), (nb, db) = key[0].as_integer_ratio(), key[1].as_integer_ratio()
            e = phases[key] = turn(1, p * na * db + q * nb * da, da * db)
        out[key] = 0j + (c if e.__class__ is int else c * e)  # |c e^{i phi}| is |c| to a rounding: never zero
    return out


def _accumulate(acc: dict, terms: Iterable[tuple[tuple[float, float], complex]]) -> dict:
    """Merge (key, c) pairs into acc in order, as ``get(key, 0j) + c``; a key whose sum is zero leaves acc."""
    for key, c in terms:
        s = acc.get(key, 0j) + c
        if s == 0:
            acc.pop(key, None)
        else:
            acc[key] = s
    return acc


def mono(c: complex, a: float, b: float) -> CharacterSum:
    """The one-term sum c * pi_u(e^{iax}) * pi_v(e^{ibx})."""
    return CharacterSum._wrap(_accumulate({}, (((a, b), complex(c)),)))


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


def _leg_sums(freq: float, leg: str) -> tuple[dict, dict]:
    """The terms of cos(freq * x) and of sin(freq * x) on leg "u" or "v", at the keys +-freq."""
    if leg not in ("u", "v"):
        raise ValueError(f"leg must be 'u' or 'v', got {leg!r}")
    keys = ((freq, 0.0), (-freq, 0.0)) if leg == "u" else ((0.0, freq), (0.0, -freq))
    return _accumulate({}, zip(keys, (0.5, 0.5))), _accumulate({}, zip(keys, (-0.5j, 0.5j)))


def cosine_sum(freq: float, leg: str) -> CharacterSum:
    """cos(freq * x) on leg "u" or "v" as a two-character sum."""
    return CharacterSum._wrap(_leg_sums(freq, leg)[0])


def sine_sum(freq: float, leg: str) -> CharacterSum:
    """sin(freq * x) on leg "u" or "v" as a two-character sum."""
    return CharacterSum._wrap(_leg_sums(freq, leg)[1])


def matrix_wilson_relation(p: int, q: int, c_u: float, c_v: float) -> np.ndarray:
    """(deck(p,q) . U) U^* for the 4x4 block gauge field, as a complex matrix.

    U = diag(R_u, R_v), so the product is diag((deck R_u) R_u^*, (deck R_v) R_v^*): the off-diagonal
    blocks stay zero.  Each leg deck-shifts its two sums c and s, one turn per shared key +-f, and
    adjoins them.  Entry (i, j) of a block is one dict that its two products, each merged on its own,
    are merged into in key order.  _product(-x, y) and _product(x, -y) are _neg(_product(x, y)) bit
    for bit, and addition commutes, so the diagonal entries are one map: four products per leg.
    """
    import numpy as np

    p, q = integral(p, "deck p"), integral(q, "deck q")
    out = np.zeros((4, 4), dtype=complex)
    for at, freq, leg in ((0, c_u, "u"), (2, c_v, "v")):
        (c, s), phases = _leg_sums(freq, leg), {}  # c and s share their keys +-freq: two turns
        dc, ds, cs, ss = _deck(p, q, c, phases), _deck(p, q, s, phases), _star(c), _star(s)
        # ((dc, -ds), (ds, dc)) times ((cs, ss), (-ss, cs)); entries checked in row-major order
        dc_cs, ds_ss, dc_ss, ds_cs = _product(dc, cs), _product(ds, ss), _product(dc, ss), _product(ds, cs)
        out[at, at] = out[at + 1, at + 1] = _constant(_accumulate(dc_cs, ds_ss.items()))
        out[at, at + 1] = _constant(_accumulate(dict(dc_ss), _neg(ds_cs).items()))  # (1, 0) reads dc_ss
        out[at + 1, at] = _constant(_accumulate(ds_cs, _neg(dc_ss).items()))
    return out
