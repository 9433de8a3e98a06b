"""Desk-scale model of the infinite Z^2 cover of the torus algebra.

Elements are normal-ordered character monomials c * pi_u(e^{iax}) *
pi_v(e^{ibx}).  The deck group Z^2 acts by argument shifts x -> x + 2 pi on
one leg at a time, which scales a frequency-a character by exp(2 pi i a).
That phase is reduced mod 1 in exact integer arithmetic, so a deck element
of any size costs one rounding per leg.  Only products
that stay inside the normal-ordered model are defined: the commutation rule
between the two legs is deliberately not modeled, and anything requiring it
raises UnsupportedProduct.  Every computation the model supports cancels
legs pairwise, which is all the generalized-Wilson and pure-gauge checks
need.

Character sums (for cos/sin combinations) extend the model entrywise to the
4x4 block gauge field, whose Wilson images are rotation blocks.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .algebra import TWO_PI
from .errors import UnsupportedProduct


@dataclass(frozen=True)
class Character:
    """The function x -> exp(i * frequency * x) on the real line."""

    frequency: float

    @property
    def is_trivial(self) -> bool:
        return self.frequency == 0

    def __mul__(self, other: "Character") -> "Character":
        return Character(self.frequency + other.frequency)

    def conjugate(self) -> "Character":
        return Character(-self.frequency)


def shift_up(ch: Character, count: int = 1) -> tuple[complex, Character]:
    """f(x) -> f(x + 2 pi count) on a character: scalar exp(2 pi i count a), same frequency.

    count * a is reduced mod 1 exactly on the integer ratio of the double a,
    so the scalar is exactly 1 when the phase is an integer and otherwise
    carries one rounding whatever the size of count.
    """
    if not math.isfinite(ch.frequency):
        raise ValueError(f"character frequency {ch.frequency} is not finite")
    num, den = ch.frequency.as_integer_ratio()
    r = (count * num) % den
    if r == 0:
        return 1 + 0j, ch
    return cmath.exp(TWO_PI * 1j * (r / den)), ch


@dataclass(frozen=True)
class CharacterMonomial:
    """c * pi_u(e^{iax}) * pi_v(e^{ibx}) in normal order (u-leg left)."""

    scalar: complex
    uleg: Character
    vleg: Character

    @property
    def is_constant(self) -> bool:
        return self.uleg.is_trivial and self.vleg.is_trivial

    def star(self) -> "CharacterMonomial":
        if not (self.uleg.is_trivial or self.vleg.is_trivial):
            raise UnsupportedProduct(
                "adjoint of a two-leg monomial needs the unmodeled leg commutation"
            )
        return CharacterMonomial(
            self.scalar.conjugate(), self.uleg.conjugate(), self.vleg.conjugate()
        )


def monomial(scalar: complex, ufreq: float, vfreq: float) -> CharacterMonomial:
    return CharacterMonomial(complex(scalar), Character(ufreq), Character(vfreq))


def gauge_unitary(c_u: float, c_v: float) -> CharacterMonomial:
    """The global pure-gauge unitary pi_u(e^{i c_u x}) pi_v(e^{i c_v x})."""
    return monomial(1, c_u, c_v)


def mul(m1: CharacterMonomial, m2: CharacterMonomial) -> CharacterMonomial:
    """Product, defined only when an inner leg is trivial (normal order survives)."""
    if m1.vleg.is_trivial:
        return CharacterMonomial(m1.scalar * m2.scalar, m1.uleg * m2.uleg, m2.vleg)
    if m2.uleg.is_trivial:
        return CharacterMonomial(m1.scalar * m2.scalar, m1.uleg, m1.vleg * m2.vleg)
    raise UnsupportedProduct(
        "product would need the commutation rule between pi_v and pi_u legs"
    )


def mul_by_inverse(m1: CharacterMonomial, m2: CharacterMonomial) -> CharacterMonomial:
    """m1 * m2^{-1} for unitary-leg monomials; inner v-legs must cancel.

    m2^{-1} = conj(c2) pi_v(-b2) pi_u(-a2) stands in anti-normal order, so
    the product is only defined when the v frequencies agree.
    """
    if m2.scalar == 0:
        raise ZeroDivisionError("inverse of the zero monomial")
    inv_scalar = m2.scalar.conjugate() / (abs(m2.scalar) ** 2)
    vfreq = m1.vleg.frequency - m2.vleg.frequency
    if vfreq != 0:
        raise UnsupportedProduct(
            "v-legs do not cancel; the result leaves the normal-ordered model"
        )
    return CharacterMonomial(
        m1.scalar * inv_scalar,
        Character(m1.uleg.frequency - m2.uleg.frequency),
        Character(0.0),
    )


def deck_act(p: int, q: int, m: CharacterMonomial) -> CharacterMonomial:
    """Deck element (p, q) of Z^2: p argument shifts on the u-leg, q on the v-leg."""
    scalar = m.scalar
    for leg, count in ((m.uleg, p), (m.vleg, q)):
        phase, _ = shift_up(leg, count)
        if phase != 1:
            scalar *= phase
    return CharacterMonomial(scalar, m.uleg, m.vleg)


def wilson_relation(p: int, q: int, c_u: float, c_v: float) -> complex:
    """The scalar (deck(p,q) . U) U^{-1} = exp(2 pi i (p c_u + q c_v)).

    Computed inside the monomial model: deck-act on the gauge unitary, then
    cancel legs against its inverse.
    """
    gauge = gauge_unitary(c_u, c_v)
    shifted = deck_act(p, q, gauge)
    residue = mul_by_inverse(shifted, gauge)
    if not residue.is_constant:
        raise UnsupportedProduct("legs did not cancel to a multiplier-algebra scalar")
    return residue.scalar


# -- character sums and the 4x4 block gauge field -----------------------------


class CharacterSum:
    """Finite sum of character monomials, merged by (u, v) frequency pair."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        merged: dict[tuple[float, float], complex] = {}
        for t in terms:
            key = (t.uleg.frequency, t.vleg.frequency)
            s = merged.get(key, 0j) + t.scalar
            if s == 0:
                merged.pop(key, None)
            else:
                merged[key] = s
        self.terms = tuple(
            monomial(c, a, b) for (a, b), c in merged.items()
        )

    @classmethod
    def zero(cls) -> "CharacterSum":
        return cls(())

    def __add__(self, other: "CharacterSum") -> "CharacterSum":
        return CharacterSum(self.terms + other.terms)

    def __neg__(self) -> "CharacterSum":
        return CharacterSum(
            tuple(
                monomial(-t.scalar, t.uleg.frequency, t.vleg.frequency)
                for t in self.terms
            )
        )

    def __mul__(self, other: "CharacterSum") -> "CharacterSum":
        out = []
        for t1 in self.terms:
            for t2 in other.terms:
                out.append(mul(t1, t2))
        return CharacterSum(out)

    def star(self) -> "CharacterSum":
        return CharacterSum(tuple(t.star() for t in self.terms))

    def deck(self, p: int, q: int) -> "CharacterSum":
        return CharacterSum(tuple(deck_act(p, q, t) for t in self.terms))

    def constant_value(self, tol: float = 1e-12) -> complex:
        """Scalar part; raises if any oscillating term survives above tol."""
        value = 0j
        for t in self.terms:
            if t.is_constant:
                value += t.scalar
            elif abs(t.scalar) > tol:
                raise UnsupportedProduct(
                    f"non-constant character of weight {abs(t.scalar)} survives"
                )
        return value


def cosine_sum(freq: float, leg: str) -> CharacterSum:
    """cos(freq * x) on the given leg as a two-character sum."""
    hi, lo = (freq, -freq)
    if leg == "u":
        return CharacterSum((monomial(0.5, hi, 0), monomial(0.5, lo, 0)))
    return CharacterSum((monomial(0.5, 0, hi), monomial(0.5, 0, lo)))


def sine_sum(freq: float, leg: str) -> CharacterSum:
    """sin(freq * x) on the given leg as a two-character sum."""
    hi, lo = (freq, -freq)
    if leg == "u":
        return CharacterSum((monomial(-0.5j, hi, 0), monomial(0.5j, lo, 0)))
    return CharacterSum((monomial(-0.5j, 0, hi), monomial(0.5j, 0, lo)))


def block_gauge_field(c_u: float, c_v: float) -> list[list[CharacterSum]]:
    """The 4x4 unitary with cos/sin character entries: u-rotation block + v-rotation block."""
    cu, su = cosine_sum(c_u, "u"), sine_sum(c_u, "u")
    cv, sv = cosine_sum(c_v, "v"), sine_sum(c_v, "v")
    z = CharacterSum.zero()
    return [
        [cu, -su, z, z],
        [su, cu, z, z],
        [z, z, cv, -sv],
        [z, z, sv, cv],
    ]


def matrix_wilson_relation(p: int, q: int, c_u: float, c_v: float) -> np.ndarray:
    """(deck(p,q) . U) U^* for the 4x4 block gauge field, as a complex matrix."""
    gauge = block_gauge_field(c_u, c_v)
    n = len(gauge)
    shifted = [[entry.deck(p, q) for entry in row] for row in gauge]
    adjoint = [[gauge[j][i].star() for j in range(n)] for i in range(n)]
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            acc = CharacterSum.zero()
            for k in range(n):
                acc = acc + shifted[i][k] * adjoint[k][j]
            out[i, j] = acc.constant_value()
    return out
