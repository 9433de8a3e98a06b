"""Desk-scale model of the infinite Z^2 cover of the torus algebra.

An element is a term dict: a finite sum of normal-ordered character terms
c * pi_u(e^{iax}) * pi_v(e^{ibx}), stored as a map from the frequency pair
(a, b) to a complex c.  The deck group Z^2 acts by argument shifts
x -> x + 2 pi on one leg at a time, so deck element (p, q) scales a term of
frequencies (a, b) by exp(2 pi i (p a + q b)).  The turn is reduced mod 1
in exact integer arithmetic: one rounding per term at any deck element.

Both Wilson relations cancel legs pairwise, so each is the deck action and
a few scalar products.  ``wilson_relation`` deck-acts the one-term gauge
unitary U; cancelling against U^{-1}, of coefficient exactly 1, leaves the
turned coefficient on the constant character.  ``matrix_wilson_relation``
is (deck(p,q) . U) U^* for the 4x4 block gauge field U = diag(R_u, R_v),
R = ((cos, -sin), (sin, cos)) on one leg, cos and sin each a sum of the two
characters +-f: the in-model product specialised to two keys a leg.  The
+-2f parts of its products cancel exactly, since 0.25 z meets -0.25 z and
both are exact scalings, so each entry is two constant-key sums; the block
comes back as four complex rows, 0j off the two 2x2 blocks.  The dict
route lives on as ``tests/conftest.py::dense_matrix_wilson_relation``, which
the block matches byte for byte.
"""

from __future__ import annotations

import math

from .algebra import integral, turn


def _deck(p: int, q: int, terms: dict) -> dict:
    """The terms deck-acted by (p, q), one turn per key.  turn gives c itself at a whole turn and else
    c e^{i phi}, of |c| to a rounding; 0j + drops a -0.0 part.  0.0 and -0.0 are one key, of one integer ratio."""
    out = {}
    for key, c in terms.items():
        for frequency in key:
            if not math.isfinite(frequency):
                raise ValueError(f"character frequency {frequency} is not finite")
        (na, da), (nb, db) = key[0].as_integer_ratio(), key[1].as_integer_ratio()
        out[key] = 0j + turn(c, p * na * db + q * nb * da, da * db)
    return out


def wilson_relation(p: int, q: int, c_u: float, c_v: float) -> complex:
    """The scalar (deck(p,q) . U) U^{-1} = exp(2 pi i (p c_u + q c_v)).

    Computed inside the model: deck-act on the one-term gauge unitary U = pi_u(e^{i c_u x}) pi_v(e^{i c_v x}),
    then cancel its legs against U^{-1} = pi_v(-c_v) pi_u(-c_u), whose coefficient is exactly 1: the term
    lands on the constant character with its turned coefficient, which is the scalar.
    """
    return _deck(integral(p, "deck p"), integral(q, "deck q"), {(c_u, c_v): 1 + 0j})[c_u, c_v]


# -- the 4x4 block gauge field ---------------------------------------------------


def matrix_wilson_relation(p: int, q: int, c_u: float, c_v: float) -> tuple[tuple[complex, ...], ...]:
    """(deck(p,q) . U) U^* for the 4x4 block gauge field, as four complex rows.

    U = diag(R_u, R_v), so the product is diag((deck R_u) R_u^*, (deck R_v) R_v^*): the off-diagonal
    blocks are 0j.  A leg's cos is h e+ + h e- and its sin mhj e+ + hj e-, over the characters e+-
    of frequency +-f; deck-acted, they are a e+ + b e- and c e+ + d e-.  Their adjoints conjugate
    the coefficients onto -+f.  Block ((dc, -ds), (ds, dc)) ((cs, ss), (-ss, cs)) then keeps, of each
    product, its two constant-key terms in the product's loop order: the diagonal is dc cs + ds ss and
    the off-diagonals +-(dc ss - ds cs).
    """
    p, q = integral(p, "deck p"), integral(q, "deck q")
    h, hj, mhj = 0.5 + 0j, 0.5j, complex(0, -0.5)  # a bare -0.5j has a -0.0 real part
    blocks = []
    for plus, minus in (((c_u, 0.0), (-c_u, 0.0)), ((0.0, c_v), (0.0, -c_v))):
        # one turn per key: two a leg, and at f = 0 one key, whose phase both e+ and e- read
        phases = _deck(p, q, {plus: 1 + 0j, minus: 1 + 0j})
        a, b, c, d = h * phases[plus], h * phases[minus], mhj * phases[plus], hj * phases[minus]
        dc_ss, ds_cs = a * hj + b * mhj, c * h + d * h
        diagonal = 0j + ((a * h + b * h) + (c * hj + d * mhj))
        blocks.append(((diagonal, 0j + (dc_ss - ds_cs)), (0j + (ds_cs - dc_ss), diagonal)))
    (u0, u1), (v0, v1) = blocks
    return (*u0, 0j, 0j), (*u1, 0j, 0j), (0j, 0j, *v0), (0j, 0j, *v1)
