"""Desk-scale model of the infinite Z^2 cover of the torus algebra.

An element is a term dict: a finite sum of normal-ordered character terms
c * pi_u(e^{iax}) * pi_v(e^{ibx}), stored sparsely as a map from the
frequency pair (a, b) to a nonzero complex c with no -0.0 part.  The deck
group Z^2 acts by argument shifts x -> x + 2 pi on one leg at a time, so deck
element (p, q) scales a term of frequencies (a, b) by exp(2 pi i (p a + q b)).
That turn is reduced mod 1 in exact integer arithmetic, on the integer
ratios of a and b, so a deck element of any size costs one rounding per
term.  Only products that stay inside the normal-ordered model are
defined: the commutation rule between the two legs is deliberately not
modeled, and anything requiring it raises UnsupportedProduct.  Every
computation the model supports cancels legs pairwise, which is all the
generalized-Wilson and pure-gauge checks need.

Each helper writes its result dict once, term by term in the order, and so
to the bits, of merging its (a, b, c) triples as ``get(key, 0j) + c``: the
rule of ``algebra._merge``, which adds and subtracts whole dicts here.  Two
functions use them: ``wilson_relation`` for the one-term gauge unitary, and
``matrix_wilson_relation`` for the 4x4 block gauge field U = diag(R_u, R_v),
R = ((cos, -sin), (sin, cos)) on one leg: (deck(p,q) . U) U^* is one 2x2
block a leg, four products of the leg's two sums.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .algebra import EQ_TOL, _merge, integral, turn
from .errors import UnsupportedProduct

if TYPE_CHECKING:
    import numpy as np


def _star(terms: dict) -> dict:
    """The adjoint of a sum of one-leg terms: conj(c) at (-a, -b).  A two-leg term's adjoint stands in anti-normal
    order and needs the unmodeled leg commutation, so callers pass only the one-leg cos/sin sums."""
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
    """The terms of x * y, each product merged in (x, y) loop order as ``algebra._merge`` merges."""
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


def wilson_relation(p: int, q: int, c_u: float, c_v: float) -> complex:
    """The scalar (deck(p,q) . U) U^{-1} = exp(2 pi i (p c_u + q c_v)).

    Computed inside the model: deck-act on the one-term gauge unitary U = pi_u(e^{i c_u x}) pi_v(e^{i c_v x}),
    then cancel its legs against U^{-1} = pi_v(-c_v) pi_u(-c_u), whose coefficient is exactly 1: the term of
    frequencies (a, b) goes to (a - c_u, b - c_v), and the scalar is the constant part.
    """
    shifted = _deck(integral(p, "deck p"), integral(q, "deck q"), {(c_u, c_v): 1 + 0j}, {})
    return _constant({(a - c_u, b - c_v): c for (a, b), c in shifted.items()})


# -- the 4x4 block gauge field ---------------------------------------------------


def matrix_wilson_relation(p: int, q: int, c_u: float, c_v: float) -> np.ndarray:
    """(deck(p,q) . U) U^* for the 4x4 block gauge field, as a complex matrix.

    U = diag(R_u, R_v), so the product is diag((deck R_u) R_u^*, (deck R_v) R_v^*): the off-diagonal
    blocks stay zero.  Each leg deck-shifts its two sums c and s, one turn per shared key +-f, and
    adjoins them.  Entry (i, j) of a block is one dict that its two products, each merged on its own,
    are merged into in key order.  _product(-x, y) and _product(x, -y) are -_product(x, y) bit for bit,
    so an off-diagonal entry subtracts, and addition commutes, so the diagonal entries are one map.
    """
    import numpy as np

    p, q = integral(p, "deck p"), integral(q, "deck q")
    out = np.zeros((4, 4), dtype=complex)
    for at, plus, minus in ((0, (c_u, 0.0), (-c_u, 0.0)), (2, (0.0, c_v), (0.0, -c_v))):
        # cos and sin on the leg share their keys +-f: two turns.  At f = 0 the keys are one: cos is 1, sin empty.
        # No coefficient has a -0.0 part (a bare -0.5j has one), so t - c below is t + (-c) to the bits
        c, s, phases = _merge({plus: 0.5 + 0j}, {minus: 0.5 + 0j}), _merge({plus: complex(0, -0.5)}, {minus: 0.5j}), {}
        dc, ds, cs, ss = _deck(p, q, c, phases), _deck(p, q, s, phases), _star(c), _star(s)
        # ((dc, -ds), (ds, dc)) times ((cs, ss), (-ss, cs)); entries checked in row-major order
        dc_cs, ds_ss, dc_ss, ds_cs = _product(dc, cs), _product(ds, ss), _product(dc, ss), _product(ds, cs)
        out[at, at] = out[at + 1, at + 1] = _constant(_merge(dc_cs, ds_ss))
        out[at, at + 1] = _constant(_merge(dict(dc_ss), ds_cs, subtract=True))  # (1, 0) reads dc_ss
        out[at + 1, at] = _constant(_merge(ds_cs, dc_ss, subtract=True))
    return out
