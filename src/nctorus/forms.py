"""Curvature of a connection as a matrix of du^dv 2-forms.

The basis 1-forms du, dv are central and anticommute, so a connection
Theta = Theta_u du + Theta_v dv on a free module has curvature
d Theta + Theta ^ Theta = F du^dv with

    F = delta_u(Theta_v) - delta_v(Theta_u) + Theta_u Theta_v - Theta_v Theta_u,

the products taken as matrix products of algebra elements.  A TwoForm holds
the single component F_ij of one entry; MatrixForm holds the square matrix
and serializes it for reports, each float rounded once (``r15``).

When every entry is a plain multiple of 1 (no u, v or lambda powers), as
the connection's ``scalars`` records, the derivation terms vanish and F is
the commutator of two complex matrices, summed over Python complex scalars
in the order of the test reference tests/test_forms.py::element_loop (bit
for bit; _element_entries agrees to rounding only) and held as complex rows,
which flatness and the report read; TwoForm entries are built on first
access.  numpy is not used: its vectorized complex multiply may fuse
multiply-adds, which changes the last bit of some products and the reports.
Otherwise the algebra's product kernel adds every pair product of an entry
straight into one of two dicts, and flatness reads the entries one at a time.
"""

from __future__ import annotations

from cmath import isfinite
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import add, mul, sub

from .algebra import TorusElement, _merge, _negligible, _product, apply_derivation, mono, r15


@dataclass(frozen=True)
class TwoForm:
    dudv: TorusElement


class MatrixForm:
    """Square matrix (row-major) of TwoForm entries over one TorusParams, or of complex rows of scalars c * 1."""

    __slots__ = ("_entries", "_params", "_rows", "rank")

    def __init__(self, entries=None, params=None, rows=None):
        self._entries = None if entries is None else tuple(tuple(row) for row in entries)
        self._params, self._rows, self.rank = params, rows, len(self._entries if rows is None else rows)

    @property
    def entries(self) -> tuple[tuple[TwoForm, ...], ...]:
        if self._entries is None:
            self._entries = tuple(tuple(TwoForm(mono(0, 0, c, self._params)) for c in row) for row in self._rows)
        return self._entries

    def is_zero(self) -> bool:
        """True iff every folded coefficient of every entry is negligible (c folds to 0j + c)."""
        if self._rows is None:
            return all(e.dudv.is_zero() for row in self._entries for e in row)
        return _negligible(chain.from_iterable(self._rows))

    def check_finite(self) -> None:
        """_check_finite on every coefficient of every entry, as a strict JSON report needs."""
        if self._rows is None:
            _check_finite(c for row in self._entries for e in row for c in e.dudv.terms.values())
        else:
            _check_finite(chain.from_iterable(self._rows))

    def to_dict(self) -> dict:
        """Entries in TorusElement.to_dict's layout, every float rounded once by r15 (theta once)."""

        def term(c: complex, m=0, n=0, k=0) -> dict:
            return {"m": m, "n": n, "re": r15(c.real), "im": r15(c.imag), "lk": k}

        if self._rows is None:
            params = self._entries[0][0].dudv.params
            terms = [[sorted(e.dudv.terms.items()) for e in row] for row in self._entries]
            terms = [[[term(c, *key) for key, c in items] for items in row] for row in terms]
        else:
            params, terms = self._params, [[[term(c)] if c else [] for c in row] for row in self._rows]
        theta = r15(params.theta)
        entries = [[{"dudv": {"theta": theta, "terms": t}} for t in row] for row in terms]
        return {"rank": self.rank, "entries": entries}


def _check_finite(coefficients) -> None:
    """The one overflow rule of a curvature: OverflowError unless every coefficient is a finite double."""
    if not all(map(isfinite, coefficients)):
        raise OverflowError("curvature overflows: F has a coefficient that is not a finite double")


def curvature_form(conn) -> MatrixForm:
    """d Theta + Theta ^ Theta of a connection (free module: e = 1), every entry built before it returns.

    For scalar matrices a, b it is [a, b] as complex rows, in the test reference element_loop's order (the
    element loop as first written; _element_entries agrees to rounding only): entry (i, j) is
    0j + d_0 + d_1 + ..., d_k = a_ik b_kj - b_ik a_kj, from 0j as that loop's first sum onto zero.
    Element entry (i, j) is built in _element_entries' order: sum_k tu_ik tv_kj minus sum_k tv_ik tu_kj,
    then delta_u(tv_ij) - delta_v(tu_ij) added last.  Only is_flat stops early.
    """
    if conn.scalars is not None:
        a, b = conn.scalars
        cols = tuple(zip(zip(*a), zip(*b)))
        rows = [
            [reduce(add, map(sub, map(mul, ar, bc), map(mul, br, ac)), 0j) for ac, bc in cols]
            for ar, br in zip(a, b)
        ]
        return MatrixForm(params=conn.params, rows=rows)
    entries = _element_entries(conn)
    return MatrixForm(zip(*[entries] * conn.rank))  # n entries at a time: the rows, all built here


def _element_entries(conn):
    """The TwoForm entries of an element connection's curvature_form, row-major, each built when reached.

    Entry (i, j): the kernel adds every pair of sum_k tu_ik tv_kj into one dict uv and every pair of
    sum_k tv_ik tu_kj into a second, vu, which is subtracted from uv once; each term c of
    delta_u(tv_ij) - delta_v(tu_ij) comes last, c + t onto a key t the products hold and c itself onto a
    new key (so its -0.0 parts reach the report).  Two dicts, not one: with Theta_v = Theta_u they hold
    the same bits, so every product term cancels exactly.
    """
    tu, tv, n = conn.theta_u, conn.theta_v, conn.rank
    for i in range(n):
        for j in range(n):
            uv, vu = {}, {}
            for k in range(n):
                _product(tu[i][k].terms, tv[k][j].terms, uv)
                _product(tv[i][k].terms, tu[k][j].terms, vu)
            terms = _merge(uv, vu, subtract=True)
            d = apply_derivation((1, 0), tv[i][j]) - apply_derivation((0, 1), tu[i][j])
            for key, c in d.terms.items():
                s = c + terms[key] if key in terms else c  # c is nonzero: only a sum can be zero
                if s:
                    terms[key] = s
                else:
                    del terms[key]
            yield TwoForm(TorusElement._wrap(conn.params, terms))
