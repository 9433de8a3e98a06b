"""Curvature of a connection as a matrix of du^dv 2-forms.

The basis 1-forms du, dv are central and anticommute, so a connection
Theta = Theta_u du + Theta_v dv on a free module has curvature
d Theta + Theta ^ Theta = F du^dv with

    F = delta_u(Theta_v) - delta_v(Theta_u) + Theta_u Theta_v - Theta_v Theta_u,

the products taken as matrix products of algebra elements.  A TwoForm holds
the single component F_ij of one entry; MatrixForm holds the square matrix.

When every entry is a plain multiple of 1 (no u, v or lambda powers) the
derivation terms vanish and F is the commutator of two complex matrices,
accumulated over Python complex scalars in the same order as the element
loop, so both paths give bit-identical coefficients.  numpy is not used for
it: its vectorized complex multiply may fuse multiply-adds, which changes
the last bit of some products and so the printed reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import TorusElement, Weight, apply_derivation, total, zero

D_U: Weight = (1, 0)
D_V: Weight = (0, 1)


@dataclass(frozen=True)
class TwoForm:
    dudv: TorusElement

    def to_dict(self) -> dict:
        return {"dudv": self.dudv.to_dict()}


class MatrixForm:
    """Square matrix of TwoForm entries (row-major)."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        self.entries = tuple(tuple(row) for row in entries)

    @property
    def rank(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        """True iff every folded coefficient of every entry is at most EQ_TOL."""
        return all(e.dudv.is_zero() for row in self.entries for e in row)

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "entries": [[e.to_dict() for e in row] for row in self.entries],
        }


_ONE = {(0, 0, 0)}


def _scalars(mat):
    """Coefficients of 1 as nested complex lists; None unless every entry is one."""
    if all(e.terms.keys() <= _ONE for row in mat for e in row):
        return [[e.terms.get((0, 0, 0), 0j) for e in row] for row in mat]
    return None


def curvature_form(conn) -> MatrixForm:
    """d Theta + Theta ^ Theta of a connection (free module: e = 1)."""
    tu, tv, n = conn.theta_u, conn.theta_v, conn.rank
    a, b = _scalars(tu), _scalars(tv)
    if a is not None and b is not None:
        return _constant_curvature(conn.params, a, b, n)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            products = (tu[i][k] * tv[k][j] - tv[i][k] * tu[k][j] for k in range(n))
            acc = total(zero(conn.params), products)
            d = apply_derivation(D_U, tv[i][j]) - apply_derivation(D_V, tu[i][j])
            row.append(TwoForm(d + acc))
        out.append(row)
    return MatrixForm(out)


def _constant_curvature(params, a, b, n: int) -> MatrixForm:
    """[Theta_u, Theta_v] of scalar matrices a, b, in the element loop's order."""
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            # from 0j, as the element loop's first sum onto zero: a -0.0 part turns to 0.0
            acc = 0j
            for k in range(n):
                acc = acc + (a[i][k] * b[k][j] - b[i][k] * a[k][j])
            row.append(TwoForm(TorusElement(params, {(0, 0, 0): acc})))
        out.append(row)
    return MatrixForm(out)
