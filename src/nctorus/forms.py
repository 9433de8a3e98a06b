"""Curvature of a connection as a matrix of du^dv 2-forms.

The basis 1-forms du, dv are central and anticommute, so a connection
Theta = Theta_u du + Theta_v dv on a free module has curvature
d Theta + Theta ^ Theta = F du^dv with

    F = delta_u(Theta_v) - delta_v(Theta_u) + Theta_u Theta_v - Theta_v Theta_u,

the products taken as matrix products of algebra elements.  A TwoForm holds
the single component F_ij of one entry; MatrixForm holds the square matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import TorusElement, Weight, apply_derivation, zero

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

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "entries": [[e.to_dict() for e in row] for row in self.entries],
        }


def curvature_form(conn) -> MatrixForm:
    """d Theta + Theta ^ Theta of a connection (free module: e = 1)."""
    tu, tv, n = conn.theta_u, conn.theta_v, conn.rank
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = zero(conn.params)
            for k in range(n):
                acc = acc + (tu[i][k] * tv[k][j] - tv[i][k] * tu[k][j])
            d = apply_derivation(D_U, tv[i][j]) - apply_derivation(D_V, tu[i][j])
            row.append(TwoForm(d + acc))
        out.append(row)
    return MatrixForm(out)
