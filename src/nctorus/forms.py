"""Differential calculus over the torus algebra: 0-, 1- and 2-forms.

The basis 1-forms du, dv are central (they commute with every algebra
element) and anticommute with each other; du pairs to 1 against the weight
(1,0) derivation and dv against (0,1).  A OneForm stores the components of
a_u du + a_v dv, a TwoForm the single component of a du^dv.  MatrixForm
holds square matrices of either and is used for connection forms and their
curvatures.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import TorusElement, Weight, apply_derivation, zero
from .errors import RankMismatch

D_U: Weight = (1, 0)
D_V: Weight = (0, 1)


@dataclass(frozen=True)
class OneForm:
    du: TorusElement
    dv: TorusElement

    def __post_init__(self):
        self.du._check_params(self.dv)

    @property
    def params(self):
        return self.du.params

    def __add__(self, other: "OneForm") -> "OneForm":
        return OneForm(self.du + other.du, self.dv + other.dv)

    def __sub__(self, other: "OneForm") -> "OneForm":
        return OneForm(self.du - other.du, self.dv - other.dv)

    def __mul__(self, scalar) -> "OneForm":
        return OneForm(self.du * scalar, self.dv * scalar)

    __rmul__ = __mul__

    def contract(self, weight: Weight) -> TorusElement:
        """Pair against the derivation of the given weight: alpha a_u + beta a_v."""
        alpha, beta = weight
        return alpha * self.du + beta * self.dv


@dataclass(frozen=True)
class TwoForm:
    dudv: TorusElement

    @property
    def params(self):
        return self.dudv.params

    def __add__(self, other: "TwoForm") -> "TwoForm":
        return TwoForm(self.dudv + other.dudv)

    def __sub__(self, other: "TwoForm") -> "TwoForm":
        return TwoForm(self.dudv - other.dudv)

    def __mul__(self, scalar) -> "TwoForm":
        return TwoForm(self.dudv * scalar)

    __rmul__ = __mul__

    def to_dict(self) -> dict:
        return {"dudv": self.dudv.to_dict()}


def d0(a: TorusElement) -> OneForm:
    """Exterior derivative of a 0-form: delta_u(a) du + delta_v(a) dv."""
    return OneForm(apply_derivation(D_U, a), apply_derivation(D_V, a))


def d1(w: OneForm) -> TwoForm:
    """Exterior derivative of a 1-form: (delta_u(a_v) - delta_v(a_u)) du^dv."""
    return TwoForm(apply_derivation(D_U, w.dv) - apply_derivation(D_V, w.du))


def wedge(w1: OneForm, w2: OneForm) -> TwoForm:
    """(a_u b_v - a_v b_u) du^dv; w1 coefficients multiply from the left."""
    return TwoForm(w1.du * w2.dv - w1.dv * w2.du)


class MatrixForm:
    """Square matrix of OneForm or TwoForm entries (row-major)."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        rows = tuple(tuple(row) for row in entries)
        if any(len(row) != len(rows) for row in rows):
            raise RankMismatch("matrix form must be square")
        self.entries = rows

    @property
    def rank(self) -> int:
        return len(self.entries)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __add__(self, other: "MatrixForm") -> "MatrixForm":
        if self.rank != other.rank:
            raise RankMismatch(f"rank {self.rank} vs {other.rank}")
        return MatrixForm(
            [
                [a + b for a, b in zip(row_a, row_b)]
                for row_a, row_b in zip(self.entries, other.entries)
            ]
        )

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "entries": [[e.to_dict() for e in row] for row in self.entries],
        }


def matrix_d1(theta: MatrixForm) -> MatrixForm:
    """Entrywise exterior derivative of a matrix of 1-forms."""
    return MatrixForm([[d1(e) for e in row] for row in theta.entries])


def matrix_wedge(a: MatrixForm, b: MatrixForm) -> MatrixForm:
    """Wedge with matrix multiplication: (a ^ b)_ij = sum_k a_ik ^ b_kj."""
    if a.rank != b.rank:
        raise RankMismatch(f"rank {a.rank} vs {b.rank}")
    n = a.rank
    some = a.entries[0][0]
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = TwoForm(zero(some.params))
            for k in range(n):
                acc = acc + wedge(a.entries[i][k], b.entries[k][j])
            row.append(acc)
        out.append(row)
    return MatrixForm(out)
