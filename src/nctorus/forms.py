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
the commutator of two complex matrices, accumulated over Python complex
scalars in the same order as the element loop, so both paths give
bit-identical coefficients.  numpy is not used for it: its vectorized
complex multiply may fuse multiply-adds, which changes the last bit of some
products and so the printed reports.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import TorusElement, apply_derivation, r15, total, zero


@dataclass(frozen=True)
class TwoForm:
    dudv: TorusElement


class MatrixForm:
    """Square matrix of TwoForm entries (row-major), all over one TorusParams."""

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
        """Entries in TorusElement.to_dict's layout, every float rounded once by r15 (theta once)."""
        theta = r15(self.entries[0][0].dudv.params.theta)

        def terms(x: TorusElement) -> list:
            items = sorted(x.terms.items())
            return [{"m": m, "n": n, "re": r15(c.real), "im": r15(c.imag), "lk": k} for (m, n, k), c in items]

        entries = [[{"dudv": {"theta": theta, "terms": terms(e.dudv)}} for e in row] for row in self.entries]
        return {"rank": self.rank, "entries": entries}


def curvature_form(conn) -> MatrixForm:
    """d Theta + Theta ^ Theta of a connection (free module: e = 1)."""
    if conn.scalars is not None:
        return _constant_curvature(conn.params, *conn.scalars)
    tu, tv, n = conn.theta_u, conn.theta_v, conn.rank
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            products = (tu[i][k] * tv[k][j] - tv[i][k] * tu[k][j] for k in range(n))
            acc = total(zero(conn.params), products)
            d = apply_derivation((1, 0), tv[i][j]) - apply_derivation((0, 1), tu[i][j])
            row.append(TwoForm(d + acc))
        out.append(row)
    return MatrixForm(out)


def _constant_curvature(params, a, b) -> MatrixForm:
    """[Theta_u, Theta_v] of scalar matrices a, b, in the element loop's order."""
    a_cols, b_cols = tuple(zip(*a)), tuple(zip(*b))
    out = []
    for a_row, b_row in zip(a, b):
        row = []
        for a_col, b_col in zip(a_cols, b_cols):
            # from 0j, as the element loop's first sum onto zero: a -0.0 part turns to 0.0
            acc = 0j
            for a_ik, b_kj, b_ik, a_kj in zip(a_row, b_col, b_row, a_col):
                acc = acc + (a_ik * b_kj - b_ik * a_kj)
            row.append(TwoForm(TorusElement._wrap(params, {(0, 0, 0): acc} if acc else {})))
        out.append(row)
    return MatrixForm(out)
