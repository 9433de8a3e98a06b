"""Connections on free modules over the torus algebra.

A connection of rank n is given by two n x n coefficient matrices Theta_u,
Theta_v of algebra elements; for a weight X = (alpha, beta) the covariant
derivative acts on column vectors as

    nabla_X(xi) = delta_X(xi) + (alpha Theta_u + beta Theta_v) xi.

Curvature is computed two independent ways: as the matrix 2-form
d Theta + Theta ^ Theta, and as the commutator of covariant derivatives on
the standard basis.  Parallel transport along the weight-X flow is
Phi_tau = exp(2 pi tau Theta_X) o phi_tau; the 2 pi normalization is fixed
here so that holonomies of closed unit-time paths come out as
exp(2 pi i c)-type values.  So transport is the parallel transport of
delta + 2 pi Theta, whose curvature for constant coefficients is 4 pi^2
times the one ``curvature_form`` reports.  Transport requires constant
coefficients (each Theta entry a complex multiple of 1), where the
path-ordered exponential collapses to a dense matrix exponential, ``expm``.

Every transport comes from one ``_transports`` call, one ``expm`` call on the
stack of its paths.  The transport-axiom check runs on term dicts from each
draw to its residual and imports ``random`` and its report's module when first
called, so nothing else here loads ``dataclasses``.
"""

from __future__ import annotations

import cmath
import sys
from typing import TYPE_CHECKING

import nctorus as _lib  # reports is read at call time, so only the axiom check loads dataclasses

from .algebra import (
    TWO_PI, TorusElement, TorusParams, Weight, _check_params, _distance, _merge, _negligible, _product,
    _random_terms, _scale, _twist, _worst, apply_derivation, integral, mono, one, r15, real, zero,
)
from .errors import NonConstantConnection, ParamMismatch, RankMismatch
from .forms import _check_finite, _element_entries, curvature_form

if TYPE_CHECKING:
    from .reports import TransportAxiomReport

_TOP = sys.float_info.max  # the largest finite double


def _coerce_entry(entry, params: TorusParams) -> TorusElement:
    if isinstance(entry, TorusElement):
        if entry.params != params:
            raise ParamMismatch("connection entry over a different theta")
        # over the connection's own params, so products share one lambda memo
        return TorusElement._wrap(params, entry.terms)
    return mono(0, 0, entry, params)


def _scalar_coefficient(e: TorusElement) -> complex:
    """The folded coefficient of 1, from one fold; raises unless every other folded coefficient is negligible."""
    folded = e.folded()
    constant = folded.pop((0, 0), 0j)
    if not _negligible(folded.values()):
        raise NonConstantConnection("transport needs every Theta entry to be a complex multiple of 1")
    return constant


class Connection:
    """Rank-n connection with coefficient matrices Theta_u, Theta_v.

    Each matrix is a sequence of rows, whose entries may be TorusElement or
    plain complex scalars (multiples of 1), decided once to be exact
    multiples or not (``scalars``).  Without a TorusElement entry the
    connection holds complex rows only, read in one pass, and the element
    matrices theta_u, theta_v are built on first access.
    """

    __slots__ = ("params", "rank", "_entries", "_theta", "_scalars")

    def __init__(self, params: TorusParams, theta_u, theta_v):
        self.params, self._theta = params, None
        try:  # plain numbers: complex rows, the elements are built from them on first access
            self._entries = mats = [[[complex(e) for e in row] for row in mat] for mat in (theta_u, theta_v)]
        except (TypeError, ValueError, OverflowError):  # an element or a bad entry: checked below, in order
            self._entries, mats = [[list(row) for row in mat] for mat in (theta_u, theta_v)], None
        self.rank = n = len(self._entries[0])
        if n == 0:
            raise RankMismatch("a connection needs rank at least 1")
        if any(len(mat) != n or any(len(row) != n for row in mat) for mat in self._entries):
            raise RankMismatch("Theta_u, Theta_v must be square of equal rank")
        if mats is None and all(e.terms.keys() <= {(0, 0, 0)} for m in self._elements() for r in m for e in r):
            mats = [[[e.terms.get((0, 0, 0), 0j) for e in row] for row in m] for m in self._theta]
        # each coefficient as 0j + c, the value a fold gives
        self._scalars = mats and tuple(tuple(tuple([0j + c for c in row]) for row in m) for m in mats)

    @property
    def scalars(self):
        """(Theta_u, Theta_v) as tuples of complex rows if every entry is an exact multiple of 1, else None."""
        return self._scalars

    @property
    def theta_u(self) -> tuple[tuple[TorusElement, ...], ...]:
        return self._elements()[0]

    @property
    def theta_v(self) -> tuple[tuple[TorusElement, ...], ...]:
        return self._elements()[1]

    def _elements(self):
        """The element matrices, built once from the entries (a zero or -0.0 number is the zero element)."""
        if self._theta is None:
            self._theta = tuple(
                tuple(tuple(_coerce_entry(e, self.params) for e in row) for row in mat) for mat in self._entries
            )
        return self._theta

    def weight_matrix(self, weight: Weight) -> tuple[tuple[TorusElement, ...], ...]:
        """alpha Theta_u + beta Theta_v as a matrix of algebra elements: alpha * a + beta * b on term dicts."""
        alpha, beta = weight
        return tuple(
            tuple(TorusElement._wrap(self.params, _merge(_scale(a.terms, alpha), _scale(b.terms, beta))) for a, b in r)
            for r in map(zip, self.theta_u, self.theta_v)
        )

    def _coefficients(self):
        """(Theta_u, Theta_v) as complex rows: ``scalars``, else each entry's folded coefficient of 1."""
        return self._scalars or tuple(
            tuple(tuple(map(_scalar_coefficient, row)) for row in mat) for mat in self._elements()
        )

    @classmethod
    def from_dict(cls, data: dict, params: TorusParams) -> "Connection":
        def parse_entry(raw):
            """An element payload, a finite real number or an [re, im] pair of them."""
            if isinstance(raw, dict):
                return TorusElement.from_dict(raw)
            if isinstance(raw, (list, tuple)) and len(raw) == 2:
                return complex(real(raw[0], "entry re"), real(raw[1], "entry im"))
            return complex(real(raw, "connection entry"))

        def parse_row(row):
            """A list of [re, im] pairs of finite floats, as JSON gives them, in one pass; else by entry."""
            if type(row) is list:
                pairs = [
                    complex(re, im)
                    for e in row
                    if type(e) is list and len(e) == 2
                    for re, im in (e,)
                    if type(re) is float and type(im) is float and -_TOP <= re <= _TOP and -_TOP <= im <= _TOP
                ]
                if len(pairs) == len(row):
                    return pairs
            return [parse_entry(e) for e in row]  # in order, so the first bad entry names the error

        mats = ([parse_row(row) for row in data[key]] for key in ("theta_u", "theta_v"))
        conn = cls(params, *mats)
        if conn.rank != integral(data["rank"], "rank"):
            raise RankMismatch(f"declared rank {data['rank']} != matrix rank {conn.rank}")
        return conn


# -- covariant derivative and curvature -------------------------------------


def _nabla(theta, weight: Weight, xi: list[TorusElement]) -> list[TorusElement]:
    """nabla_X(xi) from the weight matrix theta = alpha Theta_u + beta Theta_v, each entry one dict:
    delta_X(xi_i)'s terms, into which the kernel adds every pair of theta_ij xi_j, column by column in
    its loop order; an xi_j with no terms adds nothing and is skipped.  Each xi_j shares theta's params."""
    for y in xi:
        _check_params(theta[0][0].params, y.params)
    out = []
    for row, x in zip(theta, xi):
        terms = apply_derivation(weight, x).terms  # a fresh dict
        for t, y in zip(row, xi):
            if y.terms:
                _product(t.terms, y.terms, terms)
        out.append(TorusElement._wrap(x.params, terms))
    return out


def curvature_commutator(conn: Connection, X: Weight, Y: Weight):
    """Matrix of nabla_X nabla_Y - nabla_Y nabla_X on the standard basis.

    Torus weights commute, so the nabla_[X,Y] term is identically zero.
    """
    n = conn.rank
    tx, ty = conn.weight_matrix(X), conn.weight_matrix(Y)
    columns = []
    for j in range(n):
        basis = [one(conn.params) if i == j else zero(conn.params) for i in range(n)]
        xy = _nabla(tx, X, _nabla(ty, Y, basis))
        yx = _nabla(ty, Y, _nabla(tx, X, basis))
        columns.append([a - b for a, b in zip(xy, yx)])
    return tuple(tuple(columns[j][i] for j in range(n)) for i in range(n))


def is_flat(conn: Connection) -> bool:
    """True iff every curvature-form coefficient is negligible (``algebra._negligible``, within EQ_TOL of zero).

    The first entry that is not, in row-major order, decides alone: False if its coefficients are finite,
    else ``forms._check_finite``'s OverflowError.  Entries after it are not read, so where a later entry
    overflows is_flat is False while the curvature report raises.
    """
    if conn.scalars is not None:
        form = curvature_form(conn)
        if form.is_zero():
            return True
        curved = ((c,) for row in form._rows for c in row if not _negligible((c,)))
    else:
        curved = (e.dudv.terms.values() for e in _element_entries(conn) if not e.dudv.is_zero())
    for coefficients in curved:
        _check_finite(coefficients)
        return False
    return True


# -- parallel transport ------------------------------------------------------


class TransportOperator:
    """Phi_tau = s -> M . phi_tau(s), phi_tau applied entrywise; immutable, M held as complex rows (``matrix``)."""

    __slots__ = ("matrix", "rank", "weight", "tau")

    def __init__(self, matrix: tuple[tuple[complex, ...], ...], weight: Weight, tau: float):
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "rank", len(matrix))
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "tau", tau)

    def __setattr__(self, name, value):
        raise AttributeError("TransportOperator is immutable")

    def apply(self, xs) -> list[TorusElement]:
        """Entry i is sum_j M[i][j] phi_tau(x_j), accumulated in one dict by ``_apply``.

        The summation order is a contract, so that every coefficient keeps its
        bits: each x_j's terms are twisted once; the products t * M[i][0] of the
        first column's terms t go in first, in term order; each later column's
        are then added in column and term order, d[key] = d.get(key, 0j) + p.  A
        zero product is skipped and a sum that reaches zero drops its key.
        That is total(x_0 * M[i][0], [x_1 * M[i][1], ...]), key order included,
        the reference that tests/conftest.py keeps.  Every x_j must share x_0's
        theta (ParamMismatch).
        """
        xs = list(xs)
        if len(xs) != self.rank:
            raise RankMismatch(f"vector length {len(xs)} != rank {self.rank}")
        params = xs[0].params
        for x in xs[1:]:
            _check_params(params, x.params)
        return [TorusElement._wrap(params, terms) for terms in self._apply([x.terms for x in xs])]

    def _apply(self, xs: list[dict]) -> list[dict]:
        """apply on the term dicts of a vector of rank entries, unchecked: the term dicts of M . phi_tau(x)."""
        first, *rest = [_twist(self.weight, self.tau, x).items() for x in xs]
        out = []
        for c0, *row in self.matrix:
            terms = {key: p for key, t in first if (p := t * c0)}
            get = terms.get
            # the merge is algebra._merge inlined: a product dict per column made rank-4 apply a quarter slower
            for items, c in zip(rest, row):
                for key, t in items:
                    p = t * c
                    if p:
                        s = get(key, 0j) + p
                        if s:
                            terms[key] = s
                        else:
                            del terms[key]
            out.append(terms)
        return out

    def to_dict(self) -> dict:
        """Matrix entries as [re, im] pairs; rank 1 adds the scalar as "value".  Floats pass r15."""
        out = {
            "matrix": [[[r15(z.real), r15(z.imag)] for z in row] for row in self.matrix],
            "weight": [r15(self.weight[0]), r15(self.weight[1])],
            "tau": r15(self.tau),
        }
        if self.rank == 1:
            out["value"] = list(out["matrix"][0][0])
        return out


def expm(a):
    """The exponential of each matrix of a stack of k >= 1 (1 x 1 complex rows, or a (k, n, n) array), as row tuples.

    A 1 x 1 matrix is one cmath.exp, so rank 1 loads neither numpy nor scipy.  Larger ones go to
    scipy.linalg.expm (Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 2009), imported on first use, in one
    call that gives each slice the bits of its own.  A non-finite entry raises OverflowError.  numpy's
    warnings are the caller's: _transports ignores them around its fold and this call, in one ``np.errstate``.
    """
    if len(a[0]) == 1:
        rows = []
        for ((x,),) in a:
            try:
                z = cmath.exp(x)
            except (OverflowError, ValueError):  # cmath's range error, and its domain error at an infinite phase
                break
            if not cmath.isfinite(z):
                break
            rows.append(((z,),))
        else:
            return rows
    else:
        import numpy as np
        from scipy.linalg import expm as scipy_expm

        m = scipy_expm(a)
        # .all() is a numpy reduction, which also ends a state scipy's expm leaves on an AVX-512 Xeon: there
        # each cmath.exp after it (apply's twists) ran about 7x slower, and a test of isfinite's bytes kept it
        if np.isfinite(m).all():
            return [tuple(map(tuple, rows)) for rows in m.tolist()]
    raise OverflowError("transport overflows: exp(2 pi tau Theta_X) has an entry that is not a finite double")


def _transports(conn: Connection, paths) -> list[TransportOperator]:
    """The transport along each (weight, tau) of ``paths``, from one expm call; none without a path.

    Theta_u, Theta_v are read once; each exponent 2 pi tau (alpha Theta_u + beta Theta_v) keeps the
    bits of its own fold, in Python complex arithmetic at rank 1 and on one numpy stack above.
    """
    if not paths:
        return []
    theta_u, theta_v = conn._coefficients()
    if conn.rank == 1:
        ((cu,),), ((cv,),) = theta_u, theta_v
        mats = expm([((TWO_PI * tau * (alpha * cu + beta * cv),),) for (alpha, beta), tau in paths])
    else:
        import numpy as np

        # alpha, beta and 2 pi tau of each path, as (k, 1, 1) slices that broadcast over Theta
        c = np.array([(a, b, TWO_PI * t) for (a, b), t in paths], dtype=float).reshape(-1, 3, 1, 1)
        tu, tv = np.array(theta_u, dtype=complex), np.array(theta_v, dtype=complex)
        with np.errstate(all="ignore"):  # one block for fold and exponential: an overflow shows in M, which expm checks
            mats = expm(c[:, 2] * (c[:, 0] * tu + c[:, 1] * tv))
    return [TransportOperator(m, tuple(w), t) for m, (w, t) in zip(mats, paths)]


def transport(conn: Connection, weight: Weight, tau: float) -> TransportOperator:
    """Module parallel transport at time tau along the weight flow: the one path of ``_transports``.

    M = exp(2 pi tau (alpha Theta_u + beta Theta_v)).  Raises NonConstantConnection
    when Theta has non-scalar entries, OverflowError when M is not finite.
    """
    return _transports(conn, [(weight, tau)])[0]


def check_transport_axioms(conn: Connection, weight: Weight, samples: int = 100, seed: int = 0) -> TransportAxiomReport:
    """Exercise the transport axioms on random vectors, elements and times.

    Every sample is drawn first: its vector s (rank elements), then a, tau and sigma.  All
    3 samples + 1 transports then come from one _transports call, at times [0, tau_1,
    tau_1 + sigma_1, sigma_1, ...].  A residual that is NaN is the maximum.  samples must be an int >= 0.
    """
    import random  # on first call, as expm imports scipy

    if (samples := integral(samples, "samples")) < 0:
        raise ValueError(f"samples must be at least 0, got {samples}")
    rng, params, draws = random.Random(seed), conn.params, []
    for _ in range(samples):
        s = [_random_terms(rng, 3, 3) for _ in range(conn.rank)]
        draws.append((s, _random_terms(rng, 3, 3), rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)))
    times = [0.0, *(t for _, _, tau, sigma in draws for t in (tau, tau + sigma, sigma))]
    phi_0, *ops = _transports(conn, [(weight, t) for t in times]) if draws else [None]  # no sample, no transport

    def residual(xs: list[dict], ys: list[dict]) -> float:  # the worst distance of paired entries, on term dicts
        return _worst(_distance(params, x, y) for x, y in zip(xs, ys))

    module, identity, group = [], [], []
    for (s, a, tau, _), phi_tau, phi_both, phi_sigma in zip(draws, ops[::3], ops[1::3], ops[2::3]):
        lhs = phi_tau._apply([_product(x, a) for x in s])
        a_tau = _twist(weight, tau, a)
        rhs = [_product(x, a_tau) for x in phi_tau._apply(s)]
        module.append(residual(lhs, rhs))
        identity.append(residual(phi_0._apply(s), s))
        group.append(residual(phi_both._apply(s), phi_tau._apply(phi_sigma._apply(s))))
    return _lib.reports.TransportAxiomReport(samples, _worst(module), _worst(identity), _worst(group))
