"""Shared fixtures, random-element helpers and an independent product oracle."""

from __future__ import annotations

import cmath
import math
import random
import struct

import pytest

from nctorus.algebra import (
    CERTIFY_TOL,
    EQ_TOL,
    TorusElement,
    TorusParams,
    Weight,
    _check_params,
    _merge,
    _worst,
    apply_auto,
    apply_derivation,
    distance,
    one,
    turn,
    zero,
)
from nctorus.connections import Connection, _nabla, transport
from nctorus.coverings import PathIndependenceReport, classify_path
from nctorus.errors import PathNotAssociated, RankMismatch
from nctorus.reports import TransportAxiomReport

THETA = 0.3819660113
ALT_THETA = 0.7182818285


@pytest.fixture
def params():
    return TorusParams(THETA)


@pytest.fixture
def rng():
    return random.Random(20260808)


def assert_close(a: TorusElement, b: TorusElement, tol: float = 1e-12):
    d = distance(a, b)
    assert d <= tol, f"element distance {d} > {tol}\n  a={a!r}\n  b={b!r}"


def deck_elements(spec) -> list:
    """Every element of the deck group Z_{k1} x Z_{k2} of a covering, a-major."""
    k1, k2 = spec.degrees
    return [spec.deck(a, b) for a in range(k1) for b in range(k2)]


def exact_form_dict(form) -> dict:
    """A MatrixForm in its report layout, each entry by the exact TorusElement.to_dict."""
    return {"rank": form.rank, "entries": [[{"dudv": e.dudv.to_dict()} for e in row] for row in form.entries]}


# -- the paper's two model connections, nabla and the first transport -------


def scalar_connection(params: TorusParams, c_u: float, c_v: float) -> Connection:
    """Rank-1 connection with antihermitian form i(c_u du + c_v dv)."""
    return Connection(params, [[1j * c_u]], [[1j * c_v]])


def rotation_block_connection(params: TorusParams, c_u: float, c_v: float) -> Connection:
    """Rank-4 flat connection rotating (e1,e2) in du and (e3,e4) in dv."""
    theta_u = [
        [0, -c_u, 0, 0],
        [c_u, 0, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
    ]
    theta_v = [
        [0, 0, 0, 0],
        [0, 0, 0, 0],
        [0, 0, 0, -c_v],
        [0, 0, c_v, 0],
    ]
    return Connection(params, theta_u, theta_v)


#: small integers, signed zeros beside them, a subnormal and overflowing parts: products that
#: cancel to exact or signed zeros, underflow, and overflow to inf (and inf - inf to NaN)
EDGE_COEFFICIENTS = (1, -2, 0.5j, complex(-0.0, 1), complex(1, -0.0), complex(-1, -0.0), 5e-324, 1e200, -1e200j)


def element_connection(params, rng, rank: int, same: bool = False, coefficients=EDGE_COEFFICIENTS) -> Connection:
    """A rank-n connection of random elements: |m|, |n| <= 1, lambda powers |k| <= 2, the given coefficients.

    Keys collide often, so sums cancel; ``same`` takes Theta_v = Theta_u, whose products cancel exactly.
    Entry (0, 0) of Theta_u holds u v^2 besides, so the connection never takes the scalar path.
    """

    def entry():
        keys = [(rng.randint(-1, 1), rng.randint(-1, 1), rng.randint(-2, 2)) for _ in range(rng.randint(0, 3))]
        return TorusElement(params, {key: rng.choice(coefficients) for key in keys})

    theta_u = [[entry() for _ in range(rank)] for _ in range(rank)]
    theta_u[0][0] = theta_u[0][0] + TorusElement(params, {(1, 2, 0): 1})
    theta_v = theta_u if same else [[entry() for _ in range(rank)] for _ in range(rank)]
    return Connection(params, theta_u, theta_v)


def antihermitian_connection(params: TorusParams, rank: int, seed: int) -> Connection:
    """A constant antihermitian connection with Theta_v = 0.3 Theta_u, as the symbolic workload draws them."""
    import numpy as np

    gen = random.Random(seed)
    h = np.array([[complex(gen.uniform(-1, 1), gen.uniform(-1, 1)) for _ in range(rank)] for _ in range(rank)])
    a = (0.5j * (h + h.conj().T)).tolist()
    return Connection(params, a, (0.3 * np.array(a)).tolist())


def nabla(conn: Connection, weight: Weight, xi) -> list[TorusElement]:
    """delta_X(xi) + (alpha Theta_u + beta Theta_v) xi on a column vector."""
    xi = list(xi)
    if len(xi) != conn.rank:
        raise RankMismatch(f"vector length {len(xi)} != rank {conn.rank}")
    return _nabla(conn.weight_matrix(weight), weight, xi)


def total(first: TorusElement, rest) -> TorusElement:
    """first + rest[0] + rest[1] + ..., summed left to right in one dict."""
    terms = dict(first.terms)
    for x in rest:
        _check_params(first.params, x.params)
        _merge(terms, x.terms)
    return TorusElement._wrap(first.params, terms)


def add_products(terms: dict, x: dict, y: dict) -> dict:
    """terms + x * y in place, each pair's a * b added to its key as it is made, in (x, y) loop order.

    Written out from the monomial rule (u^m v^n)(u^p v^q) = lambda^{-np} u^{m+p} v^{n+q}; a sum that
    reaches zero drops its key.
    """
    for (m, n, k), a in x.items():
        for (p, q, l), b in y.items():
            key = (m + p, n + q, k + l - n * p)
            s = terms.get(key, 0j) + a * b
            if s == 0:
                terms.pop(key, None)
            else:
                terms[key] = s
    return terms


def reference_nabla(theta, weight: Weight, xi) -> list[TorusElement]:
    """_nabla's order as a plain loop: per row, delta_X(xi_i)'s terms, then every pair of theta_ij xi_j."""
    out = []
    for row, x in zip(theta, xi):
        terms = dict(apply_derivation(weight, x).terms)
        for t, y in zip(row, xi):
            _check_params(t.params, y.params)
            add_products(terms, t.terms, y.terms)
        out.append(TorusElement._wrap(x.params, terms))
    return out


def reference_commutator(conn: Connection, X: Weight, Y: Weight):
    """curvature_commutator as first written, over reference_nabla."""
    n = conn.rank
    tx, ty = conn.weight_matrix(X), conn.weight_matrix(Y)
    columns = []
    for j in range(n):
        basis = [one(conn.params) if i == j else zero(conn.params) for i in range(n)]
        xy = reference_nabla(tx, X, reference_nabla(ty, Y, basis))
        yx = reference_nabla(ty, Y, reference_nabla(tx, X, basis))
        columns.append([a - b for a, b in zip(xy, yx)])
    return tuple(tuple(columns[j][i] for j in range(n)) for i in range(n))


def reference_curvature(conn: Connection) -> list:
    """curvature_form's element entries as a plain loop, row-major: per entry, the pairs of
    sum_k tu_ik tv_kj in one dict and of sum_k tv_ik tu_kj in another, their difference key by key,
    then each term c of delta_u(tv_ij) - delta_v(tu_ij): c + t on a key t the products hold, else c."""
    tu, tv, n = conn.theta_u, conn.theta_v, conn.rank
    entries = []
    for i in range(n):
        row = []
        for j in range(n):
            uv, vu = {}, {}
            for k in range(n):
                add_products(uv, tu[i][k].terms, tv[k][j].terms)
                add_products(vu, tv[i][k].terms, tu[k][j].terms)
            for key, c in vu.items():
                s = uv.get(key, 0j) - c
                if s == 0:
                    uv.pop(key, None)
                else:
                    uv[key] = s
            d = apply_derivation((1, 0), tv[i][j]) - apply_derivation((0, 1), tu[i][j])
            for key, c in d.terms.items():
                if key not in uv:
                    uv[key] = c
                elif c + uv[key] == 0:
                    del uv[key]
                else:
                    uv[key] = c + uv[key]
            row.append(TorusElement._wrap(conn.params, uv))
        entries.append(row)
    return entries


def element_bits(e: TorusElement) -> list:
    """Each term's key and the struct bytes of its coefficient, in key order: -0.0 and NaN payloads show."""
    return [(key, struct.pack("<2d", c.real, c.imag)) for key, c in e.terms.items()]


def reference_weight_matrix(conn: Connection, weight: Weight) -> list:
    """Connection.weight_matrix as first written: alpha * a + beta * b, per entry, over TorusElement."""
    alpha, beta = weight
    return [[alpha * a + beta * b for a, b in zip(ru, rv)] for ru, rv in zip(conn.theta_u, conn.theta_v)]


def reference_random_element(rng, params: TorusParams, max_terms: int = 4, max_exp: int = 3) -> TorusElement:
    """random_element as first written, with randint and a draw per line."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        key = (
            rng.randint(-max_exp, max_exp),
            rng.randint(-max_exp, max_exp),
            rng.randint(-2, 2),
        )
        terms[key] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return TorusElement(params, terms)


def vector_distance(xs, ys) -> float:
    """The largest distance between the paired entries of two element vectors of one length, _worst's rule."""
    xs, ys = list(xs), list(ys)
    assert len(xs) == len(ys), "vectors of different length"
    return _worst(distance(x, y) for x, y in zip(xs, ys))


def reference_transport_axioms(conn: Connection, weight: Weight, samples: int, seed: int):
    """check_transport_axioms as first written: one loop over the samples, drawing each as it goes, and one
    transport per time."""
    rng = random.Random(seed)
    module, identity, group = [], [], []
    phi_0 = transport(conn, weight, 0.0) if samples > 0 else None
    for _ in range(samples):
        s = [reference_random_element(rng, conn.params, max_terms=3) for _ in range(conn.rank)]
        a = reference_random_element(rng, conn.params, max_terms=3)
        tau = rng.uniform(-1.5, 1.5)
        sigma = rng.uniform(-1.5, 1.5)

        phi_tau = transport(conn, weight, tau)
        lhs = phi_tau.apply([x * a for x in s])
        rhs = [x * apply_auto(weight, tau, a) for x in phi_tau.apply(s)]
        module.append(vector_distance(lhs, rhs))

        identity.append(vector_distance(phi_0.apply(s), s))

        both = transport(conn, weight, tau + sigma).apply(s)
        composed = phi_tau.apply(transport(conn, weight, sigma).apply(s))
        group.append(vector_distance(both, composed))
    return TransportAxiomReport(samples, _worst(module), _worst(identity), _worst(group))


def reference_path_independence(spec, g, conn: Connection, weights) -> PathIndependenceReport:
    """check_path_independence as first written: each weight classified in order, then one transport per
    weight and Python's largest entrywise |M_i - M_j| over the pairs."""
    checked = []
    for w in weights:
        report = classify_path(spec, w)
        if not report.is_closed or report.associated != g:
            raise PathNotAssociated(f"weight {report.weight} is not a closed path associated with ({g.a},{g.b})")
        checked.append(report.weight)
    mats = [transport(conn, w, 1.0).matrix for w in checked]
    max_distance = 0.0
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            for row_i, row_j in zip(mats[i], mats[j]):
                for x, y in zip(row_i, row_j):
                    max_distance = max(max_distance, abs(x - y))
    return PathIndependenceReport(g, tuple(checked), max_distance, certified=max_distance < CERTIFY_TOL)


def reference_apply(op, xs) -> list[TorusElement]:
    """TransportOperator.apply as first written: per row, total over the elements x_j * complex(M[i][j])."""
    twisted = [apply_auto(op.weight, op.tau, x) for x in xs]
    out = []
    for row in op.matrix:
        scaled = [x * complex(c) for x, c in zip(twisted, row)]
        out.append(total(scaled[0], scaled[1:]))
    return out


# -- clock-and-shift representation ------------------------------------------------
#
# At a dyadic theta = p/q the algebra has the q-dimensional *-representation u -> U = diag(omega^j),
# v -> V the cyclic shift V e_j = e_{j+1}, omega = e^{2 pi i p/q}: U V = omega V U, the relation
# u v = lambda v u (Rieffel, Pacific J. Math. 93, 1981).  Products become q x q matrix products that
# share no code with nctorus.algebra.  Derivations have no finite-dimensional representation:
# [X, U] = c U with U^q = 1 forces c = 0, so curvature's derivation terms keep their own oracles.


def clock_shift(e: TorusElement):
    """The q x q matrix of e: entry (r, r - n mod q) of lambda^k u^m v^n is omega^{k + r m}, one rounding.

    (U^m V^n) e_c = omega^{m (c + n)} e_{c + n}; the exponent (k + r m) p is reduced mod q in integers.
    """
    import numpy as np

    p, q = e.params.theta.as_integer_ratio()
    out = np.zeros((q, q), dtype=complex)
    for (m, n, k), c in e.terms.items():
        for r in range(q):
            out[r, (r - n) % q] += c * cmath.exp(2j * math.pi * ((k + r * m) * p % q) / q)
    return out


def l1(e: TorusElement) -> float:
    """The sum of |c| over e's terms, which bounds every entry of clock_shift(e)."""
    return sum(map(abs, e.terms.values()))


# -- element matrices: product, adjoint and derivation, for the gauge oracle ----
#
# Plain sums and products of TorusElement, sharing no code with nctorus.forms or _nabla.


def matrix_product(a, b) -> list:
    """(ab)_ij = a_i0 b_0j + a_i1 b_1j + ..., summed from zero over TorusElement."""
    start = zero(a[0][0].params)
    return [[sum((x * b[k][j] for k, x in enumerate(row)), start) for j in range(len(b[0]))] for row in a]


def adjoint(a) -> list:
    """(a*)_ij = star(a_ji)."""
    return [[a[j][i].star() for j in range(len(a))] for i in range(len(a[0]))]


def matrix_delta(weight: Weight, a) -> list:
    """delta_X of every entry: u^m v^n -> 2 pi i (alpha m + beta n) u^m v^n."""
    return [[apply_derivation(weight, e) for e in row] for row in a]


def matrix_l1(a) -> float:
    """The sum of l1 over a matrix's entries."""
    return sum(l1(e) for row in a for e in row)


# -- term-dict references for the infinite cover ------------------------------
#
# Each writes a term dict {(a, b): c} from the definitions, as a list of (a, b, c)
# triples merged once; nothing here calls nctorus.infinitecover.


def reference_merge(triples) -> dict:
    """The sum of (a, b, c) triples: each stored as get(key, 0j) + c, zero sums dropped."""
    merged = {}
    for a, b, c in triples:
        key = (a, b)
        s = merged.get(key, 0j) + c
        if s == 0:
            merged.pop(key, None)
        else:
            merged[key] = s
    return merged


def reference_leg_sums(freq: float, leg: str) -> tuple[dict, dict]:
    """cos(freq x) = (e^{i freq x} + e^{-i freq x}) / 2 and sin(freq x) on leg "u" or "v"."""
    plus, minus = ((freq, 0.0), (-freq, 0.0)) if leg == "u" else ((0.0, freq), (0.0, -freq))
    return reference_merge([(*plus, 0.5), (*minus, 0.5)]), reference_merge([(*plus, -0.5j), (*minus, 0.5j)])


def reference_neg(x: dict) -> dict:
    """-x: each coefficient negated."""
    return reference_merge((a, b, -c) for (a, b), c in x.items())


def reference_star(x: dict) -> dict:
    """x^* for one-leg terms: conj(c) at the opposite frequencies."""
    return reference_merge((-a, -b, c.conjugate()) for (a, b), c in x.items())


def reference_constant(x: dict) -> complex:
    """The coefficient of the trivial character; any other term above EQ_TOL means the model is wrong."""
    for key, c in x.items():
        if key != (0, 0) and abs(c) > EQ_TOL:
            raise AssertionError(f"non-constant character of weight {abs(c)} survives")
    return 0j + x.get((0, 0), 0j)


def reference_product(x: dict, y: dict) -> dict:
    """x * y as the list of product triples, then one merge; v-leg times u-leg leaves the model and fails."""
    out = []
    for (a1, b1), c1 in x.items():
        for (a2, b2), c2 in y.items():
            if b1 != 0 and a2 != 0:
                raise AssertionError("v-leg times u-leg needs the unmodeled leg commutation")
            out.append((a1 + a2, b2, c1 * c2) if b1 == 0 else (a1, b1 + b2, c1 * c2))
    return reference_merge(out)


def reference_deck(x: dict, p: int, q: int) -> dict:
    """x deck-acted by (p, q): one turn per term, zero sums dropped."""
    out = {}
    for key, c in x.items():
        for frequency in key:
            if not math.isfinite(frequency):
                raise ValueError(f"character frequency {frequency} is not finite")
        (na, da), (nb, db) = key[0].as_integer_ratio(), key[1].as_integer_ratio()
        s = 0j + turn(c, p * na * db + q * nb * da, da * db)
        if s != 0:
            out[key] = s
    return out


def reference_add_product(acc: dict, x: dict, y: dict) -> dict:
    """acc + x * y: acc's triples, then the merged product's, in one merge."""
    product = reference_product(x, y)
    return reference_merge([(a, b, c) for terms in (acc, product) for (a, b), c in terms.items()])


def dense_matrix_wilson_relation(p: int, q: int, c_u: float, c_v: float):
    """(deck(p,q) . U) U^* by the full 4x4 product over every entry of the cos/sin block gauge field U,
    zero blocks included."""
    import numpy as np

    (cu, su), (cv, sv) = reference_leg_sums(c_u, "u"), reference_leg_sums(c_v, "v")
    z = {}
    gauge = [
        [cu, reference_neg(su), z, z],
        [su, cu, z, z],
        [z, z, cv, reference_neg(sv)],
        [z, z, sv, cv],
    ]
    n = len(gauge)
    shifted = [[reference_deck(entry, p, q) for entry in row] for row in gauge]
    adjoint = [[reference_star(gauge[j][i]) for j in range(n)] for i in range(n)]
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            acc = {}
            for k in range(n):
                acc = reference_add_product(acc, shifted[i][k], adjoint[k][j])
            out[i, j] = reference_constant(acc)
    return out


# -- brute-force normal-ordering oracle ------------------------------------
#
# The only axiom used is u v = lambda v u, applied one letter at a time:
# swapping adjacent v^e / u^f letters costs lambda^{-e f}.  Independent of
# the closed-form monomial rule in nctorus.algebra.


def _letters(m: int, n: int) -> list[tuple[str, int]]:
    word = []
    word += [("u", 1 if m > 0 else -1)] * abs(m)
    word += [("v", 1 if n > 0 else -1)] * abs(n)
    return word


def oracle_monomial_product(m, n, p, q) -> tuple[int, int, int]:
    """Normal-order (u^m v^n)(u^p v^q) by bubble sort; return (M, N, lam_exp)."""
    word = _letters(m, n) + _letters(p, q)
    lam_exp = 0
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            (g1, e1), (g2, e2) = word[i], word[i + 1]
            if g1 == "v" and g2 == "u":
                lam_exp += -e1 * e2
                word[i], word[i + 1] = word[i + 1], word[i]
                changed = True
    total_u = sum(e for g, e in word if g == "u")
    total_v = sum(e for g, e in word if g == "v")
    return (total_u, total_v, lam_exp)


def oracle_monomial_star(m, n) -> tuple[int, int, int]:
    """(u^m v^n)* = v^{-n} u^{-m}, normal-ordered by the same bubble sort."""
    return oracle_monomial_product(0, -n, -m, 0)
