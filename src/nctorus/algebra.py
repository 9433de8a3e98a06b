"""Exact arithmetic in the smooth noncommutative torus.

The algebra is generated by two unitaries u, v subject to

    u v = lambda v u,   lambda = exp(2 pi i theta).

Elements are finite sums of terms c * lambda**k * u**m * v**n, stored
sparsely as a map (m, n, k) -> c.  The lambda exponent k stays an exact
integer through all products and involutions; lambda**k is folded into the
complex coefficient only when comparing, printing or serializing.  theta is
a double and its irrationality is not checked: no implemented formula
depends on it.

Every stored coefficient is a nonzero complex.  The public constructor
enforces that; sums, products, negation and star are canonical by
construction and skip the check.  Sums accumulate in place through one
merge, which drops a key whose sum reaches zero.

All values are immutable and all operations are pure functions, so they are
safe to share across threads.  The per-TorusParams memo of lambda**k only
ever stores the value exact_phase computes, so concurrent fills agree.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import ParamMismatch

TWO_PI = 2.0 * math.pi

#: Per-coefficient tolerance for element equality and zero tests, and so for
#: flatness (folded coefficients), the scalar test of a transport entry and
#: the surviving characters of the infinite cover.
EQ_TOL = 1e-12

#: Largest transport difference at which path independence is "certified".
CERTIFY_TOL = 1e-10

#: A weight (alpha, beta) selects the one-parameter automorphism group that
#: scales u^m v^n by exp(2 pi i tau (alpha m + beta n)).  Integer weights
#: give loops; real weights are allowed for flows.
Weight = tuple[float, float]


def integral(x, what: str) -> int:
    """A finite integral int or float (not a bool) as an int; ValueError otherwise."""
    # x % 1 is NaN for an infinite or NaN x, so only finite integers pass
    if isinstance(x, bool) or not isinstance(x, (int, float)) or x % 1 != 0:
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return int(x)


def real(x, what: str) -> float:
    """A finite int or float (not a bool) as a float; ValueError otherwise."""
    # the bound also rejects NaN and ints beyond the double range
    if isinstance(x, bool) or not isinstance(x, (int, float)) or not abs(x) <= sys.float_info.max:
        raise ValueError(f"{what} must be a finite number, got {x!r}")
    return float(x)


def exact_phase(ratio: tuple[int, int], count: int) -> complex:
    """exp(2 pi i count num / den) for ratio = (num, den), reduced mod 1 in integers.

    On the integer ratio of a double x this is exp(2 pi i count x): exactly 1
    when count x is an integer, otherwise one rounding whatever the size of
    count.
    """
    num, den = ratio
    r = (count * num) % den
    if r == 0:
        return 1 + 0j
    return cmath.exp(TWO_PI * 1j * (r / den))


@dataclass(frozen=True)
class TorusParams:
    """Deformation parameter theta of one torus algebra, 0 < theta < 1."""

    theta: float

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ValueError(f"theta must lie in (0,1), got {self.theta}")
        # theta = num / den exactly; read once, since lam runs in every fold
        object.__setattr__(self, "_ratio", self.theta.as_integer_ratio())
        object.__setattr__(self, "_powers", {})

    def lam(self, k: int = 1) -> complex:
        """lambda**k = exp(2 pi i k theta), k theta reduced mod 1 exactly; memoized at |k| <= 64."""
        if -64 <= k <= 64:
            return self._powers.get(k) or self._powers.setdefault(k, exact_phase(self._ratio, k))
        return exact_phase(self._ratio, k)


class TorusElement:
    """Finite twisted-Laurent sum over one TorusParams.

    ``terms`` maps (m, n, lam_exp) to a nonzero complex coefficient.
    Instances are value-like: never mutate ``terms`` after construction.
    """

    __slots__ = ("params", "terms")

    def __init__(self, params: TorusParams, terms: Mapping[tuple[int, int, int], complex] | None = None):
        object.__setattr__(self, "params", params)
        canonical = {}
        for key, c in (terms or {}).items():
            c = complex(c)
            if c != 0:
                canonical[key] = c
        object.__setattr__(self, "terms", canonical)

    @classmethod
    def _wrap(cls, params: TorusParams, terms: dict) -> "TorusElement":
        """An element over ``terms`` as given: every value a nonzero complex."""
        out = object.__new__(cls)
        object.__setattr__(out, "params", params)
        object.__setattr__(out, "terms", terms)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("TorusElement is immutable")

    # -- ring structure -------------------------------------------------

    def _coerce(self, other) -> "TorusElement":
        if isinstance(other, TorusElement):
            return other
        if isinstance(other, (int, float, complex)):
            return TorusElement(self.params, {(0, 0, 0): complex(other)})
        raise TypeError(f"cannot combine TorusElement with {type(other).__name__}")

    def __add__(self, other) -> "TorusElement":
        return total(self, (self._coerce(other),))

    __radd__ = __add__

    def __neg__(self) -> "TorusElement":
        return TorusElement._wrap(self.params, {key: -c for key, c in self.terms.items()})

    def __sub__(self, other) -> "TorusElement":
        terms = dict(self.terms)
        _merge(self.params, terms, self._coerce(other), subtract=True)
        return TorusElement._wrap(self.params, terms)

    def __rsub__(self, other) -> "TorusElement":
        return self._coerce(other) - self

    def __mul__(self, other) -> "TorusElement":
        if isinstance(other, (int, float, complex)):
            return TorusElement(
                self.params, {key: c * other for key, c in self.terms.items()}
            )
        other = self._coerce(other)
        _check_params(self.params, other.params)
        # (u^m v^n)(u^p v^q) = lambda^{-n p} u^{m+p} v^{n+q}, -np exact.
        terms: dict[tuple[int, int, int], complex] = {}
        get, right = terms.get, other.terms.items()
        for (m, n, k), a in self.terms.items():
            for (p, q, l), b in right:
                key = (m + p, n + q, k + l - n * p)
                s = get(key, 0j) + a * b
                if s:
                    terms[key] = s
                else:  # a * b may underflow to zero on a new key
                    terms.pop(key, None)
        return TorusElement._wrap(self.params, terms)

    def __rmul__(self, other) -> "TorusElement":
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    def star(self) -> "TorusElement":
        """Antilinear involution: (c lam^k u^m v^n)* = conj(c) lam^{-k-mn} u^{-m} v^{-n}."""
        terms = {}
        for (m, n, k), c in self.terms.items():
            terms[(-m, -n, -k - m * n)] = c.conjugate()
        return TorusElement._wrap(self.params, terms)

    # -- numeric views ---------------------------------------------------

    def folded(self) -> dict[tuple[int, int], complex]:
        """Coefficients of u^m v^n with lambda exponents folded in numerically."""
        out: dict[tuple[int, int], complex] = {}
        lam = self.params.lam
        for (m, n, k), c in self.terms.items():
            value = c if k == 0 else c * lam(k)
            out[(m, n)] = out.get((m, n), 0j) + value
        return out

    def is_zero(self) -> bool:
        return all(abs(c) <= EQ_TOL for c in self.folded().values())

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, float, complex)):
            other = self._coerce(other)
        if not isinstance(other, TorusElement):
            return NotImplemented
        if self.params != other.params:
            return False
        return distance(self, other) <= EQ_TOL

    __hash__ = None  # tolerance-based equality is incompatible with hashing

    def __repr__(self) -> str:
        if not self.terms:
            return f"TorusElement(theta={self.params.theta}, 0)"
        bits = []
        for (m, n, k), c in sorted(self.terms.items()):
            factors = [f"({c})"]
            for name, e in (("lam", k), ("u", m), ("v", n)):
                if e == 1:
                    factors.append(name)
                elif e != 0:
                    factors.append(f"{name}^{e}")
            bits.append("*".join(factors))
        return f"TorusElement(theta={self.params.theta}, {' + '.join(bits)})"

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "theta": self.params.theta,
            "terms": [
                {"m": m, "n": n, "re": c.real, "im": c.imag, "lk": k}
                for (m, n, k), c in sorted(self.terms.items())
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TorusElement":
        params = TorusParams(real(data["theta"], "theta"))
        terms: dict[tuple[int, int, int], complex] = {}
        for t in data["terms"]:
            key = (integral(t["m"], "m"), integral(t["n"], "n"), integral(t.get("lk", 0), "lk"))
            terms[key] = terms.get(key, 0j) + complex(real(t["re"], "re"), real(t["im"], "im"))
        return cls(params, terms)


def _check_params(mine: TorusParams, theirs: TorusParams):
    if mine is not theirs and mine != theirs:
        raise ParamMismatch(f"theta mismatch: {mine.theta} vs {theirs.theta}")


def _merge(params: TorusParams, terms: dict, x: TorusElement, subtract: bool = False):
    """terms += x (or -= x) in place, key by key, dropping a sum that reaches zero."""
    _check_params(params, x.params)
    get = terms.get
    for key, c in x.terms.items():
        # in IEEE 754 t - c is t + (-c) bit for bit, signed zeros included
        s = get(key, 0j) - c if subtract else get(key, 0j) + c
        if s:
            terms[key] = s
        else:
            del terms[key]


def total(first: TorusElement, rest: Iterable[TorusElement]) -> TorusElement:
    """first + rest[0] + rest[1] + ..., summed left to right in one dict."""
    terms = dict(first.terms)
    for x in rest:
        _merge(first.params, terms, x)
    return TorusElement._wrap(first.params, terms)


# -- constructors ---------------------------------------------------------


def mono(m: int, n: int, c: complex, params: TorusParams, lam_exp: int = 0) -> TorusElement:
    """The monomial c * lambda**lam_exp * u**m * v**n."""
    return TorusElement(params, {(m, n, lam_exp): complex(c)})


def u(params: TorusParams) -> TorusElement:
    return mono(1, 0, 1, params)


def v(params: TorusParams) -> TorusElement:
    return mono(0, 1, 1, params)


def one(params: TorusParams) -> TorusElement:
    return mono(0, 0, 1, params)


def zero(params: TorusParams) -> TorusElement:
    return TorusElement(params, {})


def lam(params: TorusParams, k: int = 1) -> TorusElement:
    """The central scalar lambda**k with the exponent kept exact."""
    return mono(0, 0, 1, params, lam_exp=k)


# -- one-parameter flows and their generators -----------------------------


def apply_auto(weight: Weight, tau: float, a: TorusElement) -> TorusElement:
    """Automorphism of the flow with the given weight at time tau.

    Scales u^m v^n by exp(2 pi i tau (alpha m + beta n)); lambda exponents
    are untouched, so the map is a *-automorphism for every real tau.
    """
    alpha, beta = weight
    terms = {}
    for (m, n, k), c in a.terms.items():
        w = alpha * m + beta * n
        if w == 0 or tau == 0:
            terms[(m, n, k)] = c
        else:
            terms[(m, n, k)] = c * cmath.exp(TWO_PI * 1j * (tau * w))
    return TorusElement(a.params, terms)


def apply_derivation(weight: Weight, a: TorusElement) -> TorusElement:
    """Infinitesimal generator of the flow: u^m v^n -> 2 pi i (alpha m + beta n) u^m v^n."""
    alpha, beta = weight
    terms = {}
    for (m, n, k), c in a.terms.items():
        w = alpha * m + beta * n
        if w != 0:
            terms[(m, n, k)] = c * (TWO_PI * 1j * w)
    return TorusElement(a.params, terms)


# -- comparison helpers ----------------------------------------------------


def distance(a: TorusElement, b: TorusElement) -> float:
    """Max folded-coefficient difference; operands must share params."""
    fa, fb = a.folded(), b.folded()
    keys = set(fa) | set(fb)
    return max((abs(fa.get(key, 0j) - fb.get(key, 0j)) for key in keys), default=0.0)


def vector_distance(xs: Iterable[TorusElement], ys: Iterable[TorusElement]) -> float:
    xs, ys = list(xs), list(ys)
    if len(xs) != len(ys):
        raise ValueError("vectors of different length")
    return max((distance(x, y) for x, y in zip(xs, ys)), default=0.0)


def random_element(rng, params: TorusParams, max_terms: int = 4, max_exp: int = 3) -> TorusElement:
    """Sparse random element for diagnostics and property checks.

    ``rng`` is a random.Random; coefficients have |Re|,|Im| <= 1 and lambda
    exponents |k| <= 2.
    """
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        key = (
            rng.randint(-max_exp, max_exp),
            rng.randint(-max_exp, max_exp),
            rng.randint(-2, 2),
        )
        terms[key] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return TorusElement(params, terms)
