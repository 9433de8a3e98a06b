"""Exact arithmetic in the smooth noncommutative torus.

The algebra is generated by two unitaries u, v subject to

    u v = lambda v u,   lambda = exp(2 pi i theta).

Elements are finite sums of terms c * lambda**k * u**m * v**n, stored
sparsely as a map (m, n, k) -> c.  The lambda exponent k stays an exact
integer through all products and involutions; lambda**k is folded into the
complex coefficient only when comparing, printing or serializing.  theta is
a double and its irrationality is not checked: no implemented formula
depends on it.

All values are immutable and all operations are pure functions, so they are
safe to share across threads.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import ParamMismatch

TWO_PI = 2.0 * math.pi

#: Per-coefficient tolerance for element equality (folded coefficients).
EQ_TOL = 1e-12

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


@dataclass(frozen=True)
class TorusParams:
    """Deformation parameter theta of one torus algebra, 0 < theta < 1."""

    theta: float

    def __post_init__(self):
        if not 0.0 < self.theta < 1.0:
            raise ValueError(f"theta must lie in (0,1), got {self.theta}")

    def lam(self, k: int = 1) -> complex:
        """lambda**k, always evaluated as exp(2 pi i k theta)."""
        if k == 0:
            return 1.0 + 0.0j
        return cmath.exp(TWO_PI * 1j * (k * self.theta))


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

    def __setattr__(self, name, value):
        raise AttributeError("TorusElement is immutable")

    # -- ring structure -------------------------------------------------

    def _coerce(self, other) -> "TorusElement":
        if isinstance(other, TorusElement):
            return other
        if isinstance(other, (int, float, complex)):
            return TorusElement(self.params, {(0, 0, 0): complex(other)})
        raise TypeError(f"cannot combine TorusElement with {type(other).__name__}")

    def _check_params(self, other: "TorusElement"):
        if self.params != other.params:
            raise ParamMismatch(
                f"theta mismatch: {self.params.theta} vs {other.params.theta}"
            )

    def __add__(self, other) -> "TorusElement":
        other = self._coerce(other)
        self._check_params(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            s = terms.get(key, 0j) + c
            if s == 0:
                terms.pop(key, None)
            else:
                terms[key] = s
        return TorusElement(self.params, terms)

    __radd__ = __add__

    def __neg__(self) -> "TorusElement":
        return TorusElement(self.params, {key: -c for key, c in self.terms.items()})

    def __sub__(self, other) -> "TorusElement":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "TorusElement":
        return self._coerce(other) - self

    def __mul__(self, other) -> "TorusElement":
        if isinstance(other, (int, float, complex)):
            return TorusElement(
                self.params, {key: c * other for key, c in self.terms.items()}
            )
        other = self._coerce(other)
        self._check_params(other)
        # (u^m v^n)(u^p v^q) = lambda^{-n p} u^{m+p} v^{n+q}, -np exact.
        terms: dict[tuple[int, int, int], complex] = {}
        for (m, n, k), a in self.terms.items():
            for (p, q, l), b in other.terms.items():
                key = (m + p, n + q, k + l - n * p)
                s = terms.get(key, 0j) + a * b
                if s == 0:
                    terms.pop(key, None)
                else:
                    terms[key] = s
        return TorusElement(self.params, terms)

    def __rmul__(self, other) -> "TorusElement":
        if isinstance(other, (int, float, complex)):
            return self * other
        return NotImplemented

    def __pow__(self, exponent: int) -> "TorusElement":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("only non-negative integer powers are defined")
        result = one(self.params)
        for _ in range(exponent):
            result = result * self
        return result

    def star(self) -> "TorusElement":
        """Antilinear involution: (c lam^k u^m v^n)* = conj(c) lam^{-k-mn} u^{-m} v^{-n}."""
        terms = {}
        for (m, n, k), c in self.terms.items():
            terms[(-m, -n, -k - m * n)] = c.conjugate()
        return TorusElement(self.params, terms)

    # -- numeric views ---------------------------------------------------

    def folded(self) -> dict[tuple[int, int], complex]:
        """Coefficients of u^m v^n with lambda exponents folded in numerically."""
        out: dict[tuple[int, int], complex] = {}
        for (m, n, k), c in self.terms.items():
            value = c if k == 0 else c * self.params.lam(k)
            out[(m, n)] = out.get((m, n), 0j) + value
        return out

    def is_zero(self, tol: float = EQ_TOL) -> bool:
        return all(abs(c) <= tol for c in self.folded().values())

    def is_scalar(self, tol: float = EQ_TOL) -> bool:
        """True iff the element is a complex multiple of the identity."""
        return all(
            (m, n) == (0, 0) or abs(c) <= tol for (m, n), c in self.folded().items()
        )

    def scalar_value(self) -> complex:
        """The coefficient of 1 (folded); meaningful when is_scalar()."""
        return self.folded().get((0, 0), 0j)

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
        params = TorusParams(float(data["theta"]))
        terms: dict[tuple[int, int, int], complex] = {}
        for t in data["terms"]:
            key = (integral(t["m"], "m"), integral(t["n"], "n"), integral(t.get("lk", 0), "lk"))
            terms[key] = terms.get(key, 0j) + complex(float(t["re"]), float(t["im"]))
        return cls(params, terms)


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


def random_element(
    rng,
    params: TorusParams,
    max_terms: int = 4,
    max_exp: int = 3,
    max_lam_exp: int = 2,
) -> TorusElement:
    """Sparse random element for diagnostics and property checks.

    ``rng`` is a random.Random; coefficients have |Re|,|Im| <= 1.
    """
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        key = (
            rng.randint(-max_exp, max_exp),
            rng.randint(-max_exp, max_exp),
            rng.randint(-max_lam_exp, max_lam_exp),
        )
        terms[key] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return TorusElement(params, terms)
