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
construction and skip the check.  Products and sums run through one product
kernel and one in-place merge over term dicts, which drop a key whose sum
reaches zero; their callers check theta, and may add many products into one
dict, pair by pair.  folded and distance wrap the term-dict kernels _fold and
_distance, so the transport-axiom check builds no element.  random_element
draws as CPython's randrange and uniform do (getrandbits(k) until below the
width; a + (b - a) * random()), so its stream is randint's.

Every modulus is taken by _worst, the one size rule, and every zero test is
_negligible, _worst(values) <= EQ_TOL.

All values are immutable and all operations are pure functions, so they are
safe to share across threads.  The per-TorusParams memo of lambda**k only
ever stores the value turn computes, so concurrent fills agree.

Every root of unity in the package, lambda**k, the flows and the deck
actions of both covers, is one call of turn (inlined in the flows' _twist),
so one rounding per term.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import Iterable, Mapping

from .errors import ParamMismatch

TWO_PI = 2.0 * math.pi
_TWO_PI_I = TWO_PI * 1j  # 2 pi i, the factor of turn, _twist and apply_derivation, formed once

#: The largest 15-digit double; r15 keeps a finite x whose rounding overflows at +-this.
R15_TOP = 1.79769313486231e308
_FORMAT = float.__format__  # called unbound, r15 makes no bound method per call as f"{x:.15g}" does

#: Tolerance on a _worst size: element equality is distance <= EQ_TOL, and every zero test is one _negligible
#: call: is_zero, flatness (folded coefficients) and the scalar test of a transport entry.
EQ_TOL = 1e-12


def _negligible(values) -> bool:
    """True iff _worst(values) <= EQ_TOL, the package's one zero test (NaN and an overflowing modulus fail)."""
    return _worst(values) <= EQ_TOL


def _worst(values: Iterable[complex]) -> float:
    """The largest abs(x) of values, 0.0 for none; the package's one size rule.  NaN if any value is NaN,
    wherever it comes, and inf for a finite complex whose modulus exceeds the largest double."""
    out = 0.0
    for x in values:
        try:
            d = abs(x)
        except OverflowError:  # |x| past the largest double; or, after an earlier overflow, a NaN complex
            d = math.inf if x == x else math.nan  # (CPython's abs reads a stale ERANGE there)
        if d > out or d != d:  # once out is NaN, neither holds for a number
            out = d
    return out


#: Largest transport difference at which path independence is "certified".
CERTIFY_TOL = 1e-10

#: A weight (alpha, beta) selects the one-parameter automorphism group that
#: scales u^m v^n by exp(2 pi i tau (alpha m + beta n)).  Integer weights
#: give loops; real weights are allowed for flows.
Weight = tuple[float, float]


def integral(x, what: str) -> int:
    """A finite integral int or float (not a bool) as an int; ValueError otherwise."""
    if type(x) is int:
        return x
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


def r15(x):
    """A float rounded to 15 significant digits, float(f"{x:.15g}"), as every report prints it; anything else
    as given.  A finite x whose rounding overflows (within half a step of the largest double) gives +-R15_TOP.
    """
    if isinstance(x, float):
        y = float(_FORMAT(x, ".15g"))
        if y - y and -sys.float_info.max <= x <= sys.float_info.max:  # y - y is 0.0 for a finite y
            return math.copysign(R15_TOP, x)
        return y
    return x


def turn(c: complex, x, den: int = 1) -> complex:
    """c * exp(2 pi i x / den), with x / den reduced mod 1 first; c itself at a whole turn.

    The reduction r = x % den is exact in integers for an int x; for a float x
    (den 1) float % rounds once, to the double that r / den gives on the
    integer ratio of x.  So the result is c, untouched, exactly when x / den
    is an integer, and otherwise carries one rounding whatever the size of x.
    """
    r = x % den
    if not r:
        return c
    return c * cmath.exp(_TWO_PI_I * (r / den))


class TorusParams:
    """Deformation parameter theta of one torus algebra, 0 < theta < 1.

    Immutable, and equal, hashed and printed by theta alone.  Each instance
    holds its own memo of lambda**k, shared by every element over it.
    """

    __slots__ = ("theta", "_ratio", "_powers")

    def __init__(self, theta: float):
        if not 0.0 < theta < 1.0:
            raise ValueError(f"theta must lie in (0,1), got {theta}")
        object.__setattr__(self, "theta", theta)
        # theta = num / den exactly; read once, since lam runs in every fold
        object.__setattr__(self, "_ratio", theta.as_integer_ratio())
        object.__setattr__(self, "_powers", {})

    def __setattr__(self, name, value):
        raise AttributeError("TorusParams is immutable")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.theta == other.theta

    def __hash__(self) -> int:
        return hash((self.theta,))

    def __repr__(self) -> str:
        return f"TorusParams(theta={self.theta!r})"

    def __reduce__(self):  # copy and pickle rebuild from theta, with an empty memo
        return TorusParams, (self.theta,)

    def lam(self, k: int = 1) -> complex:
        """lambda**k = exp(2 pi i k theta), k theta reduced mod 1 exactly; memoized at |k| <= 64."""
        num, den = self._ratio
        if -64 <= k <= 64:
            return self._powers.get(k) or self._powers.setdefault(k, turn(1 + 0j, k * num, den))
        return turn(1 + 0j, k * num, den)


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
        other = self._coerce(other)
        _check_params(self.params, other.params)
        return TorusElement._wrap(self.params, _merge(dict(self.terms), other.terms))

    __radd__ = __add__

    def __neg__(self) -> "TorusElement":
        return TorusElement._wrap(self.params, {key: -c for key, c in self.terms.items()})

    def __sub__(self, other) -> "TorusElement":
        other = self._coerce(other)
        _check_params(self.params, other.params)
        return TorusElement._wrap(self.params, _merge(dict(self.terms), other.terms, subtract=True))

    def __rsub__(self, other) -> "TorusElement":
        return self._coerce(other) - self

    def __mul__(self, other) -> "TorusElement":
        if isinstance(other, (int, float, complex)):
            return TorusElement(self.params, {key: c * other for key, c in self.terms.items()})
        other = self._coerce(other)
        _check_params(self.params, other.params)
        return TorusElement._wrap(self.params, _product(self.terms, other.terms))

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
        return _fold(self.params, self.terms)

    def is_zero(self) -> bool:
        return _negligible(self.folded().values())

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
            text = repr(c)  # a complex with a real part brings its own parentheses
            factors = [text if text[0] == "(" else f"({text})"]
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
            # from -0j: x + -0j is x bit for bit, where a sum from 0j would drop a -0.0 part
            terms[key] = terms.get(key, -0j) + complex(real(t["re"], "re"), real(t["im"], "im"))
        return cls(params, terms)


def _check_params(mine: TorusParams, theirs: TorusParams):
    if mine is not theirs and mine != theirs:
        raise ParamMismatch(f"theta mismatch: {mine.theta} vs {theirs.theta}")


def _product(x: dict, y: dict, terms: dict | None = None) -> dict:
    """terms += x * y in place (into a fresh dict without terms), returned: each pair's a * b is added to its
    key as it is made, get(key, 0j) + a * b, in (x, y) loop order, and a sum that reaches zero drops its key.
    (u^m v^n)(u^p v^q) = lambda^{-n p} u^{m+p} v^{n+q}, -np exact."""
    if terms is None:
        terms = {}
    get, right = terms.get, y.items()
    for (m, n, k), a in x.items():
        for (p, q, l), b in right:
            key = (m + p, n + q, k + l - n * p)
            s = get(key, 0j) + a * b
            if s:
                terms[key] = s
            else:  # a sum onto a held key can cancel, and a * b can underflow to zero on a new one
                terms.pop(key, None)
    return terms


def _fold(params: TorusParams, terms: dict) -> dict[tuple[int, int], complex]:
    """folded on a term dict: c lambda**k summed onto (m, n) from 0j, in term order (k = 0 adds c itself)."""
    out = {}
    get, powers = out.get, params._powers  # lam's memo, read here first
    for (m, n, k), c in terms.items():
        out[key] = get(key := (m, n), 0j) + (c * (powers.get(k) or params.lam(k)) if k else c)  # one key tuple
    return out


def _scale(x: dict, s) -> dict:
    """x * s for a real s, in x's order, without the products that are zero: the terms of TorusElement * s."""
    return {key: p for key, c in x.items() if (p := c * s)}


def _merge(terms: dict, x: dict, subtract: bool = False) -> dict:
    """terms += x (or -= x) in place, key by key, dropping a sum that reaches zero; returns terms."""
    get = terms.get
    for key, c in x.items():
        # in IEEE 754 t - c is t + (-c) bit for bit, signed zeros included
        s = get(key, 0j) - c if subtract else get(key, 0j) + c
        if s:
            terms[key] = s
        else:
            del terms[key]
    return terms


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
    return TorusElement._wrap(a.params, _twist(weight, tau, a.terms))


def _twist(weight: Weight, tau: float, terms: dict) -> dict:
    """apply_auto on a term dict, in its order; |c e^{i phi}| is |c| to a rounding, so never zero."""
    alpha, beta = weight
    out = {}
    for key, c in terms.items():
        r = tau * (alpha * key[0] + beta * key[1]) % 1  # turn(c, x), inlined
        out[key] = c * cmath.exp(_TWO_PI_I * r) if r else c
    return out


def apply_derivation(weight: Weight, a: TorusElement) -> TorusElement:
    """Infinitesimal generator of the flow: u^m v^n -> 2 pi i (alpha m + beta n) u^m v^n."""
    alpha, beta = weight
    terms = {}
    for (m, n, k), c in a.terms.items():
        w = alpha * m + beta * n
        if w != 0 and (p := c * (_TWO_PI_I * w)):
            terms[(m, n, k)] = p
    return TorusElement._wrap(a.params, terms)


# -- comparison helpers ----------------------------------------------------


def distance(a: TorusElement, b: TorusElement) -> float:
    """Max folded-coefficient difference by _worst's rule; operands must share params."""
    return _distance(a.params, a.terms, b.terms)


def _distance(params: TorusParams, x: dict, y: dict) -> float:
    """distance on term dicts: y folded, then x; _worst of x's folded coefficients less y's, then y's keys x lacks."""
    fy = _fold(params, y)
    d = [c - fy.pop(key, 0j) for key, c in _fold(params, x).items()]
    d += fy.values()
    return _worst(d)


def random_element(rng, params: TorusParams, max_terms: int = 4, max_exp: int = 3) -> TorusElement:
    """Sparse random element for diagnostics and property checks.

    ``rng`` is a random.Random, left as randint and uniform leave it;
    coefficients have |Re|,|Im| <= 1 and lambda exponents |k| <= 2.
    """
    return TorusElement._wrap(params, _term_drawer(rng, max_terms, max_exp)())


def _term_drawer(rng, max_terms: int, max_exp: int):
    """A function whose each call draws random_element's next term dict: keys as randrange, parts as uniform."""
    if max_terms < 1 or max_exp < 0:
        raise ValueError(f"random_element needs max_terms >= 1 and max_exp >= 0, got {max_terms}, {max_exp}")
    getrandbits, random, width = rng.getrandbits, rng.random, 2 * max_exp + 1
    k, k_terms = width.bit_length(), max_terms.bit_length()

    def below(n: int, k: int) -> int:  # randrange(n): k = n.bit_length() random bits, drawn again until below n
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    def draw() -> dict:
        terms = {}
        for _ in range(1 + below(max_terms, k_terms)):
            key = (below(width, k) - max_exp, below(width, k) - max_exp, below(5, 3) - 2)
            terms[key] = complex(-1 + 2 * random(), -1 + 2 * random())  # uniform(-1, 1): a + (b - a) * random()
        return {key: c for key, c in terms.items() if c}  # a repeated key keeps its first place, as in the constructor

    return draw
