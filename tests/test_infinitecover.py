"""Infinite-cover character model: shifts, deck action, Wilson relation, block gauge field."""

from __future__ import annotations

import cmath
import hashlib
import math
import random
import re
import struct
from fractions import Fraction

import numpy as np
import pytest

from conftest import reference_leg_sums, reference_merge, reference_neg
from nctorus.algebra import _merge, turn
from nctorus.infinitecover import _deck, matrix_wilson_relation, wilson_relation

C_U, C_V = 0.25, 0.1


def term(c: complex, a: float, b: float) -> dict:
    """The one-term dict c * pi_u(e^{iax}) * pi_v(e^{ibx})."""
    return reference_merge([(a, b, c)])


def exact_turn(x: Fraction) -> complex:
    """exp(2 pi i x), with x reduced mod 1 exactly before rounding."""
    return cmath.exp(2j * math.pi * float(x % 1))


def shift(frequency: float, count: int = 1) -> complex:
    """The scalar by which deck(count, 0) scales the u-character of the given frequency."""
    return _deck(count, 0, term(1, frequency, 0.0))[frequency, 0.0]


# -- characters and shifts ----------------------------------------------------


def test_shift_of_constant_character_is_trivial():
    assert shift(0.0) == 1.0


def test_shift_scalar_value():
    assert shift(C_U) == pytest.approx(cmath.exp(2j * math.pi * C_U))


def test_shift_of_integer_frequency_is_periodic():
    assert abs(shift(1.0) - 1.0) < 1e-15


def test_shift_preserves_frequency_and_modulus():
    rng = random.Random(9)
    for _ in range(50):
        f = rng.uniform(-5, 5)
        shifted = _deck(1, 1, term(1, f, -f))
        assert list(shifted) == [(f, -f)]
        assert abs(abs(turn(1 + 0j, f)) - 1.0) < 1e-12


def test_shift_up_count_matches_exact_phase():
    rng = random.Random(23)
    for _ in range(50):
        f, count = rng.uniform(-5, 5), rng.randint(-(10**9), 10**9)
        assert abs(shift(f, count) - exact_turn(count * Fraction(f))) < 1e-12


@pytest.mark.parametrize("freq", [math.inf, -math.inf, math.nan])
def test_shift_up_rejects_non_finite_frequency(freq):
    with pytest.raises(ValueError, match="is not finite"):
        _deck(1, 0, term(1, freq, 0.0))


# -- one-term dicts -----------------------------------------------------------------


def test_deck_action_on_gauge_unitary():
    gauge = term(1, C_U, C_V)
    got = _deck(1, 0, gauge)
    assert list(got) == [(C_U, C_V)]
    assert got[C_U, C_V] == pytest.approx(cmath.exp(2j * math.pi * C_U))
    assert _deck(0, 0, gauge) == gauge
    got = _deck(0, 2, gauge)
    assert got[C_U, C_V] == pytest.approx(cmath.exp(4j * math.pi * C_V))


def test_deck_action_is_z2_action():
    rng = random.Random(11)
    for _ in range(30):
        m = term(cmath.exp(1j * rng.uniform(0, 6)), rng.uniform(-2, 2), rng.uniform(-2, 2))
        p, q, r, s = (rng.randint(-3, 3) for _ in range(4))
        one_step = _deck(p, q, _deck(r, s, m))
        both = _deck(p + r, q + s, m)
        ((key, c1),), ((key2, c2),) = one_step.items(), both.items()
        assert abs(c1 - c2) < 1e-12
        assert key == key2


def test_deck_coordinates_are_integers():
    """Z^2 has no fractional or bool elements: both Wilson relations refuse them."""
    cases = [(0.5, 0, "p", 0.5), (0, 0.25, "q", 0.25), (True, 0, "p", True), (0, False, "q", False)]
    cases += [(math.inf, 1, "p", math.inf), (1, math.nan, "q", math.nan), ("1", 0, "p", "1"), (0, 1j, "q", 1j)]
    for p, q, name, bad in cases:
        for call in (lambda: wilson_relation(p, q, C_U, C_V), lambda: matrix_wilson_relation(p, q, C_U, C_V)):
            with pytest.raises(ValueError, match=f"^deck {name} must be an integer, got {re.escape(repr(bad))}$"):
                call()
    # integral floats act as their ints
    assert wilson_relation(3.0, -2.0, C_U, C_V) == wilson_relation(3, -2, C_U, C_V)
    assert (
        np.asarray(matrix_wilson_relation(3.0, -2.0, C_U, C_V), dtype=complex).tobytes()
        == np.asarray(matrix_wilson_relation(3, -2, C_U, C_V), dtype=complex).tobytes()
    )


# -- Wilson relation --------------------------------------------------------------


def test_wilson_relation_generators():
    assert wilson_relation(1, 0, C_U, C_V) == pytest.approx(cmath.exp(2j * math.pi * C_U))
    assert wilson_relation(0, 1, C_U, C_V) == pytest.approx(cmath.exp(2j * math.pi * C_V))
    assert wilson_relation(0, 0, C_U, C_V) == 1.0


def test_wilson_relation_closed_form_on_grid():
    for p in range(-3, 4):
        for q in range(-3, 4):
            got = wilson_relation(p, q, C_U, C_V)
            expect = cmath.exp(2j * math.pi * (p * C_U + q * C_V))
            assert abs(got - expect) < 1e-12


def test_wilson_relation_integer_phase_is_exact():
    assert wilson_relation(10**7, 0, 0.5, C_V) == 1


def test_wilson_relation_matches_exact_phase_at_large_deck():
    rng = random.Random(29)
    big = 10**9
    decks = [(big, 0), (0, -big), (big, big), (-big, big - 1)]
    decks += [(rng.randint(-big, big), rng.randint(-big, big)) for _ in range(100)]
    for p, q in decks:
        c_u, c_v = rng.uniform(-2, 2), rng.uniform(-2, 2)
        expect = exact_turn(p * Fraction(c_u) + q * Fraction(c_v))
        assert abs(wilson_relation(p, q, c_u, c_v) - expect) < 1e-12


def test_two_leg_deck_shift_takes_one_rounding():
    """deck(p, q) turns a two-leg term by p a + q b at once: bit for bit the exact-Fraction phase."""
    assert wilson_relation(1, 1, 0.25, 0.75) == 1  # two fractional legs make a whole turn
    rng = random.Random(61)
    big = 10**9
    cases = [(1, 1, 0.25, 0.75), (3, 5, 0.5, 0.1), (big, -big, 0.5, C_V)]
    for _ in range(200):
        p, q = (rng.choice((-1, 1)) * int(big ** rng.random()) for _ in range(2))
        cases.append((p, q, rng.uniform(-2, 2), rng.uniform(-2, 2)))
        cases.append((rng.randint(-big, big), rng.randint(-big, big), rng.uniform(-2, 2), rng.uniform(-2, 2)))
    for p, q, c_u, c_v in cases:
        expect = exact_turn(p * Fraction(c_u) + q * Fraction(c_v))
        assert repr(wilson_relation(p, q, c_u, c_v)) == repr(expect), (p, q, c_u, c_v)


def test_wilson_relation_is_group_homomorphism():
    rng = random.Random(13)
    for _ in range(40):
        c_u, c_v = rng.uniform(-1, 1), rng.uniform(-1, 1)
        p, q, r, s = (rng.randint(-3, 3) for _ in range(4))
        joint = wilson_relation(p + r, q + s, c_u, c_v)
        split = wilson_relation(p, q, c_u, c_v) * wilson_relation(r, s, c_u, c_v)
        assert abs(joint - split) < 1e-12


def test_wilson_relation_values_are_unimodular():
    rng = random.Random(17)
    for _ in range(30):
        val = wilson_relation(rng.randint(-3, 3), rng.randint(-3, 3), rng.uniform(-2, 2), rng.uniform(-2, 2))
        assert abs(abs(val) - 1.0) < 1e-12


def test_wilson_relation_consistent_with_finite_cover():
    from conftest import THETA, scalar_connection
    from nctorus.algebra import TorusParams
    from nctorus.coverings import CoveringSpec, wilson

    params = TorusParams(THETA)
    spec = CoveringSpec(params, (2, 2))
    conn = scalar_connection(params, C_U, C_V)
    finite = wilson(spec, spec.deck(1, 0), conn).matrix[0][0]
    assert abs(wilson_relation(1, 0, C_U, C_V) - finite) < 1e-12


def test_wilson_relation_report_shape():
    from nctorus.cli import run
    from nctorus.scenarios import builtin

    report = run(builtin("paper-infinite"))["result"]  # deck (1, 0), c_u 0.25, c_v 0.1
    assert report["deck"] == [1, 0]
    assert report["value"][0] == pytest.approx(0.0, abs=1e-12)
    assert report["value"][1] == pytest.approx(1.0)


# -- 4x4 block gauge field ------------------------------------------------------------


def rotation(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]], dtype=complex)


def test_character_sum_trig_identity():
    # at the trivial deck element the block is U U^*: cos^2 + sin^2 = 1 and cos sin - sin cos = 0, exactly
    eye = np.eye(4, dtype=complex).tobytes()
    assert np.asarray(matrix_wilson_relation(0, 0, C_U, C_V), dtype=complex).tobytes() == eye
    # at frequency 0 the two characters share a key (0.0 == -0.0) and must add: cos is 1, sin is 0
    for c_u, c_v in [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0)]:
        assert np.asarray(matrix_wilson_relation(5, 7, c_u, c_v), dtype=complex).tobytes() == eye


def term_bits(terms: dict) -> list[bytes]:
    """Each term's frequencies and coefficient as bytes, in key order: 0.0 and -0.0 differ here."""
    return [struct.pack("<4d", a, b, c.real, c.imag) for (a, b), c in terms.items()]


def has_negative_zero(c: complex) -> bool:
    return any(part == 0 and math.copysign(1.0, part) < 0 for part in (c.real, c.imag))


def value_bits(terms: dict) -> dict:
    """Each key's coefficient as bytes; keys compare as numbers, so 0.0 and -0.0 are one key here."""
    return {key: struct.pack("<2d", c.real, c.imag) for key, c in terms.items()}


def random_sum(rng: random.Random) -> dict:
    """A small sum whose products collide on keys, cancel to zero, underflow and carry -0.0 parts."""
    freqs = (0.0, -0.0, 0.25, -0.25, 0.5)
    if rng.random() < 0.2:  # cos(0 x) merges its 0.0 and -0.0 keys; sin(0 x) is empty
        return rng.choice(reference_leg_sums(rng.choice(freqs), rng.choice("uv")))
    # 1e-200 squared underflows; 5e-324 turned by a phase can round a part to -0.0
    coefficients = (0.5, -0.5, 0.5j, -0.5j, complex(0.25, -0.0), complex(-0.0, -0.25), 1e-200, -1e-200, 5e-324, -5e-324)
    legs = rng.choice(("u", "v", "uv"))
    triples = []
    for _ in range(rng.randint(0, 4)):
        a = rng.choice(freqs) if "u" in legs else 0.0
        b = rng.choice(freqs) if "v" in legs else 0.0
        triples.append((a, b, rng.choice(coefficients)))
    return reference_merge(triples)


def test_one_dict_arithmetic_is_bits_of_the_triple_merge():
    """_merge and _deck give the terms and key order of merging their triples as the references do."""
    from conftest import reference_add_product, reference_deck, reference_product

    rng = random.Random(61)
    cu, su = reference_leg_sums(0.25, "u")
    cases = [
        ({}, cu, su),  # cos sin: the two key-0 products cancel to exact zero
        (reference_leg_sums(0.0, "v")[0], cu, cu),  # cos(0 x) = 1 on the 0.0 == -0.0 key
        (cu, term(1e-200, 0.5, 0.0), term(1e-200, -0.5, 0.0)),  # the product underflows to zero
    ]
    cases += [tuple(random_sum(rng) for _ in range(3)) for _ in range(3000)]
    cancelled = 0
    for acc, x, y in cases:
        if any(b1 != 0 and a2 != 0 for _, b1 in x for a2, _ in y):
            continue  # v-leg times u-leg needs the unmodeled leg commutation
        product = reference_product(x, y)
        cancelled += len(product) < len({(a1 + a2, b1 + b2) for a1, b1 in x for a2, b2 in y})
        # two merged sums are one map in either order, and subtracting a sum merges its negation
        merged = _merge(dict(acc), product)
        assert value_bits(merged) == value_bits(_merge(dict(product), acc))
        assert term_bits(merged) == term_bits(reference_add_product(acc, x, y))
        both = [(a, b, c) for terms in (x, y) for (a, b), c in terms.items()]
        summed = _merge(dict(x), y)
        assert term_bits(summed) == term_bits(reference_merge(both))
        difference = _merge(dict(acc), product, subtract=True)
        minus = [(a, b, c) for terms in (acc, reference_neg(product)) for (a, b), c in terms.items()]
        assert term_bits(difference) == term_bits(reference_merge(minus))
        p, q = rng.randint(-9, 9), rng.randint(-9, 9)
        decked = _deck(p, q, x)
        assert term_bits(decked) == term_bits(reference_deck(x, p, q))
        # t - c is t + (-c) to the bits only where t has no -0.0 part: no result stores one
        for terms in (merged, summed, difference, decked):
            assert not any(map(has_negative_zero, terms.values())), terms
    assert cancelled > 50, cancelled


def test_deck_turns_each_frequency_pair_once_to_the_bits_of_a_turn_per_term(monkeypatch):
    """_deck gives each sum's terms of one turn per term, and raises as that does."""
    from conftest import reference_deck

    def deck_all(p, q, sums):
        return [_deck(p, q, x) for x in sums]

    rng = random.Random(67)
    big = 10**6
    cases = [
        reference_leg_sums(0.0, "u"),  # the cosine's 0.0 and -0.0 keys merged, the sine empty
        reference_leg_sums(-0.0, "v"),
        (term(5e-324, 0.25, 0.0), term(complex(-0.0, 5e-324), 0.25, 0.0)),  # subnormal parts round to signed zeros
        # subnormal parts at eighth turns: a part can round to zero, never the whole coefficient
        (term(complex(5e-324, 5e-324), 0.125, 0.0), term(-5e-324, 0.125, 0.0), term(complex(5e-324, -5e-324), 0.0, 0.375)),
        (term(complex(math.inf, 1), 0.5, 0.0), term(complex(-0.0, math.nan), 0.0, 1.0)),  # untouched at whole turns
        (term(1, math.inf, 0.0),),
        (term(1, 0.5, 0.0), term(1, 0.25, math.nan)),  # the first non-finite frequency in order names the error
    ]
    for freq in (0.0, 0.5, 1.0, 5e-324, 1e308, rng.uniform(-1, 1), rng.uniform(-1e3, 1e3)):
        for leg in "uv":
            cases.append(reference_leg_sums(freq, leg))
    cases += [tuple(random_sum(rng) for _ in range(rng.randint(1, 3))) for _ in range(500)]
    decks = [(0, 0), (1, 0), (0, -1), (3, -2), (big, -big + 1)]
    for sums in cases:
        for p, q in [*decks, (rng.randint(-big, big), rng.randint(-big, big))]:
            try:
                want = [reference_deck(x, p, q) for x in sums]
            except ValueError as error:
                with pytest.raises(ValueError, match=f"^{re.escape(str(error))}$"):
                    deck_all(p, q, sums)
                continue
            got = deck_all(p, q, sums)
            assert [term_bits(t) for t in got] == [term_bits(t) for t in want]
            assert [list(t) for t in got] == [list(x) for x in sums]  # every key survives
    assert deck_all(5, 7, reference_leg_sums(0.0, "u")) == [{(0.0, 0.0): 1}, {}]

    # the block Wilson relation turns each leg's two keys +-freq once: four turns a matrix, not eight
    from nctorus import infinitecover

    turns = []
    monkeypatch.setattr(infinitecover, "turn", lambda *a: turns.append(a) or turn(*a))
    for p, q, c_u, c_v in [(3, -2, 0.25, 0.1), (big, 1, rng.uniform(-1, 1), rng.uniform(-1, 1))]:
        turns.clear()
        matrix_wilson_relation(p, q, c_u, c_v)
        assert len(turns) == 4


def test_matrix_wilson_is_four_complex_rows():
    # a constant matrix of the library is a tuple of complex rows, as TransportOperator.matrix is
    for p, q, c_u, c_v in [(3, -2, 0.25, 0.1), (0, 0, 0.0, -0.0), (10**4, -7, 0.5, 1e308)]:
        got = matrix_wilson_relation(p, q, c_u, c_v)
        assert type(got) is tuple and len(got) == 4
        for i, row in enumerate(got):
            assert type(row) is tuple and len(row) == 4
            assert all(type(z) is complex for z in row)
            off = row[2:] if i < 2 else row[:2]
            assert [(z.real, z.imag) for z in off] == [(0.0, 0.0)] * 2
            assert all(math.copysign(1.0, x) == 1.0 for z in off for x in (z.real, z.imag))  # 0j, not -0j


def test_matrix_wilson_images_of_deck_generators():
    got = np.asarray(matrix_wilson_relation(1, 0, C_U, C_V), dtype=complex)
    expect = np.zeros((4, 4), dtype=complex)
    expect[:2, :2] = rotation(2 * math.pi * C_U)
    expect[2:, 2:] = np.eye(2)
    assert np.max(np.abs(got - expect)) < 1e-12

    got = np.asarray(matrix_wilson_relation(0, 1, C_U, C_V), dtype=complex)
    expect = np.zeros((4, 4), dtype=complex)
    expect[:2, :2] = np.eye(2)
    expect[2:, 2:] = rotation(2 * math.pi * C_V)
    assert np.max(np.abs(got - expect)) < 1e-12


def exact_rotation(x: Fraction) -> np.ndarray:
    z = exact_turn(x)
    return np.array([[z.real, -z.imag], [z.imag, z.real]])


def test_matrix_wilson_matches_exact_phase_at_large_deck():
    rng = random.Random(31)
    big = 10**6
    decks = [(big, 0), (0, -big), (-big, big)]
    decks += [(rng.randint(-big, big), rng.randint(-big, big)) for _ in range(10)]
    for p, q in decks:
        c_u, c_v = rng.uniform(-1, 1), rng.uniform(-1, 1)
        expect = np.zeros((4, 4), dtype=complex)
        expect[:2, :2] = exact_rotation(p * Fraction(c_u))
        expect[2:, 2:] = exact_rotation(q * Fraction(c_v))
        assert np.max(np.abs(np.asarray(matrix_wilson_relation(p, q, c_u, c_v), dtype=complex) - expect)) < 1e-12


def test_matrix_wilson_matches_finite_cover_blocks():
    from conftest import THETA, rotation_block_connection
    from nctorus.algebra import TorusParams
    from nctorus.coverings import CoveringSpec, wilson

    params = TorusParams(THETA)
    spec = CoveringSpec(params, (2, 2))
    conn = rotation_block_connection(params, C_U, C_V)
    block = np.asarray(matrix_wilson_relation(1, 0, C_U, C_V), dtype=complex)
    assert np.max(np.abs(block - wilson(spec, spec.deck(1, 0), conn).matrix)) < 1e-12
    block = np.asarray(matrix_wilson_relation(0, 1, C_U, C_V), dtype=complex)
    assert np.max(np.abs(block - wilson(spec, spec.deck(0, 1), conn).matrix)) < 1e-12


def test_matrix_wilson_is_homomorphic_on_z2():
    a = np.asarray(matrix_wilson_relation(1, 0, C_U, C_V), dtype=complex)
    b = np.asarray(matrix_wilson_relation(0, 1, C_U, C_V), dtype=complex)
    ab = np.asarray(matrix_wilson_relation(1, 1, C_U, C_V), dtype=complex)
    assert np.max(np.abs(a @ b - ab)) < 1e-12
    sq = np.asarray(matrix_wilson_relation(2, 0, C_U, C_V), dtype=complex)
    assert np.max(np.abs(a @ a - sq)) < 1e-12


def test_matrix_wilson_is_bytes_of_dense_product():
    """The per-leg block product gives the bytes of the full 4x4 product, and raises as it does."""
    from conftest import dense_matrix_wilson_relation

    rng = random.Random(53)
    couplings = [0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 5e-324, 1e308]
    couplings += [rng.uniform(-1, 1) for _ in range(3)] + [rng.uniform(-1e3, 1e3)]
    big = 10**6
    decks = [(0, 0), (1, 0), (0, -1), (big, 0), (0, big), (-big, big), (big, -big + 1)]
    for _ in range(6):
        size = int(big ** rng.random())
        decks += [(rng.choice((-1, 1)) * size, 0), (0, rng.choice((-1, 1)) * size)]
        decks.append(tuple(rng.randint(-big, big) for _ in range(2)))
    for c_u in couplings:
        for c_v in couplings:
            for p, q in decks:
                got = np.asarray(matrix_wilson_relation(p, q, c_u, c_v), dtype=complex).tobytes()
                assert got == dense_matrix_wilson_relation(p, q, c_u, c_v).tobytes(), (p, q, c_u, c_v)

    bad = [math.inf, -math.inf, math.nan]
    for c_u, c_v in [(f, 0.25) for f in bad] + [(0.25, f) for f in bad] + [(math.nan, math.inf), (-0.0, math.nan)]:
        for p, q in [(0, 0), (3, -2)]:
            with pytest.raises(Exception) as want:
                dense_matrix_wilson_relation(p, q, c_u, c_v)
            with pytest.raises(type(want.value), match=f"^{re.escape(str(want.value))}$"):
                matrix_wilson_relation(p, q, c_u, c_v)


def test_wilson_bytes_are_pinned():
    """The exact bytes of both Wilson relations over a seeded grid of deep decks."""

    def decks(rng, top, count):
        out = [(0, 0), (1, -1), (top, -top)]
        for _ in range(count):
            out.append(tuple(rng.choice((-1, 1)) * int(top ** rng.random()) for _ in range(2)))
        return out

    rng = random.Random(47)
    couplings = [0.0, -0.0, 0.5, 1.0] + [rng.uniform(-1, 1) for _ in range(4)]
    digest = hashlib.sha256()
    for c_u in couplings:
        for c_v in couplings:
            for p, q in decks(rng, 10**5, 3):
                digest.update(repr(wilson_relation(p, q, c_u, c_v)).encode())
            for p, q in decks(rng, 10**4, 1):
                digest.update(np.asarray(matrix_wilson_relation(p, q, c_u, c_v), dtype=complex).tobytes())
    assert digest.hexdigest() == "0ea0a0c5e7592330e3b24253e5ef2c5f48c818b872ab5bf48a9f77d824e086c4"
