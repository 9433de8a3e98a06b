"""Infinite-cover character model: shifts, deck action, Wilson relation, block gauge field."""

from __future__ import annotations

import cmath
import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from nctorus.errors import UnsupportedProduct
from nctorus.infinitecover import (
    CharacterSum,
    cosine_sum,
    gauge_unitary,
    matrix_wilson_relation,
    mono,
    shift_up,
    sine_sum,
    wilson_relation,
)

C_U, C_V = 0.25, 0.1


def exact_turn(x: Fraction) -> complex:
    """exp(2 pi i x), with x reduced mod 1 exactly before rounding."""
    return cmath.exp(2j * math.pi * float(x % 1))


# -- characters and shifts ----------------------------------------------------


def test_shift_of_constant_character_is_trivial():
    assert shift_up(0.0) == 1.0


def test_shift_scalar_value():
    assert shift_up(C_U) == pytest.approx(cmath.exp(2j * math.pi * C_U))


def test_shift_of_integer_frequency_is_periodic():
    assert abs(shift_up(1.0) - 1.0) < 1e-15


def test_shift_preserves_frequency_and_modulus():
    rng = random.Random(9)
    for _ in range(50):
        f = rng.uniform(-5, 5)
        shifted = mono(1, f, -f).deck(1, 1)
        assert list(shifted.terms) == [(f, -f)]
        assert abs(abs(shift_up(f)) - 1.0) < 1e-12


def test_shift_up_count_matches_exact_phase():
    rng = random.Random(23)
    for _ in range(50):
        f, count = rng.uniform(-5, 5), rng.randint(-(10**9), 10**9)
        assert abs(shift_up(f, count) - exact_turn(count * Fraction(f))) < 1e-12


@pytest.mark.parametrize("freq", [math.inf, -math.inf, math.nan])
def test_shift_up_rejects_non_finite_frequency(freq):
    with pytest.raises(ValueError):
        shift_up(freq)


# -- monomials (one-term sums) ----------------------------------------------------


def test_deck_action_on_gauge_unitary():
    gauge = gauge_unitary(C_U, C_V)
    got = gauge.deck(1, 0)
    assert list(got.terms) == [(C_U, C_V)]
    assert got.terms[C_U, C_V] == pytest.approx(cmath.exp(2j * math.pi * C_U))
    assert gauge.deck(0, 0).terms == gauge.terms
    got = gauge.deck(0, 2)
    assert got.terms[C_U, C_V] == pytest.approx(cmath.exp(4j * math.pi * C_V))


def test_deck_action_is_z2_action():
    rng = random.Random(11)
    for _ in range(30):
        m = mono(cmath.exp(1j * rng.uniform(0, 6)), rng.uniform(-2, 2), rng.uniform(-2, 2))
        p, q, r, s = (rng.randint(-3, 3) for _ in range(4))
        one_step = m.deck(r, s).deck(p, q)
        both = m.deck(p + r, q + s)
        ((key, c1),), ((key2, c2),) = one_step.terms.items(), both.terms.items()
        assert abs(c1 - c2) < 1e-12
        assert key == key2


def test_mul_requires_trivial_inner_leg():
    m_u = mono(2, 0.5, 0.0)
    m_v = mono(3, 0.0, 0.25)
    assert (m_u * m_v).terms == {(0.5, 0.25): 6}
    got = mono(1, 0.5, 0.25) * mono(1, 0.0, 0.25)
    assert list(got.terms) == [(0.5, 0.5)]
    with pytest.raises(UnsupportedProduct):
        mono(1, 0.5, 0.25) * mono(1, 0.5, 0.25)


def test_star_requires_single_leg():
    m = mono(1j, 0.5, 0.0)
    assert m.star().terms == {(-0.5, 0.0): -1j}
    with pytest.raises(UnsupportedProduct):
        mono(1, 0.5, 0.25).star()


def test_mul_by_inverse_cancels_legs():
    gauge = gauge_unitary(C_U, C_V)
    residue = gauge.mul_by_inverse(gauge)
    assert residue.terms == {(0.0, 0.0): 1.0}
    # v-legs that do not cancel, the zero unit and a two-term unit
    for unit in (mono(1, C_U, 0.99), CharacterSum(), cosine_sum(C_U, "u")):
        with pytest.raises(UnsupportedProduct):
            gauge.mul_by_inverse(unit)


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
    from conftest import THETA
    from nctorus.algebra import TorusParams
    from nctorus.connections import scalar_connection
    from nctorus.coverings import CoveringSpec, wilson

    params = TorusParams(THETA)
    spec = CoveringSpec(params, (2, 2))
    conn = scalar_connection(params, C_U, C_V)
    finite = wilson(spec, spec.g_u, conn).matrix[0, 0]
    assert abs(wilson_relation(1, 0, C_U, C_V) - finite) < 1e-12


def test_wilson_relation_report_shape():
    from nctorus.cli import wilson_relation_report

    report = wilson_relation_report(1, 0, 0.25, 0.1)
    assert report["deck"] == [1, 0]
    assert report["value"][0] == pytest.approx(0.0, abs=1e-12)
    assert report["value"][1] == pytest.approx(1.0)


# -- 4x4 block gauge field ------------------------------------------------------------


def rotation(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]], dtype=complex)


def test_character_sum_trig_identity():
    # cos^2 + sin^2 = 1 inside the sum model
    cu, su = cosine_sum(C_U, "u"), sine_sum(C_U, "u")
    total = cu * cu + su * su
    assert total.constant_value() == pytest.approx(1.0)
    # at frequency 0 the two characters share a key (0.0 == -0.0) and must add
    for leg in ("u", "v"):
        assert cosine_sum(0.0, leg).constant_value() == 1
        assert sine_sum(0.0, leg).terms == {}


def test_matrix_wilson_images_of_deck_generators():
    got = matrix_wilson_relation(1, 0, C_U, C_V)
    expect = np.zeros((4, 4), dtype=complex)
    expect[:2, :2] = rotation(2 * math.pi * C_U)
    expect[2:, 2:] = np.eye(2)
    assert np.max(np.abs(got - expect)) < 1e-12

    got = matrix_wilson_relation(0, 1, C_U, C_V)
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
        assert np.max(np.abs(matrix_wilson_relation(p, q, c_u, c_v) - expect)) < 1e-12


def test_matrix_wilson_matches_finite_cover_blocks():
    from conftest import THETA
    from nctorus.algebra import TorusParams
    from nctorus.connections import rotation_block_connection
    from nctorus.coverings import CoveringSpec, wilson

    params = TorusParams(THETA)
    spec = CoveringSpec(params, (2, 2))
    conn = rotation_block_connection(params, C_U, C_V)
    assert np.max(np.abs(matrix_wilson_relation(1, 0, C_U, C_V) - wilson(spec, spec.g_u, conn).matrix)) < 1e-12
    assert np.max(np.abs(matrix_wilson_relation(0, 1, C_U, C_V) - wilson(spec, spec.g_v, conn).matrix)) < 1e-12


def test_matrix_wilson_is_homomorphic_on_z2():
    a = matrix_wilson_relation(1, 0, C_U, C_V)
    b = matrix_wilson_relation(0, 1, C_U, C_V)
    ab = matrix_wilson_relation(1, 1, C_U, C_V)
    assert np.max(np.abs(a @ b - ab)) < 1e-12
    sq = matrix_wilson_relation(2, 0, C_U, C_V)
    assert np.max(np.abs(a @ a - sq)) < 1e-12


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
                digest.update(matrix_wilson_relation(p, q, c_u, c_v).tobytes())
    assert digest.hexdigest() == "f4c7edd520e68dac2223139d36d2062245efa11c735f850bfca2838b4999433f"
