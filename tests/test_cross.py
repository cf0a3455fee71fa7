"""Generalized cross products: defining determinant, norm identities,
translation equivariance, and the triple product identity.

The independent oracle for cross3 is cross_general run on doubled
coordinates: scaling all three arguments by 2 scales the trilinear
cross by 8, so cross_general(doubled)/8 must equal cross3 exactly.
"""

import random
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

import quatlat._kernel
from quatlat import (
    OMEGA,
    ONE,
    UNITS,
    ZERO,
    DimensionMismatch,
    HurwitzQuaternion,
    I,
    J,
    K,
    NotLipschitz,
    RationalQuaternion,
    cross3,
    cross_general,
    det_int,
    expanded_norm,
    gram_norm,
    inner_product,
    is_multiple,
    triple_scalar,
)
from quatlat.checks import run_check
from conftest import random_half_odd, random_hurwitz, random_lipschitz

BASIS = (ONE, I, J, K)


def _as_fractions(value):
    if isinstance(value, HurwitzQuaternion):
        return tuple(Fraction(x, 2) for x in value.doubled)
    return tuple(Fraction(n, value.denominator) for n in value.numerators)


def test_cross_of_first_three_axes_is_k():
    assert cross3(ONE, I, J) == K
    assert cross3(I, J, K) == -ONE
    assert cross3(ONE, J, K) == I
    assert cross3(ONE, I, K) == -J


def test_cross_vanishes_on_dependent_triples():
    rng = random.Random(3101)
    for _ in range(100):
        u = random_lipschitz(rng, 20)
        v = random_lipschitz(rng, 20)
        assert cross3(u, v, v) == ZERO
        assert cross3(u, u, v) == ZERO
        assert cross3(u, v, 2 * u - 3 * v) == ZERO


def test_cross_is_alternating_and_trilinear():
    rng = random.Random(3102)
    for _ in range(150):
        u = random_lipschitz(rng, 15)
        v = random_lipschitz(rng, 15)
        w = random_lipschitz(rng, 15)
        x = random_lipschitz(rng, 15)
        c = cross3(u, v, w)
        assert cross3(v, u, w) == -c
        assert cross3(u, w, v) == -c
        assert cross3(w, u, v) == c
        assert cross3(u + x, v, w) == c + cross3(x, v, w)
        assert cross3(3 * u, v, w) == 3 * c


def test_cross_agrees_with_general_determinant_expansion():
    rng = random.Random(3103)
    for _ in range(300):
        u = random_hurwitz(rng, 20)
        v = random_hurwitz(rng, 20)
        w = random_hurwitz(rng, 20)
        oracle = cross_general([u.doubled, v.doubled, w.doubled])
        expected = tuple(Fraction(x, 8) for x in oracle)
        assert _as_fractions(cross3(u, v, w)) == expected


def test_cross_is_orthogonal_to_each_argument():
    rng = random.Random(3104)
    for _ in range(300):
        u = random_lipschitz(rng, 25)
        v = random_lipschitz(rng, 25)
        w = random_lipschitz(rng, 25)
        c = cross3(u, v, w)
        assert inner_product(c, u) == 0
        assert inner_product(c, v) == 0
        assert inner_product(c, w) == 0


def test_triple_scalar_is_the_defining_pairing():
    rng = random.Random(3105)
    for _ in range(300):
        u = random_lipschitz(rng, 20)
        v = random_lipschitz(rng, 20)
        w = random_lipschitz(rng, 20)
        x = random_lipschitz(rng, 20)
        c = cross3(u, v, w)
        # cross3 and triple_scalar both run cross4; det_int, Bareiss
        # elimination on the stacked rows, shares no code with it.
        assert inner_product(c, x) == triple_scalar(u, v, w, x)
        assert triple_scalar(u, v, w, x) == det_int([y.coords for y in (u, v, w, x)])
        assert triple_scalar(u, v, w, u) == 0
        assert triple_scalar(u, v, w, v) == 0
        assert triple_scalar(u, v, w, w) == 0


def test_norm_of_cross_equals_gram_determinant():
    rng = random.Random(3106)
    for _ in range(400):
        u = random_lipschitz(rng, 30)
        v = random_lipschitz(rng, 30)
        w = random_lipschitz(rng, 30)
        n = cross3(u, v, w).norm()
        assert n == gram_norm(u, v, w)
        assert n == expanded_norm(u, v, w)


def test_gram_norm_rejects_half_odd_input():
    with pytest.raises(NotLipschitz):
        gram_norm(OMEGA, I, J)


def test_half_odd_triples_can_leave_the_order():
    a = HurwitzQuaternion(1, 1, 1, 1)
    b = HurwitzQuaternion(1, 1, 1, -1)
    c = HurwitzQuaternion(1, 1, -1, 1)
    r = cross3(a, b, c)
    assert isinstance(r, RationalQuaternion)
    assert r.denominator > 1
    assert not r.is_hurwitz
    with pytest.raises(NotLipschitz):
        r.to_hurwitz()
    assert str(r).endswith(f"/{r.denominator}")


def test_rational_quaternions_compare_and_hash_by_value():
    r = RationalQuaternion((1, 2, 3, 5), 4)
    assert r == RationalQuaternion((1, 2, 3, 5), 4)
    assert r != RationalQuaternion((1, 2, 3, 5), 8)
    assert r != RationalQuaternion((1, 2, 3, 6), 4)
    assert r != ((1, 2, 3, 5), 4)
    assert hash(r) == hash(((1, 2, 3, 5), 4)) == hash(RationalQuaternion((1, 2, 3, 5), 4))
    assert len({r, RationalQuaternion((1, 2, 3, 5), 4), RationalQuaternion((1, 2, 3, 5), 8)}) == 2


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.tuples(*[st.integers(-12, 12)] * 4), st.integers(1, 8))
def test_rational_is_hurwitz_matches_its_fractions(numerators, denominator):
    r = RationalQuaternion(numerators, denominator)
    x = [Fraction(n, denominator) for n in numerators]
    lipschitz = all(c.denominator == 1 for c in x)
    half_odd = all((c - Fraction(1, 2)).denominator == 1 for c in x)
    assert r.is_hurwitz == (lipschitz or half_odd)
    if r.is_hurwitz:
        assert _as_fractions(r.to_hurwitz()) == tuple(x)
    else:
        with pytest.raises(NotLipschitz):
            r.to_hurwitz()


def test_rational_result_matches_defining_determinant():
    rng = random.Random(3107)
    rational_seen = 0
    for _ in range(400):
        u = random_half_odd(rng, 10)
        v = random_half_odd(rng, 10)
        w = random_half_odd(rng, 10)
        r = cross3(u, v, w)
        values = _as_fractions(r)
        if isinstance(r, RationalQuaternion):
            rational_seen += 1
            assert 1 < r.denominator <= 8
        oracle = cross_general([u.doubled, v.doubled, w.doubled])
        assert values == tuple(Fraction(x, 8) for x in oracle)
    assert rational_seen > 0


def test_cross_commutes_with_right_unit_translation():
    rng = random.Random(3108)
    for _ in range(60):
        u = random_lipschitz(rng, 12)
        v = random_lipschitz(rng, 12)
        w = random_lipschitz(rng, 12)
        c = cross3(u, v, w)
        for eps in UNITS:
            assert cross3(u * eps, v * eps, w * eps) == c * eps


def _dot(a, b) -> int:
    return int(inner_product(a, b))


def test_triple_product_identity_on_basis_triples():
    # cross3(a, b, c) = (a.b)c + (b.c)a - (a.c)b - a conj(b) c.  Both sides
    # are trilinear over Z, so the 64 basis triples prove it everywhere.
    for a in BASIS:
        for b in BASIS:
            for c in BASIS:
                rhs = (
                    _dot(a, b) * c
                    + _dot(b, c) * a
                    - _dot(a, c) * b
                    - a * b.conjugate() * c
                )
                assert cross3(a, b, c) == rhs


@pytest.mark.parametrize("axis", range(4))
def test_cross_suites_fail_on_a_sign_flipped_cross_product(monkeypatch, axis):
    cross4 = quatlat._kernel.cross4

    def flipped(u, v, w):
        c = list(cross4(u, v, w))
        c[axis] = -c[axis]
        return tuple(c)

    monkeypatch.setattr(quatlat._kernel, "cross4", flipped)
    assert not run_check("thm-4-3").passed
    assert not run_check("thm-4-4").passed


def test_cross_of_left_multiples_lands_in_left_ideal():
    rng = random.Random(3110)
    for _ in range(200):
        alpha = random_lipschitz(rng, 8)
        if alpha.is_zero:
            continue
        beta = random_lipschitz(rng, 8)
        gamma = random_lipschitz(rng, 8)
        delta = random_lipschitz(rng, 8)
        c = cross3(alpha * beta, alpha * gamma, delta)
        assert is_multiple(c, alpha, "left", lipschitz_cofactor=True)


def test_left_ideal_membership_is_genuinely_one_sided():
    alpha = HurwitzQuaternion.from_coords(1, 2, 0, 0)
    beta = HurwitzQuaternion.from_coords(1, 1, 0, 0)
    gamma = HurwitzQuaternion.from_coords(1, 0, 1, 0)
    c = cross3(alpha * beta, alpha * gamma, beta)
    assert c == HurwitzQuaternion.from_coords(0, 0, -8, 4)
    assert is_multiple(c, alpha, "left", lipschitz_cofactor=True)
    assert not is_multiple(c, alpha, "right")


def test_cross_norm_is_zero_iff_dependent():
    rng = random.Random(3111)
    for _ in range(200):
        u = random_lipschitz(rng, 10)
        v = random_lipschitz(rng, 10)
        w = random_lipschitz(rng, 10)
        if cross3(u, v, w).norm() == 0:
            assert gram_norm(u, v, w) == 0
        else:
            assert gram_norm(u, v, w) > 0


def _leibniz(rows):
    """Determinant as the signed sum over permutations: the oracle."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(
            1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
        )
        term = -1 if inversions % 2 else 1
        for row, col in zip(rows, perm):
            term *= row[col]
        total += term
    return total


def test_det_int_matches_leibniz_at_every_size():
    rng = random.Random(3121)
    assert det_int([]) == 1
    for n in range(1, 8):
        for bound in (1, 9, 10**6):
            rows = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
            assert det_int(rows) == _leibniz(rows), rows


def test_det_int_swaps_zero_pivots():
    rng = random.Random(3122)
    for n in range(2, 8):
        # Scaled permutation matrices put a zero on most pivots.
        for _ in range(5):
            perm = list(range(n))
            rng.shuffle(perm)
            rows = [[0] * n for _ in range(n)]
            for i, col in enumerate(perm):
                rows[i][col] = rng.choice((-3, -1, 2, 5))
            assert det_int(rows) == _leibniz(rows), rows
        rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        rows[0][0] = 0
        assert det_int(rows) == _leibniz(rows), rows


def test_det_int_is_zero_on_singular_matrices():
    rng = random.Random(3123)
    for n in range(2, 8):
        rows = [[rng.randint(-20, 20) for _ in range(n)] for _ in range(n - 1)]
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        rows.append([a * x + b * y for x, y in zip(rows[0], rows[-1])])
        rng.shuffle(rows)
        assert det_int(rows) == 0
        for row in rows:
            row[n // 2] = 0
        assert det_int(rows) == 0


def test_cross_products_reject_malformed_vectors():
    with pytest.raises(DimensionMismatch, match="at least one"):
        cross_general([])
    with pytest.raises(DimensionMismatch, match="length 3"):
        cross_general([(1, 2, 3), (4, 5)])
    with pytest.raises(DimensionMismatch, match="length 4, got 3"):
        triple_scalar((1, 0, 0), I, J, K)
    with pytest.raises(DimensionMismatch, match="ints"):
        triple_scalar((1, 0, 0, 0.5), I, J, K)


def test_det_int_rejects_non_square_input():
    for rows in ([[1, 2]], [[1, 2], [3]], [[1], [2]], [[1, 2, 3], [4, 5, 6]]):
        with pytest.raises(DimensionMismatch):
            det_int(rows)


@pytest.mark.parametrize("n", [5, 6])
def test_cross_general_is_the_defining_pairing_beyond_four(n):
    rng = random.Random(3124 + n)
    for _ in range(5):
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n - 1)]
        w = cross_general(rows)
        for _ in range(3):
            v = [rng.randint(-9, 9) for _ in range(n)]
            assert sum(a * b for a, b in zip(w, v)) == _leibniz(rows + [v])
