"""One-sided division, Bezout gcds, cofactors, and Gaussian gcds.

The division contract under test: divide(a, b, "right") solves
a = b * q + r, divide(a, b, "left") solves a = q * b + r, with
2 * N(r) <= N(b) for Hurwitz quotients and N(r) <= N(b) when the
quotient is restricted to Lipschitz form.

The library forms only the winning remainder of a division, carries one
Bezout witness through the gcd loop, writes the canonical associate's
units down from the signs of the coordinates, and takes the Bezout
coefficient of the norms from a modular inverse.  Test-only references
hold each form bit for bit: division that forms both remainders, a loop
that carries both witnesses, the minimum over all 24 associates, the
integer extended Euclid `pure.xgcd`, and the object-level gcd wrapper
that multiplied out all 24 associates and recovered y with `cofactor`.
Hypothesis properties hold the contracts at doubled coordinates up to
2^40, and `pure.qdivmod`, whose products are written out inline, to
the two-candidate reference up to 2^200.
"""

import math
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from quatlat import (
    ONE,
    UNITS,
    ZERO,
    BothZero,
    DivisionByZero,
    GaussianInteger,
    HurwitzQuaternion,
    I,
    J,
    K,
    canonical_associate,
    cofactor,
    divide,
    gaussian_gcd,
    gcd,
    is_associate,
    is_multiple,
)
from quatlat import _kernel, core, euclid
from quatlat._kernel import pure
from conftest import random_hurwitz, random_lipschitz, random_nonzero


def test_right_division_invariant():
    rng = random.Random(2101)
    for _ in range(500):
        a = random_hurwitz(rng, 40)
        b = random_nonzero(rng, 20, hurwitz=True)
        res = divide(a, b, "right")
        assert res.side == "right"
        assert a == b * res.quotient + res.remainder
        assert 2 * res.remainder.norm() <= b.norm()


def test_left_division_invariant():
    rng = random.Random(2102)
    for _ in range(500):
        a = random_hurwitz(rng, 40)
        b = random_nonzero(rng, 20, hurwitz=True)
        res = divide(a, b, "left")
        assert res.side == "left"
        assert a == res.quotient * b + res.remainder
        assert 2 * res.remainder.norm() <= b.norm()


def test_lipschitz_only_division_keeps_integer_quotient():
    rng = random.Random(2103)
    for _ in range(400):
        a = random_lipschitz(rng, 40)
        b = random_nonzero(rng, 20)
        for side in ("left", "right"):
            res = divide(a, b, side, lipschitz_only=True)
            assert res.quotient.is_lipschitz
            assert res.remainder.norm() <= b.norm()
            if side == "right":
                assert a == b * res.quotient + res.remainder
            else:
                assert a == res.quotient * b + res.remainder


def test_exact_division_leaves_zero_remainder():
    rng = random.Random(2104)
    for _ in range(200):
        b = random_nonzero(rng, 15, hurwitz=True)
        q = random_hurwitz(rng, 15)
        res = divide(b * q, b, "right")
        assert res.remainder == ZERO and res.quotient == q
        res = divide(q * b, b, "left")
        assert res.remainder == ZERO and res.quotient == q


def test_division_by_zero_raises():
    with pytest.raises(DivisionByZero):
        divide(ONE, ZERO, "right")
    with pytest.raises(ZeroDivisionError):
        divide(ONE, ZERO, "left")


def test_kernel_division_by_zero_raises():
    # divide refuses a zero divisor first, so only a direct call reaches
    # the kernel's own check.
    for right_quotient in (True, False):
        with pytest.raises(ZeroDivisionError, match="^quaternion division by zero$"):
            _kernel.qdivmod((2, 0, 0, 0), (0, 0, 0, 0), right_quotient)


def test_division_tie_breaks_deterministically():
    # Whatever candidate wins, reruns win identically.
    rng = random.Random(2105)
    for _ in range(200):
        a = random_hurwitz(rng, 30)
        b = random_nonzero(rng, 10, hurwitz=True)
        first = divide(a, b, "right")
        again = divide(a, b, "right")
        assert first.quotient == again.quotient
        assert first.remainder == again.remainder


def test_right_gcd_bezout_witnesses():
    rng = random.Random(2106)
    for _ in range(300):
        a = random_hurwitz(rng, 25)
        b = random_hurwitz(rng, 25)
        if a.is_zero and b.is_zero:
            continue
        res = gcd(a, b, "right")
        g = res.gcd
        assert res.x * a + res.y * b == g
        assert is_multiple(a, g, "right")
        assert is_multiple(b, g, "right")


def test_left_gcd_bezout_witnesses():
    rng = random.Random(2107)
    for _ in range(300):
        a = random_hurwitz(rng, 25)
        b = random_hurwitz(rng, 25)
        if a.is_zero and b.is_zero:
            continue
        res = gcd(a, b, "left")
        g = res.gcd
        assert a * res.x + b * res.y == g
        assert is_multiple(a, g, "left")
        assert is_multiple(b, g, "left")


def test_gcd_is_canonical_and_order_insensitive():
    rng = random.Random(2108)
    for _ in range(150):
        a = random_nonzero(rng, 20, hurwitz=True)
        b = random_nonzero(rng, 20, hurwitz=True)
        right = gcd(a, b, "right").gcd
        # A right gcd is determined up to a left unit; the canonical
        # pick must erase that freedom.
        assert canonical_associate(right, "left")[0] == right
        assert gcd(b, a, "right").gcd == right
        left = gcd(a, b, "left").gcd
        assert canonical_associate(left, "right")[0] == left
        assert gcd(b, a, "left").gcd == left


def test_gcd_absorbs_common_factor():
    rng = random.Random(2109)
    for _ in range(150):
        d = random_nonzero(rng, 8, hurwitz=True)
        u = random_hurwitz(rng, 8)
        v = random_hurwitz(rng, 8)
        if (u * d).is_zero and (v * d).is_zero:
            continue
        g = gcd(u * d, v * d, "right").gcd
        assert is_multiple(g, d, "right")
        g = gcd(d * u, d * v, "left").gcd
        assert is_multiple(g, d, "left")


def test_gcd_with_zero_and_both_zero():
    a = HurwitzQuaternion.from_coords(1, 1, 1, 0)
    res = gcd(a, ZERO, "right")
    assert is_associate(res.gcd, a, "left")
    assert res.x * a + res.y * ZERO == res.gcd
    with pytest.raises(BothZero):
        gcd(ZERO, ZERO, "right")


def test_coprime_pair_reaches_a_unit():
    res = gcd(HurwitzQuaternion.from_coords(1, 1, 0, 0), HurwitzQuaternion.from_coords(1, 0, 1, 0), "right")
    assert res.gcd.norm() == 1 or res.gcd.norm() == 2
    res = gcd(HurwitzQuaternion.from_integer(3), HurwitzQuaternion.from_integer(5), "right")
    assert res.gcd.is_unit


def test_cofactor_recovers_exact_quotients():
    rng = random.Random(2110)
    for _ in range(300):
        d = random_nonzero(rng, 12, hurwitz=True)
        m = random_hurwitz(rng, 12)
        assert cofactor(d * m, d, "left") == m
        assert cofactor(m * d, d, "right") == m


def test_cofactor_returns_none_off_lattice():
    rng = random.Random(2111)
    misses = 0
    for _ in range(300):
        d = random_nonzero(rng, 8)
        m = random_lipschitz(rng, 8)
        bumped = d * m + ONE
        got = cofactor(bumped, d, "left")
        if got is None:
            misses += 1
        else:
            assert d * got == bumped
    assert misses > 200


def test_is_multiple_distinguishes_lipschitz_cofactors():
    d = HurwitzQuaternion.from_coords(1, 1, 0, 0)
    omega = HurwitzQuaternion(1, 1, 1, 1)
    a = d * omega
    assert a.is_lipschitz
    assert is_multiple(a, d, "left")
    assert not is_multiple(a, d, "left", lipschitz_cofactor=True)
    twice = d * HurwitzQuaternion.from_coords(1, 1, 1, 1)
    assert is_multiple(twice, d, "left", lipschitz_cofactor=True)


def test_is_multiple_sides_differ():
    alpha = HurwitzQuaternion.from_coords(1, 2, 0, 0)
    target = HurwitzQuaternion.from_coords(0, 0, -8, 4)
    assert is_multiple(target, alpha, "left", lipschitz_cofactor=True)
    assert not is_multiple(target, alpha, "right")


def test_unit_divides_everything():
    rng = random.Random(2112)
    for _ in range(100):
        a = random_hurwitz(rng, 20)
        eps = UNITS[rng.randrange(24)]
        assert is_multiple(a, eps, "left")
        assert is_multiple(a, eps, "right")


def test_gaussian_gcd_known_values():
    assert gaussian_gcd(GaussianInteger(2, 1), GaussianInteger(1, 3)) == GaussianInteger(2, 1)
    assert gaussian_gcd(GaussianInteger(4, 0), GaussianInteger(6, 0)) == GaussianInteger(2, 0)
    assert gaussian_gcd(GaussianInteger(3, 0), GaussianInteger(5, 0)) == GaussianInteger(1, 0)
    assert gaussian_gcd(GaussianInteger(0, 5), GaussianInteger(5, 0)) == GaussianInteger(5, 0)


def test_gaussian_gcd_divides_and_is_canonical():
    rng = random.Random(2113)

    def divides(g: GaussianInteger, z: GaussianInteger) -> bool:
        n = g.norm()
        prod = z * g.conjugate()
        return prod.re % n == 0 and prod.im % n == 0

    for _ in range(300):
        z = GaussianInteger(rng.randint(-30, 30), rng.randint(-30, 30))
        w = GaussianInteger(rng.randint(-30, 30), rng.randint(-30, 30))
        if z == GaussianInteger(0, 0) and w == GaussianInteger(0, 0):
            continue
        g = gaussian_gcd(z, w)
        assert divides(g, z) and divides(g, w)
        assert g.re > 0 and g.im >= 0  # half-open first quadrant
        assert gaussian_gcd(w, z) == g
        scaled = gaussian_gcd(z * GaussianInteger(0, 1), w * GaussianInteger(0, 1))
        assert scaled == g


def _gaussian_gcd_reference(z: GaussianInteger, w: GaussianInteger) -> GaussianInteger:
    # The Euclid loop on GaussianInteger objects that gaussian_gcd runs
    # on plain ints: same rounding, same quadrant rotation.
    while not w.is_zero:
        n = w.norm()
        num = z * w.conjugate()
        q = GaussianInteger((2 * num.re + n) // (2 * n), (2 * num.im + n) // (2 * n))
        z, w = w, z - q * w
    while not (z.re > 0 and z.im >= 0):
        z = GaussianInteger(-z.im, z.re)
    return z


_gaussian_coord = st.one_of(st.integers(-50, 50), st.integers(-(2**100), 2**100))
_gaussian = st.builds(GaussianInteger, _gaussian_coord, _gaussian_coord)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_gaussian, _gaussian)
def test_gaussian_gcd_matches_object_loop(z, w):
    zero = GaussianInteger(0, 0)
    for a, b in ((z, w), (w, z), (z, zero), (zero, w)):
        if a.is_zero and b.is_zero:
            with pytest.raises(BothZero):
                gaussian_gcd(a, b)
        else:
            assert gaussian_gcd(a, b) == _gaussian_gcd_reference(a, b)


def test_division_handles_basis_vectors():
    res = divide(HurwitzQuaternion.from_coords(7, 2, -1, 0), HurwitzQuaternion.from_coords(1, 1, 1, 1), "right")
    b = HurwitzQuaternion.from_coords(1, 1, 1, 1)
    assert HurwitzQuaternion.from_coords(7, 2, -1, 0) == b * res.quotient + res.remainder
    assert 2 * res.remainder.norm() <= b.norm()
    for unit in (I, J, K):
        exact = divide(unit, unit, "left")
        assert exact.quotient == ONE and exact.remainder == ZERO


# ---------------------------------------------------------------------------
# References: division that forms both candidates' remainders and ranks
# them by norm, the Euclidean loop carrying both Bezout witnesses, and
# the minimum over all 24 associates.

_Z4 = (0, 0, 0, 0)
_BANDS = (40, 2**25, 2**40)


def _ref_candidates(a, b, right_quotient):
    """The even and the odd rounded quotient, each as (N(r), q, r)."""
    n = pure.qnorm(b)
    if right_quotient:
        num = pure.qmul(pure.qconj(b), a)
    else:
        num = pure.qmul(a, pure.qconj(b))
    two_n = 2 * n
    out = []
    for q in (
        tuple(2 * ((x + n) // two_n) for x in num),
        tuple(2 * (x // two_n) + 1 for x in num),
    ):
        r = pure.qsub(a, pure.qmul(b, q) if right_quotient else pure.qmul(q, b))
        out.append((pure.qnorm(r), q, r))
    return out


def _ref_qdivmod(a, b, right_quotient, lipschitz_only=False):
    (ne, qe, re), (no, qo, ro) = _ref_candidates(a, b, right_quotient)
    if lipschitz_only or (ne, qe) <= (no, qo):
        return qe, re
    return qo, ro


def _ref_canonical(u, side):
    """(canonical, unit) as doubled tuples, the first minimum over UNITS."""
    best = best_unit = None
    for e in UNITS:
        ed = e.doubled
        cand = pure.qmul(ed, u) if side == "left" else pure.qmul(u, ed)
        if best is None or cand < best:
            best, best_unit = cand, ed
    return best, best_unit


def _ref_gcd(a, b, side):
    right = side == "right"
    r0, r1 = a, b
    x0, x1 = (2, 0, 0, 0), _Z4
    y0, y1 = _Z4, (2, 0, 0, 0)
    while r1 != _Z4:
        q, r2 = _ref_qdivmod(r0, r1, not right)
        if right:
            x2 = pure.qsub(x0, pure.qmul(q, x1))
            y2 = pure.qsub(y0, pure.qmul(q, y1))
        else:
            x2 = pure.qsub(x0, pure.qmul(x1, q))
            y2 = pure.qsub(y0, pure.qmul(y1, q))
        r0, x0, y0 = r1, x1, y1
        r1, x1, y1 = r2, x2, y2
    canon, unit = _ref_canonical(r0, "left" if right else "right")
    if right:
        return canon, pure.qmul(unit, x0), pure.qmul(unit, y0)
    return canon, pure.qmul(x0, unit), pure.qmul(y0, unit)


def _oracle_split(u, n):
    two_n = 2 * n
    c = tuple((e + n) // two_n for e in u)
    return tuple(2 * k for k in c), tuple(e - two_n * k for e, k in zip(u, c))


def _oracle_reduced_euclid(a, b, right):
    """The reduced loop with the norms' Bezout coefficient from `pure.xgcd`."""
    m, s, _ = pure.xgcd(pure.qnorm(a), pure.qnorm(b))
    w = tuple(s * c for c in pure.qconj(a))
    if m == 1:
        return (2, 0, 0, 0), w
    ca, a_m = _oracle_split(a, m)
    cb, b_m = _oracle_split(b, m)
    if right:
        x_a, x_b = pure.qmul(ca, w), pure.qmul(cb, w)
    else:
        x_a, x_b = pure.qmul(w, ca), pure.qmul(w, cb)
    x_a, x_b = pure.qsub((2, 0, 0, 0), x_a), pure.qneg(x_b)
    r, x = euclid._euclid(a_m, x_a, (2 * m, 0, 0, 0), w, right)
    return euclid._euclid(r, x, b_m, x_b, right)


def _oracle_gcd(a, b, side, reduce):
    """`euclid.gcd` on the path reduce names, as it was on
    HurwitzQuaternion objects.

    The canonical associate is the minimum over all 24 units, and y is
    the `cofactor` of b in g - x*a (g - a*x on the left).
    """
    right = side == "right"
    if reduce:
        r, x = _oracle_reduced_euclid(a.doubled, b.doubled, right)
    else:
        r, x = euclid._euclid(a.doubled, (2, 0, 0, 0), b.doubled, _Z4, right)
    canon, unit = _ref_canonical(r, "left" if right else "right")
    canon, unit = HurwitzQuaternion(*canon), HurwitzQuaternion(*unit)
    x = unit * HurwitzQuaternion(*x) if right else HurwitzQuaternion(*x) * unit
    if reduce and not b.is_zero:
        x = HurwitzQuaternion(*_oracle_split(x.doubled, b.norm() // canon.norm())[1])
    if b.is_zero:
        y = ZERO
    else:
        y = cofactor(canon - x * a if right else canon - a * x, b, side)
    return canon.doubled, x.doubled, y.doubled


def _gcd_on_path(a, b, side, reduce):
    """Public `gcd`, which reduces at every size, or the plain loop: the
    CLI's `_cli_gcd` with its threshold out of reach."""
    if reduce:
        return gcd(a, b, side)
    with mock.patch.object(euclid, "_REDUCE_FROM", float("inf")):
        return euclid._cli_gcd(a, b, side)


def _assert_gcd_matches_the_oracle(a, b, side):
    for reduce in (False, True):
        res = _gcd_on_path(a, b, side, reduce)
        assert res.side == side
        got = (res.gcd.doubled, res.x.doubled, res.y.doubled)
        assert got == _oracle_gcd(a, b, side, reduce), (a, b, side, reduce)


def _seeded_pairs(rng, span, count):
    """count (a, b) doubled pairs, either parity, some a or b zero."""
    pairs = [(_Z4, random_nonzero(rng, span, hurwitz=True).doubled)]
    pairs.append((pairs[0][1], _Z4))
    for _ in range(count):
        pairs.append((random_hurwitz(rng, span).doubled, random_hurwitz(rng, span).doubled))
    return pairs


def _tied_pairs(rng, span, count):
    """Divisions whose two candidates leave remainders of equal norm.

    With b = 2c and a = c*w (a = w*c for a left quotient) the exact
    quotient is w/2.  A half-odd w puts every doubled coordinate of w/2
    half-way between an even and an odd integer, and a Lipschitz w with
    exactly two even integer coordinates gives distances 1, 1, 0, 0: in
    both cases the two candidates tie.
    """
    out = []
    for _ in range(count):
        c = random_nonzero(rng, span, hurwitz=True).doubled
        if rng.randint(0, 1):
            w = random_hurwitz(rng, span).doubled
            w = tuple(x | 1 for x in w)
        else:
            coords = [2 * rng.randint(-span, span) for _ in range(2)]
            coords += [2 * rng.randint(-span, span) + 1 for _ in range(2)]
            rng.shuffle(coords)
            w = tuple(2 * x for x in coords)
        b = tuple(2 * x for x in c)
        for right_quotient in (True, False):
            a = pure.qmul(c, w) if right_quotient else pure.qmul(w, c)
            out.append((a, b, right_quotient))
    return out


@pytest.mark.parametrize("span", _BANDS)
def test_division_matches_the_two_candidate_reference(span):
    rng = random.Random(2114 + span.bit_length())
    for a, b in _seeded_pairs(rng, span, 300):
        if b == _Z4:
            continue
        for right_quotient in (True, False):
            for lipschitz_only in (False, True):
                want = _ref_qdivmod(a, b, right_quotient, lipschitz_only)
                assert _kernel.qdivmod(a, b, right_quotient, lipschitz_only) == want
                assert pure.qdivmod(a, b, right_quotient, lipschitz_only) == want


def test_division_ties_follow_the_reference():
    rng = random.Random(2115)
    winners = set()
    for span in (1, 3, 40, 2**25, 2**40):
        for a, b, right_quotient in _tied_pairs(rng, span, 60):
            (ne, qe, _), (no, qo, _) = _ref_candidates(a, b, right_quotient)
            assert ne == no
            want = _ref_qdivmod(a, b, right_quotient)
            assert _kernel.qdivmod(a, b, right_quotient) == want
            assert pure.qdivmod(a, b, right_quotient) == want
            winners.add(want[0] == qe)
    # Ties are decided both ways: the even quotient is not always the
    # lexicographically smaller one.
    assert winners == {True, False}


# Doubled coordinates up to 2^200, either parity, with small entries
# drawn often so that magnitudes mix within and across the two tuples.
_wide = 2**199
_wide_coord = st.one_of(st.integers(-3, 3), st.integers(-_wide, _wide - 1))
_wide_doubled = st.builds(
    lambda coords, odd: tuple(2 * c + odd for c in coords),
    st.tuples(*[_wide_coord] * 4),
    st.integers(0, 1),
)
# Ties as `_tied_pairs` builds them: b = 2c and a = c*w or w*c, w
# half-odd or Lipschitz with two even and two odd integer coordinates.
_tie_c = (2**150 + 1, -3, 5, -(2**120) - 1)
_tie_b = tuple(2 * x for x in _tie_c)
_tie_w = (7, -1, 2**90 + 1, 3)
_tie_w_lipschitz = (4, 2, 2 * (2**80 + 1), -8)
# Zero remainders: a = b*q or a = q*b, q half-odd or (for the
# Lipschitz-only division) Lipschitz.
_exact_b = (2**101, 6, -(2**60), 4)
_exact_q = (-5, 2**70 + 1, 1, -3)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    _wide_doubled,
    _wide_doubled.filter(lambda b: b != _Z4),
    st.booleans(),
    st.booleans(),
)
@example(pure.qmul(_tie_c, _tie_w), _tie_b, True, False)
@example(pure.qmul(_tie_w, _tie_c), _tie_b, False, False)
@example(pure.qmul(_tie_c, _tie_w_lipschitz), _tie_b, True, False)
@example(pure.qmul(_tie_w_lipschitz, _tie_c), _tie_b, False, False)
@example(pure.qmul(_exact_b, _exact_q), _exact_b, True, False)
@example(pure.qmul(_exact_q, _exact_b), _exact_b, False, False)
@example(pure.qmul((2, -4, 2**71, 6), _exact_b), _exact_b, False, True)
def test_qdivmod_matches_the_two_candidate_reference(a, b, right_quotient, lipschitz_only):
    want = _ref_qdivmod(a, b, right_quotient, lipschitz_only)
    assert pure.qdivmod(a, b, right_quotient, lipschitz_only) == want


def _assert_reduced_witnesses(a, b, res):
    """Bezout holds and every doubled entry of x is at most N(b)/N(g)."""
    if res.side == "right":
        assert res.x * a + res.y * b == res.gcd
    else:
        assert a * res.x + b * res.y == res.gcd
    if not b.is_zero:
        bound = b.norm() // res.gcd.norm()
        assert all(abs(e) <= bound for e in res.x.doubled), (res.x, bound)


@pytest.mark.parametrize("span", _BANDS)
def test_gcd_matches_the_two_witness_reference(span):
    # Public gcd reduces modulo gcd(N(a), N(b)) first at every size: the
    # gcd is still the reference's, the witnesses are other valid ones.
    # The CLI's helper runs the plain loop below the crossover (and with
    # a zero argument), so there its witnesses are Euclid's byte for
    # byte; above it, it is public gcd.
    rng = random.Random(2116 + span.bit_length())
    for a, b in _seeded_pairs(rng, span, 60):
        ha, hb = HurwitzQuaternion(*a), HurwitzQuaternion(*b)
        reduced = min(ha.norm(), hb.norm()) >= euclid._REDUCE_FROM
        assert reduced == (span > 40 and _Z4 not in (a, b))
        for side in ("right", "left"):
            res = gcd(ha, hb, side)
            want = _ref_gcd(a, b, side)
            assert res.gcd.doubled == want[0], (a, b, side)
            _assert_reduced_witnesses(ha, hb, res)
            plain = euclid._cli_gcd(ha, hb, side)
            if reduced:
                assert plain == res, (a, b, side)
            else:
                got = (plain.gcd.doubled, plain.x.doubled, plain.y.doubled)
                assert got == want, (a, b, side)


@pytest.mark.parametrize("span", _BANDS)
def test_gcd_matches_the_object_oracle_on_both_paths(span):
    rng = random.Random(2118 + span.bit_length())
    for a, b in _seeded_pairs(rng, span, 60):
        for side in ("right", "left"):
            _assert_gcd_matches_the_oracle(
                HurwitzQuaternion(*a), HurwitzQuaternion(*b), side
            )


@pytest.mark.parametrize("side", ("right", "left"))
@pytest.mark.parametrize(
    "other",
    (
        HurwitzQuaternion(3, 5, -7, 9),
        HurwitzQuaternion.from_coords(3, 5, -7, 2),
        HurwitzQuaternion.from_coords(2**40 + 1, -(2**39), 5, 2**41),
        K,  # a unit: m = 1 with a zero partner
    ),
)
def test_reduced_gcd_with_a_zero_argument(other, side):
    # N(ZERO) = 0: the Bezout of the norms takes its nb = 0 guard for
    # (other, ZERO) and its nb = m guard for (ZERO, other).
    for a, b in ((other, ZERO), (ZERO, other)):
        _assert_gcd_matches_the_oracle(a, b, side)
        res = _gcd_on_path(a, b, side, True)
        assert is_associate(res.gcd, other, "left" if side == "right" else "right")
        if side == "right":
            assert res.x * a + res.y * b == res.gcd
        else:
            assert a * res.x + b * res.y == res.gcd


@pytest.mark.parametrize("side", ("right", "left"))
def test_the_reduced_path_starts_at_the_threshold(side):
    # In the CLI's helper the smaller norm decides: 2^32 - 1 runs the
    # plain loop, 2^32 the reduced path, whichever argument carries it.
    # The two paths give the same gcd and different witnesses on every
    # pair here.
    assert euclid._REDUCE_FROM == 2**32
    below = HurwitzQuaternion.from_coords(65535, 362, 5, 1)
    at = HurwitzQuaternion.from_coords(2**16, 0, 0, 0)
    assert (below.norm(), at.norm()) == (2**32 - 1, 2**32)
    larger = (
        HurwitzQuaternion.from_coords(70001, -3, 2, 9),  # a unit gcd
        HurwitzQuaternion.from_coords(2**17, 2**16, 6, 0),  # gcd of norm 4 with at
    )
    for b in larger:
        assert b.norm() > 2**32
        for small, reduce in ((below, False), (at, True)):
            for pair in ((small, b), (b, small)):
                plain = _gcd_on_path(*pair, side, False)
                reduced = _gcd_on_path(*pair, side, True)
                assert plain.gcd == reduced.gcd and plain != reduced
                assert euclid._cli_gcd(*pair, side) == (reduced if reduce else plain), (pair, side)


@pytest.mark.parametrize("side", ("right", "left"))
def test_public_gcd_reduces_at_small_norms(side):
    # Far below the crossover, with units and zero partners, public gcd
    # is the reduced path of the object oracle and bounds its x.
    rng = random.Random(2119)
    samples = [ZERO, *UNITS] + [random_hurwitz(rng, 40) for _ in range(30)]
    for a in samples:
        for b in samples:
            if a.is_zero and b.is_zero:
                continue
            res = gcd(a, b, side)
            got = (res.gcd.doubled, res.x.doubled, res.y.doubled)
            assert got == _oracle_gcd(a, b, side, True), (a, b)
            _assert_reduced_witnesses(a, b, res)


def test_canonical_associate_is_the_brute_force_minimum():
    rng = random.Random(2117)
    samples = [ZERO] + list(UNITS)
    for span in (1, 2, 40, 2**40):
        samples += [random_hurwitz(rng, span) for _ in range(300)]
    for u in samples:
        for side in ("left", "right"):
            canon, unit = canonical_associate(u, side)
            assert (canon.doubled, unit.doubled) == _ref_canonical(u.doubled, side)


# ---------------------------------------------------------------------------
# Properties at doubled coordinates up to 2^40, either parity.

_properties = settings(derandomize=True, deadline=None)
_half = 2**39
_hurwitz = st.builds(
    lambda coords, odd: HurwitzQuaternion(*(2 * c + odd for c in coords)),
    st.tuples(*[st.integers(-_half, _half - 1)] * 4),
    st.integers(0, 1),
)
_nonzero = _hurwitz.filter(lambda u: not u.is_zero)
_sides = st.sampled_from(("right", "left"))


@_properties
@given(_hurwitz, _nonzero, _sides)
def test_division_contract_property(a, b, side):
    res = divide(a, b, side)
    product = b * res.quotient if side == "right" else res.quotient * b
    assert a == product + res.remainder
    assert 2 * res.remainder.norm() <= b.norm()
    res = divide(a, b, side, lipschitz_only=True)
    product = b * res.quotient if side == "right" else res.quotient * b
    assert a == product + res.remainder
    assert res.quotient.is_lipschitz
    assert res.remainder.norm() <= b.norm()


@_properties
@given(_hurwitz, _hurwitz, _sides)
def test_bezout_identity_property(a, b, side):
    if a.is_zero and b.is_zero:
        return
    res = gcd(a, b, side)
    if side == "right":
        assert res.x * a + res.y * b == res.gcd
    else:
        assert a * res.x + b * res.y == res.gcd


# Pairs for the reduced path, one shape per case it must get right.
_small = st.builds(
    lambda coords, odd: HurwitzQuaternion(*(2 * c + odd for c in coords)),
    st.tuples(*[st.integers(-2**12, 2**12 - 1)] * 4),
    st.integers(0, 1),
)
_small_nonzero = _small.filter(lambda u: not u.is_zero)
_unit = st.sampled_from(UNITS)
_ONE_PLUS_I = HurwitzQuaternion.from_coords(1, 1, 0, 0)
_reduced_pairs = st.one_of(
    # Either parity on each side, so mixed pairs too.
    st.tuples(_hurwitz, _nonzero),
    # A zero argument.
    st.tuples(_nonzero, st.just(ZERO)),
    st.tuples(st.just(ZERO), _nonzero),
    # Equal norms: associates on either side, and a conjugate.
    st.builds(lambda u, e: (u, e * u), _nonzero, _unit),
    st.builds(lambda u, e: (u, u * e), _nonzero, _unit),
    st.builds(lambda u: (u, u.conjugate()), _nonzero),
    # An even m: both norms are even.
    st.builds(lambda u, v: (u * _ONE_PLUS_I, _ONE_PLUS_I * v), _nonzero, _nonzero),
    # m = 1: coprime norms.
    st.tuples(_hurwitz, _nonzero).filter(
        lambda p: math.gcd(p[0].norm(), p[1].norm()) == 1
    ),
    # A shared nontrivial right factor, and a shared left one.
    st.builds(lambda u, v, g: (u * g, v * g), _small, _small_nonzero, _small_nonzero),
    st.builds(lambda u, v, g: (g * u, g * v), _small, _small_nonzero, _small_nonzero),
)


@_properties
@given(_reduced_pairs, _sides)
def test_reduced_gcd_matches_the_plain_loop_property(pair, side):
    a, b = pair
    res = _gcd_on_path(a, b, side, True)
    assert res.gcd == _gcd_on_path(a, b, side, False).gcd
    _assert_reduced_witnesses(a, b, res)


@_properties
@given(_reduced_pairs, _sides)
def test_gcd_matches_the_object_oracle_property(pair, side):
    _assert_gcd_matches_the_oracle(*pair, side)


_norm = st.one_of(st.integers(0, 50), st.integers(0, 2**90))
_norm_pairs = st.one_of(
    st.tuples(_norm, _norm),
    # 0, equal arguments, b | a and a | b.
    st.builds(lambda n: (0, n), _norm),
    st.builds(lambda n: (n, 0), _norm),
    st.builds(lambda n: (n, n), _norm),
    st.builds(lambda n, k: (n * k, n), _norm, st.integers(0, 2**20)),
    st.builds(lambda n, k: (n, n * k), _norm, st.integers(0, 2**20)),
    # nb / m = 2, where the symmetric residue sits on the boundary.
    st.builds(lambda n, k: (n * (2 * k + 1), 2 * n), _norm, st.integers(0, 2**20)),
)


@_properties
@given(_norm_pairs)
def test_norm_bezout_matches_xgcd_property(pair):
    na, nb = pair
    m, s, _ = pure.xgcd(na, nb)
    assert euclid._bezout(na, nb) == (m, s)


@_properties
@given(_hurwitz, _hurwitz, _sides)
def test_gcd_divides_both_arguments_property(a, b, side):
    if a.is_zero and b.is_zero:
        return
    g = gcd(a, b, side).gcd
    assert is_multiple(a, g, side)
    assert is_multiple(b, g, side)


@_properties
@given(_nonzero, _sides)
def test_canonical_form_is_unique_over_associates_property(u, side):
    canon, unit = canonical_associate(u, side)
    assert canon == (unit * u if side == "left" else u * unit)
    for e in UNITS:
        v = e * u if side == "left" else u * e
        assert v.doubled >= canon.doubled
        assert canonical_associate(v, side)[0] == canon


@_properties
@given(_hurwitz, _hurwitz)
def test_norm_is_multiplicative_property(a, b):
    assert (a * b).norm() == a.norm() * b.norm()
    assert (b * a).norm() == a.norm() * b.norm()


# Coordinate shapes where several units reach the smallest real part: a
# zero coordinate (either half-odd sign), equal magnitudes (several
# axes), and 2*max = sum (axis and half-odd units both), e.g. (t, t, 0, 0)
# and (2t, t, t, 0).
_SHAPES = (
    (1, 0, 0, 0), (1, 1, 0, 0), (2, 1, 1, 0), (3, 1, 1, 1), (1, 1, 1, 0),
    (1, 1, 1, 1), (2, 1, 0, 0), (3, 2, 1, 0), (2, 2, 1, 1), (4, 1, 1, 1),
)


def _shaped(shape, t, order, signs):
    entries = [shape[i] * t * sign for i, sign in zip(order, signs)]
    if len({e & 1 for e in entries}) > 1:
        entries = [2 * e for e in entries]
    return tuple(entries)


_shaped_doubled = st.builds(
    _shaped,
    st.sampled_from(_SHAPES),
    st.integers(1, 2**38),
    st.permutations(range(4)),
    st.tuples(*[st.sampled_from((1, -1))] * 4),
)


@_properties
@given(st.one_of(_hurwitz.map(lambda u: u.doubled), _shaped_doubled), _sides)
def test_closed_form_canonical_associate_property(u, side):
    want = _ref_canonical(u, side)
    assert core._canonical(u, side == "left") == want
    canon, unit = canonical_associate(HurwitzQuaternion(*u), side)
    assert (canon.doubled, unit.doubled) == want
