"""Integer and quaternion factoring: primality, square decompositions,
modelled factorizations, divisor counts, and the semiprime pair census.

Frozen fractions in the census tests come from exhaustive enumeration
over all representation pairs; they are regression pins for the exact
law the census measures, which differs from the predicted closed form
(p+q+2)/((p+1)(q+1)) recorded in the reports.  The census buckets
representations by divisor class, read as points of P^1(F_p) off the
matrix of each representation mod p.  Two references hold it: the
pairwise gcd loop of the pure kernel, count for count, and the Euclid
divisor classes (one-sided gcd with p, canonicalized), class for class.
"""

import random
from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from quatlat import (
    OMEGA,
    BadResidueClass,
    BoundExceeded,
    EvenNorm,
    HurwitzQuaternion,
    I,
    J,
    ModelMismatch,
    ModelledFactorization,
    NotPrimitive,
    NotRepresentable,
    PreconditionViolated,
    PrimeModel,
    factor_modelled,
    four_squares,
    igama_check,
    GaussianInteger,
    is_associate,
    miller_rabin,
    orthogonal_primes_check,
    outer_factor_recovery,
    pall_right_divisors,
    rational_factorize,
    representations,
    semiprime_factor_attempt,
    semiprime_pair_fraction,
    sqrt_minus_one_mod_p,
    two_squares,
    unit_migration_equal,
)
from quatlat._kernel import pure
from quatlat.core import canonical_associate
from quatlat.factor import _line_keys, _matrix_mod_p, _minus_one_as_two_squares


def _is_prime_trial(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def test_miller_rabin_matches_trial_division():
    for n in range(-3, 2000):
        assert miller_rabin(n) == _is_prime_trial(n), n


def test_miller_rabin_known_large_cases():
    assert miller_rabin(2**61 - 1)  # Mersenne prime
    assert not miller_rabin(2**67 - 1)  # 193707721 * 761838257287
    assert not miller_rabin(3215031751)  # strong pseudoprime to bases 2,3,5,7
    assert not miller_rabin(561)  # Carmichael
    assert not miller_rabin(1105)  # Carmichael
    assert miller_rabin(1_000_000_007)
    # Strong pseudoprimes to every prime base up to 19, 37 and 41, which
    # sit on or past the limits of the two fixed base sets.
    assert not miller_rabin(341550071728321)
    assert not miller_rabin(318665857834031151167461)
    assert not miller_rabin(3317044064679887385961981)
    assert not miller_rabin((2**61 - 1) * (2**89 - 1))
    assert miller_rabin(2**89 - 1)
    assert miller_rabin(2**127 - 1)


def test_sqrt_minus_one_mod_p():
    for p in range(5, 600, 4):
        if not _is_prime_trial(p):
            continue
        x = sqrt_minus_one_mod_p(p)
        assert 0 < x < p
        assert (x * x + 1) % p == 0
    with pytest.raises(BadResidueClass):
        sqrt_minus_one_mod_p(7)


def test_two_squares_on_splitting_primes():
    assert two_squares(2) == (1, 1)
    assert two_squares(5) == (1, 2)
    assert two_squares(13) == (2, 3)
    for p in range(5, 1000, 4):
        if not _is_prime_trial(p):
            continue
        a, b = two_squares(p)
        assert a * a + b * b == p
        assert 0 <= a <= b


def test_two_squares_rejects_other_inputs():
    for bad in (7, 9, 21, 3, 11, 15):
        with pytest.raises(NotRepresentable):
            two_squares(bad)


def _brute_four_squares(n: int) -> tuple[int, int, int, int]:
    # First sorted quadruple in lexicographic order, by plain scanning.
    for a in range(isqrt(n) + 1):
        for b in range(a, isqrt(n - a * a) + 1):
            n2 = n - a * a - b * b
            if n2 < 0:
                break
            for c in range(b, isqrt(n2) + 1):
                rest = n2 - c * c
                d = isqrt(rest)
                if d * d == rest and d >= c:
                    return (a, b, c, d)
    raise AssertionError(f"no quadruple for {n}")


def test_four_squares_small_inputs_are_lexicographically_minimal():
    for n in range(1, 320):
        assert four_squares(n) == _brute_four_squares(n)


def test_four_squares_large_inputs_are_valid_and_seeded():
    rng = random.Random(6101)
    for _ in range(60):
        n = rng.randint(1000, 10**7)
        quad = four_squares(n, seed=17)
        assert sum(v * v for v in quad) == n
        assert tuple(sorted(quad)) == quad
        assert four_squares(n, seed=17) == quad


def test_default_seeds_come_from_the_input():
    n = 10**21 + 7
    quad = four_squares(n)
    assert sum(v * v for v in quad) == n
    assert four_squares(n) == quad == four_squares(n, seed=n)
    p = 1000000009
    root = sqrt_minus_one_mod_p(p)
    assert (root * root + 1) % p == 0
    assert sqrt_minus_one_mod_p(p) == root == sqrt_minus_one_mod_p(p, seed=p)
    report = semiprime_factor_attempt(15, 40)
    assert semiprime_factor_attempt(15, 40) == report == semiprime_factor_attempt(15, 40, seed=15)


def test_four_squares_strips_powers_of_four():
    assert four_squares(4096) == (0, 0, 0, 64)
    # 10000 = 4 * 4 * 625 reduces to the deterministic small case.
    assert four_squares(10000) == tuple(sorted(4 * v for v in four_squares(625)))


def test_four_squares_rejects_nonpositive():
    with pytest.raises(PreconditionViolated):
        four_squares(0)
    with pytest.raises(PreconditionViolated):
        four_squares(-4)


def test_rational_factorize():
    assert rational_factorize(2) == [2]
    assert rational_factorize(360) == [2, 2, 2, 3, 3, 5]
    assert rational_factorize(97) == [97]
    assert rational_factorize(2**61 - 1) == [2**61 - 1]
    rng = random.Random(6102)
    for _ in range(40):
        n = rng.randint(2, 10**9)
        fs = rational_factorize(n)
        assert sorted(fs) == fs
        prod = 1
        for p in fs:
            assert miller_rabin(p)
            prod *= p
        assert prod == n
    with pytest.raises(PreconditionViolated):
        rational_factorize(1)


def test_prime_model_validation():
    assert tuple(PrimeModel((3, 5))) == (3, 5)
    with pytest.raises(PreconditionViolated):
        PrimeModel((4, 5))
    with pytest.raises(PreconditionViolated):
        PrimeModel(())


def test_factor_modelled_reconstructs_alpha():
    alpha = HurwitzQuaternion.from_coords(-1, 3, 1, -2)
    for model in ((3, 5), (5, 3)):
        result = factor_modelled(alpha, model)
        assert result.product() == alpha
        assert tuple(f.norm() for f in result.factors) == model


def test_factor_modelled_random_sweep():
    rng = random.Random(6103)
    primes = (3, 5, 7, 11, 13)
    for _ in range(60):
        parts = rng.sample(primes, rng.randint(2, 3))
        pieces = []
        for p in parts:
            pool = representations(p, hurwitz=True)
            pieces.append(pool[rng.randrange(len(pool))])
        alpha = pieces[0]
        for piece in pieces[1:]:
            alpha = alpha * piece
        result = factor_modelled(alpha, tuple(parts))
        assert result.product() == alpha
        assert tuple(f.norm() for f in result.factors) == tuple(parts)
        # Every reordering of the model also factors alpha.
        reordered = tuple(reversed(parts))
        other = factor_modelled(alpha, reordered)
        assert other.product() == alpha
        assert tuple(f.norm() for f in other.factors) == reordered


def test_factor_modelled_rejects_bad_inputs():
    alpha = HurwitzQuaternion.from_coords(-1, 3, 1, -2)
    with pytest.raises(ModelMismatch):
        factor_modelled(alpha, (3, 7))
    with pytest.raises(NotPrimitive):
        factor_modelled(HurwitzQuaternion.from_coords(-2, 6, 2, -4), (3, 5))


def test_unit_migration_detects_twisted_twins():
    alpha = HurwitzQuaternion.from_coords(-1, 3, 1, -2)
    base = factor_modelled(alpha, (3, 5))
    assert unit_migration_equal(base, base)
    # Push a unit through the seam by hand; still the same product.
    for eps_idx in (1, 5, 9, 17):
        from quatlat import UNITS

        eps = UNITS[eps_idx]
        twisted = ModelledFactorization(
            (base.factors[0] * eps, eps.conjugate() * base.factors[1]),
            base.model,
        )
        assert twisted.product() == alpha
        assert unit_migration_equal(base, twisted)
        assert unit_migration_equal(twisted, base)


def test_unit_migration_rejects_broken_twins():
    alpha = HurwitzQuaternion.from_coords(-1, 3, 1, -2)
    base = factor_modelled(alpha, (3, 5))
    broken = ModelledFactorization(
        (base.factors[0] * I, base.factors[1]), base.model
    )
    assert not unit_migration_equal(base, broken)
    other_alpha = HurwitzQuaternion.from_coords(1, 3, 1, 2)
    assert other_alpha.norm() == 15
    other = factor_modelled(other_alpha, (3, 5))
    assert not unit_migration_equal(base, other)
    with pytest.raises(ModelMismatch):
        unit_migration_equal(base, ModelledFactorization(base.factors, PrimeModel((5, 3))))


def test_pall_divisor_counts_are_eight():
    alpha = HurwitzQuaternion.from_coords(-1, 3, 1, -2)
    for m in (1, 3, 5, 15):
        report = pall_right_divisors(alpha, m)
        assert report.count == 8
        assert report.left_associated
        for delta in report.divisors:
            assert delta.norm() == m
            assert delta.is_lipschitz
        first = report.divisors[0]
        for delta in report.divisors[1:]:
            assert is_associate(delta, first, "left")


def test_pall_divisors_actually_divide():
    from quatlat import is_multiple

    alpha = HurwitzQuaternion.from_coords(-1, 3, 1, -2)
    for m in (3, 5):
        for delta in pall_right_divisors(alpha, m).divisors:
            assert is_multiple(alpha, delta, "right", lipschitz_cofactor=True)


def test_pall_input_validation():
    alpha = HurwitzQuaternion.from_coords(-1, 3, 1, -2)
    with pytest.raises(BadResidueClass):
        pall_right_divisors(alpha, 2)
    with pytest.raises(PreconditionViolated):
        pall_right_divisors(alpha, 7)
    with pytest.raises(PreconditionViolated):
        pall_right_divisors(alpha, 0)
    with pytest.raises(NotPrimitive):
        pall_right_divisors(HurwitzQuaternion.from_coords(0, 3, 0, 0), 3)
    with pytest.raises(Exception):
        pall_right_divisors(OMEGA, 1)


def test_igama_known_values():
    shared = igama_check(GaussianInteger(2, 1), GaussianInteger(1, 3))
    assert shared == (False, False, 5)
    coprime = igama_check(GaussianInteger(1, 0), GaussianInteger(1, 1))
    assert coprime.ideal_trivial and coprime.coprime
    assert coprime.gcld_norm == 1
    with pytest.raises(EvenNorm):
        igama_check(GaussianInteger(1, 0), GaussianInteger(0, 1))


def test_igama_booleans_coincide_on_a_box():
    for zr in range(-3, 4):
        for zi in range(-3, 4):
            for wr in range(-3, 4):
                for wi in range(-3, 4):
                    z = GaussianInteger(zr, zi)
                    w = GaussianInteger(wr, wi)
                    if (z.norm() + w.norm()) % 2 == 0:
                        continue
                    res = igama_check(z, w)
                    assert res.ideal_trivial == res.coprime, (z, w)


def test_outer_factor_recovery_positive_pairs():
    pi = HurwitzQuaternion.from_coords(1, 1, 1, 0)
    for rho in (
        HurwitzQuaternion.from_coords(1, 0, 2, 0),
        HurwitzQuaternion.from_coords(2, 0, 1, 0),
    ):
        res = outer_factor_recovery(pi, rho)
        assert res.left_recovers and res.right_recovers
        assert is_associate(res.left_gcd, pi, "right")
        assert is_associate(res.right_gcd, rho, "left")


def test_outer_factor_recovery_negative_pair():
    # The twisted product with rho = 1 + 2i shares no left divisor with
    # the plain product beyond units, so pi is not recovered.
    res = outer_factor_recovery(
        HurwitzQuaternion.from_coords(1, 1, 1, 0),
        HurwitzQuaternion.from_coords(1, 2, 0, 0),
    )
    assert not res.left_recovers
    assert res.right_recovers


def test_outer_factor_recovery_preconditions():
    pi = HurwitzQuaternion.from_coords(1, 1, 1, 0)
    with pytest.raises(PreconditionViolated):
        outer_factor_recovery(pi, HurwitzQuaternion.from_coords(1, 0, 1, 1))
    with pytest.raises(PreconditionViolated):
        outer_factor_recovery(pi, HurwitzQuaternion.from_coords(1, 1, 0, 0))
    with pytest.raises(PreconditionViolated):
        outer_factor_recovery(HurwitzQuaternion.from_integer(3), pi)


def test_orthogonal_prime_tallies():
    expected = {
        3: (96, 576, 288, 288, 0),
        5: (144, 720, 288, 288, 144),
        7: (192, 1152, 576, 576, 0),
    }
    for p, (elements, pairs, left_only, right_only, both) in expected.items():
        rep = orthogonal_primes_check(p)
        assert rep.passed and bool(rep)
        assert rep.failures == ()
        assert rep.elements == elements
        assert rep.orthogonal_pairs == pairs
        assert rep.left_only_pairs == left_only
        assert rep.right_only_pairs == right_only
        assert rep.both_sides_pairs == both
        assert left_only + right_only + both == pairs


def test_orthogonal_primes_check_rejects_composites():
    with pytest.raises(PreconditionViolated):
        orthogonal_primes_check(9)


def test_pair_fraction_exact_census():
    # Measured law over all ordered representation pairs; both one-sided
    # conventions agree, "either" is strictly larger.
    expected = {
        (3, 5): (36864, Fraction(1, 3), Fraction(9, 16), Fraction(5, 12)),
        (3, 7): (65536, Fraction(5, 16), Fraction(131, 256), Fraction(3, 8)),
        (5, 7): (147456, Fraction(1, 4), Fraction(29, 64), Fraction(7, 24)),
    }
    for (p, q), (total, one_sided, either, predicted) in expected.items():
        right = semiprime_pair_fraction(p, q, "right")
        left = semiprime_pair_fraction(p, q, "left")
        both = semiprime_pair_fraction(p, q, "either")
        assert right.total_pairs == left.total_pairs == both.total_pairs == total
        assert right.fraction == one_sided
        assert left.fraction == one_sided
        assert both.fraction == either
        assert right.predicted_fraction == predicted
        assert not right.matches_prediction
        assert not left.matches_prediction
        assert not both.matches_prediction
        assert right.n == p * q
    # The one-sided law on larger semiprimes: the prediction less twice
    # the share of pairs that share both divisor classes.
    for p, q in ((5, 11), (7, 11), (7, 13), (11, 13), (17, 19), (31, 37)):
        right = semiprime_pair_fraction(p, q, "right")
        left = semiprime_pair_fraction(p, q, "left")
        assert right.nontrivial_pairs == left.nontrivial_pairs
        assert right.fraction == Fraction(p + q, (p + 1) * (q + 1))
        assert right.total_pairs == left.total_pairs == (8 * (p + 1) * (q + 1)) ** 2


@pytest.mark.parametrize("p, q", [(3, 5), (3, 7), (3, 11)])
def test_pair_fraction_matches_pairwise_reference(p, q):
    reps = [r.doubled for r in representations(p * q)]
    right, left, either, total = pure.count_nontrivial_gcd_pairs(reps, p * q)
    for convention, expected in (("right", right), ("left", left), ("either", either)):
        rep = semiprime_pair_fraction(p, q, convention)
        assert rep.nontrivial_pairs == expected
        assert rep.total_pairs == total


def _euclid_classes(reps, m, right):
    # The divisor class of norm m on one side, by Euclid: the one-sided
    # gcd with m, canonicalized on its generating side.  That gcd
    # generates the one-sided ideal of u and m, which depends on u mod m
    # alone, so each residue runs Euclid once.
    side = "left" if right else "right"
    gcds = {}
    canon = {}
    out = []
    for u in reps:
        r = tuple(c % (2 * m) for c in u)
        if r not in gcds:
            gcds[r] = pure.qgcd(r, (2 * m, 0, 0, 0), right)
        g = gcds[r]
        if g not in canon:
            canon[g] = canonical_associate(HurwitzQuaternion._raw(g), side)[0]
        out.append(canon[g])
    return out


def _same_partition(keys, oracle):
    return len(set(keys)) == len(set(oracle)) == len(set(zip(keys, oracle)))


_ODD_PRIMES = [v for v in range(3, 400, 2) if _is_prime_trial(v)]
_ORACLE_PAIRS = [
    (p, q) for p in _ODD_PRIMES for q in _ODD_PRIMES if p < q and p * q <= 400
] + [(31, 37)]


def test_line_keys_split_like_euclid_classes():
    # P^1 rows and columns against one-sided gcds with p and with q.
    for p, q in _ORACLE_PAIRS:
        reps = pure.norm_representations(p * q, False)
        for m in (p, q):
            right, left = _line_keys(reps, m)
            assert len(set(right)) == len(set(left)) == m + 1
            assert _same_partition(right, _euclid_classes(reps, m, True)), (p, q, m)
            assert _same_partition(left, _euclid_classes(reps, m, False)), (p, q, m)


def _matmul_mod(x, y, p):
    return (
        (x[0] * y[0] + x[1] * y[2]) % p,
        (x[0] * y[1] + x[1] * y[3]) % p,
        (x[2] * y[0] + x[3] * y[2]) % p,
        (x[2] * y[1] + x[3] * y[3]) % p,
    )


_hurwitz_doubled = st.tuples(
    st.lists(st.integers(-60, 60), min_size=4, max_size=4), st.booleans()
).map(lambda t: tuple(2 * v + t[1] for v in t[0]))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    u=_hurwitz_doubled,
    v=_hurwitz_doubled,
    p=st.sampled_from([v for v in _ODD_PRIMES if v < 120]),
)
def test_matrix_map_is_multiplicative_mod_p(u, v, p):
    x, y = _minus_one_as_two_squares(p)
    assert (x * x + y * y + 1) % p == 0
    mu, mv = _matrix_mod_p(u, p, x, y), _matrix_mod_p(v, p, x, y)
    # Doubled coordinates: the tuple of u*v is half the product of the
    # tuples, so its matrix is half the product of the matrices.
    doubled_product = _matrix_mod_p(pure.qmul(u, v), p, x, y)
    assert tuple(2 * e % p for e in doubled_product) == _matmul_mod(mu, mv, p)
    # And the determinant is the norm (times 4, again for doubling).
    assert (mu[0] * mu[3] - mu[1] * mu[2] - 4 * pure.qnorm(u)) % p == 0


@pytest.mark.parametrize("p, q", [(3, 5), (5, 7), (7, 11), (31, 37)])
def test_every_divisor_class_cell_holds_eight_representations(p, q):
    # (p + 1)(q + 1) cells of right classes, and of left classes, each
    # with 8 of the 8 * sigma(pq) representations.
    reps = pure.norm_representations(p * q, False)
    right_p, left_p = _line_keys(reps, p)
    right_q, left_q = _line_keys(reps, q)
    for cells in (Counter(zip(right_p, right_q)), Counter(zip(left_p, left_q))):
        assert len(cells) == (p + 1) * (q + 1)
        assert set(cells.values()) == {8}


def test_pair_fraction_bound_guard():
    with pytest.raises(BoundExceeded):
        semiprime_pair_fraction(3, 5, bound=14)
    with pytest.raises(BoundExceeded):
        semiprime_pair_fraction(31, 37, bound=31 * 37 - 1)
    assert semiprime_pair_fraction(3, 5, bound=15).total_pairs == 192**2


def test_pair_fraction_input_validation():
    with pytest.raises(ValueError):
        semiprime_pair_fraction(3, 5, "sideways")
    with pytest.raises(PreconditionViolated):
        semiprime_pair_fraction(3, 3)
    with pytest.raises(PreconditionViolated):
        semiprime_pair_fraction(2, 5)
    with pytest.raises(PreconditionViolated):
        semiprime_pair_fraction(3, 15)


def test_factor_attempt_rates_track_the_census():
    report = semiprime_factor_attempt(15, trials=10_000, seed=424242)
    assert report.trials == 10_000
    assert report.sampler == "enumeration"
    assert not report.degenerate
    assert report.factors_found == (3, 5)
    for convention, census in (
        ("right", Fraction(1, 3)),
        ("left", Fraction(1, 3)),
        ("either", Fraction(9, 16)),
    ):
        rate = report.rate(convention)
        assert abs(rate - census) <= Fraction(5, 100), (convention, rate)


def test_factor_attempt_is_deterministic():
    a = semiprime_factor_attempt(15, trials=500, seed=7)
    b = semiprime_factor_attempt(15, trials=500, seed=7)
    assert a == b
    c = semiprime_factor_attempt(15, trials=500, seed=8)
    assert a != c or a.successes_either == c.successes_either


def test_factor_attempt_degenerate_and_large():
    degenerate = semiprime_factor_attempt(9, trials=200, seed=1)
    assert degenerate.degenerate
    assert degenerate.p == degenerate.q == 3
    big = semiprime_factor_attempt(10403, trials=50, seed=2, bound=100)
    assert big.sampler == "four-squares"
    assert big.p == 101 and big.q == 103


def test_factor_attempt_preconditions():
    with pytest.raises(PreconditionViolated):
        semiprime_factor_attempt(15, trials=0)
    with pytest.raises(PreconditionViolated):
        semiprime_factor_attempt(12, trials=10)
    with pytest.raises(PreconditionViolated):
        semiprime_factor_attempt(13, trials=10)
    with pytest.raises(PreconditionViolated):
        semiprime_factor_attempt(105, trials=10)
