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
The monte-carlo attempt reads each trial off the same classes; its
reference is the per-trial Euclid loop on the same seeded draws, made
through random.Random's own randrange, shuffle and randint and the
randint-drawn four-squares sampler kept here.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd, isqrt, prod
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from quatlat import (
    OMEGA,
    DEFAULT_ENUM_BOUND,
    BadResidueClass,
    BoundExceeded,
    EvenNorm,
    HurwitzQuaternion,
    I,
    J,
    UNITS,
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
    is_multiple,
    is_primitive,
    is_primitive_mod,
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
import quatlat._modp as modp_module
import quatlat.checks as checks_module
import quatlat.factor as factor_module
import quatlat.rational as rational_module
from quatlat._kernel import pure
from quatlat._modp import _line_keys, _matrix_mod_p, _minus_one_as_two_squares
from quatlat.core import canonical_associate, cofactor
from quatlat.euclid import gaussian_gcd, gcd as quaternion_gcd


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


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BASES_LIMIT = 3317044064679887385961981


def _miller_rabin_eager(n: int) -> bool:
    # Reference for n at or above 3.3e24: all 40 bases, the 13 fixed
    # primes and 27 drawn from random.Random(n), built up front.
    if any(n % p == 0 for p in _SMALL_PRIMES):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def composite(a: int) -> bool:
        x = pow(a, d, n)
        if x in (1, n - 1):
            return False
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                return False
        return True

    rng = random.Random(n)
    bases = _SMALL_PRIMES + tuple(rng.randrange(2, n - 1) for _ in range(27))
    return not any(composite(a) for a in bases)


def test_miller_rabin_seeds_no_generator(monkeypatch):
    seeds = []

    class CountingRandom(random.Random):
        def __init__(self, seed=None):
            seeds.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(rational_module, "random", SimpleNamespace(Random=CountingRandom))
    # Caught by base 2.
    assert not miller_rabin((2**61 - 1) * (2**89 - 1))
    assert seeds == []
    # A strong pseudoprime to all 13 prime bases, caught by the Lucas test.
    assert not miller_rabin(_PRIME_BASES_LIMIT)
    assert seeds == []
    assert miller_rabin(2**89 - 1)
    assert seeds == []


def test_miller_rabin_matches_eager_bases_above_the_proven_limit():
    rng = random.Random(2141)
    samples = [_PRIME_BASES_LIMIT, 2**89 - 1, 2**107 - 1, 2**127 - 1]
    samples += [rng.randrange(_PRIME_BASES_LIMIT, 2**140) | 1 for _ in range(3000)]
    verdicts = [miller_rabin(n) for n in samples]
    assert verdicts == [_miller_rabin_eager(n) for n in samples]
    assert 20 < sum(verdicts) < len(samples) - 20


# (limit, k, largest prime below limit) for each proven prefix: the limit
# is the least strong pseudoprime to the first k prime bases.
_PROVEN_ROWS = (
    (2047, 1, 2039),
    (1373653, 2, 1373639),
    (25326001, 3, 25325981),
    (3215031751, 4, 3215031749),
    (2152302898747, 5, 2152302898729),
    (3474749660383, 6, 3474749660329),
    (341550071728321, 7, 341550071728289),
    (3825123056546413051, 9, 3825123056546412979),
    (318665857834031151167461, 12, 318665857834031151167441),
    (3317044064679887385961981, 13, 3317044064679887385961813),
)


@pytest.mark.parametrize("limit, k, prime", _PROVEN_ROWS)
def test_miller_rabin_at_each_proven_limit(limit, k, prime):
    assert (limit, k) in rational_module._PROVEN_PREFIXES
    assert rational_module._strong_probable_prime(limit, _SMALL_PRIMES[:k])
    assert not miller_rabin(limit)
    assert miller_rabin(prime)


# Strong Lucas pseudoprimes under Selfridge's method A (OEIS A217255).
_STRONG_LUCAS_PSEUDOPRIMES = (
    5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519, 75077, 97439,
)


def test_strong_lucas_pseudoprimes_pass_the_lucas_test_alone():
    lucas = rational_module._strong_lucas_probable_prime
    for n in _STRONG_LUCAS_PSEUDOPRIMES:
        assert lucas(n), n
        assert not miller_rabin(n), n
    # These are all of them below 10**5, and every odd prime there passes.
    odd = range(3, 100_000, 2)
    assert [n for n in odd if lucas(n) != _is_prime_trial(n)] == list(
        _STRONG_LUCAS_PSEUDOPRIMES
    )


def _next_prime(n: int) -> int:
    while not miller_rabin(n):
        n += 1
    return n


_BPSW_LOW, _BPSW_HIGH = 2**64, _PRIME_BASES_LIMIT
_bpsw_odd = st.one_of(
    st.integers(_BPSW_LOW // 2, (_BPSW_HIGH - 1) // 2).map(lambda k: 2 * k + 1),
    st.integers(_BPSW_LOW, _BPSW_HIGH - 10**4).map(_next_prime),
    # Two-prime products: one factor of 10 to 40 bits and the other
    # sized to land the product in range, or p times the next prime
    # after 2p, a shape that holds many strong pseudoprimes.
    st.builds(
        lambda a, m: _next_prime(a) * _next_prime(m // a),
        st.integers(2**10, 2**40),
        st.integers(2**66, _BPSW_HIGH // 2),
    ),
    st.integers(2**32, 2**40).map(_next_prime).map(lambda p: p * _next_prime(2 * p)),
)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_bpsw_odd)
@example(318665857834031151167461)
def test_bpsw_matches_the_proven_bases_below_their_limit(n):
    assume(_BPSW_LOW <= n < _BPSW_HIGH)
    proven = miller_rabin(n)
    assert proven == (
        gcd(n, prod(_SMALL_PRIMES)) == 1 and rational_module._baillie_psw(n)
    )


def test_sqrt_minus_one_mod_p():
    for p in range(5, 600, 4):
        if not _is_prime_trial(p):
            continue
        x = sqrt_minus_one_mod_p(p)
        assert 0 < x < p
        assert (x * x + 1) % p == 0
    with pytest.raises(BadResidueClass):
        sqrt_minus_one_mod_p(7)


def _sqrt_minus_one_two_powers(p, rng):
    # The search with a second exponentiation on success: z^((p-1)/2)
    # tested, z^((p-1)/4) returned.
    e = (p - 1) // 2
    while True:
        z = rng.randrange(2, p - 1)
        if pow(z, e, p) == p - 1:
            return pow(z, e // 2, p)


def test_sqrt_minus_one_draws_like_the_two_power_search():
    primes = [p for p in range(5, 20_000, 4) if _is_prime_trial(p)]
    for seed in (0, 2141, 10**21 + 7):
        new, old = random.Random(seed), random.Random(seed)
        for p in primes:
            assert rational_module._sqrt_minus_one(p, new) == _sqrt_minus_one_two_powers(p, old)
            assert new.getstate() == old.getstate()


@pytest.mark.parametrize("n", [1, 9, 21, 25])
def test_sqrt_minus_one_mod_p_rejects_non_primes(n):
    # The Euler-criterion search never succeeds modulo a composite, and
    # modulo 1 it has no residue to draw.
    with pytest.raises(PreconditionViolated):
        sqrt_minus_one_mod_p(n)


def test_two_squares_on_splitting_primes():
    assert two_squares(2) == (1, 1)
    for p in range(5, 2000, 4):
        if not _is_prime_trial(p):
            continue
        pairs = [
            (a, isqrt(p - a * a))
            for a in range(isqrt(p // 2) + 1)
            if isqrt(p - a * a) ** 2 == p - a * a
        ]
        assert pairs == [two_squares(p)]


def _two_squares_by_gaussian_gcd(p, root):
    # gcd(p, root + i) in Z[i] has norm exactly p when root^2 = -1 mod p.
    g = gaussian_gcd(GaussianInteger(p, 0), GaussianInteger(root, 1))
    a, b = abs(g.re), abs(g.im)
    return (a, b) if a <= b else (b, a)


def test_two_squares_by_euclid_matches_the_gaussian_gcd():
    # Primes p = 1 mod 4 from 5 to about 2**100, each from the square
    # roots of -1 that four seeds draw; a seed draws either root.
    rng = random.Random(2718)
    primes = [p for p in range(5, 3000, 4) if _is_prime_trial(p)]
    for bits in range(12, 101):
        p = rng.getrandbits(bits) | (1 << (bits - 1))
        p -= p % 4 - 1
        while not miller_rabin(p):
            p += 4
        primes.append(p)
    for p in primes:
        expected = _two_squares_by_gaussian_gcd(p, sqrt_minus_one_mod_p(p))
        a, b = expected
        assert a * a + b * b == p
        assert two_squares(p) == expected
        for seed in range(4):
            assert rational_module._two_squares_prime(p, random.Random(seed)) == expected


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
    assert sqrt_minus_one_mod_p(p) == root
    report = semiprime_factor_attempt(15, 40)
    assert semiprime_factor_attempt(15, 40) == report == semiprime_factor_attempt(15, 40, seed=15)


def _draw_parity_reference(rng, hi, parity):
    # Uniform over {0..hi} with the requested low bit, None if empty.
    if hi < parity:
        return None
    return 2 * rng.randint(0, (hi - parity) // 2) + parity


def _four_squares_random_reference(n, rng):
    # The randint-drawn sampler, with p = a^2 + b^2 split by the Gaussian gcd.
    residue = n % 4
    root = isqrt(n)
    while True:
        if residue == 1:
            px, py = 0, 0
        elif residue == 2:
            px = rng.randint(0, 1)
            py = 1 - px
        else:
            px, py = 1, 1
        x = _draw_parity_reference(rng, root, px)
        if x is None:
            continue
        t = n - x * x
        y = _draw_parity_reference(rng, isqrt(t), py)
        if y is None:
            continue
        p = t - y * y
        if p == 0:
            quad = (x, y, 0, 0)
        elif p == 1:
            quad = (x, y, 1, 0)
        elif p == 2:
            quad = (x, y, 1, 1)
        elif p % 4 == 1 and miller_rabin(p):
            quad = (x, y, *_two_squares_by_gaussian_gcd(p, _sqrt_minus_one_two_powers(p, rng)))
        else:
            continue
        return tuple(sorted(quad))


def _four_squares_reference(n, rng):
    # _four_squares for n >= 1000 on the reference sampler.
    scale = 1
    while n % 4 == 0:
        n //= 4
        scale *= 2
    if n < 1000:
        quad = rational_module._four_squares_brute(n)
    else:
        quad = _four_squares_random_reference(n, rng)
    return tuple(sorted(scale * v for v in quad))


def _times_four_to_the(e):
    # 4**e * m with m = 1, 2 or 3 mod 4 and 1000 <= 4**e * m < 10**40.
    m = st.integers(-(-1000 // 4**e), (10**40 - 1) // 4**e).filter(lambda m: m % 4)
    return m.map(lambda m: 4**e * m)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    n=st.integers(0, 12).flatmap(_times_four_to_the),
    seed=st.integers(0, 2**64),
    draws=st.integers(1, 3),
)
@example(n=1001, seed=0, draws=3)
@example(n=1002, seed=0, draws=3)
@example(n=1003, seed=0, draws=3)
@example(n=4**6 * 999, seed=1, draws=2)
@example(n=4**6 * 1001, seed=1, draws=2)
@example(n=10**40 - 1, seed=2, draws=2)
def test_four_squares_draws_match_the_randint_reference(n, seed, draws):
    ours, theirs = random.Random(seed), random.Random(seed)
    for _ in range(draws):
        quad = rational_module._four_squares(n, ours)
        assert quad == _four_squares_reference(n, theirs)
        assert sum(v * v for v in quad) == n
    assert ours.getstate() == theirs.getstate()


def test_four_squares_strips_powers_of_four():
    assert four_squares(4096) == (0, 0, 0, 64)
    # 10000 = 4 * 4 * 625 reduces to the deterministic small case.
    assert four_squares(10000) == tuple(sorted(4 * v for v in four_squares(625)))


def test_four_squares_rejects_nonpositive():
    with pytest.raises(PreconditionViolated):
        four_squares(0)
    with pytest.raises(PreconditionViolated):
        four_squares(-4)


def _semiprime_factors(rng, bits):
    # Two primes of the given sizes, each checked by trial division.
    out = []
    for b in bits:
        p = rng.randrange(2 ** (b - 1), 2**b) | 1
        while not _is_prime_trial(p):
            p += 2
        out.append(p)
    return out


def test_pollard_brent_splits_semiprimes():
    rng = random.Random(2417)
    for _ in range(60):
        p, q = _semiprime_factors(rng, (rng.randint(10, 30), rng.randint(10, 30)))
        assert rational_module._pollard_brent(p * q) in (p, q), (p, q)
        assert rational_factorize(p * q) == sorted((p, q))


def _wheel_factorize(n: int) -> list[int]:
    # The trial division rational_factorize ran before it shared
    # miller_rabin's table of primes below 341: 2, 3 and 5, then a
    # 2-4 wheel from 7 while d^2 <= n and d < 1000.  What it leaves is
    # taken as prime, which holds when every prime factor of n but the
    # largest is below 1000.
    out = []
    for p in (2, 3, 5):
        while n % p == 0:
            out.append(p)
            n //= p
    d, step = 7, 4
    while d * d <= n and d < 1000:
        while n % d == 0:
            out.append(d)
            n //= d
        d += step
        step = 6 - step
    return out + [n] if n > 1 else out


def test_rational_factorize_matches_the_old_wheel():
    # Every n below 2*10^5, and the powers and products of the primes
    # between 341 and 1000 that the table no longer divides by, so they
    # reach Pollard-Brent.
    for n in range(2, 200_000):
        assert rational_factorize(n) == _wheel_factorize(n), n
    mid = [p for p in range(341, 1000) if _is_prime_trial(p)]
    products = [p**e for p in mid for e in (2, 3, 4)]
    products += [p * q for i, p in enumerate(mid) for q in mid[i + 1 :]]
    for n in products:
        assert rational_factorize(n) == _wheel_factorize(n), n


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
    assert tuple(PrimeModel((3, 5))) == (3, 5) == PrimeModel((3, 5)).primes
    assert len(PrimeModel((3, 5))) == 2
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


def _factor_by_public_gcd(alpha, model):
    """factor_modelled's factors, peeled with the public gcd's `.gcd`."""
    factors, work = [], alpha
    for p in reversed(model[1:]):
        g = quaternion_gcd(work, HurwitzQuaternion.from_integer(p), "right").gcd
        factors.append(g)
        work = cofactor(work, g, "right")
    return (work, *reversed(factors))


def _prime_of_norm(p, seed, unit):
    """A Hurwitz prime of norm p: a unit times a four-square representation."""
    return UNITS[unit] * HurwitzQuaternion.from_coords(*four_squares(p, seed=seed))


# 65537 and 1000003 are past 2**16, so the models reach norms N(alpha)
# past 2**32 as well as small ones.
_MODEL_PRIMES = (3, 5, 7, 13, 65537, 1000003)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    norms=st.lists(st.sampled_from(_MODEL_PRIMES), min_size=2, max_size=4),
    seed=st.integers(0, 2**32),
    units=st.lists(st.integers(0, 23), min_size=4, max_size=4),
)
@example(norms=[65537, 1000003], seed=0, units=[0, 0, 0, 0])
@example(norms=[13, 65537, 1000003], seed=1, units=[5, 17, 9, 0])
def test_factor_modelled_matches_the_public_gcd(norms, seed, units):
    pieces = [_prime_of_norm(p, seed + i, u) for i, (p, u) in enumerate(zip(norms, units))]
    alpha = prod(pieces[1:], start=pieces[0])
    assume(is_primitive(alpha))
    for model in (tuple(norms), tuple(reversed(norms))):
        assert factor_modelled(alpha, model).factors == _factor_by_public_gcd(alpha, model)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    norms=st.lists(st.sampled_from(_MODEL_PRIMES), min_size=2, max_size=2, unique=True),
    seed=st.integers(0, 2**32),
    units=st.tuples(st.integers(0, 23), st.integers(0, 23)),
)
@example(norms=[65537, 1000003], seed=0, units=(0, 0))
def test_outer_factor_recovery_matches_the_public_gcd(norms, seed, units):
    pi, rho = (_prime_of_norm(p, seed + i, u) for i, (p, u) in enumerate(zip(norms, units)))
    assume(is_primitive(pi * rho))
    twisted, plain = pi * I * rho, pi * rho
    res = outer_factor_recovery(pi, rho)
    assert res.left_gcd == quaternion_gcd(twisted, plain, "left").gcd
    assert res.right_gcd == quaternion_gcd(twisted, plain, "right").gcd


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


def test_unit_migration_checks_each_factor_norm():
    base = factor_modelled(HurwitzQuaternion.from_coords(-1, 3, 1, -2), (3, 5))
    off = ModelledFactorization((base.factors[0], base.factors[1] * 2), base.model)
    for pair in ((base, off), (off, base)):
        with pytest.raises(ModelMismatch, match="norms"):
            unit_migration_equal(*pair)


def test_unit_migration_is_more_than_an_equal_product():
    # Both chains multiply to 3, but no unit e has 1+i-j = (1+i+j)*e:
    # that quotient is not even a Hurwitz integer.
    model = PrimeModel((3, 3))
    f = ModelledFactorization(
        (HurwitzQuaternion.from_coords(1, 1, 1, 0), HurwitzQuaternion.from_coords(1, -1, -1, 0)),
        model,
    )
    g = ModelledFactorization(
        (HurwitzQuaternion.from_coords(1, 1, -1, 0), HurwitzQuaternion.from_coords(1, -1, 1, 0)),
        model,
    )
    assert f.product() == g.product() == HurwitzQuaternion.from_integer(3)
    assert not unit_migration_equal(f, g)
    assert not unit_migration_equal(g, f)


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
    # Norm 10001 is past DEFAULT_ENUM_BOUND, which bounds sphere walks only.
    alpha = HurwitzQuaternion.from_coords(100, 1, 0, 0)
    report = pall_right_divisors(alpha, 10001)
    assert report.count == 8 and report.left_associated
    for delta in report.divisors:
        assert is_multiple(alpha, delta, "right", lipschitz_cofactor=True)
    assert (report.divisors, report.left_associated) == _pall_by_sphere_scan(
        alpha, 10001
    )


def _pall_by_sphere_scan(alpha, m):
    """pall_right_divisors's divisors and left_associated by the sphere
    scan: every Lipschitz element of norm m tried as a right divisor with
    a Lipschitz cofactor, then every pair tried for left association."""
    sphere = HurwitzQuaternion._raw_many(pure.norm_representations(m, False))
    divisors = tuple(
        d for d in sphere if is_multiple(alpha, d, "right", lipschitz_cofactor=True)
    )
    left_associated = all(
        is_associate(a, b, "left")
        for i, a in enumerate(divisors)
        for b in divisors[i + 1 :]
    )
    return divisors, left_associated


# m is the product of the odd primes of N(alpha), with multiplicity, that
# mask selects by position in the sorted factorization.
@settings(derandomize=True, deadline=None, max_examples=150)
@given(coords=st.tuples(*[st.integers(-30, 30)] * 4), mask=st.integers(0, 63))
@example(coords=(-1, 3, 1, -2), mask=0)  # m = 1
@example(coords=(-1, 3, 1, -2), mask=3)  # m = 15
@example(coords=(5, 1, 1, 0), mask=3)  # m = 9
@example(coords=(5, 1, 1, 0), mask=7)  # m = 27
@example(coords=(4, 3, 0, 0), mask=3)  # m = 25
@example(coords=(10, 10, 10, 1), mask=3)  # m = 7 * 43
@example(coords=(22, 5, 2, 0), mask=15)  # m = 3**3 * 19
@example(coords=(0, 1, 0, 0), mask=0)  # alpha a unit, m = 1
def test_pall_matches_the_sphere_scan(coords, mask):
    alpha = HurwitzQuaternion.from_coords(*coords)
    assume(not alpha.is_zero)
    odd = [] if alpha.norm() == 1 else [p for p in rational_factorize(alpha.norm()) if p % 2]
    m = prod(p for i, p in enumerate(odd) if mask >> i & 1)
    assume(m <= 1000 and is_primitive_mod(alpha, m))
    report = pall_right_divisors(alpha, m)
    assert (report.divisors, report.left_associated) == _pall_by_sphere_scan(alpha, m)


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


_small_gaussian = st.builds(GaussianInteger, st.integers(-50, 50), st.integers(-50, 50))
_I = GaussianInteger(0, 1)

# The four maps of (z, w) that generate the symmetries thm-3-5 walks by.
_PAIR_SYMMETRIES = {
    "unit": lambda z, w: (_I * z, _I * w),
    "1+i": lambda z, w: (z, _I * w),
    "j": lambda z, w: (z.conjugate(), w.conjugate()),
    "gamma*j": lambda z, w: (-w, z),
}


@settings(derandomize=True, deadline=None, max_examples=200)
@given(z=_small_gaussian, w=_small_gaussian)
@example(z=GaussianInteger(0, 0), w=GaussianInteger(3, 2))
@example(z=GaussianInteger(-5, 0), w=GaussianInteger(0, 0))
@example(z=GaussianInteger(6, 3), w=GaussianInteger(3, 0))  # gcd 3, norm 9
def test_igama_is_invariant_under_each_pair_symmetry(z, w):
    assume((z.norm() + w.norm()) % 2)
    res = igama_check(z, w)
    for name, move in _PAIR_SYMMETRIES.items():
        assert igama_check(*move(z, w)) == res, name


def _pair_orbit_by_closure(pair):
    # Every image of the coordinate tuple pair under the four symmetries.
    orbit, todo = {pair}, [pair]
    while todo:
        rz, iz, rw, iw = todo.pop()
        z, w = GaussianInteger(rz, iz), GaussianInteger(rw, iw)
        for move in _PAIR_SYMMETRIES.values():
            z2, w2 = move(z, w)
            image = (z2.re, z2.im, w2.re, w2.im)
            if image not in orbit:
                orbit.add(image)
                todo.append(image)
    return orbit


def _igama_full_walk():
    # The pairwise walk of check thm-3-5: (passed, detail).
    checked = 0
    for rz, iz, rw, iw in product(range(-4, 5), repeat=4):
        z, w = GaussianInteger(rz, iz), GaussianInteger(rw, iw)
        if (z.norm() + w.norm()) % 2 == 0:
            continue
        res = checks_module.igama_check(z, w)
        if res.ideal_trivial != res.coprime:
            return False, (
                f"z={z}, w={w}: ideal_trivial={res.ideal_trivial}, "
                f"coprime={res.coprime}, gcld norm {res.gcld_norm}"
            )
        checked += 1
    return True, f"{checked} odd-norm Gaussian pairs verified exhaustively"


def test_gaussian_ideal_suite_runs_igama_once_per_orbit(monkeypatch):
    calls = []

    def counted(z, w):
        calls.append((z.re, z.im, w.re, w.im))
        return igama_check(z, w)

    monkeypatch.setattr(checks_module, "igama_check", counted)
    outcome = checks_module.run_check("thm-3-5")
    assert outcome.detail == "3280 odd-norm Gaussian pairs verified exhaustively"
    assert len(calls) == 62
    # Each call is the first pair of its orbit in walk order.
    orbits = [_pair_orbit_by_closure(pair) for pair in calls]
    assert calls == [min(orbit) for orbit in orbits]
    assert sum(map(len, orbits)) == 3280


@pytest.mark.parametrize("bad", [(1, 2, 3, -1), (-4, 0, 0, 1), (0, 0, 4, -3)])
def test_gaussian_ideal_suite_fails_where_the_full_walk_does(monkeypatch, bad):
    # A fault planted on one orbit of the 64 symmetries surfaces at the
    # pair where the full walk first meets that orbit, with the same text.
    orbit = _pair_orbit_by_closure(bad)
    assert checks_module._gaussian_pair_orbit(*bad) == orbit

    def planted(z, w):
        res = igama_check(z, w)
        if (z.re, z.im, w.re, w.im) in orbit:
            return res._replace(ideal_trivial=not res.ideal_trivial)
        return res

    monkeypatch.setattr(checks_module, "igama_check", planted)
    outcome = checks_module.run_check("thm-3-5")
    assert not outcome.passed
    assert (outcome.passed, outcome.detail) == _igama_full_walk()


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


def _orthogonal_primes_reference(p: int) -> tuple:
    # The pairwise walk: every unordered pair of the norm-p sphere, in
    # sphere order, one qdot4 each.  Reads is_associate off the factor
    # module, so a patched predicate reaches both implementations.
    elements = representations(p, hurwitz=True)
    failures = []
    left_only = right_only = both_sides = orthogonal = 0
    for i, a in enumerate(elements):
        for b in elements[i + 1 :]:
            if pure.qdot4(a.doubled, b.doubled):
                continue
            orthogonal += 1
            left = factor_module.is_associate(a, b, "left")
            right = factor_module.is_associate(a, b, "right")
            if left and right:
                both_sides += 1
            elif left:
                left_only += 1
            elif right:
                right_only += 1
            else:
                failures.append((a, b))
    return (
        p, len(elements), orthogonal, left_only, right_only, both_sides,
        tuple(failures),
    )


def _report_fields(rep) -> tuple:
    return (
        rep.p, rep.elements, rep.orthogonal_pairs, rep.left_only_pairs,
        rep.right_only_pairs, rep.both_sides_pairs, rep.failures,
    )


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23])
def test_orthogonal_primes_orbit_scan_matches_pair_walk(p):
    assert _report_fields(orthogonal_primes_check(p)) == _orthogonal_primes_reference(p)


@pytest.mark.parametrize("p", [5, 13])
def test_orthogonal_primes_failures_match_pair_walk(monkeypatch, p):
    # Reject the two-sided class, which left unit multiplication keeps,
    # so every two-sided pair becomes a failure in both walks.
    two_sided = orthogonal_primes_check(p).both_sides_pairs
    real = is_associate

    def one_sided_only(a, b, side):
        return real(a, b, side) and not (
            real(a, b, "left") and real(a, b, "right")
        )

    monkeypatch.setattr(factor_module, "is_associate", one_sided_only)
    rep = orthogonal_primes_check(p)
    expected = _orthogonal_primes_reference(p)
    assert two_sided > 0
    assert rep.both_sides_pairs == 0
    assert len(rep.failures) == two_sided
    assert _report_fields(rep) == expected


def test_orthogonal_prime_tallies():
    """Measured tallies for every prime from 3 to 41.

    The orthogonal pair counts follow 144(p+1) for p = 3 (mod 4) and
    144p for p = 1 (mod 4), the closed form ROADMAP item 3 proposes.
    These are regression pins of measured counts, not a proof of it.
    """
    expected = {
        3: (96, 576, 288, 288, 0),
        5: (144, 720, 288, 288, 144),
        7: (192, 1152, 576, 576, 0),
    }
    for p in range(3, 42):
        if not _is_prime_trial(p):
            continue
        rep = orthogonal_primes_check(p)
        assert rep.passed and bool(rep)
        assert rep.failures == ()
        assert rep.elements == 24 * (p + 1)
        assert rep.orthogonal_pairs == (144 * (p + 1) if p % 4 == 3 else 144 * p)
        assert rep.left_only_pairs + rep.right_only_pairs + rep.both_sides_pairs == (
            rep.orthogonal_pairs
        )
        if p in expected:
            assert _report_fields(rep)[1:6] == expected[p]


def test_orthogonal_primes_check_rejects_composites():
    with pytest.raises(PreconditionViolated):
        orthogonal_primes_check(9)


def test_orthogonal_primes_check_bound_guard():
    # 10007 is the least prime past the fixed enumeration bound.
    with pytest.raises(BoundExceeded):
        orthogonal_primes_check(10007)


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
            right, left = _line_keys(m, reps)
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


@pytest.mark.parametrize(
    "p", [3, 5, 10007, 10009, 1000003, 4949985150044549866357, 2**61 - 1]
)
def test_minus_one_as_two_squares_at_scale(p):
    # Both residues mod 4, and primes far beyond any table of size p.
    x, y = _minus_one_as_two_squares(p)
    assert (x * x + y * y + 1) % p == 0


@pytest.mark.parametrize("p, q", [(3, 5), (5, 7), (7, 11), (31, 37)])
def test_every_divisor_class_cell_holds_eight_representations(p, q):
    # (p + 1)(q + 1) cells of right classes, and of left classes, each
    # with 8 of the 8 * sigma(pq) representations.
    reps = pure.norm_representations(p * q, False)
    right_p, left_p = _line_keys(p, reps)
    right_q, left_q = _line_keys(q, reps)
    for cells in (Counter(zip(right_p, right_q)), Counter(zip(left_p, left_q))):
        assert len(cells) == (p + 1) * (q + 1)
        assert set(cells.values()) == {8}


@pytest.mark.parametrize("p, q", [(3, 5), (5, 7), (5, 11), (7, 11)])
def test_pair_fraction_counts_match_pairwise_class_comparison(p, q):
    # Each ordered pair classified directly from its four divisor
    # classes: a side is nontrivial when exactly one class is shared.
    reps = pure.norm_representations(p * q, False)
    right_p, left_p = _line_keys(p, reps)
    right_q, left_q = _line_keys(q, reps)
    keys = list(zip(right_p, right_q, left_p, left_q))
    right = left = either = 0
    for a in keys:
        for b in keys:
            r = (a[0] == b[0]) != (a[1] == b[1])
            l = (a[2] == b[2]) != (a[3] == b[3])
            right += r
            left += l
            either += r or l
    for convention, expected in (("right", right), ("left", left), ("either", either)):
        assert semiprime_pair_fraction(p, q, convention).nontrivial_pairs == expected


def test_pair_fraction_bound_guard():
    # 73 * 137 = 10001 is one past the fixed enumeration bound.
    with pytest.raises(BoundExceeded):
        semiprime_pair_fraction(73, 137)
    assert semiprime_pair_fraction(3, 5).total_pairs == 192**2


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
    big = semiprime_factor_attempt(10403, trials=50, seed=2)
    assert big.sampler == "four-squares"
    assert big.p == 101 and big.q == 103
    # The sampler switches at the fixed enumeration bound, 10000.
    assert semiprime_factor_attempt(97 * 103, trials=1).sampler == "enumeration"
    assert semiprime_factor_attempt(73 * 137, trials=1).sampler == "four-squares"


def _euclid_factor_attempt(n, trials, seed=None):
    # semiprime_factor_attempt with both one-sided gcds run by Euclid on
    # every trial, drawing each element in turn through random.Random's
    # randrange, shuffle and randint and the reference four-squares sampler.
    p, q = rational_factorize(n)
    rng = random.Random(n if seed is None else seed)
    if n <= DEFAULT_ENUM_BOUND:
        sampler = "enumeration"
        pool = pure.norm_representations(n, False)

        def draw():
            return pool[rng.randrange(len(pool))]

    else:
        sampler = "four-squares"

        def draw():
            coords = list(_four_squares_reference(n, rng))
            rng.shuffle(coords)
            return tuple(2 * (v if rng.randint(0, 1) else -v) for v in coords)

    right = left = either = 0
    found = set()
    for _ in range(trials):
        a = draw()
        b = draw()
        nr = pure.qnorm(pure.qgcd(a, b, True))
        nl = pure.qnorm(pure.qgcd(a, b, False))
        r_nt = nr not in (1, n)
        l_nt = nl not in (1, n)
        if r_nt:
            right += 1
            found.add(gcd(nr, n))
        if l_nt:
            left += 1
            found.add(gcd(nl, n))
        either += r_nt or l_nt
    return factor_module.FactorAttemptReport(
        n, p, q, p == q, trials, sampler, right, left, either, tuple(sorted(found))
    )


@pytest.mark.parametrize(
    "n, trials, seeds",
    [
        (15, 2000, range(4)),
        (10007 * 10009, 200, range(4)),
        (1000003 * 4949985150044549866357, 20, range(4)),
        (21, 300, [None, 1]),
        (35, 300, [None, 1]),
        (1147, 300, [None, 1]),
        (10403, 50, [None, 2]),
        (9, 300, [None, 1]),
        (25, 300, [None, 1]),
        # One trial per report: factors_found names the prime each side
        # revealed, which longer runs blur once both primes turn up.
        (35, 1, range(60)),
        (1147, 1, range(60)),
        (10403, 1, range(200)),
        (10007**2, 40, [None, 1]),
    ],
)
def test_factor_attempt_matches_euclid_per_trial(n, trials, seeds):
    for seed in seeds:
        expected = _euclid_factor_attempt(n, trials, seed)
        assert semiprime_factor_attempt(n, trials, seed) == expected, seed


def test_factor_attempt_keys_each_drawn_element_once(monkeypatch):
    # 9991 = 97 * 103 has a pool of 81,536 representations; only the
    # 2 * trials drawn elements get matrices, one per prime.
    calls = []
    real = modp_module._matrix_mod_p

    def counted(u, p, x, y):
        calls.append(u)
        return real(u, p, x, y)

    monkeypatch.setattr(modp_module, "_matrix_mod_p", counted)
    report = semiprime_factor_attempt(9991, trials=10, seed=5)
    assert report == _euclid_factor_attempt(9991, 10, 5)
    assert 0 < len(calls) <= 2 * 2 * 10
    assert all(m == 2 for m in Counter(calls).values())


def test_factor_attempt_preconditions():
    with pytest.raises(PreconditionViolated):
        semiprime_factor_attempt(15, trials=0)
    with pytest.raises(PreconditionViolated):
        semiprime_factor_attempt(12, trials=10)
    with pytest.raises(PreconditionViolated):
        semiprime_factor_attempt(13, trials=10)
    with pytest.raises(PreconditionViolated):
        semiprime_factor_attempt(105, trials=10)
