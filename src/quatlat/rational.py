"""Rational-integer arithmetic: primality, factoring, and sums of squares.

A primality test (strong tests to proven base sets below 3.3e24,
Baillie-PSW beyond), Pollard-Brent factorization, and the classic
randomized reductions writing a prime as two squares and any positive
integer as four squares, seeded by their input (four squares takes a
seed too).  `_randbelow` defines every draw the package makes from a
generator's getrandbits stream.
"""

from __future__ import annotations

import random
from math import gcd, isqrt, prod

from quatlat.errors import (
    BadResidueClass,
    NotRepresentable,
    PreconditionViolated,
    _shown,
)

__all__ = [
    "miller_rabin",
    "sqrt_minus_one_mod_p",
    "two_squares",
    "four_squares",
    "rational_factorize",
]

_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The primes below 341, the least base-2 Fermat pseudoprime, so Fermat's
# test to base 2 picks out the odd ones exactly; one gcd tries them all
# as factors, and it costs less than the strong test it spares.  They
# are also the trial divisors of `rational_factorize`, in order.
_SMALL_PRIMES = (2, *(q for q in range(3, 341, 2) if pow(2, q - 1, q) == 1))
_SMALL_PRIME_SET = frozenset(_SMALL_PRIMES)
_SMALL_PRIMES_PRODUCT = prod(_SMALL_PRIMES)
# (limit, k): every composite below limit fails the strong test to one
# of the first k prime bases.  Each limit is the least strong
# pseudoprime to those k bases: Pomerance, Selfridge & Wagstaff (1980)
# up to k = 4, Jaeschke (1993) for k = 5 to 7, Jiang & Deng (2014) for
# k = 9, Sorenson & Webster (2017) for k = 12 and 13.
_PROVEN_PREFIXES = (
    (2_047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (3_317_044_064_679_887_385_961_981, 13),
)

_BRUTE_FORCE_LIMIT = 1000


def miller_rabin(n: int) -> bool:
    """Primality test; the answer depends on n alone and draws nothing.

    Below 3.3e24 the answer is a proof: n runs the strong test to the
    shortest prefix of the prime bases 2, 3, 5, ..., 41 proven for its
    range (2 alone below 2047, up to 17 below 3.4e14, up to 23 below
    3.8e18, all 13 below 3.3e24; see `_PROVEN_PREFIXES` for the table
    and its sources).  Above it, n runs Baillie-PSW: the strong test to
    base 2 and the strong Lucas test with Selfridge's parameters (see
    `_strong_lucas_probable_prime`).  Every prime passes both tests,
    so a prime is never rejected.  No composite is known to pass
    Baillie-PSW, and none below 2**64 does; above 3.3e24 a True is
    not a proof.
    """
    if n < 2:
        return False
    if gcd(n, _SMALL_PRIMES_PRODUCT) > 1:
        return n in _SMALL_PRIME_SET
    for limit, k in _PROVEN_PREFIXES:
        if n < limit:
            return _strong_probable_prime(n, _PRIME_BASES[:k])
    return _baillie_psw(n)


def _strong_probable_prime(n: int, bases) -> bool:
    # The strong (Miller-Rabin) test of odd n > 2 to each base in turn.
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _baillie_psw(n: int) -> bool:
    # Odd n coprime to the 13 prime bases.
    return _strong_probable_prime(n, (2,)) and _strong_lucas_probable_prime(n)


def _jacobi(a: int, n: int) -> int:
    # The Jacobi symbol (a/n) for odd n > 0.
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """The strong Lucas test of odd n > 1, Selfridge's method A.

    D is the first of 5, -7, 9, -11, ... with Jacobi symbol (D/n) = -1,
    P = 1 and Q = (1 - D)/4.  With n + 1 = d * 2**s, d odd, n passes
    when U_d = 0 or V_(d * 2**r) = 0 mod n for some 0 <= r < s; every
    prime not dividing 2QD does.  A perfect square has no such D, so it
    is rejected before the search; for any other n the search meets
    either such a D or a D sharing a factor with n (a composite, unless
    n = |D|).

    U and V run up the bits of d from U_1 = V_1 = 1 by the doubling
    rules U_2k = U_k*V_k and V_2k = V_k**2 - 2*Q**k and the steps
    U_k+1 = (U_k + V_k)/2 and V_k+1 = (D*U_k + V_k)/2.
    """
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return n == abs(D)
        D = -D - 2 if D > 0 else 2 - D
    Q = (1 - D) // 4
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s
    u, v, qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v = u + v, D * u + v
            u = (u + n if u & 1 else u) // 2 % n
            v = (v + n if v & 1 else v) // 2 % n
            qk = qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def _randbelow(getrandbits, width: int, count: int | None = None, lo: int = 0):
    """rng.randrange(width), for width >= 1, from rng.getrandbits alone.

    As CPython's Random does for randrange, randint and shuffle, it takes
    width.bit_length() bits at a time until they fall below width, so
    the value and the generator's later state are theirs.  Python
    promises a stable stream only for random(), so the draws of the
    four-squares and montecarlo samplers and of the sampled check
    suites are defined here.  With a count (at least 1) it returns a
    list of count such draws, each plus lo: [rng.randint(lo, lo + width
    - 1) for _ in range(count)], in one call.
    """
    k = width.bit_length()
    out = []
    while True:
        r = getrandbits(k)
        if r < width:
            if count is None:
                return r
            out.append(lo + r)
            if len(out) == count:
                return out


def _sqrt_minus_one(p: int, rng: random.Random) -> int:
    # p is an odd prime with p % 4 == 1.  r = z^((p-1)/4) squares to
    # z^((p-1)/2), which is -1 exactly when z is a non-residue.  z is
    # rng.randrange(2, p - 1).
    e = (p - 1) // 4
    getrandbits = rng.getrandbits
    while True:
        r = pow(2 + _randbelow(getrandbits, p - 3), e, p)
        if r * r % p == p - 1:
            return r


def sqrt_minus_one_mod_p(p: int) -> int:
    """A square root of -1 modulo a prime p with p % 4 == 1.

    The search is seeded by p, so the same p always picks the same one
    of the two roots.

    Raises:
        BadResidueClass: when p % 4 != 1.
        PreconditionViolated: when p is not prime.
    """
    if p % 4 != 1:
        raise BadResidueClass(f"-1 is not a square modulo {_shown(p)}")
    if not miller_rabin(p):
        raise PreconditionViolated(f"{_shown(p)} is not prime")
    return _sqrt_minus_one(p, random.Random(p))


def _two_squares_prime(p: int, rng: random.Random) -> tuple[int, int]:
    # p prime, p % 4 == 1.  Cornacchia (Hermite-Serret): Euclid on
    # (p, r) with r^2 = -1 mod p; the first remainder a below sqrt(p)
    # leaves p - a^2 = b^2.  p has one such pair, whichever root is drawn.
    root = isqrt(p)
    r, a = p, _sqrt_minus_one(p, rng)
    while a > root:
        r, a = a, r % a
    b = isqrt(p - a * a)
    return (a, b) if a <= b else (b, a)


def two_squares(p: int) -> tuple[int, int]:
    """Write a prime p as an ascending pair of squares, exactly.

    Defined for p = 2 and for primes p with p % 4 == 1.  Such a prime has
    exactly one representation p = a^2 + b^2 with 0 <= a <= b, so the
    answer does not depend on the randomized search, seeded by p.

    Raises:
        NotRepresentable: for other residue classes or composite p.
    """
    if p == 2:
        return (1, 1)
    if p % 4 != 1 or not miller_rabin(p):
        raise NotRepresentable(f"{_shown(p)} is not a sum of two squares")
    return _two_squares_prime(p, random.Random(p))


def _four_squares_brute(n: int) -> tuple[int, int, int, int]:
    # Smallest sorted quadruple in lexicographic order.
    for a in range(isqrt(n // 4) + 1):
        n1 = n - a * a
        b = a
        while 3 * b * b <= n1:
            n2 = n1 - b * b
            c = b
            while 2 * c * c <= n2:
                rest = n2 - c * c
                d = isqrt(rest)
                if d * d == rest and d >= c:
                    return (a, b, c, d)
                c += 1
            b += 1
    raise AssertionError(f"unreachable: {n} has a four-square representation")


def _four_squares_random(n: int, rng: random.Random) -> tuple[int, int, int, int]:
    # n >= _BRUTE_FORCE_LIMIT and n % 4 != 0.  The parities of the two
    # sampled squares make the leftover p = n - x^2 - y^2 1 mod 4, so it
    # is 1 or (with fair probability) a prime splitting as two squares.
    # For n % 4 == 2 one randint(0, 1) picks the odd one of x and y; then
    # x and y are each a randint over {0..hi} with the wanted low bit.
    # An odd y always has room: n % 4 of 2 or 3 is no square, so t > 0.
    getrandbits = rng.getrandbits
    residue = n % 4
    root = isqrt(n)
    px = py = int(residue == 3)
    while True:
        if residue == 2:
            px = _randbelow(getrandbits, 2)
            py = 1 - px
        x = 2 * _randbelow(getrandbits, (root - px) // 2 + 1) + px
        t = n - x * x
        y = 2 * _randbelow(getrandbits, (isqrt(t) - py) // 2 + 1) + py
        p = t - y * y
        if p == 1:
            quad = (x, y, 1, 0)
        elif miller_rabin(p):
            a, b = _two_squares_prime(p, rng)
            quad = (x, y, a, b)
        else:
            continue
        return tuple(sorted(quad))


def _four_squares(n: int, rng: random.Random) -> tuple[int, int, int, int]:
    if n < _BRUTE_FORCE_LIMIT:
        return _four_squares_brute(n)
    scale = 1
    while n % 4 == 0:
        n //= 4
        scale *= 2
    if n < _BRUTE_FORCE_LIMIT:
        quad = _four_squares_brute(n)
    else:
        quad = _four_squares_random(n, rng)
    return tuple(sorted(scale * v for v in quad))


def four_squares(n: int, seed: int | None = None) -> tuple[int, int, int, int]:
    """Write n >= 1 as an ascending quadruple of squares, exactly.

    Below 1000 the answer is the deterministic lexicographically
    smallest sorted quadruple (the seed is unused there); larger inputs
    strip powers of 4 and run the randomized two-squares reduction,
    seeded by n unless a seed is given, so the same arguments always
    give the same quadruple.

    Raises:
        PreconditionViolated: for n < 1.
    """
    if n < 1:
        raise PreconditionViolated(f"four_squares needs n >= 1, got {_shown(n)}")
    return _four_squares(n, random.Random(n if seed is None else seed))


def _pollard_brent(n: int) -> int:
    # Returns a nontrivial factor of composite odd n.  Brent's cycle
    # search on y -> y^2 + c: each round r = 1, 2, 4, ... fixes x at the
    # current iterate, lets y skip r steps and walk r more, and
    # multiplies the differences x - y into q, one gcd per batch of 64.
    # Once x is on the cycle mod a prime factor and r is at least the
    # cycle's length, a difference in the round is 0 mod that prime.  A
    # batch whose gcd is n is walked again from its start ys, one gcd
    # per step; if that reaches n too, the cycles mod every prime factor
    # closed together and c moves on.
    c = 1
    while True:
        y = 2
        r = q = g = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(64, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 64
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if g < n:
            return g
        c += 1


def rational_factorize(n: int) -> list[int]:
    """Prime factorization of n >= 2, with multiplicity, ascending.

    Trial division by the primes below 341 (those `miller_rabin` screens
    with) in ascending order, until p^2 exceeds what is left, which is
    then 1 or a prime; Pollard-Brent with Miller-Rabin splits the rest.

    Raises:
        PreconditionViolated: for n < 2.
    """
    if n < 2:
        raise PreconditionViolated(f"nothing to factor in {_shown(n)}")
    out: list[int] = []
    for p in _SMALL_PRIMES:
        if p * p > n:
            # n has no prime factor below p, so it is 1 or a prime.
            return out + [n] if n > 1 else out
        while n % p == 0:
            out.append(p)
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if miller_rabin(m):
            out.append(m)
            continue
        f = _pollard_brent(m)
        stack.append(f)
        stack.append(m // f)
    out.sort()
    return out
