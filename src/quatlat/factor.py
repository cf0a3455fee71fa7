"""Prime decompositions, four-square representations, and the
quaternionic factoring experiments.

Rational side: a Miller-Rabin test (proven below 3.3e24, with bases
seeded by n beyond), Pollard-Brent factorization, and the classic
randomized reductions writing a prime as two squares and any positive
integer as four squares, seeded by their input unless a seed is given.

Quaternion side: factorization of a primitive Hurwitz integer along a
model (an ordered tuple of primes multiplying to its norm), the
unit-migration equivalence between two such factorizations, the
eight-right-divisor count for odd divisors of the norm, and the
experiment harness that measures how often two random norm-n
quaternions share a one-sided factor, the arithmetic heart of
quaternionic semiprime factoring.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import NamedTuple

from quatlat import _kernel
from quatlat.core import (
    GaussianInteger,
    HurwitzQuaternion,
    I,
    ONE,
    embed_gaussian_pair,
    is_associate,
    is_primitive,
    is_primitive_mod,
)
from quatlat.errors import (
    BadResidueClass,
    EvenNorm,
    ModelMismatch,
    NotPrimitive,
    NotRepresentable,
    PreconditionViolated,
)
from quatlat.euclid import cofactor, gaussian_gcd, gcd as quaternion_gcd, is_multiple
from quatlat.lattice import _check_bound, enumeration_bound, representations

__all__ = [
    "miller_rabin",
    "sqrt_minus_one_mod_p",
    "two_squares",
    "four_squares",
    "rational_factorize",
    "PrimeModel",
    "ModelledFactorization",
    "factor_modelled",
    "unit_migration_equal",
    "PallReport",
    "pall_right_divisors",
    "IgamaResult",
    "igama_check",
    "OuterFactorRecovery",
    "outer_factor_recovery",
    "PairFractionReport",
    "semiprime_pair_fraction",
    "FactorAttemptReport",
    "semiprime_factor_attempt",
    "OrthogonalPrimesReport",
    "orthogonal_primes_check",
    "CONVENTIONS",
]

# Below this limit the fixed witness set is a proven primality certificate.
_DETERMINISTIC_LIMIT = 341_550_071_728_321
_FIXED_WITNESSES = (2, 3, 5, 7, 11, 13, 17)
# Below this limit the first 13 primes are one too (Sorenson & Webster,
# Math. Comp. 2017).
_PRIME_BASES_LIMIT = 3_317_044_064_679_887_385_961_981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_BRUTE_FORCE_LIMIT = 1000

CONVENTIONS = ("right", "left", "either")


def miller_rabin(n: int) -> bool:
    """Strong probable-prime test; the answer depends on n alone.

    A proof below 3.3e24: the prime bases up to 17 suffice below 3.4e14
    and the first 13 primes below 3.3e24.  Beyond that it tests those 13
    bases plus 27 drawn from random.Random(n), so the same n always gets
    the same answer.
    """
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def witnesses_composite(a: int) -> bool:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            return False
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                return False
        return True

    if n < _DETERMINISTIC_LIMIT:
        bases = _FIXED_WITNESSES
    elif n < _PRIME_BASES_LIMIT:
        bases = _PRIME_BASES
    else:
        rng = random.Random(n)
        bases = _PRIME_BASES + tuple(rng.randrange(2, n - 1) for _ in range(27))
    return not any(witnesses_composite(a) for a in bases)


def _sqrt_minus_one(p: int, rng: random.Random) -> int:
    # p is an odd prime with p % 4 == 1.
    e = (p - 1) // 2
    while True:
        z = rng.randrange(2, p - 1)
        if pow(z, e, p) == p - 1:
            return pow(z, e // 2, p)


def sqrt_minus_one_mod_p(p: int, seed: int | None = None) -> int:
    """A square root of -1 modulo a prime p with p % 4 == 1.

    The search is seeded by p unless a seed is given, so the same
    arguments always pick the same one of the two roots.

    Raises:
        BadResidueClass: when p % 4 != 1.
    """
    if p % 4 != 1:
        raise BadResidueClass(f"-1 is not a square modulo {p}")
    u = _sqrt_minus_one(p, random.Random(p if seed is None else seed))
    return u


def _two_squares_prime(p: int, rng: random.Random) -> tuple[int, int]:
    # p prime, p % 4 == 1; gcd(p, u + i) in Z[i] has norm exactly p.
    u = _sqrt_minus_one(p, rng)
    g = gaussian_gcd(GaussianInteger(p, 0), GaussianInteger(u, 1))
    a, b = abs(g.re), abs(g.im)
    return (a, b) if a <= b else (b, a)


def two_squares(p: int, seed: int | None = None) -> tuple[int, int]:
    """Write a prime p as an ascending pair of squares, exactly.

    Defined for p = 2 and for primes p with p % 4 == 1.  The randomized
    search is seeded by p unless a seed is given.

    Raises:
        NotRepresentable: for other residue classes or composite p.
    """
    if p == 2:
        return (1, 1)
    if p % 4 != 1 or not miller_rabin(p):
        raise NotRepresentable(f"{p} is not a sum of two squares")
    return _two_squares_prime(p, random.Random(p if seed is None else seed))


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


def _draw_parity(rng: random.Random, hi: int, parity: int) -> int | None:
    # Uniform over {0..hi} with the requested low bit, None if empty.
    if hi < parity:
        return None
    return 2 * rng.randint(0, (hi - parity) // 2) + parity


def _four_squares_random(n: int, rng: random.Random) -> tuple[int, int, int, int]:
    # n >= _BRUTE_FORCE_LIMIT and n % 4 != 0.  Choose the parities of
    # the two sampled squares so the leftover is 1 mod 4, then it is 0,
    # 1, 2, or (with fair probability) a prime splitting as two squares.
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
        x = _draw_parity(rng, root, px)
        if x is None:
            continue
        t = n - x * x
        y = _draw_parity(rng, isqrt(t), py)
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
        raise PreconditionViolated(f"four_squares needs n >= 1, got {n}")
    return _four_squares(n, random.Random(n if seed is None else seed))


def _pollard_brent(n: int) -> int:
    # Returns a nontrivial factor of composite odd n.
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        x = y = 2
        d = 1
        q = 1
        count = 0
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            q = q * abs(x - y) % n
            count += 1
            if count % 64 == 0 or q == 0:
                d = gcd(q if q else abs(x - y), n)
        if 1 < d < n:
            return d
        c += 1


def rational_factorize(n: int) -> list[int]:
    """Prime factorization of n >= 2, with multiplicity, ascending.

    Trial division for small factors, Pollard-Brent with Miller-Rabin
    above that.

    Raises:
        PreconditionViolated: for n < 2.
    """
    if n < 2:
        raise PreconditionViolated(f"nothing to factor in {n}")
    out: list[int] = []
    for p in (2, 3, 5):
        while n % p == 0:
            out.append(p)
            n //= p
    d = 7
    step = 4
    while d * d <= n and d < 1000:
        while n % d == 0:
            out.append(d)
            n //= d
        d += step
        step = 6 - step
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if miller_rabin(m):
            out.append(m)
            continue
        f = _pollard_brent(m)
        stack.append(f)
        stack.append(m // f)
    out.sort()
    return out


@dataclass(frozen=True)
class PrimeModel:
    """An ordered tuple of primes prescribing a factorization shape."""

    primes: tuple[int, ...]

    def __post_init__(self):
        if not self.primes:
            raise PreconditionViolated("a model needs at least one prime")
        for p in self.primes:
            if not miller_rabin(p):
                raise PreconditionViolated(f"model entry {p} is not prime")

    def __iter__(self):
        return iter(self.primes)

    def __len__(self):
        return len(self.primes)

    def product(self) -> int:
        out = 1
        for p in self.primes:
            out *= p
        return out


def _as_model(model) -> PrimeModel:
    return model if isinstance(model, PrimeModel) else PrimeModel(tuple(model))


@dataclass(frozen=True)
class ModelledFactorization:
    """Factors of a primitive Hurwitz integer, norms matching the model."""

    factors: tuple[HurwitzQuaternion, ...]
    model: PrimeModel

    def product(self) -> HurwitzQuaternion:
        out = ONE
        for f in self.factors:
            out = out * f
        return out


def factor_modelled(alpha: HurwitzQuaternion, model) -> ModelledFactorization:
    """Factor a primitive alpha along an ordered prime model.

    Peels the rightmost factor first: the right gcd of alpha with the
    last model prime has exactly that prime as its norm, and the exact
    left cofactor recurses on the shorter model.  The returned factors
    multiply to alpha in order.

    Raises:
        NotPrimitive: when alpha has content > 1.
        ModelMismatch: when the model's product is not norm(alpha).
    """
    model = _as_model(model)
    if not is_primitive(alpha):
        raise NotPrimitive(f"{alpha} is not primitive")
    if model.product() != alpha.norm():
        raise ModelMismatch(
            f"model product {model.product()} != norm {alpha.norm()}"
        )
    factors: list[HurwitzQuaternion] = []
    work = alpha
    for p in reversed(model.primes[1:]):
        g = quaternion_gcd(work, HurwitzQuaternion.from_integer(p), "right").gcd
        if g.norm() != p:
            raise ModelMismatch(
                f"right gcd with {p} has norm {g.norm()}, expected {p}"
            )
        factors.append(g)
        work = cofactor(work, g, "right")
        if work is None:
            raise AssertionError("exact cofactor vanished mid-factorization")
    factors.append(work)
    factors.reverse()
    return ModelledFactorization(tuple(factors), model)


def unit_migration_equal(
    f1: ModelledFactorization, f2: ModelledFactorization
) -> bool:
    """Whether two same-model factorizations differ only by unit migration.

    Migration means f2[i] = e(i-1)^-1 * f1[i] * e(i) for units e(i)
    with e(0) = e(k) = 1.  Each e(i) is forced by the previous one, so
    a single left-to-right pass decides.

    Raises:
        ModelMismatch: when the models differ, or a factor's norm does
            not match its model entry.
    """
    if f1.model != f2.model:
        raise ModelMismatch("factorizations follow different models")
    for f, g, p in zip(f1.factors, f2.factors, f1.model):
        if f.norm() != p or g.norm() != p:
            raise ModelMismatch("factor norms do not match the model")
    if f1.product() != f2.product():
        return False
    eps = ONE
    for f, g in zip(f1.factors, f2.factors):
        eps = cofactor(eps * g, f, "left")
        if eps is None or eps.norm() != 1:
            return False
    return eps == ONE


@dataclass(frozen=True)
class PallReport:
    """The Lipschitz right divisors of alpha with a prescribed odd norm."""

    alpha: HurwitzQuaternion
    m: int
    divisors: tuple[HurwitzQuaternion, ...]
    left_associated: bool

    @property
    def count(self) -> int:
        return len(self.divisors)


def pall_right_divisors(
    alpha: HurwitzQuaternion, m: int, bound: int | None = None
) -> PallReport:
    """All delta in L with norm m and alpha = lambda * delta, lambda in L.

    For odd m dividing norm(alpha) and alpha primitive mod m there are
    exactly eight, pairwise left-associated; the report records both
    the divisors (in canonical order) and whether the pairwise
    association held.

    Raises:
        NotLipschitz: for half-odd alpha.
        BadResidueClass: for even m.
        PreconditionViolated: when m < 1 or m does not divide the norm.
        NotPrimitive: when alpha is not primitive mod m.
    """
    if m < 1:
        raise PreconditionViolated(f"m must be positive, got {m}")
    if m % 2 == 0:
        raise BadResidueClass(f"m must be odd, got {m}")
    if alpha.norm() % m:
        raise PreconditionViolated(f"{m} does not divide norm {alpha.norm()}")
    if not is_primitive_mod(alpha, m):
        raise NotPrimitive(f"{alpha} is not primitive modulo {m}")
    divisors = tuple(
        delta
        for delta in representations(m, hurwitz=False, bound=bound)
        if is_multiple(alpha, delta, "right", lipschitz_cofactor=True)
    )
    left_associated = all(
        is_associate(divisors[i], divisors[j], "left")
        for i in range(len(divisors))
        for j in range(i + 1, len(divisors))
    )
    return PallReport(alpha, m, divisors, left_associated)


class IgamaResult(NamedTuple):
    ideal_trivial: bool
    coprime: bool
    gcld_norm: int


def igama_check(z: GaussianInteger, w: GaussianInteger) -> IgamaResult:
    """Compare the right ideal generated by (i*gamma, gamma) with gcd(z, w).

    gamma = z + w*j must have odd norm.  ideal_trivial reports whether
    the left gcd of i*gamma and gamma is a unit (the generated right
    ideal is everything); coprime whether z and w are coprime in Z[i].
    The two are expected to coincide.

    Raises:
        EvenNorm: when norm(z) + norm(w) is even.
    """
    n = z.norm() + w.norm()
    if n % 2 == 0:
        raise EvenNorm(f"gamma must have odd norm, got {n}")
    gamma = embed_gaussian_pair(z, w)
    g = quaternion_gcd(I * gamma, gamma, "left").gcd
    coprime = gaussian_gcd(z, w).is_unit
    return IgamaResult(g.norm() == 1, coprime, g.norm())


class OuterFactorRecovery(NamedTuple):
    left_recovers: bool
    right_recovers: bool
    left_gcd: HurwitzQuaternion
    right_gcd: HurwitzQuaternion


def outer_factor_recovery(
    pi: HurwitzQuaternion, rho: HurwitzQuaternion
) -> OuterFactorRecovery:
    """Whether one-sided gcds of (pi*i*rho, pi*rho) recover pi and rho.

    pi and rho must be Hurwitz primes of distinct odd norms with
    primitive product.  Expected: the left gcd is a right associate of
    pi and the right gcd is a left associate of rho.

    Raises:
        PreconditionViolated: when the norms are not distinct odd primes.
        NotPrimitive: when pi * rho is imprimitive.
    """
    np_, nr = pi.norm(), rho.norm()
    if np_ == nr or np_ % 2 == 0 or nr % 2 == 0:
        raise PreconditionViolated("norms must be distinct and odd")
    if not (miller_rabin(np_) and miller_rabin(nr)):
        raise PreconditionViolated("both arguments must be Hurwitz primes")
    if not is_primitive(pi * rho):
        raise NotPrimitive(f"{pi * rho} is imprimitive")
    twisted = pi * I * rho
    plain = pi * rho
    gl = quaternion_gcd(twisted, plain, "left").gcd
    gr = quaternion_gcd(twisted, plain, "right").gcd
    return OuterFactorRecovery(
        is_associate(gl, pi, "right"),
        is_associate(gr, rho, "left"),
        gl,
        gr,
    )


@dataclass(frozen=True)
class PairFractionReport:
    """Share of representation pairs of n = p*q with a nontrivial gcd."""

    p: int
    q: int
    n: int
    convention: str
    total_pairs: int
    nontrivial_pairs: int
    fraction: Fraction
    predicted_fraction: Fraction

    @property
    def matches_prediction(self) -> bool:
        return self.fraction == self.predicted_fraction


def _check_odd_semiprime_pair(p: int, q: int) -> None:
    if p == q:
        raise PreconditionViolated("p and q must be distinct")
    for v in (p, q):
        if v % 2 == 0 or not miller_rabin(v):
            raise PreconditionViolated(f"{v} is not an odd prime")


def _minus_one_as_two_squares(p: int) -> tuple[int, int]:
    # (x, y) with x^2 + y^2 = -1 mod the odd prime p: the first x for
    # which -1 - x^2 is a square.  Both x^2 and -1 - y^2 take (p + 1)/2
    # values, so some pair meets within one pass over the table.
    roots = {s * s % p: s for s in range(p)}
    for x in range(p):
        y = roots.get((-1 - x * x) % p)
        if y is not None:
            return x, y
    raise AssertionError(f"unreachable: -1 is a sum of two squares mod {p}")


def _matrix_mod_p(u: tuple, p: int, x: int, y: int) -> tuple[int, int, int, int]:
    # The doubled tuple u as the 2x2 matrix (m00, m01, m10, m11) mod p,
    # under i -> [[0, -1], [1, 0]], j -> [[x, y], [y, -x]] and
    # k -> ij = [[-y, x], [x, y]], with x^2 + y^2 = -1 mod p.  For odd p
    # this maps the Hurwitz order mod p onto M_2(F_p), and the norm to
    # the determinant (times 4, for doubled coordinates).
    a, b, c, d = u
    s = c * x - d * y
    t = c * y + d * x
    return (a + s) % p, (t - b) % p, (t + b) % p, (a - s) % p


def _line_keys(reps: list, p: int) -> tuple[list[int], list[int]]:
    # The right and left divisor classes of norm p of each primitive
    # doubled tuple whose norm p divides, as points of P^1(F_p).  Its
    # matrix has rank 1; the right divisor is read from the row line and
    # the left one from the column line.  A line (u : v) is keyed v/u,
    # or p when u = 0.
    x, y = _minus_one_as_two_squares(p)
    inv = [0] + [pow(u, -1, p) for u in range(1, p)]
    right: list[int] = []
    left: list[int] = []
    for m00, m01, m10, m11 in [_matrix_mod_p(u, p, x, y) for u in reps]:
        if m00:
            scale = inv[m00]
            right.append(m01 * scale % p)
            left.append(m10 * scale % p)
        elif m01:
            # Rank 1 forces m10 = 0: the first column vanishes.
            right.append(p)
            left.append(m11 * inv[m01] % p)
        elif m10:
            right.append(m11 * inv[m10] % p)
            left.append(p)
        else:
            right.append(p)
            left.append(p)
    return right, left


def semiprime_pair_fraction(
    p: int, q: int, convention: str = "right", bound: int | None = None
) -> PairFractionReport:
    """Exact census of nontrivial one-sided gcds over representation pairs.

    Counts the ordered pairs (alpha, beta) of Lipschitz representations
    of n = p*q whose gcd norm is neither 1 nor n, under the chosen
    convention: "right" and "left" name the gcd side, "either" counts
    pairs nontrivial on at least one side.  The predicted fraction
    (p+q+2)/((p+1)(q+1)) rides along for comparison.

    The census runs no gcd.  n is squarefree, so every representation
    is primitive and has exactly one right divisor of norm p and one of
    norm q, up to left units (likewise on the left).  For odd p the
    Hurwitz order mod p is M_2(F_p), a representation maps to a matrix
    of rank 1, and its right divisor class of norm p is the line of the
    matrix's rows, its left class the line of its columns: a point of
    P^1(F_p).  Each representation is keyed by those four points.  Two
    representations sharing both right classes lie in the left ideal of
    the lcm of the two divisors, whose norm is n, so they are
    left-associated and their right gcd has norm n: trivial.  Sharing
    exactly one right class gives a right gcd of norm p or q; sharing
    none gives a unit.  One histogram of the full keys, summed down to
    each subset of the four positions, counts by its squared bucket
    sizes the ordered pairs agreeing on that subset, and Moebius
    inversion over the subsets yields the pairs agreeing on exactly
    each subset, from which all three conventions read off.

    With P(p), P(q) and P(both) the shares of pairs sharing the norm-p
    class, the norm-q class and both, the one-sided fraction is
    P(p) + P(q) - 2*P(both) = (p+q)/((p+1)(q+1)).  The prediction is
    P(p) + P(q) alone: it counts the pairs sharing both classes, whose
    gcd is trivial, instead of subtracting them from each term.

    Raises:
        PreconditionViolated: unless p and q are distinct odd primes.
        BoundExceeded: when p*q exceeds the enumeration bound.
    """
    if convention not in CONVENTIONS:
        raise ValueError(
            f"convention must be one of {CONVENTIONS}, got {convention!r}"
        )
    _check_odd_semiprime_pair(p, q)
    n = p * q
    _check_bound(n, bound)
    reps = _kernel.norm_representations(n, False)
    right_p, left_p = _line_keys(reps, p)
    right_q, left_q = _line_keys(reps, q)
    # Key positions 0, 1 hold the right classes of norm p and q; 2, 3
    # the left ones, each in a field of w bits of one int.  Bit i of a
    # subset mask s stands for position i, and hist[s] counts the
    # representations by their keys at the positions of s.  Each
    # subset's histogram sums down from the one with its lowest missing
    # position added, so only the full histogram walks all k keys.
    w = max(p, q).bit_length()
    field = (1 << w) - 1
    full = [
        a | b << w | c << 2 * w | d << 3 * w
        for a, b, c, d in zip(right_p, right_q, left_p, left_q)
    ]
    hist = {15: Counter(full)}
    for s in range(14, -1, -1):
        mask = sum(field << i * w for i in range(4) if s >> i & 1)
        down: dict = {}
        for key, m in hist[s | (~s & (s + 1))].items():
            key &= mask
            down[key] = down.get(key, 0) + m
        hist[s] = down
    # agree[s]: ordered pairs whose keys match at every bit of s.
    agree = [sum(m * m for m in hist[s].values()) for s in range(16)]
    # exact[t]: ordered pairs whose keys match at the bits of t and
    # nowhere else.
    exact = [
        sum(
            (-1) ** bin(s ^ t).count("1") * agree[s]
            for s in range(16)
            if s & t == t
        )
        for t in range(16)
    ]
    # A side's gcd is nontrivial when exactly one of its classes agrees.
    right = [(t & 1) != (t >> 1 & 1) for t in range(16)]
    left = [(t >> 2 & 1) != (t >> 3 & 1) for t in range(16)]
    nontrivial = {
        "right": right,
        "left": left,
        "either": [r or l for r, l in zip(right, left)],
    }[convention]
    count = sum(e for e, hit in zip(exact, nontrivial) if hit)
    total = len(reps) ** 2
    return PairFractionReport(
        p,
        q,
        n,
        convention,
        total,
        count,
        Fraction(count, total),
        Fraction(p + q + 2, (p + 1) * (q + 1)),
    )


@dataclass(frozen=True)
class FactorAttemptReport:
    """Outcome of repeated random-pair gcd attempts at factoring n = p*q."""

    n: int
    p: int
    q: int
    degenerate: bool
    trials: int
    sampler: str
    successes_right: int
    successes_left: int
    successes_either: int
    factors_found: tuple[int, ...]

    def successes(self, convention: str = "either") -> int:
        return {
            "right": self.successes_right,
            "left": self.successes_left,
            "either": self.successes_either,
        }[convention]

    def rate(self, convention: str = "either") -> Fraction:
        return Fraction(self.successes(convention), self.trials)


def semiprime_factor_attempt(
    n: int,
    trials: int,
    seed: int | None = None,
    bound: int | None = None,
) -> FactorAttemptReport:
    """Monte-carlo version of the pair census: can random pairs factor n?

    Each trial draws two quaternions of norm n, takes both one-sided
    gcds, and scores a success when a gcd norm is neither 1 nor n; the
    gcd norm then reveals a prime factor.  Within the enumeration bound
    the draws are uniform over all Lipschitz representations (the same
    distribution the exact census integrates over); beyond it each draw
    is a randomized four-squares quadruple under a random signed
    permutation, which no longer covers every representation evenly.

    n must be an odd product of two primes; p = q is accepted but
    flagged degenerate in the report.  The draws are seeded by n unless
    a seed is given, so the same arguments always give the same report.

    Raises:
        PreconditionViolated: when n is even, prime, or not a semiprime,
            or trials < 1.
    """
    if trials < 1:
        raise PreconditionViolated(f"trials must be positive, got {trials}")
    if n % 2 == 0:
        raise PreconditionViolated(f"n must be odd, got {n}")
    primes = rational_factorize(n) if n > 1 else []
    if len(primes) != 2:
        raise PreconditionViolated(f"{n} is not a product of two primes")
    p, q = primes
    rng = random.Random(n if seed is None else seed)
    limit = enumeration_bound() if bound is None else bound
    if n <= limit:
        sampler = "enumeration"
        pool = _kernel.norm_representations(n, False)

        def draw():
            return pool[rng.randrange(len(pool))]

    else:
        sampler = "four-squares"

        def draw():
            quad = _four_squares(n, rng)
            coords = list(quad)
            rng.shuffle(coords)
            return tuple(
                2 * (v if rng.randint(0, 1) else -v) for v in coords
            )

    successes_right = successes_left = successes_either = 0
    found: Counter[int] = Counter()
    for _ in range(trials):
        a = draw()
        b = draw()
        nr = _kernel.qnorm(_kernel.qgcd(a, b, True))
        nl = _kernel.qnorm(_kernel.qgcd(a, b, False))
        r_nt = nr != 1 and nr != n
        l_nt = nl != 1 and nl != n
        if r_nt:
            successes_right += 1
            found[gcd(nr, n)] += 1
        if l_nt:
            successes_left += 1
            found[gcd(nl, n)] += 1
        if r_nt or l_nt:
            successes_either += 1
    return FactorAttemptReport(
        n,
        p,
        q,
        p == q,
        trials,
        sampler,
        successes_right,
        successes_left,
        successes_either,
        tuple(sorted(found)),
    )


@dataclass(frozen=True)
class OrthogonalPrimesReport:
    """Associate structure of orthogonal same-norm Hurwitz primes.

    Every orthogonal pair must be associate on at least one side; the
    side tallies record how the pairs split.  Pairs associate on
    neither side land in failures.
    """

    p: int
    elements: int
    orthogonal_pairs: int
    left_only_pairs: int
    right_only_pairs: int
    both_sides_pairs: int
    failures: tuple[tuple[HurwitzQuaternion, HurwitzQuaternion], ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def __bool__(self) -> bool:
        return self.passed


def orthogonal_primes_check(p: int, bound: int | None = None) -> OrthogonalPrimesReport:
    """Check that orthogonal norm-p Hurwitz primes are mutual associates.

    Enumerates every Hurwitz quaternion of prime norm p (half-odd ones
    included) and, for each orthogonal pair, verifies the two elements
    are associates on at least one side: b = unit*a or b = a*unit.
    One-sided pairs are the norm, not the exception; b = -k*(1+i+j)
    is orthogonal to a = 1+i+j and is a left but not a right associate
    of it, so demanding both sides at once would reject most pairs.
    The report tallies the split between left-only, right-only, and
    two-sided pairs.

    Raises:
        PreconditionViolated: for composite p.
        BoundExceeded: when p exceeds the enumeration bound.
    """
    if not miller_rabin(p):
        raise PreconditionViolated(f"{p} is not prime")
    elements = representations(p, hurwitz=True, bound=bound)
    failures = []
    orthogonal = 0
    left_only = right_only = both_sides = 0
    for i, a in enumerate(elements):
        ad = a.doubled
        for b in elements[i + 1 :]:
            if _kernel.qdot4(ad, b.doubled):
                continue
            orthogonal += 1
            left = is_associate(a, b, "left")
            right = is_associate(a, b, "right")
            if left and right:
                both_sides += 1
            elif left:
                left_only += 1
            elif right:
                right_only += 1
            else:
                failures.append((a, b))
    return OrthogonalPrimesReport(
        p, len(elements), orthogonal, left_only, right_only, both_sides,
        tuple(failures)
    )
