"""Factorization along prime models and the quaternionic factoring experiments.

Factorization of a primitive Hurwitz integer along a model (an ordered
tuple of primes multiplying to its norm), the unit-migration
equivalence between two such factorizations, the eight right divisors
of an odd divisor of the norm, the ideal and outer-factor tests, and
the experiments measuring how often two random norm-n quaternions
share a one-sided factor.  Primality and rational factoring come from
`quatlat.rational`; the census reads divisor classes in the M_2(F_p)
model of `quatlat._modp`.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from math import gcd, prod
from typing import NamedTuple

from quatlat import _kernel
from quatlat._modp import _line_keys
from quatlat.core import (
    GaussianInteger,
    HurwitzQuaternion,
    I,
    ONE,
    _UNIT_DOUBLED,
    cofactor,
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
    PreconditionViolated,
    _shown,
)
from quatlat.euclid import _canonical_gcd, gaussian_gcd, is_multiple
from quatlat.lattice import DEFAULT_ENUM_BOUND, _check_bound, representations
from quatlat.rational import _four_squares, _randbelow, miller_rabin, rational_factorize

__all__ = [
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

CONVENTIONS = ("right", "left", "either")


class PrimeModel(tuple):
    """An ordered tuple of primes prescribing a factorization shape.

    The model is the tuple of its primes: it iterates, measures and
    compares as that tuple, and `primes` gives it back as a plain one.
    """

    __slots__ = ()

    def __new__(cls, primes):
        self = super().__new__(cls, primes)
        if not self:
            raise PreconditionViolated("a model needs at least one prime")
        for p in self:
            if not miller_rabin(p):
                raise PreconditionViolated(f"model entry {p} is not prime")
        return self

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"PrimeModel(primes={tuple(self)!r})"

    def product(self) -> int:
        return prod(self)


def _as_model(model) -> PrimeModel:
    return model if isinstance(model, PrimeModel) else PrimeModel(model)


class ModelledFactorization(NamedTuple):
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
        raise NotPrimitive(f"{_shown(alpha)} is not primitive")
    if model.product() != alpha.norm():
        raise ModelMismatch(
            f"model product {_shown(model.product())} != norm {_shown(alpha.norm())}"
        )
    factors: list[HurwitzQuaternion] = []
    work = alpha
    for p in reversed(model[1:]):
        g = _canonical_gcd(work, HurwitzQuaternion.from_integer(p), True)
        if g.norm() != p:
            raise ModelMismatch(
                f"right gcd with {p} has norm {_shown(g.norm())}, expected {p}"
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


class PallReport(NamedTuple):
    """The Lipschitz right divisors of alpha with a prescribed odd norm."""

    alpha: HurwitzQuaternion
    m: int
    divisors: tuple[HurwitzQuaternion, ...]
    left_associated: bool

    @property
    def count(self) -> int:
        return len(self.divisors)


def pall_right_divisors(alpha: HurwitzQuaternion, m: int) -> PallReport:
    """All delta in L with norm m and alpha = lambda * delta, lambda in L.

    For odd m dividing norm(alpha) and alpha primitive mod m there are
    exactly eight, pairwise left-associated; the report records both
    the divisors (sorted by doubled tuple) and whether the pairwise
    association held.

    No sphere is walked.  If alpha = lambda*delta with N(delta) = m,
    then delta right-divides both alpha and m = conj(delta)*delta, so
    H*delta contains H*alpha + H*m = H*g, where g is the right gcd of
    alpha and m, of norm m because alpha is primitive mod m.  Equal
    norms make H*delta = H*g, so delta is one of the 24 products e*g
    with e a unit.  The divisors are the e*g of norm m that are
    Lipschitz with a Lipschitz cofactor in alpha.

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
        raise PreconditionViolated(f"{m} does not divide norm {_shown(alpha.norm())}")
    if not is_primitive_mod(alpha, m):
        raise NotPrimitive(f"{_shown(alpha)} is not primitive modulo {m}")
    g = _canonical_gcd(alpha, HurwitzQuaternion.from_integer(m), True).doubled
    associates = sorted(_kernel.qmul(e, g) for e in _UNIT_DOUBLED)
    divisors = tuple(
        delta
        for delta in HurwitzQuaternion._raw_many(associates)
        # Redundant given a correct gcd; it is what fails thm-2-2 on a broken qgcd.
        if delta.norm() == m
        and delta.is_lipschitz
        and is_multiple(alpha, delta, "right", lipschitz_cofactor=True)
    )
    # Left association is an equivalence relation, so every pair is
    # associated exactly when every divisor is associated with the first.
    left_associated = all(is_associate(d, divisors[0], "left") for d in divisors[1:])
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
        raise EvenNorm(f"gamma must have odd norm, got {_shown(n)}")
    # Associates share a norm, so the uncanonicalized kernel gcd will do.
    gamma = embed_gaussian_pair(z, w).doubled
    g_norm = _kernel.qnorm(_kernel.qgcd(_kernel.qmul(I.doubled, gamma), gamma, False))
    return IgamaResult(g_norm == 1, gaussian_gcd(z, w).is_unit, g_norm)


class OuterFactorRecovery(NamedTuple):
    left_recovers: bool
    right_recovers: bool
    left_gcd: HurwitzQuaternion
    right_gcd: HurwitzQuaternion


def outer_factor_recovery(
    pi: HurwitzQuaternion, rho: HurwitzQuaternion
) -> OuterFactorRecovery:
    """Whether one-sided gcds of (pi*i*rho, pi*rho) recover pi and rho.

    pi and rho must be Hurwitz primes of distinct odd norms.  Their
    product is then primitive: an integer m >= 2 dividing pi*rho would
    give m^2 | N(pi*rho) = pq, for distinct odd primes p and q.
    Expected: the left gcd is a right associate of pi and the right gcd
    is a left associate of rho.

    Raises:
        PreconditionViolated: when the norms are not distinct odd primes.
    """
    np_, nr = pi.norm(), rho.norm()
    if np_ == nr or np_ % 2 == 0 or nr % 2 == 0:
        raise PreconditionViolated("norms must be distinct and odd")
    if not (miller_rabin(np_) and miller_rabin(nr)):
        raise PreconditionViolated("both arguments must be Hurwitz primes")
    twisted = pi * I * rho
    plain = pi * rho
    gl = _canonical_gcd(twisted, plain, False)
    gr = _canonical_gcd(twisted, plain, True)
    return OuterFactorRecovery(
        is_associate(gl, pi, "right"),
        is_associate(gr, rho, "left"),
        gl,
        gr,
    )


class PairFractionReport(NamedTuple):
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


def _shared(*lists: list[int]) -> int:
    # Ordered pairs of representations in the same class on every list.
    return sum(m * m for m in Counter(zip(*lists)).values())


def semiprime_pair_fraction(
    p: int, q: int, convention: str = "right"
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
    none gives a unit.  So with t_a the indicator that a pair shares
    its class on list a, a side's gcd is nontrivial with indicator
    t_p + t_q - 2*t_p*t_q, and "either" is right + left - right*left.
    Every product of indicators is the indicator of sharing the classes
    on the union of the lists, and the ordered pairs sharing a set of
    lists are the squared bucket sizes of their joint keys.

    With P(p), P(q) and P(both) the shares of pairs sharing the norm-p
    class, the norm-q class and both, the one-sided fraction is
    P(p) + P(q) - 2*P(both) = (p+q)/((p+1)(q+1)).  The prediction is
    P(p) + P(q) alone: it counts the pairs sharing both classes, whose
    gcd is trivial, instead of subtracting them from each term.

    Raises:
        PreconditionViolated: unless p and q are distinct odd primes.
        BoundExceeded: when p*q exceeds DEFAULT_ENUM_BOUND.
        ValueError: unless convention is one of CONVENTIONS.
    """
    if convention not in CONVENTIONS:
        raise ValueError(
            f"convention must be one of {CONVENTIONS}, got {convention!r}"
        )
    _check_odd_semiprime_pair(p, q)
    n = p * q
    _check_bound(n)
    reps = _kernel.norm_representations(n, False)
    right_p, left_p = _line_keys(p, reps)
    right_q, left_q = _line_keys(q, reps)
    # (coefficient, class lists) terms of t_p + t_q - 2*t_p*t_q per side.
    right = ((1, (right_p,)), (1, (right_q,)), (-2, (right_p, right_q)))
    left = ((1, (left_p,)), (1, (left_q,)), (-2, (left_p, left_q)))
    terms = {
        "right": right,
        "left": left,
        "either": right
        + left
        + tuple((-a * b, r + l) for a, r in right for b, l in left),
    }[convention]
    count = sum(c * _shared(*lists) for c, lists in terms)
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


class FactorAttemptReport(NamedTuple):
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
    n: int, trials: int, seed: int | None = None
) -> FactorAttemptReport:
    """Monte-carlo version of the pair census: can random pairs factor n?

    Each trial draws two quaternions of norm n and scores a success on
    a side when their one-sided gcd norm is neither 1 nor n; that norm
    then reveals a prime factor.  For p != q no gcd runs: as in the
    census (see semiprime_pair_fraction), a side's gcd is nontrivial
    exactly when the pair shares one of its two divisor classes on that
    side, the row or column lines of its matrices mod p and mod q, and
    its norm is the prime whose class is shared.  All 2*trials elements
    are drawn first, then the distinct ones are keyed in one batch per
    prime.  For p = q an element may be p times a unit, whose matrix
    mod p is zero, so the degenerate case keeps Euclid's one-sided gcds.
    For n up to DEFAULT_ENUM_BOUND the draws are uniform over all
    Lipschitz representations (the same distribution the exact census
    integrates over); beyond it each draw is a randomized four-squares
    quadruple under a random signed permutation, which no longer covers
    every representation evenly.

    n must be an odd product of two primes; p = q is accepted but
    flagged degenerate in the report.  The draws are seeded by n unless
    a seed is given, so the same arguments always give the same report.
    They are defined by the generator's getrandbits stream (see
    `_randbelow`): an enumeration draw is rng.randrange(len(pool)); a
    four-squares draw is the quadruple, rng.shuffle of it, and one
    rng.randint(0, 1) per coordinate that keeps its sign on 1.

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
    getrandbits = rng.getrandbits
    if n <= DEFAULT_ENUM_BOUND:
        sampler = "enumeration"
        pool = _kernel.norm_representations(n, False)
        elements = [pool[i] for i in _randbelow(getrandbits, len(pool), 2 * trials)]
    else:
        sampler = "four-squares"
        elements = []
        for _ in range(2 * trials):
            coords = list(_four_squares(n, rng))
            for i in (3, 2, 1):  # rng.shuffle(coords)
                j = _randbelow(getrandbits, i + 1)
                coords[i], coords[j] = coords[j], coords[i]
            signs = _randbelow(getrandbits, 2, 4)
            elements.append(
                tuple(2 * v if keep else -2 * v for v, keep in zip(coords, signs))
            )
    firsts, seconds = elements[::2], elements[1::2]
    # Each trial's outcome is the prime its right gcd reveals and the one
    # its left gcd reveals, 0 for a trivial gcd.
    if p == q:

        def revealed(a, b, right):
            g = _kernel.qnorm(_kernel.qgcd(a, b, right))
            return 0 if g in (1, n) else gcd(g, n)

        outcomes = (
            (revealed(a, b, True), revealed(a, b, False)) for a, b in zip(firsts, seconds)
        )
    else:
        distinct = list(dict.fromkeys(elements))
        right_p, left_p = _line_keys(p, distinct)
        right_q, left_q = _line_keys(q, distinct)
        key = dict(zip(distinct, zip(right_p, right_q, left_p, left_q))).__getitem__
        # The prime a side reveals, by 2 * (p-class shared) + (q-class shared).
        reveals = (0, q, p, 0)
        outcomes = (
            (
                reveals[2 * (ka[0] == kb[0]) + (ka[1] == kb[1])],
                reveals[2 * (ka[2] == kb[2]) + (ka[3] == kb[3])],
            )
            for ka, kb in zip(map(key, firsts), map(key, seconds))
        )
    tally = Counter(outcomes)
    successes_right = sum(m for (f_right, _), m in tally.items() if f_right)
    successes_left = sum(m for (_, f_left), m in tally.items() if f_left)
    successes_either = sum(m for outcome, m in tally.items() if any(outcome))
    found = {f for outcome in tally for f in outcome if f}
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


class OrthogonalPrimesReport(NamedTuple):
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


def orthogonal_primes_check(p: int) -> OrthogonalPrimesReport:
    """Check that orthogonal norm-p Hurwitz primes are mutual associates.

    Enumerates every Hurwitz quaternion of prime norm p (half-odd ones
    included) and, for each orthogonal pair, verifies the two elements
    are associates on at least one side: b = unit*a or b = a*unit.
    One-sided pairs are the norm, not the exception; b = -k*(1+i+j)
    is orthogonal to a = 1+i+j and is a left but not a right associate
    of it, so demanding both sides at once would reject most pairs.
    The report tallies the split between left-only, right-only, and
    two-sided pairs.

    Every pair is checked, one left-unit orbit at a time.  Left
    multiplication by a unit e keeps the inner product, (ea).(eb) = a.b,
    and both associate relations: b = ua exactly when eb = (eue^-1)(ea),
    and b = au exactly when eb = (ea)u.  The 24 units act freely, so
    each orbit of ordered pairs holds exactly one pair whose first
    element is its orbit's representative (the first element of the
    orbit in sphere order).  Scanning the k/24 representatives against
    the whole sphere therefore visits every ordered pair's class once,
    and each tally is 24/2 = 12 times the scanned count.  A failing
    scanned pair is mapped through the 24 units, and the images (a, b)
    with a before b in the sphere, sorted by position, are the failing
    unordered pairs in the order a pairwise walk would find them.

    Raises:
        PreconditionViolated: for composite p.
        BoundExceeded: when p exceeds DEFAULT_ENUM_BOUND.
    """
    if not miller_rabin(p):
        raise PreconditionViolated(f"{p} is not prime")
    elements = representations(p, hurwitz=True)
    doubled = [a.doubled for a in elements]
    index = {ad: i for i, ad in enumerate(doubled)}
    in_orbit = set()
    failing = []
    left_only = right_only = both_sides = 0
    for i, ad in enumerate(doubled):
        if i in in_orbit:
            continue
        in_orbit.update(index[_kernel.qmul(e, ad)] for e in _UNIT_DOUBLED)
        a = elements[i]
        for b, bd in zip(elements, doubled):
            if _kernel.qdot4(ad, bd):
                continue
            left = is_associate(a, b, "left")
            right = is_associate(a, b, "right")
            if left and right:
                both_sides += 1
            elif left:
                left_only += 1
            elif right:
                right_only += 1
            else:
                failing.append((ad, bd))
    positions = sorted(
        (index[_kernel.qmul(e, ad)], index[_kernel.qmul(e, bd)])
        for ad, bd in failing
        for e in _UNIT_DOUBLED
    )
    failures = tuple((elements[i], elements[j]) for i, j in positions if i < j)
    return OrthogonalPrimesReport(
        p,
        len(elements),
        12 * (left_only + right_only + both_sides + len(failing)),
        12 * left_only,
        12 * right_only,
        12 * both_sides,
        failures,
    )
