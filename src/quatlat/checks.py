"""Named, runnable verification suites for the library's identities.

Each suite re-derives one structural fact the library leans on: the
scaling law for inner products of common-factor products, unit-orbit
orthogonality, one-sided factorization and unit migration, the eight
right divisors of a prescribed odd norm, the explicit orthogonal
basis, the generalized cross product memberships, coincidence of the
ideal and coprimality tests for embedded Gaussian pairs, association
of orthogonal primes, and the measured semiprime pair fraction.

`quatlat check all` runs every suite and prints one pass or fail line
each; a failing suite carries a counterexample or the measured
discrepancy in its detail text.  All random sweeps use fixed seeds so
repeated runs print identical output.  The sampled suites (thm-3-2,
cor-3-3, lemma-4-2, thm-4-3, thm-4-4) work on doubled tuples through the
`quatlat._kernel` namespace and build quaternion objects only for
failure texts and printed witnesses.  Their draws and those of thm-2-1
and thm-2-2 follow the generator's `getrandbits` stream (see `_randbelow`).
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import NamedTuple

from quatlat import _kernel
from quatlat.core import (
    GaussianInteger,
    HurwitzQuaternion,
    I,
    J,
    K,
    ONE,
    UNITS,
    is_primitive,
    is_primitive_mod,
)
from quatlat.cross import cross3, det_int
from quatlat.euclid import is_multiple
from quatlat.factor import (
    CONVENTIONS,
    ModelledFactorization,
    factor_modelled,
    igama_check,
    orthogonal_primes_check,
    pall_right_divisors,
    semiprime_pair_fraction,
    unit_migration_equal,
)
from quatlat.lattice import _basis_rows, orthogonality_census, representations
from quatlat.rational import _randbelow, rational_factorize

BASIS = (ONE, I, J, K)
AXIS_NAMES = ("1", "i", "j", "k")
_BASIS_D = tuple(e.doubled for e in BASIS)


class CheckOutcome(NamedTuple):
    """Result of one verification suite."""

    suite: str
    description: str
    passed: bool
    detail: str


def _randints(rng: random.Random, lo: int, hi: int, count: int = 4) -> list[int]:
    """`count` draws of rng.randint(lo, hi), by `_randbelow`'s rule."""
    return _randbelow(rng.getrandbits, hi - lo + 1, count, lo)


def _choice(rng: random.Random, seq):
    """rng.choice(seq), by `_randbelow`'s rule."""
    return seq[_randbelow(rng.getrandbits, len(seq))]


def _sample(rng: random.Random, population, k: int) -> list:
    """rng.sample(population, k) for len(population) <= 21, by
    `_randbelow`'s rule: CPython 3.11's swaps through a copy of the pool."""
    pool = list(population)
    picked = []
    for n in range(len(pool), len(pool) - k, -1):
        j = _randbelow(rng.getrandbits, n)
        picked.append(pool[j])
        pool[j] = pool[n - 1]
    return picked


def _random_doubled(rng: random.Random, span: int, hurwitz: bool = False):
    """Doubled coordinates of a quaternion with coordinates in [-span, span].

    With hurwitz=True, half the draws come out half-odd with the same
    coordinate magnitude.
    """
    if hurwitz and rng.random() < 0.5:
        a, b, c, d = _randints(rng, -span, span - 1)
        return (2 * a + 1, 2 * b + 1, 2 * c + 1, 2 * d + 1)
    a, b, c, d = _randints(rng, -span, span)
    return (2 * a, 2 * b, 2 * c, 2 * d)


def _random_nonzero(rng: random.Random, span: int):
    while True:
        q = _random_doubled(rng, span)
        if any(q):
            return q


def _random_primitive(rng: random.Random, span: int) -> HurwitzQuaternion:
    """A primitive Lipschitz quaternion, as the object the lattice helpers take."""
    while True:
        q = HurwitzQuaternion._raw(_random_doubled(rng, span))
        if not q.is_zero and is_primitive(q):
            return q


def _cross_in_ideal(c, d, side: str) -> bool:
    """`is_multiple(p, d, side, lipschitz_cofactor=True)` for p = cross3's value.

    c is cross4 of Lipschitz doubled tuples, 4p.  p = d*m gives conj(d)*p =
    N(d)*m (p*conj(d) for p = m*d), and m is Lipschitz when 2N(d) divides
    every doubled entry of N(d)*m, so 8N(d) every entry of conj(d)*c.
    """
    n8 = 8 * _kernel.qnorm(d)
    dc = _kernel.qconj(d)
    m = _kernel.qmul(dc, c) if side == "left" else _kernel.qmul(c, dc)
    return not (m[0] % n8 or m[1] % n8 or m[2] % n8 or m[3] % n8)


def _check_inner_product_scaling():
    """(uv).(uw) = N(u) (v.w) on both sides, and the divisibility it buys.

    When two quaternions with integer coordinates share a common
    integer-coordinate divisor tau on one side, with integer-coordinate
    cofactors, their inner product must be divisible by N(tau).  The
    cofactor restriction matters: with half-odd cofactors the inner
    product can pick up a denominator of 2 and the divisibility fails.
    Inner products are compared as qdot4 values, four times the product.
    """
    qmul, qdot4, qnorm = _kernel.qmul, _kernel.qdot4, _kernel.qnorm
    q = HurwitzQuaternion._raw
    rng = random.Random(7101)
    scaling = 0
    divisibility = 0
    for _ in range(400):
        u = _random_doubled(rng, 30, hurwitz=True)
        v = _random_doubled(rng, 30, hurwitz=True)
        w = _random_doubled(rng, 30, hurwitz=True)
        expected = qnorm(u) * qdot4(v, w)
        left = qdot4(qmul(u, v), qmul(u, w))
        right = qdot4(qmul(v, u), qmul(w, u))
        if left != expected or right != expected:
            return False, (
                f"u={q(u)}, v={q(v)}, w={q(w)}: (uv).(uw)={Fraction(left, 4)}, "
                f"(vu).(wu)={Fraction(right, 4)}, N(u)(v.w)={Fraction(expected, 4)}"
            )
        scaling += 1
    for _ in range(400):
        tau = _random_nonzero(rng, 12)
        v = _random_doubled(rng, 12)
        w = _random_doubled(rng, 12)
        n = qnorm(tau)
        # tau on the left, then on the right; 4N(tau) | qdot4 is N(tau) | dot.
        for alpha, beta, where in (
            (qmul(tau, v), qmul(tau, w), ""),
            (qmul(v, tau), qmul(w, tau), " on the right"),
        ):
            dot = qdot4(alpha, beta)
            if dot % (4 * n):
                return False, (
                    f"tau={q(tau)}{where}, alpha={q(alpha)}, beta={q(beta)}: "
                    f"alpha.beta={Fraction(dot, 4)} not divisible by N(tau)={n}"
                )
        divisibility += 1
    return True, (
        f"{scaling} scaling triples and {divisibility} divisibility pairs verified"
    )


def _check_unit_axis_orthogonality():
    """alpha*eps is orthogonal to alpha*delta for distinct basis units."""
    qmul, qdot4 = _kernel.qmul, _kernel.qdot4
    rng = random.Random(7102)
    checked = 0
    for _ in range(300):
        alpha = _random_doubled(rng, 40, hurwitz=True)
        right = [qmul(alpha, e) for e in _BASIS_D]
        left = [qmul(e, alpha) for e in _BASIS_D]
        for a, b in combinations(range(4), 2):
            if qdot4(right[a], right[b]) or qdot4(left[a], left[b]):
                x, y = AXIS_NAMES[a], AXIS_NAMES[b]
                pair = f"(alpha*{x}).(alpha*{y})"
                if not qdot4(right[a], right[b]):
                    pair = f"({x}*alpha).({y}*alpha)"
                return False, f"alpha={HurwitzQuaternion._raw(alpha)}: {pair} != 0"
            checked += 1
    return True, f"{checked} orthogonal unit-axis pairs verified"


def _check_orthogonal_primes():
    """Orthogonal prime pairs of equal norm associate on at least one side."""
    lines = []
    for p in (3, 5, 7, 11, 13):
        rep = orthogonal_primes_check(p)
        lines.append(
            f"p={p}: {rep.orthogonal_pairs} orthogonal pairs "
            f"({rep.left_only_pairs} left-only, {rep.right_only_pairs} "
            f"right-only, {rep.both_sides_pairs} both), "
            f"{len(rep.failures)} unassociated"
        )
        if not rep.passed:
            return False, "; ".join(lines)
    return True, "; ".join(lines)


def _gaussian_pair_orbit(rz: int, iz: int, rw: int, iw: int) -> set:
    """The 64 images of (z, w) = (rz + iz i, rw + iw i) under
    (z, w) -> (u z', v w') and (u w', v z'), for Gaussian units u, v and
    z', w' both z, w or both their conjugates, as coordinate tuples."""

    def units(a, b):
        return ((a, b), (-b, a), (-a, -b), (b, -a))

    z, w, zc, wc = units(rz, iz), units(rw, iw), units(rz, -iz), units(rw, -iw)
    return {
        first + second
        for left, right in ((z, w), (w, z), (zc, wc), (wc, zc))
        for first in left
        for second in right
    }


def _check_gaussian_ideal_coprimality():
    """ideal_trivial and coprime agree for every small odd-norm pair.

    Write gamma = z + w*j and gH = i*gamma*H + gamma*H.  Each of these
    maps of (z, w) keeps the norm of g, and coprimality in Z[i]:
    - (u*z, u*w) for a Gaussian unit u: u commutes with i, so the pair
      is u times the old one and the left gcd is u*g;
    - (z, i*w): x -> (1+i) x (1+i)^-1 fixes i and Z[i] and sends j to
      k = i*j, so it maps gamma to z + (i*w)*j; (1+i)H = H(1+i), so it
      is an automorphism of H and carries gH onto an ideal of equal norm;
    - (conj z, conj w): x -> j x j^-1 is an automorphism of H sending
      i to -i and z + w*j to conj(z) + conj(w)*j, and the pair
      (-i*gamma', gamma') generates what (i*gamma', gamma') does;
    - (-w, z): gamma*j = -w + z*j, and i*gamma*j*H + gamma*j*H = gH,
      since j is a unit.
    gcd(z, w) in Z[i] changes by a unit or a conjugation under each.
    Their compositions are the 64 maps of `_gaussian_pair_orbit`, which
    send the box's odd-norm pairs to odd-norm pairs of the box.  So
    igama_check runs on the first pair of each orbit in walk order, and
    the orbit's size joins the count: the count is a full walk's, and a
    failing orbit fails first at the pair where a full walk would.
    """
    checked = 0
    seen = set()
    # A norm's parity is the parity of its coordinates' sum, so iw takes
    # the values of the other parity from rz + iz + rw: the walk meets
    # just the box's odd-norm pairs, in lexicographic order.
    last = (range(-3, 5, 2), range(-4, 5, 2))
    for rz, iz, rw in product(range(-4, 5), repeat=3):
        for iw in last[(rz + iz + rw) % 2]:
            pair = (rz, iz, rw, iw)
            if pair in seen:
                continue
            orbit = _gaussian_pair_orbit(*pair)
            seen |= orbit
            res = igama_check(GaussianInteger(rz, iz), GaussianInteger(rw, iw))
            if res.ideal_trivial != res.coprime:
                return False, (
                    f"z={GaussianInteger(rz, iz)}, w={GaussianInteger(rw, iw)}: "
                    f"ideal_trivial={res.ideal_trivial}, coprime={res.coprime}, "
                    f"gcld norm {res.gcld_norm}"
                )
            checked += len(orbit)
    return True, f"{checked} odd-norm Gaussian pairs verified exhaustively"


def _check_unique_factorization():
    """Modelled factorization works for every permutation of the norm.

    Each factorization multiplies back to alpha with the prescribed
    factor norms; rethreading units through the factors is recognized
    as migration, while changing a single factor alone is not.
    """
    rng = random.Random(7103)
    primes = (3, 5, 7, 11, 13)
    spheres = {p: representations(p, hurwitz=True) for p in primes}
    models = 0
    migrations = 0
    for _ in range(40):
        count = _choice(rng, (2, 3))
        norms = _sample(rng, primes, count)
        pieces = [_choice(rng, spheres[p]) for p in norms]
        alpha = pieces[0]
        for piece in pieces[1:]:
            alpha = alpha * piece
        if not is_primitive(alpha):
            return False, f"product {alpha} of distinct prime norms not primitive"
        base = None
        for model in permutations(norms):
            fac = factor_modelled(alpha, model)
            if fac.product() != alpha:
                return False, f"model {model}: factors of {alpha} do not multiply back"
            for factor, p in zip(fac.factors, model):
                if factor.norm() != p:
                    return False, (
                        f"model {model}: factor {factor} of {alpha} has "
                        f"norm {factor.norm()}, wanted {p}"
                    )
            if model == tuple(norms):
                base = fac
            models += 1
        twisted = list(base.factors)
        for idx in range(len(twisted) - 1):
            eps = _choice(rng, UNITS)
            twisted[idx] = twisted[idx] * eps
            twisted[idx + 1] = eps.conjugate() * twisted[idx + 1]
        twin = ModelledFactorization(tuple(twisted), base.model)
        if not unit_migration_equal(base, twin):
            return False, f"unit migration through {alpha} not recognized"
        broken = list(base.factors)
        broken[0] = broken[0] * I
        lone = ModelledFactorization(tuple(broken), base.model)
        if unit_migration_equal(base, lone):
            return False, (
                f"one-sided unit twist of {alpha} wrongly accepted as migration"
            )
        migrations += 1
    return True, (
        f"{models} permutation models factored, {migrations} migration"
        f" twins recognized"
    )


def _check_eight_right_divisors():
    """Primitive-mod-m quaternions have 8 left-associated right divisors."""
    rng = random.Random(7104)
    fixed = HurwitzQuaternion.from_coords(-1, 3, 1, -2)
    reports = []
    for m in (1, 3, 5, 15):
        reports.append(pall_right_divisors(fixed, m))
    random_checked = 0
    attempts = 0
    while random_checked < 25 and attempts < 400:
        attempts += 1
        alpha = HurwitzQuaternion._raw(_random_nonzero(rng, 6))
        odd_primes = [p for p in rational_factorize(alpha.norm()) if p % 2]
        if not odd_primes:
            continue
        m = _choice(rng, odd_primes)
        if not is_primitive_mod(alpha, m):
            continue
        reports.append(pall_right_divisors(alpha, m))
        random_checked += 1
    for rep in reports:
        if rep.count != 8 or not rep.left_associated:
            return False, (
                f"alpha={rep.alpha}, m={rep.m}: {rep.count} right divisors"
                f" of norm {rep.m}, left-associated={rep.left_associated}"
            )
    return True, (
        f"{len(reports)} (alpha, m) pairs each produced 8 left-associated"
        f" right divisors"
    )


def _check_orthogonal_basis():
    """The explicit basis spans exactly the orthogonal Lipschitz lattice.

    Every basis vector is orthogonal to alpha, the Gram determinant
    equals N(alpha), and the box census accepts each basis's spanning
    certificate (it raises otherwise) and counts its orthogonal
    vectors.  qdot4 of two integer coordinate rows is their inner
    product.
    """
    qdot4 = _kernel.qdot4
    rng = random.Random(7105)
    degenerate = [
        ONE,
        I,
        J,
        K,
        HurwitzQuaternion.from_coords(0, 0, 2, 3),
        HurwitzQuaternion.from_coords(4, 7, 0, 0),
    ]
    samples = degenerate + [_random_primitive(rng, 25) for _ in range(200)]
    for alpha in samples:
        a = alpha.coords
        rows = _basis_rows(alpha)[0]
        for row in rows:
            if qdot4(a, row):
                beta = HurwitzQuaternion.from_coords(*row)
                return False, f"alpha={alpha}: basis vector {beta} not orthogonal"
        gram = det_int([[qdot4(x, y) for y in rows] for x in rows])
        if gram != alpha.norm():
            return False, (
                f"alpha={alpha}: Gram determinant {gram} != N(alpha)"
                f"={alpha.norm()}"
            )
    census_points = 0
    census_samples = degenerate + [_random_primitive(rng, 6) for _ in range(12)]
    for alpha in census_samples:
        census_points += orthogonality_census(alpha, 6)[0]
    return True, (
        f"{len(samples)} bases verified; census matched"
        f" {census_points} orthogonal vectors over {len(census_samples)} boxes"
    )


def _check_cross_of_perpendiculars():
    """alpha x beta x gamma is a two-sided multiple for perpendicular beta, gamma."""
    rng = random.Random(7106)
    checked = 0
    for _ in range(300):
        alpha = _random_primitive(rng, 12)
        a = alpha.doubled
        rows = _basis_rows(alpha)[0]
        beta, gamma = (
            tuple(2 * (x * r0 + y * r1 + z * r2) for r0, r1, r2 in zip(*rows))
            for x, y, z in (_randints(rng, -4, 4, 3), _randints(rng, -4, 4, 3))
        )
        c = _kernel.cross4(a, beta, gamma)
        for side, cofactor in (("left", "right"), ("right", "left")):
            if not _cross_in_ideal(c, a, side):
                beta, gamma = map(HurwitzQuaternion._raw, (beta, gamma))
                return False, (
                    f"alpha={alpha}, beta={beta}, gamma={gamma}: "
                    f"cross {cross3(alpha, beta, gamma)} has no Lipschitz"
                    f" {cofactor} cofactor"
                )
        checked += 1
    return True, f"{checked} perpendicular triples gave two-sided multiples"


def _check_cross_of_left_multiples():
    """cross3(alpha beta, alpha gamma, delta) lands in alpha L, not L alpha.

    By the identity in cross3, cross3(alpha e, alpha u e, v e) = alpha mu e
    with mu = -Im(conj(u) conj(alpha) v) - (alpha.v) u for imaginary basis
    u, basis v and unit e.  These 48 closed forms per alpha are checked
    exactly, random quadruples confirm left membership, and a fixed
    quadruple witnesses that right membership genuinely fails.
    """
    qmul, qconj, cross4 = _kernel.qmul, _kernel.qconj, _kernel.cross4
    q = HurwitzQuaternion._raw
    rng = random.Random(7107)
    times_e = [[qmul(x, e) for e in _BASIS_D] for x in _BASIS_D]
    identities = 0
    for _ in range(50):
        alpha = _random_nonzero(rng, 20)
        alpha_e = [qmul(alpha, e) for e in _BASIS_D]
        for u in (1, 2, 3):
            alpha_ue = [qmul(alpha, x) for x in times_e[u]]
            alpha_u_bar = qconj(qmul(alpha, _BASIS_D[u]))
            for v in range(4):
                # mu = -Im(conj(alpha u) v) - (alpha.v) u, doubled and times 4
                # (alpha.v = alpha[v] / 2): cross4 is 4 cross3, so it must
                # equal alpha (4 mu) e.
                _, w1, w2, w3 = qmul(alpha_u_bar, _BASIS_D[v])
                mu4 = [0, -4 * w1, -4 * w2, -4 * w3]
                mu4[u] -= 4 * alpha[v]
                alpha_mu4 = qmul(alpha, tuple(mu4))
                for e in range(4):
                    rhs = qmul(alpha_mu4, _BASIS_D[e])
                    if cross4(alpha_e[e], alpha_ue[e], times_e[v][e]) != rhs:
                        lhs = cross3(q(alpha_e[e]), q(alpha_ue[e]), q(times_e[v][e]))
                        return False, (
                            f"alpha={q(alpha)}, u={AXIS_NAMES[u]}, "
                            f"v={AXIS_NAMES[v]}, e={AXIS_NAMES[e]}: cross gave {lhs}, "
                            f"closed form gives {q(tuple(x // 4 for x in rhs))}"
                        )
                    identities += 1
    members = 0
    for _ in range(400):
        alpha = _random_nonzero(rng, 10)
        beta = _random_doubled(rng, 10)
        gamma = _random_doubled(rng, 10)
        delta = _random_doubled(rng, 10)
        ab, ag = qmul(alpha, beta), qmul(alpha, gamma)
        if not _cross_in_ideal(cross4(ab, ag, delta), alpha, "left"):
            return False, (
                f"alpha={q(alpha)}, beta={q(beta)}, gamma={q(gamma)}, "
                f"delta={q(delta)}: cross {cross3(q(ab), q(ag), q(delta))} not a left"
                " multiple of alpha"
            )
        members += 1
    alpha = HurwitzQuaternion.from_coords(1, 2, 0, 0)
    beta = HurwitzQuaternion.from_coords(1, 1, 0, 0)
    gamma = HurwitzQuaternion.from_coords(1, 0, 1, 0)
    witness = cross3(alpha * beta, alpha * gamma, beta)
    if not is_multiple(witness, alpha, "left", lipschitz_cofactor=True):
        return False, f"witness {witness} unexpectedly escaped alpha L"
    if is_multiple(witness, alpha, "right", lipschitz_cofactor=True):
        return False, (
            f"witness {witness} for alpha={alpha} unexpectedly lies in"
            f" L alpha; no one-sided witness"
        )
    return True, (
        f"{identities} closed-form identities and {members} random left"
        f" memberships verified; {witness} witnesses the one-sidedness"
    )


def _check_pair_fraction():
    """Measured nontrivial-gcd fractions against the predicted closed form."""
    lines = []
    passed = True
    for p, q in ((3, 5), (3, 7), (5, 7)):
        for convention in CONVENTIONS:
            rep = semiprime_pair_fraction(p, q, convention)
            ok = rep.matches_prediction
            passed = passed and ok
            lines.append(
                f"n={rep.n} {convention}: measured {rep.fraction},"
                f" predicted {rep.predicted_fraction}"
                f" ({'match' if ok else 'MISMATCH'})"
            )
    return passed, "; ".join(lines)


SUITES = (
    (
        "thm-3-2",
        "inner products scale by the norm of a common factor",
        _check_inner_product_scaling,
    ),
    (
        "cor-3-3",
        "basis-unit multiples of one quaternion stay orthogonal",
        _check_unit_axis_orthogonality,
    ),
    (
        "thm-3-4",
        "orthogonal equal-norm primes associate on at least one side",
        _check_orthogonal_primes,
    ),
    (
        "thm-3-5",
        "trivial left gcd of (i*gamma, gamma) matches coprimality in Z[i]",
        _check_gaussian_ideal_coprimality,
    ),
    (
        "thm-2-1",
        "modelled factorizations exist and are unique up to unit migration",
        _check_unique_factorization,
    ),
    (
        "thm-2-2",
        "eight left-associated right divisors per odd norm divisor",
        _check_eight_right_divisors,
    ),
    (
        "lemma-4-2",
        "explicit rank-3 basis of the orthogonal lattice, Gram = N(alpha)",
        _check_orthogonal_basis,
    ),
    (
        "thm-4-3",
        "cross with two perpendiculars is a two-sided multiple",
        _check_cross_of_perpendiculars,
    ),
    (
        "thm-4-4",
        "cross of left multiples is a left multiple, one-sidedly",
        _check_cross_of_left_multiples,
    ),
    (
        "frac-1",
        "semiprime pair fraction matches the predicted closed form",
        _check_pair_fraction,
    ),
)

SUITE_IDS = tuple(suite for suite, _, _ in SUITES)


def run_check(suite: str) -> CheckOutcome:
    """Run one named suite; exceptions become failures, not crashes."""
    for name, description, fn in SUITES:
        if name == suite:
            break
    else:
        raise KeyError(f"unknown check suite {suite!r}")
    try:
        passed, detail = fn()
    except Exception as exc:
        return CheckOutcome(name, description, False, f"raised {type(exc).__name__}: {exc}")
    return CheckOutcome(name, description, passed, detail)


def run_all() -> list[CheckOutcome]:
    """Run every suite in declaration order."""
    return [run_check(name) for name in SUITE_IDS]
