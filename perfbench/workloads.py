"""The four workloads: inputs made from a seed, one round of ops, output checks.

A workload builds one round: a fixed list of ops. An op is one public
call with a check of its result. The runner repeats the round, so every
round has the same mix of op kinds whatever the program's speed.

Checks are independent of the code under test. They redo the arithmetic
here on doubled coordinate tuples, or compare with `reference.json`, which
`record.py` wrote from the library. The pools that reference covers (the
prime norms of the census spheres, the coordinate box of the lattice
workload, the CLI argv lists) are fixed; the seed picks from them, or
draws the signs of the box alphas.
"""

from __future__ import annotations

import hashlib
import io
import random
from contextlib import redirect_stdout
from fractions import Fraction
from math import gcd
from typing import Any, Callable, NamedTuple


class Op(NamedTuple):
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]


class Workload(NamedTuple):
    name: str
    ops: list
    sizes: str
    # (kernel function name, args) pairs the two kernels must agree on.
    kernel_cases: list


def grouped(ops) -> list:
    """The round's ops with each kind's ops back to back, in seeded order.

    A call of a few microseconds timed right after a call of milliseconds
    pays for the cache state the long call left. That cost swings from
    run to run, so kinds are not interleaved.
    """
    return sorted(ops, key=lambda op: op.kind)


# ---------------------------------------------------------------------------
# Reference arithmetic on doubled coordinates: (a, b, c, d) stands for
# (a + bi + cj + dk) / 2, all entries even or all odd.


def dmul(u, v):
    a0, a1, a2, a3 = u
    b0, b1, b2, b3 = v
    return (
        (a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3) // 2,
        (a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2) // 2,
        (a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1) // 2,
        (a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0) // 2,
    )


def dadd(u, v):
    return tuple(x + y for x, y in zip(u, v))


def dconj(u):
    return (u[0], -u[1], -u[2], -u[3])


def dnorm(u) -> int:
    return sum(x * x for x in u) // 4


def is_hurwitz(u) -> bool:
    return len({x & 1 for x in u}) == 1


def exact_quotient(prod, n):
    """prod / n as a Hurwitz doubled tuple, or None when it is not one."""
    if any(x % n for x in prod):
        return None
    m = tuple(x // n for x in prod)
    return m if is_hurwitz(m) else None


UNITS = tuple(
    sorted(
        [tuple(s * (2 if i == k else 0) for i in range(4)) for k in range(4) for s in (1, -1)]
        + [(a, b, c, d) for a in (1, -1) for b in (1, -1) for c in (1, -1) for d in (1, -1)]
    )
)


def det3(m) -> int:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def gram_det(rows) -> int:
    return det3([[sum(x * y for x, y in zip(r, s)) for s in rows] for r in rows])


def sigma(n: int) -> int:
    total, d = 0, 1
    while d * d <= n:
        if n % d == 0:
            total += d + (n // d if d * d != n else 0)
        d += 1
    return total


def small_factors(n: int) -> list:
    out, d = [], 2
    while d * d <= n:
        while n % d == 0:
            out.append(d)
            n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def reps_digest(reps) -> str:
    return digest(repr([r.doubled for r in reps]))


def doubled(rng, span):
    """A random doubled tuple with coordinates up to span; half are half-odd."""
    if rng.randint(0, 1):
        return tuple(2 * rng.randint(-span, span) + 1 for _ in range(4))
    return tuple(2 * rng.randint(-span, span) for _ in range(4))


def nonzero(rng, span):
    while True:
        u = doubled(rng, span)
        if any(u):
            return u


# ---------------------------------------------------------------------------
# arith: the public Euclid path and cross3 in three magnitude bands.

# Coordinate bounds: small; between the compiled kernel's division guard
# (2^20) and its multiplication guard (2^30) once doubled; above both.
BANDS = (("small", 40), ("mid", 1 << 25), ("big", 1 << 40))
ARITH_PAIRS = 60  # per band; each pair makes four ops
ARITH_TRIPLES = 60  # per band


def _check_gcd(a, b, side):
    def check(res):
        g, x, y = res.gcd.doubled, res.x.doubled, res.y.doubled
        n = dnorm(g)
        if res.side != side or n == 0:
            return False
        if side == "right":
            bezout = dadd(dmul(x, a), dmul(y, b))
            divides = all(exact_quotient(dmul(v, dconj(g)), n) for v in (a, b) if any(v))
            canonical = min(dmul(e, g) for e in UNITS)
        else:
            bezout = dadd(dmul(a, x), dmul(b, y))
            divides = all(exact_quotient(dmul(dconj(g), v), n) for v in (a, b) if any(v))
            canonical = min(dmul(g, e) for e in UNITS)
        return bezout == g and divides and canonical == g

    return check


def _check_divide(a, b, side):
    def check(res):
        q, r = res.quotient.doubled, res.remainder.doubled
        prod = dmul(b, q) if side == "right" else dmul(q, b)
        return dadd(prod, r) == a and 2 * dnorm(r) <= dnorm(b)

    return check


def _check_cross(u, v, w):
    def check(res):
        if hasattr(res, "numerators"):
            num, den = res.numerators, res.denominator
        else:
            num, den = res.doubled, 2
        orthogonal = all(sum(x * y for x, y in zip(num, arg)) == 0 for arg in (u, v, w))
        norm = Fraction(sum(x * x for x in num), den * den)
        return orthogonal and norm == Fraction(gram_det((u, v, w)), 64)

    return check


def arith(quatlat, seed, ref):
    H = quatlat.HurwitzQuaternion
    rng = random.Random(f"arith:{seed}")
    ops, cases = [], []
    for band, span in BANDS:
        for _ in range(ARITH_PAIRS):
            a, b = doubled(rng, span), nonzero(rng, span)
            ha, hb = H(*a), H(*b)
            for side in ("right", "left"):
                ops.append(Op(
                    f"gcd.{band}",
                    lambda ha=ha, hb=hb, side=side: quatlat.gcd(ha, hb, side),
                    _check_gcd(a, b, side),
                ))
                ops.append(Op(
                    f"divide.{band}",
                    lambda ha=ha, hb=hb, side=side: quatlat.divide(ha, hb, side),
                    _check_divide(a, b, side),
                ))
                cases.append(("qgcd", (a, b, side == "right")))
                cases.append(("qdivmod", (a, b, side == "right")))
            cases.append(("qmul", (a, b)))
        for _ in range(ARITH_TRIPLES):
            u, v, w = (doubled(rng, span) for _ in range(3))
            hu, hv, hw = H(*u), H(*v), H(*w)
            ops.append(Op(
                f"cross3.{band}",
                lambda hu=hu, hv=hv, hw=hw: quatlat.cross3(hu, hv, hw),
                _check_cross(u, v, w),
            ))
            cases.append(("cross4", (u, v, w)))
    sizes = (
        f"{ARITH_PAIRS} pairs (gcd and divide, both sides) and {ARITH_TRIPLES} "
        f"cross3 triples per band; bands |c|<=40, 2^25, 2^40; half-odd ~1/2"
    )
    return Workload("arith", grouped(ops), sizes, cases)


# ---------------------------------------------------------------------------
# census: the exact pair census on the frac-1 semiprimes, and norm spheres.

SEMIPRIMES = ((3, 5), (3, 7), (5, 7))
CONVENTIONS = ("right", "left", "either")
# Norms of the sphere ops: one prime from each stratum of five primes
# above 1000. Primes keep the sphere size, 8(n+1), and so its cost, the
# same whichever member of a stratum the seed picks.
SPHERE_LOW, SPHERE_STRATA, SPHERE_STRATUM = 1001, 25, 5


def sphere_norms() -> list:
    primes = []
    n = SPHERE_LOW
    while len(primes) < SPHERE_STRATA * SPHERE_STRATUM:
        if small_factors(n) == [n]:
            primes.append(n)
        n += 2
    return primes


def _check_fraction(p, q, convention, expected):
    n = p * q

    def check(rep):
        k = 8 * sigma(n)
        count = expected[convention]
        return (
            rep.n == n
            and rep.convention == convention
            and rep.total_pairs == k * k == expected["total"]
            and rep.nontrivial_pairs == count
            and rep.fraction == Fraction(count, k * k)
            and str(rep.fraction) == expected[f"fraction_{convention}"]
            and rep.predicted_fraction == Fraction(p + q + 2, (p + 1) * (q + 1))
            # The criterion-8 gap is the expected output, not an error.
            and rep.matches_prediction == expected[f"matches_{convention}"]
        )

    return check


def _check_sphere(n, expected):
    def check(reps):
        return len(reps) == 8 * sigma(n) and reps_digest(reps) == expected

    return check


def census(quatlat, seed, ref):
    rng = random.Random(f"census:{seed}")
    fractions, spheres = ref["census"]["fraction"], ref["census"]["spheres"]
    ops, cases = [], []
    offset = rng.randrange(3)
    for idx, (p, q) in enumerate(SEMIPRIMES):
        convention = CONVENTIONS[(offset + idx) % 3]
        ops.append(Op(
            f"fraction.{p * q}",
            lambda p=p, q=q, c=convention: quatlat.semiprime_pair_fraction(p, q, c),
            _check_fraction(p, q, convention, fractions[str(p * q)]),
        ))
        reps = [r.doubled for r in quatlat.representations(p * q)]
        cases.append(("count_nontrivial_gcd_pairs", (reps, p * q)))
    norms = sphere_norms()
    for stratum in range(SPHERE_STRATA):
        n = rng.choice(norms[stratum * SPHERE_STRATUM:(stratum + 1) * SPHERE_STRATUM])
        ops.append(Op(
            "representations",
            lambda n=n: quatlat.representations(n),
            _check_sphere(n, spheres[str(n)]),
        ))
        cases.append(("norm_representations", (n, False)))
    sizes = (
        f"semiprime_pair_fraction on n=15, 21, 35 (k=192, 256, 384) and "
        f"{SPHERE_STRATA} Lipschitz spheres, prime n in [{norms[0]}, {norms[-1]}]"
    )
    return Workload("census", grouped(ops), sizes, cases)


# ---------------------------------------------------------------------------
# lattice: orthogonal bases, the criterion-10 box census, membership.

DENSE_SPAN, BOX = 6, 12
SPARSE_SPAN = 50
# Few enough sparse ops that most of a round is box censuses, which the
# median op then is: a call of milliseconds, not of microseconds.
LATTICE_SPARSE = 10
QUERIES = ("orthogonal",) * 6 + ("lipschitz", "half-odd")


def box_key(alpha) -> str:
    # The box is symmetric under signed coordinate permutations, and so
    # is the count of box points orthogonal to alpha.
    return ",".join(str(x) for x in sorted(abs(c) for c in alpha))


def is_primitive(alpha) -> bool:
    # Content 1 in the Hurwitz order: an all-odd alpha is 2 times a
    # half-odd Hurwitz integer.
    return gcd(*alpha) == 1 and not all(x % 2 for x in alpha)


def sparse_alpha(rng):
    """A primitive alpha of large norm, whose orthogonal lattice is sparse."""
    while True:
        alpha = tuple(
            rng.choice((-1, 1)) * rng.randint(1, SPARSE_SPAN) for _ in range(4)
        )
        if is_primitive(alpha):
            return alpha


def dense_alphas(rng, box):
    """Every primitive alpha of the box up to signed permutation.

    Each key keeps one fixed coordinate order, drawn once from the key
    itself, because the order picks the basis construction and the
    census's cost. The seed draws the signs.
    """
    for key in sorted(box):
        coords = [int(x) for x in key.split(",")]
        random.Random(key).shuffle(coords)
        yield tuple(c if rng.randint(0, 1) else -c for c in coords)


def _query(rng, alpha, kind):
    if kind == "orthogonal":
        return tuple(2 * x for x in _orthogonal_vector(rng, alpha))
    odd = kind == "half-odd"
    return tuple(2 * rng.randint(-SPARSE_SPAN, SPARSE_SPAN) + odd for _ in range(4))


def dot(u, v) -> int:
    return sum(x * y for x, y in zip(u, v))


def _check_basis(alpha):
    def check(basis):
        rows = [beta.doubled for beta in (basis.beta1, basis.beta2, basis.beta3)]
        if any(x % 2 for row in rows for x in row):
            return False
        rows = [tuple(x // 2 for x in row) for row in rows]
        return all(dot(row, alpha) == 0 for row in rows) and gram_det(rows) == dot(alpha, alpha)

    return check


def _check_box(expected):
    def check(result):
        return tuple(result) == (expected, 0)

    return check


def _check_member(alpha, q):
    expected = q[0] % 2 == 0 and dot(alpha, q) == 0

    def check(result):
        return result is expected

    return check


def _orthogonal_vector(rng, alpha):
    a, b, c, d = alpha
    gens = ((b, -a, 0, 0), (c, 0, -a, 0), (d, 0, 0, -a), (0, c, -b, 0), (0, d, 0, -b), (0, 0, d, -c))
    coeffs = [rng.randint(-3, 3) for _ in gens]
    return tuple(sum(k * g[i] for k, g in zip(coeffs, gens)) for i in range(4))


def lattice(quatlat, seed, ref):
    H = quatlat.HurwitzQuaternion
    rng = random.Random(f"lattice:{seed}")
    box = ref["lattice"]["box12"]
    ops, cases = [], []
    for alpha in dense_alphas(rng, box):
        h = H.from_coords(*alpha)
        ops.append(Op(
            "orthogonality_census",
            lambda h=h: quatlat.orthogonality_census(h, BOX),
            _check_box(box[box_key(alpha)]),
        ))
        cases.append(("count_orthogonality_failures", (alpha, quatlat.orthogonal_basis(h).rows(), BOX)))
    for _ in range(LATTICE_SPARSE):
        alpha = sparse_alpha(rng)
        h = H.from_coords(*alpha)
        ops.append(Op("orthogonal_basis", lambda h=h: quatlat.orthogonal_basis(h), _check_basis(alpha)))
        for kind in QUERIES:
            q = _query(rng, alpha, kind)
            hq = H(*q)
            ops.append(Op(
                "in_orthogonal_lattice",
                lambda h=h, hq=hq: quatlat.in_orthogonal_lattice(h, hq),
                _check_member(alpha, q),
            ))
    sizes = (
        f"{len(box)} dense primitive alphas in [-{DENSE_SPAN},{DENSE_SPAN}]^4 "
        f"(box-{BOX} census, which builds the basis); {LATTICE_SPARSE} sparse alphas, |c|<={SPARSE_SPAN}, "
        f"no zero coordinate (basis + {len(QUERIES)} membership queries)"
    )
    return Workload("lattice", grouped(ops), sizes, cases)


# ---------------------------------------------------------------------------
# cli: quatlat.cli.main(argv) in process, stdout captured.

MC_SMALL = 15  # enumeration sampler
MC_MID = 10007 * 10009  # four-squares sampler
MC_BIG = 1000003 * 4949985150044549866357  # about 4.95e27, four-squares sampler


def fmt_quaternion(d) -> str:
    """The CLI literal for a doubled tuple, e.g. -1+3i+j-2k or 1/2-3/2i+1/2j+1/2k."""
    half = d[0] % 2 == 1
    terms = []
    for x, axis in zip(d, ("", "i", "j", "k")):
        if x == 0:
            continue
        if half:
            terms.append(f"{x}/2{axis}")
        elif axis and abs(x) == 2:
            terms.append(("-" if x < 0 else "") + axis)
        else:
            terms.append(f"{x // 2}{axis}")
    return "+".join(terms).replace("+-", "-") if terms else "0"


# Every check suite except frac-1, which the census workload covers.
CHECK_SUITES = (
    "thm-3-2", "cor-3-3", "thm-3-4", "thm-3-5", "thm-2-1",
    "thm-2-2", "lemma-4-2", "thm-4-3", "thm-4-4",
)
MC_TRIALS = {MC_SMALL: 2000, MC_MID: 200, MC_BIG: 20}
POOL_SEEDS = 8  # montecarlo seeds per n
POOL_FOURSQ = POOL_FACTOR = 24
POOL_SMALL = 40  # argv lists per small command
# Every divmod command of the pool is in each round, and is the round's
# median op, so the median does not depend on the seed's picks.
PICK = {"foursq": 4, "factor": 4, "mul": 20, "gcd": 10, "divmod": POOL_SMALL}


def _factorable(rng):
    """A primitive Lipschitz alpha of odd norm and its norm's primes, shuffled."""
    while True:
        alpha = tuple(rng.randint(-30, 30) for _ in range(4))
        n = dot(alpha, alpha)
        if n % 2 and is_primitive(alpha):
            model = small_factors(n)
            rng.shuffle(model)
            return alpha, model


def cli_pool() -> dict:
    """The fixed argv lists, by kind; reference.json records their outputs."""
    rng = random.Random("cli-pool")
    pool = {"check": [["check", suite, "--json"] for suite in CHECK_SUITES]}
    for n, trials in MC_TRIALS.items():
        pool[f"montecarlo.{n}"] = [
            ["experiment", "montecarlo", str(n), "--trials", str(trials), "--seed", str(s), "--json"]
            for s in range(POOL_SEEDS)
        ]
    pool["foursq"] = [
        ["foursq", str(rng.randrange(10**20, 10**30)), "--seed", str(rng.randrange(1000)), "--json"]
        for _ in range(POOL_FOURSQ)
    ]
    pool["factor"] = []
    for _ in range(POOL_FACTOR):
        alpha, model = _factorable(rng)
        pool["factor"].append(
            ["factor", fmt_quaternion(tuple(2 * x for x in alpha)),
             "--model", ",".join(map(str, model)), "--json"]
        )
    pool["mul"] = [
        ["mul", fmt_quaternion(doubled(rng, 40)), fmt_quaternion(doubled(rng, 40)), "--json"]
        for _ in range(POOL_SMALL)
    ]
    for command in ("gcd", "divmod"):
        pool[command] = [
            [command, "--side", rng.choice(("right", "left")),
             fmt_quaternion(doubled(rng, 40)), fmt_quaternion(nonzero(rng, 40)), "--json"]
            for _ in range(POOL_SMALL)
        ]
    return pool


def argv_key(argv) -> str:
    return " ".join(argv)


def run_cli(quatlat, argv):
    """(exit code, captured stdout) of one in-process CLI invocation."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = quatlat.cli.main(list(argv))
    return code, out.getvalue()


def _check_cli(expected):
    def check(result):
        code, text = result
        return [code, digest(text)] == expected

    return check


def cli(quatlat, seed, ref):
    import quatlat.cli  # noqa: F401  (binds quatlat.cli)

    rng = random.Random(f"cli:{seed}")
    outputs = ref["cli"]
    pool = cli_pool()
    picked = list(pool["check"])
    for n in MC_TRIALS:
        picked.append(rng.choice(pool[f"montecarlo.{n}"]))
    for kind, count in PICK.items():
        picked.extend(rng.sample(pool[kind], count))
    ops = [
        Op(
            f"check.{argv[1]}" if argv[0] == "check" else argv[1] if argv[0] == "experiment" else argv[0],
            lambda argv=argv: run_cli(quatlat, argv),
            _check_cli(outputs[argv_key(argv)]),
        )
        for argv in picked
    ]
    sizes = (
        f"{len(picked)} argv per round: {len(CHECK_SUITES)} check suites, montecarlo "
        f"n=15/2000 trials, n=10007*10009/200, n~4.95e27/20, "
        + ", ".join(f"{count} {kind}" for kind, count in PICK.items())
    )
    return Workload("cli", grouped(ops), sizes, [])


WORKLOADS = {"arith": arith, "census": census, "lattice": lattice, "cli": cli}
