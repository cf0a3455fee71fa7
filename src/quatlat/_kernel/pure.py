"""Pure-Python arithmetic kernel.

Everything here works on plain 4-tuples of ints holding *doubled*
coordinates: the quaternion (a + bi + cj + dk)/2 is stored as
(a, b, c, d).  All four entries even means an integer-coordinate
(Lipschitz) quaternion; all four odd means a half-odd Hurwitz one.
Callers are responsible for parity validation; the kernel assumes its
inputs are well formed and never allocates wrapper objects, which keeps
the enumeration loops tight.

The compiled twin (_speedups) exports the same names with identical
semantics; `quatlat._kernel` picks one at import time.
"""

from math import gcd, isqrt

BACKEND = "pure"

_ZERO = (0, 0, 0, 0)


def qconj(u):
    return (u[0], -u[1], -u[2], -u[3])


def qneg(u):
    return (-u[0], -u[1], -u[2], -u[3])


def qadd(u, v):
    return (u[0] + v[0], u[1] + v[1], u[2] + v[2], u[3] + v[3])


def qsub(u, v):
    return (u[0] - v[0], u[1] - v[1], u[2] - v[2], u[3] - v[3])


def qmul(u, v):
    """Product in doubled coordinates.

    The raw quaternion product of two doubled tuples is four times the
    value of the product, so halving each component returns to doubled
    form.  Same-parity inputs always make the raw components even.
    """
    a0, a1, a2, a3 = u
    b0, b1, b2, b3 = v
    return (
        (a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3) // 2,
        (a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2) // 2,
        (a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1) // 2,
        (a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0) // 2,
    )


def qnorm(u):
    """Reduced norm; an ordinary nonnegative integer for every Hurwitz input."""
    return (u[0] * u[0] + u[1] * u[1] + u[2] * u[2] + u[3] * u[3]) // 4


def qdot4(u, v):
    """Four times the Euclidean inner product of the two quaternions."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2] + u[3] * v[3]


def qdivmod(a, b, right_quotient, lipschitz_only=False):
    """Nearest-point division: returns (q, r) with norm(r) <= norm(b)/2.

    right_quotient=True solves a = b*q + r, False solves a = q*b + r.
    Two candidate quotients are tried, the nearest all-even doubled
    tuple and the nearest all-odd one; the smaller remainder norm wins
    and norm ties go to the lexicographically smaller quotient.  With
    lipschitz_only=True the all-odd candidate is skipped, which only
    guarantees norm(r) <= norm(b).
    """
    n = qnorm(b)
    if n == 0:
        raise ZeroDivisionError("quaternion division by zero")
    if right_quotient:
        num = qmul(qconj(b), a)
    else:
        num = qmul(a, qconj(b))
    # The exact quotient has doubled coordinate num[i]/n; round to the
    # nearest even and nearest odd integers (ties upward).
    two_n = 2 * n
    qe = tuple(2 * ((x + n) // two_n) for x in num)
    re = qsub(a, qmul(b, qe) if right_quotient else qmul(qe, b))
    if lipschitz_only:
        return qe, re
    qo = tuple(2 * (x // two_n) + 1 for x in num)
    ro = qsub(a, qmul(b, qo) if right_quotient else qmul(qo, b))
    if (qnorm(re), qe) <= (qnorm(ro), qo):
        return qe, re
    return qo, ro


def qgcd(a, b, right):
    """One-sided gcd by the Euclidean loop; not canonicalized.

    right=True computes a greatest common right divisor (remainders
    a - q*b), right=False a greatest common left divisor (a - b*q).
    At least one argument must be nonzero.
    """
    rq = not right
    while b != _ZERO:
        r = qdivmod(a, b, rq)[1]
        a, b = b, r
    return a


def cross4(u, v, w):
    """Cross product of three integer 4-vectors (plain tuples, no doubling).

    Sign convention: the coordinate on axis m is (-1)**(4+m) times the
    3x3 minor that deletes column m, so cross4(e1, e2, e3) = e4 read as
    (1, i, j) -> k.
    """
    u1, u2, u3, u4 = u
    v1, v2, v3, v4 = v
    w1, w2, w3, w4 = w
    m12 = v1 * w2 - v2 * w1
    m13 = v1 * w3 - v3 * w1
    m14 = v1 * w4 - v4 * w1
    m23 = v2 * w3 - v3 * w2
    m24 = v2 * w4 - v4 * w2
    m34 = v3 * w4 - v4 * w3
    return (
        -(u2 * m34 - u3 * m24 + u4 * m23),
        u1 * m34 - u3 * m14 + u4 * m13,
        -(u1 * m24 - u2 * m14 + u4 * m12),
        u1 * m23 - u2 * m13 + u3 * m12,
    )


def norm_representations(n, include_half_odd):
    """All doubled tuples of norm n, sorted lexicographically.

    Integer-coordinate solutions always; with include_half_odd also the
    all-odd doubled tuples (they exist only for odd n).
    """
    out = []
    r0 = isqrt(n)
    for a in range(-r0, r0 + 1):
        n1 = n - a * a
        r1 = isqrt(n1)
        for b in range(-r1, r1 + 1):
            n2 = n1 - b * b
            r2 = isqrt(n2)
            for c in range(-r2, r2 + 1):
                n3 = n2 - c * c
                d = isqrt(n3)
                if d * d == n3:
                    if d == 0:
                        out.append((2 * a, 2 * b, 2 * c, 0))
                    else:
                        out.append((2 * a, 2 * b, 2 * c, 2 * d))
                        out.append((2 * a, 2 * b, 2 * c, -2 * d))
    if include_half_odd and n % 2 == 1:
        m = 4 * n
        r0 = isqrt(m)
        r0 -= 1 - r0 % 2
        for a in range(-r0, r0 + 1, 2):
            n1 = m - a * a
            r1 = isqrt(n1)
            r1 -= 1 - r1 % 2
            for b in range(-r1, r1 + 1, 2):
                n2 = n1 - b * b
                r2 = isqrt(n2)
                r2 -= 1 - r2 % 2
                for c in range(-r2, r2 + 1, 2):
                    n3 = n2 - c * c
                    d = isqrt(n3)
                    if d % 2 == 1 and d * d == n3:
                        out.append((a, b, c, d))
                        out.append((a, b, c, -d))
    out.sort()
    return out


def count_nontrivial_gcd_pairs(reps, n):
    """Gcd statistics over all ordered pairs from a norm-n representation list.

    Returns (right_count, left_count, either_count, total) where a pair
    counts when the norm of its one-sided gcd is neither 1 nor n.  Both
    one-sided ideals are symmetric in the pair, so unordered pairs are
    counted once and doubled; the diagonal gcd is the element itself
    (norm n, trivial).

    This is the O(k^2) pairwise reference: two gcds per pair.  The
    library no longer calls it; `factor.semiprime_pair_fraction` counts
    the same pairs from four gcds per representation.  It stays for the
    tests that hold that census to it and for the check that the
    compiled and pure backends agree.
    """
    k = len(reps)
    right_ct = left_ct = either_ct = 0
    for i in range(k):
        a = reps[i]
        for j in range(i + 1, k):
            b = reps[j]
            nr = qnorm(qgcd(a, b, True))
            nl = qnorm(qgcd(a, b, False))
            r_nt = nr != 1 and nr != n
            l_nt = nl != 1 and nl != n
            if r_nt:
                right_ct += 2
            if l_nt:
                left_ct += 2
            if r_nt or l_nt:
                either_ct += 2
    return right_ct, left_ct, either_ct, k * k


def _det3(p, q, r):
    return (
        p[0] * (q[1] * r[2] - q[2] * r[1])
        - p[1] * (q[0] * r[2] - q[2] * r[0])
        + p[2] * (q[0] * r[1] - q[1] * r[0])
    )


def _line_range(base, step, bound):
    """Integer s with |base + s*step| <= bound, as a (lo, hi) pair.

    step == 0 degenerates to all s (returned as None) when the fixed
    value fits and to the empty range otherwise.
    """
    if step == 0:
        return None if -bound <= base <= bound else (1, 0)
    lo_num, hi_num = -bound - base, bound - base
    if step < 0:
        lo_num, hi_num, step = -hi_num, -lo_num, -step
    lo = -((-lo_num) // step)
    hi = hi_num // step
    return lo, hi


def count_orthogonality_failures(alpha, basis, q_bound):
    """Exhaustively check a claimed basis of the orthogonal lattice of alpha.

    alpha is an integer 4-vector, basis three integer 4-vectors.  Every
    integer q with coordinates in [-q_bound, q_bound] and q . alpha = 0
    is tested for being an integer combination of the basis rows.
    Returns (orthogonal_count, failure_count).
    """
    a0, a1, a2, a3 = alpha
    cols = list(zip(*basis))
    pick = None
    for comb in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
        det = _det3(cols[comb[0]], cols[comb[1]], cols[comb[2]])
        if det:
            pick = comb
            break
    orthogonal = failures = 0

    def is_combination(q):
        if pick is None:
            return q == (0, 0, 0, 0)
        p0, p1, p2 = pick
        v0, v1, v2 = q[p0], q[p1], q[p2]
        m0, m1, m2 = cols[p0], cols[p1], cols[p2]
        # Cramer: coefficient k replaces column k of the picked matrix.
        r = []
        for k in range(3):
            sub = [list(m0), list(m1), list(m2)]
            sub[0][k], sub[1][k], sub[2][k] = v0, v1, v2
            num = _det3(sub[0], sub[1], sub[2])
            if num % det:
                return False
            r.append(num // det)
        rest = ({0, 1, 2, 3} - set(pick)).pop()
        return (
            r[0] * basis[0][rest] + r[1] * basis[1][rest] + r[2] * basis[2][rest]
            == q[rest]
        )

    # Solve the orthogonality equation on the coordinate pair (slots),
    # iterating the complementary pair freely.
    if (a2, a3) != (0, 0):
        free, slots, cu, cv = (0, 1), (2, 3), a2, a3
    else:
        free, slots, cu, cv = (2, 3), (0, 1), a0, a1
    g = gcd(cu, cv)
    # Bezout point for cu*u + cv*v = g.
    old_r, r = cu, cv
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        qq = old_r // r
        old_r, r = r, old_r - qq * r
        old_s, s = s, old_s - qq * s
        old_t, t = t, old_t - qq * t
    if old_r < 0:
        old_s, old_t = -old_s, -old_t
    bu, bv = old_s, old_t
    du, dv = cv // g, -cu // g
    fa = alpha[free[0]]
    fb = alpha[free[1]]
    q = [0, 0, 0, 0]
    for x in range(-q_bound, q_bound + 1):
        mx = -fa * x
        for y in range(-q_bound, q_bound + 1):
            m = mx - fb * y
            if m % g:
                continue
            k = m // g
            u0, v0 = bu * k, bv * k
            span_u = _line_range(u0, du, q_bound)
            if span_u == (1, 0):
                continue
            span_v = _line_range(v0, dv, q_bound)
            if span_v == (1, 0):
                continue
            if span_u is None and span_v is None:
                continue  # cannot happen: (du, dv) != (0, 0)
            if span_u is None:
                lo, hi = span_v
            elif span_v is None:
                lo, hi = span_u
            else:
                lo, hi = max(span_u[0], span_v[0]), min(span_u[1], span_v[1])
            for step in range(lo, hi + 1):
                q[free[0]] = x
                q[free[1]] = y
                q[slots[0]] = u0 + step * du
                q[slots[1]] = v0 + step * dv
                orthogonal += 1
                if not is_combination(tuple(q)):
                    failures += 1
    return orthogonal, failures
