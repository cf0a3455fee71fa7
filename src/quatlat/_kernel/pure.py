"""Pure-Python arithmetic kernel.

Everything here works on plain 4-tuples of ints holding *doubled*
coordinates: the quaternion (a + bi + cj + dk)/2 is stored as
(a, b, c, d).  All four entries even means an integer-coordinate
(Lipschitz) quaternion; all four odd means a half-odd Hurwitz one.
Callers are responsible for parity validation; the kernel assumes its
inputs are well formed and never allocates wrapper objects, which keeps
the enumeration loops tight.

Two entries carry most of the library's enumeration:

- The box census `count_orthogonality_failures` first tries a
  Gram-determinant certificate that the basis spans the whole
  orthogonal lattice; when it holds, the orthogonal points of the box
  are only counted, by a meet-in-the-middle tally, and none can fail.
  Otherwise it walks the box and solves for each point with
  `combination_solver`, which `lattice.in_orthogonal_lattice` shares.
- The sphere walk `norm_representations` files the pairs (c, d) by
  c^2 + d^2 and meets them with the pairs (a, b), in O(n + output)
  rather than the O(n^1.5) of a triple loop that solves for d.
"""

from collections import Counter
from math import gcd, isqrt

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
    Two candidate quotients are weighed, the nearest all-even doubled
    tuple and the nearest all-odd one; the smaller remainder norm wins
    and norm ties go to the lexicographically smaller quotient.  With
    lipschitz_only=True the all-odd candidate is skipped, which only
    guarantees norm(r) <= norm(b).

    Only the winner's remainder is formed.  With n = N(b), the exact
    quotient q* = b^-1 a (or a b^-1) has doubled coordinates num_i/n,
    and r = b*(q* - q) (or (q* - q)*b), so N(r) = N(b) * N(num/n - q) =
    sum((num_i - n*q_i)^2) / (4n): the candidates are ranked by that
    integer sum.  Write k_i, m_i = divmod(num_i, 2n).  The odd
    candidate is 2k_i + 1, with residual t_i = m_i - n in [-n, n); the
    even one is 2(k_i + [m_i >= n]), the nearer of 2k_i and 2k_i + 2
    (ties upward), with residual of size n - |t_i|.  So the even sum
    minus the odd sum is sum((n - |t_i|)^2 - t_i^2) =
    n * (4n - 2 * sum(|t_i|)): the even candidate wins when
    sum(|t_i|) > 2n, and on equality too when its first coordinate is
    the smaller one, i.e. when m_0 < n.
    """
    n = qnorm(b)
    if n == 0:
        raise ZeroDivisionError("quaternion division by zero")
    cb = qconj(b)
    num = qmul(cb, a) if right_quotient else qmul(a, cb)
    two_n = 2 * n
    x0, x1, x2, x3 = num
    k0, m0 = divmod(x0, two_n)
    k1, m1 = divmod(x1, two_n)
    k2, m2 = divmod(x2, two_n)
    k3, m3 = divmod(x3, two_n)
    dist = abs(m0 - n) + abs(m1 - n) + abs(m2 - n) + abs(m3 - n)
    if lipschitz_only or dist > two_n or (dist == two_n and m0 < n):
        q = (
            2 * (k0 + (m0 >= n)),
            2 * (k1 + (m1 >= n)),
            2 * (k2 + (m2 >= n)),
            2 * (k3 + (m3 >= n)),
        )
    else:
        q = (2 * k0 + 1, 2 * k1 + 1, 2 * k2 + 1, 2 * k3 + 1)
    return q, qsub(a, qmul(b, q) if right_quotient else qmul(q, b))


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

    Meet in the middle: a doubled tuple (a, b, c, d) has norm n exactly
    when a^2 + b^2 + c^2 + d^2 = 4n with all four entries of one
    parity.  One pass over the pairs (c, d) with c^2 + d^2 <= 4n, in
    lexicographic order, files each pair under its sum; even pairs have
    sums divisible by 4 and odd pairs sums of 2 mod 8, so both share
    one table without colliding.  A walk over (a, b), also in
    lexicographic order and of the parity of a, then appends the bucket
    at 4n - a^2 - b^2.  Both halves are ordered, so the output is sorted
    as built, with the half-odd tuples already merged in.  The cost is
    O(n) pairs plus the output, against O(n^1.5) for a triple loop over
    (a, b, c) that solves for d.
    """
    m = 4 * n
    step = 1 if include_half_odd and n % 2 == 1 else 2
    r = isqrt(m)
    if step == 2:
        r -= r & 1
    table = [()] * (m + 1)
    for c in range(-r, r + 1, step):
        cc = c * c
        rd = isqrt(m - cc)
        rd -= (rd ^ c) & 1
        for d in range(-rd, rd + 1, 2):
            s = cc + d * d
            bucket = table[s]
            if bucket:
                bucket.append((c, d))
            else:
                table[s] = [(c, d)]
    out = []
    for a in range(-r, r + 1, step):
        rest = m - a * a
        rb = isqrt(rest)
        rb -= (rb ^ a) & 1
        out += [
            (a, b, c, d)
            for b in range(-rb, rb + 1, 2)
            for c, d in table[rest - b * b]
        ]
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
    the same pairs with no gcd, from each representation's divisor
    classes read as points of P^1(F_p) off its matrix mod p.  It stays
    for the tests that hold that census to it, and it stays in
    `quatlat._kernel` because perfbench's tracer looks it up there by
    name.
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


def _cross3(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def combination_solver(basis):
    """Exact solver for integer combinations of three integer 4-vectors.

    Returns a function mapping a 4-vector q to the integers (r0, r1, r2)
    with r0*basis[0] + r1*basis[1] + r2*basis[2] == q, or to None.  The
    first nonsingular 3x3 column minor, in the order (0,1,2), (0,1,3),
    (0,2,3), (1,2,3), its determinant and its adjugate are found once;
    each query then takes three dot products and checks the remaining
    coordinate.  A singular basis admits only q = 0.
    """
    for pick in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
        m0, m1, m2 = ((row[pick[0]], row[pick[1]], row[pick[2]]) for row in basis)
        det = _det3(m0, m1, m2)
        if det:
            break
    else:
        return lambda q: None if any(q) else (0, 0, 0)
    p0, p1, p2 = pick
    rest = 6 - p0 - p1 - p2
    b0, b1, b2 = (row[rest] for row in basis)
    # r_k * det is q's minor part dotted with the cross product of the
    # other two minor rows; those cross products are the adjugate.
    (c00, c01, c02), (c10, c11, c12), (c20, c21, c22) = (
        _cross3(m1, m2), _cross3(m2, m0), _cross3(m0, m1)
    )

    def solve(q):
        v0, v1, v2 = q[p0], q[p1], q[p2]
        r0, x0 = divmod(c00 * v0 + c01 * v1 + c02 * v2, det)
        r1, x1 = divmod(c10 * v0 + c11 * v1 + c12 * v2, det)
        r2, x2 = divmod(c20 * v0 + c21 * v1 + c22 * v2, det)
        if x0 or x1 or x2 or r0 * b0 + r1 * b1 + r2 * b2 != q[rest]:
            return None
        return r0, r1, r2

    return solve


def _spans_orthogonal_lattice(alpha, basis):
    """Whether basis provably spans every integer q with q . alpha = 0.

    True when alpha has integer content 1, every row is orthogonal to
    alpha, and the Gram determinant of the rows equals alpha . alpha;
    `count_orthogonality_failures` gives the argument.
    """
    if gcd(*alpha) != 1:
        return False
    if any(qdot4(row, alpha) for row in basis):
        return False
    gram = [[qdot4(u, v) for v in basis] for u in basis]
    return _det3(*gram) == qdot4(alpha, alpha)


def _count_orthogonal(alpha, q_bound):
    """Number of integer q in [-q_bound, q_bound]^4 with q . alpha = 0.

    Meet in the middle: tally alpha_0*x + alpha_1*y over the box's
    (x, y) pairs, then look up -(alpha_2*z + alpha_3*w) for each (z, w).
    """
    span = range(-q_bound, q_bound + 1)
    xs, ys, zs, ws = ([a * t for t in span] for a in alpha)
    tally = Counter(u + v for u in xs for v in ys)
    get = tally.get
    return sum(get(-(u + v), 0) for u in zs for v in ws)


def count_orthogonality_failures(alpha, basis, q_bound):
    """Check a claimed basis of the orthogonal lattice of alpha over a box.

    alpha is a nonzero integer 4-vector, basis three integer 4-vectors.
    Returns (orthogonal_count, failure_count): how many integer q with
    coordinates in [-q_bound, q_bound] satisfy q . alpha = 0, and how
    many of those are not integer combinations of the basis rows.

    When `_spans_orthogonal_lattice` holds, no q can fail, and only the
    count is computed, exactly and in O(q_bound^2).  The argument:
    M = {q in Z^4 : q . alpha = 0} is a primitive rank-3 sublattice of
    the unimodular Z^4, and for alpha of integer content 1 its
    orthogonal complement there is Z*alpha.  Complementary primitive
    sublattices of a unimodular lattice have equal Gram determinants,
    so M's is alpha . alpha.  Rows lying in M span a sublattice of
    index k, with Gram determinant k^2 times that of M.  Rows with Gram
    determinant alpha . alpha therefore have k = 1: they span all of M,
    not only its points in the box.  Otherwise (a broken or scaled
    basis, content > 1, a zero basis) the box is walked point by point
    by `_walk_orthogonality_failures`, the only path that counts
    failures.
    """
    if _spans_orthogonal_lattice(alpha, basis):
        return _count_orthogonal(alpha, q_bound), 0
    return _walk_orthogonality_failures(alpha, basis, q_bound)


def _walk_orthogonality_failures(alpha, basis, q_bound):
    """Exhaustively check a claimed basis of the orthogonal lattice of alpha.

    Same contract as `count_orthogonality_failures`.  Every orthogonal
    q in the box is tested for being an integer combination of the
    basis rows; the box is walked on three coordinates and
    q . alpha = 0 solved for the fourth, the one where |alpha_i| is
    largest.
    """
    solve = combination_solver(basis)
    s = max(range(4), key=lambda i: abs(alpha[i]))
    a_s = alpha[s]
    i, j, k = (m for m in range(4) if m != s)
    a_i, a_j, a_k = alpha[i], alpha[j], alpha[k]
    span = range(-q_bound, q_bound + 1)
    # Third-coordinate values keyed by a_k*z mod a_s, so each (x, y)
    # visits only the z that make a_s divide a_i*x + a_j*y + a_k*z.
    by_residue = {}
    for z in span:
        by_residue.setdefault(a_k * z % a_s, []).append((z, a_k * z))
    q = [0, 0, 0, 0]
    orthogonal = failures = 0
    for x in span:
        q[i] = x
        for y in span:
            q[j] = y
            t_xy = a_i * x + a_j * y
            for z, t_z in by_residue.get(-t_xy % a_s, ()):
                w = -(t_xy + t_z) // a_s
                if -q_bound <= w <= q_bound:
                    q[k], q[s] = z, w
                    orthogonal += 1
                    if solve(q) is None:
                        failures += 1
    return orthogonal, failures
