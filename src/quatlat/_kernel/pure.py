"""Pure-Python arithmetic kernel.

Everything here works on plain 4-tuples of ints holding *doubled*
coordinates: the quaternion (a + bi + cj + dk)/2 is stored as
(a, b, c, d).  All four entries even means an integer-coordinate
(Lipschitz) quaternion; all four odd means a half-odd Hurwitz one.
Callers are responsible for parity validation; the kernel assumes its
inputs are well formed and never allocates wrapper objects, which keeps
the enumeration loops tight.

Two entries carry most of the library's enumeration:

- The box census `count_orthogonality_failures` accepts only a basis
  with the vector-product certificate that it spans the whole
  orthogonal lattice: alpha has content 1 and the cross product of the
  three rows is +-alpha.  Its orthogonal box points are then only
  counted, as one coefficient of a Kronecker-packed product that
  `_count_orthogonal` builds by one exact division per nonzero
  coordinate, and none can fail; a basis without the
  certificate raises.  `lattice.in_orthogonal_lattice` reads the same
  certificate, so it is the one test of whether a basis spans.
- The sphere walk `norm_representations` files the pairs (c, d) by
  c^2 + d^2 and meets them with the pairs (a, b), in O(n + output)
  rather than the O(n^1.5) of a triple loop that solves for d.

Every Euclid step is one `qdivmod` frame: its numerator, rounding and
remainder are written out, not built from `qnorm`, `qconj`, `qmul` and
`qsub`, because that call is the inner step of every gcd.
"""

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

    The body is one frame, with the products written out: it divides
    the raw product conj(b)*a (or a*conj(b)), which is 2*num, by
    4n = sum(b_i^2), so each divmod gives k_i and 2*m_i and every
    comparison above is doubled.
    """
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    n4 = b0 * b0 + b1 * b1 + b2 * b2 + b3 * b3
    if n4 == 0:
        raise ZeroDivisionError("quaternion division by zero")
    n2 = n4 >> 1
    # Twice num: the raw product conj(b)*a or a*conj(b), as in qmul.
    if right_quotient:
        x1 = b0 * a1 - b1 * a0 - b2 * a3 + b3 * a2
        x2 = b0 * a2 + b1 * a3 - b2 * a0 - b3 * a1
        x3 = b0 * a3 - b1 * a2 + b2 * a1 - b3 * a0
    else:
        x1 = a1 * b0 - a0 * b1 - a2 * b3 + a3 * b2
        x2 = a2 * b0 + a1 * b3 - a0 * b2 - a3 * b1
        x3 = a3 * b0 - a1 * b2 + a2 * b1 - a0 * b3
    k0, m0 = divmod(b0 * a0 + b1 * a1 + b2 * a2 + b3 * a3, n4)
    k1, m1 = divmod(x1, n4)
    k2, m2 = divmod(x2, n4)
    k3, m3 = divmod(x3, n4)
    dist = abs(m0 - n2) + abs(m1 - n2) + abs(m2 - n2) + abs(m3 - n2)
    if lipschitz_only or dist > n4 or (dist == n4 and m0 < n2):
        q0 = 2 * (k0 + (m0 >= n2))
        q1 = 2 * (k1 + (m1 >= n2))
        q2 = 2 * (k2 + (m2 >= n2))
        q3 = 2 * (k3 + (m3 >= n2))
    else:
        q0, q1, q2, q3 = 2 * k0 + 1, 2 * k1 + 1, 2 * k2 + 1, 2 * k3 + 1
    # r = a - b*q or a - q*b, the product halved as in qmul.
    r0 = a0 - (b0 * q0 - b1 * q1 - b2 * q2 - b3 * q3) // 2
    if right_quotient:
        return (q0, q1, q2, q3), (
            r0,
            a1 - (b0 * q1 + b1 * q0 + b2 * q3 - b3 * q2) // 2,
            a2 - (b0 * q2 - b1 * q3 + b2 * q0 + b3 * q1) // 2,
            a3 - (b0 * q3 + b1 * q2 - b2 * q1 + b3 * q0) // 2,
        )
    return (q0, q1, q2, q3), (
        r0,
        a1 - (q0 * b1 + q1 * b0 + q2 * b3 - q3 * b2) // 2,
        a2 - (q0 * b2 - q1 * b3 + q2 * b0 + q3 * b1) // 2,
        a3 - (q0 * b3 + q1 * b2 - q2 * b1 + q3 * b0) // 2,
    )


def xgcd(a, b):
    """(g, x, y) with a*x + b*y = g = gcd(a, b) >= 0, by Euclid's loop."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


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


def _spans_orthogonal_lattice(alpha, basis):
    """Whether basis provably spans every integer q with q . alpha = 0.

    True when alpha has integer content 1 and cross4 of the rows is
    +-alpha; `count_orthogonality_failures` shows that this suffices.
    It is the Gram criterion in vector-product terms: by Cauchy-Binet
    the rows' Gram determinant is |cross4(rows)|^2, so rows orthogonal
    to alpha with Gram determinant alpha . alpha have their cross on
    Q*alpha, of alpha's length, and conversely.
    """
    return gcd(*alpha) == 1 and cross4(*basis) in (tuple(alpha), qneg(alpha))


def _count_orthogonal(alpha, q_bound):
    """Number of integer q in [-q_bound, q_bound]^4 with q . alpha = 0.

    With B = q_bound and n = 2B + 1, flipping the sign of q_i where
    alpha_i < 0 and shifting s_i = q_i + B puts the box's points on the
    hyperplane in bijection with the s in [0, 2B]^4 where
    sum(|alpha_i| * s_i) = B * sum(|alpha_i|).  So the count is the
    coefficient of X^(B * sum|alpha_i|) in the product over i of
    (X^(|alpha_i| n) - 1) / (X^|alpha_i| - 1) = sum over s < n of
    X^(|alpha_i| s); a zero alpha_i contributes the constant factor n,
    applied after the extraction.  Kronecker substitution evaluates the
    product of the m nonzero factors at X = 2^k and reads the
    coefficient with a shift and a mask.  No carry crosses a k-bit
    slot: each coefficient counts the points of [0, 2B]^m on one
    hyperplane, and a coordinate with nonzero weight is fixed by the
    other m - 1, so every coefficient is at most n^(m - 1) < 2^k for k
    the bit length of n^(m - 1).

    Each factor is folded in without being built: with w = |alpha_i|,
    packed becomes ((packed << k*w*n) - packed) // (2^(k*w) - 1), one
    shift, one subtraction and one division by an integer of k*w bits,
    linear in the size of packed where a full product is not.  The
    division is exact, and gives the integer the product would, because
    2^(k*w) - 1 divides 2^(k*w*n) - 1 = (2^(k*w))^n - 1, so the
    numerator packed * (2^(k*w*n) - 1) is packed times an integer
    multiple of the divisor.  The weights are folded in alpha's order;
    sorting them first measured slower.
    """
    if q_bound < 0:  # an empty box
        return 0
    weights = [abs(a) for a in alpha if a]
    total = sum(weights)
    n = 2 * q_bound + 1
    k = (n ** (len(weights) - 1)).bit_length()
    packed = 1
    for w in weights:
        packed = ((packed << k * w * n) - packed) // ((1 << k * w) - 1)
    return (packed >> k * q_bound * total & (1 << k) - 1) * n ** (4 - len(weights))


def count_orthogonality_failures(alpha, basis, q_bound):
    """Check a claimed basis of the orthogonal lattice of alpha over a box.

    alpha is a nonzero integer 4-vector, basis three integer 4-vectors.
    Returns (orthogonal_count, failure_count): how many integer q with
    coordinates in [-q_bound, q_bound] satisfy q . alpha = 0, and how
    many of those are not integer combinations of the basis rows.  The
    pair is the shape `lattice.orthogonality_census` returns.

    Only a basis with the certificate `_spans_orthogonal_lattice` is
    accepted, so failure_count is 0 by proof, and the count is computed
    exactly by `_count_orthogonal` from one Kronecker-packed integer.  A
    basis without it (a broken or scaled basis, content > 1, a zero
    basis) raises RuntimeError at every q_bound.  The argument that none
    can fail: the cross of the rows is orthogonal to each, so
    cross4(rows) = +-alpha puts the rows in
    M = {q in Z^4 : q . alpha = 0}, independent as alpha != 0.  For q
    in M, det(rows stacked over q) = cross4(rows) . q = 0, so
    q = sum(r_i * row_i) with rational r_i.  Putting q in place of row
    i multiplies the cross by r_i and gives an integer vector, so
    r_i * alpha is integral and, alpha having content 1, r_i is an
    integer: the rows span all of M, not only its points in the box.
    """
    if not _spans_orthogonal_lattice(alpha, basis):
        raise RuntimeError(
            "orthogonal basis is inconsistent: cross4 of its rows is not"
            " +-alpha of content 1"
        )
    return _count_orthogonal(alpha, q_bound), 0
