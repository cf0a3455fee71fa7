"""Bitwise agreement between the compiled kernel and the pure fallback.

The compiled extension handles machine-word magnitudes itself and
hands anything larger back to the pure implementation, so both paths
are exercised: in-range draws and draws far past the guard limits.
Skips cleanly when the extension is absent.
"""

import os
import random
import subprocess
import sys

import pytest

import quatlat
from quatlat._kernel import BACKEND
from quatlat._kernel import pure

compiled = pytest.importorskip(
    "quatlat._kernel._speedups", reason="compiled kernel not built"
)

SPANS = (
    9,
    10**3,
    2**29,  # inside the multiply guard
    2**31,  # past the multiply guard, delegated
    2**70,  # far past every guard
)


def _tuples(rng: random.Random, span: int, n: int = 4):
    return tuple(rng.randint(-span, span) for _ in range(n))


def _parity_fix(t):
    # Force all-even or all-odd so tuples are valid doubled coordinates.
    parity = t[0] & 1
    return tuple(x if (x & 1) == parity else x + 1 for x in t)


def test_backend_reports_compiled_by_default():
    assert BACKEND in ("compiled", "pure")
    if os.environ.get("QUATLAT_PURE") is None:
        assert BACKEND == "compiled"
        assert quatlat.kernel_backend() == "compiled"


def test_unary_and_binary_ops_agree():
    rng = random.Random(9101)
    for span in SPANS:
        for _ in range(200):
            u = _parity_fix(_tuples(rng, span))
            v = _parity_fix(_tuples(rng, span))
            assert compiled.qmul(u, v) == pure.qmul(u, v)
            assert compiled.qconj(u) == pure.qconj(u)
            assert compiled.qneg(u) == pure.qneg(u)
            assert compiled.qadd(u, v) == pure.qadd(u, v)
            assert compiled.qsub(u, v) == pure.qsub(u, v)
            assert compiled.qnorm(u) == pure.qnorm(u)
            assert compiled.qdot4(u, v) == pure.qdot4(u, v)


def test_division_agrees_and_satisfies_the_contract():
    rng = random.Random(9102)
    for span in (9, 10**3, 2**19, 2**21, 2**40):
        for _ in range(150):
            a = _parity_fix(_tuples(rng, span))
            b = _parity_fix(_tuples(rng, span))
            if pure.qnorm(b) == 0:
                continue
            for right_quotient in (True, False):
                for lipschitz_only in (False, True):
                    got = compiled.qdivmod(a, b, right_quotient, lipschitz_only)
                    want = pure.qdivmod(a, b, right_quotient, lipschitz_only)
                    assert got == want
                    q, r = got
                    prod = pure.qmul(b, q) if right_quotient else pure.qmul(q, b)
                    assert pure.qadd(prod, r) == a
                    if lipschitz_only:
                        assert pure.qnorm(r) <= pure.qnorm(b)
                    else:
                        assert 2 * pure.qnorm(r) <= pure.qnorm(b)


def test_gcd_agrees_across_magnitudes():
    rng = random.Random(9103)
    for span in (9, 500, 2**21, 2**40):
        for _ in range(100):
            a = _parity_fix(_tuples(rng, span))
            b = _parity_fix(_tuples(rng, span))
            if pure.qnorm(a) == 0 and pure.qnorm(b) == 0:
                continue
            for right in (True, False):
                assert compiled.qgcd(a, b, right) == pure.qgcd(a, b, right)


def test_cross_agrees_across_magnitudes():
    rng = random.Random(9104)
    for span in (9, 10**4, 2**29, 2**33):
        for _ in range(150):
            u = _parity_fix(_tuples(rng, span))
            v = _parity_fix(_tuples(rng, span))
            w = _parity_fix(_tuples(rng, span))
            assert compiled.cross4(u, v, w) == pure.cross4(u, v, w)


def test_norm_representations_agree():
    for n in (1, 2, 3, 4, 15, 25, 35, 99):
        for half_odd in (False, True):
            got = compiled.norm_representations(n, half_odd)
            want = pure.norm_representations(n, half_odd)
            assert list(got) == list(want)


def test_pair_census_agrees():
    reps15 = pure.norm_representations(15, False)
    assert compiled.count_nontrivial_gcd_pairs(reps15, 15) == pure.count_nontrivial_gcd_pairs(reps15, 15)
    reps9 = pure.norm_representations(9, False)
    assert compiled.count_nontrivial_gcd_pairs(reps9, 9) == pure.count_nontrivial_gcd_pairs(reps9, 9)


def test_orthogonality_failure_counts_agree():
    from quatlat import HurwitzQuaternion, orthogonal_basis

    rng = random.Random(9105)
    seen = 0
    while seen < 8:
        coords = tuple(rng.randint(-5, 5) for _ in range(4))
        alpha = HurwitzQuaternion.from_coords(*coords)
        if alpha.is_zero or not quatlat.is_primitive(alpha):
            continue
        seen += 1
        basis = orthogonal_basis(alpha).rows()
        # The same basis with row seen % 3 scaled by 2 misses lattice points.
        broken = list(basis)
        broken[seen % 3] = tuple(2 * x for x in basis[seen % 3])
        for rows in (basis, tuple(broken)):
            got = compiled.count_orthogonality_failures(coords, rows, 5)
            want = pure.count_orthogonality_failures(coords, rows, 5)
            assert got == want


def test_env_variable_selects_pure_backend():
    env = dict(os.environ, QUATLAT_PURE="1")
    out = subprocess.run(
        [sys.executable, "-c", "import quatlat; print(quatlat.kernel_backend())"],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    assert out.stdout.strip() == "pure"


def test_division_guard_boundary_is_seamless():
    # Entries straddling the compiled division guard must not change
    # results: one side runs in C, the other is delegated.
    rng = random.Random(9106)
    lo, hi = 2**20 - 4, 2**20 + 4
    for _ in range(200):
        a = _parity_fix(tuple(rng.randint(lo, hi) * rng.choice((-1, 1)) for _ in range(4)))
        b = _parity_fix(_tuples(rng, 50))
        if pure.qnorm(b) == 0:
            continue
        assert compiled.qdivmod(a, b, True) == pure.qdivmod(a, b, True)
        assert compiled.qgcd(a, b, True) == pure.qgcd(a, b, True)
