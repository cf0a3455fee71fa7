"""Arithmetic kernel with a compiled fast path.

Importing this package binds the exported functions to the compiled
Cython module when it is installed and importable, and to the pure
Python twin otherwise.  Setting the environment variable QUATLAT_PURE
to a non-empty value forces the pure backend.  Both backends implement
exactly the same contracts; `tests/test_kernel_backends.py` holds them
to bitwise agreement.  Two entries are the pure ones on every
backend, because the better algorithm beats the compiled loop:

- The box census `count_orthogonality_failures` proves that a basis
  spans the whole orthogonal lattice, which the compiled point walk
  cannot, and then only counts the box.
- The sphere walk `norm_representations` meets the pairs (a, b) with
  buckets of pairs (c, d) keyed by c^2 + d^2, in O(n + output); the
  compiled code is an O(n^1.5) triple loop over (a, b, c) that solves
  for d.  The pure walk takes about half the compiled loop's time at
  every measured size: 2.7 against 4.4 ms at n = 1009, 7.5 against
  13.8 ms at n = 1913, and 36 against 73 ms at n = 9973 (best of
  seven, gcc -O3 build of the shipped C, 2-core x86-64 host).
"""

import os

from quatlat._kernel import pure as _pure_module

if os.environ.get("QUATLAT_PURE"):
    _impl = _pure_module
else:
    try:
        from quatlat._kernel import _speedups as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = _pure_module

BACKEND = _impl.BACKEND
qconj = _impl.qconj
qneg = _impl.qneg
qadd = _impl.qadd
qsub = _impl.qsub
qmul = _impl.qmul
qnorm = _impl.qnorm
qdot4 = _impl.qdot4
qdivmod = _impl.qdivmod
qgcd = _impl.qgcd
cross4 = _impl.cross4
norm_representations = _pure_module.norm_representations
count_nontrivial_gcd_pairs = _impl.count_nontrivial_gcd_pairs
count_orthogonality_failures = _pure_module.count_orthogonality_failures


def backend_name():
    """Name of the kernel actually in use: "compiled" or "pure"."""
    return BACKEND
