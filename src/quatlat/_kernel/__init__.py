"""Arithmetic kernel with a compiled fast path.

Importing this package binds the exported functions to the compiled
Cython module when it is installed and importable, and to the pure
Python twin otherwise.  Setting the environment variable QUATLAT_PURE
to a non-empty value forces the pure backend.  Both backends implement
exactly the same contracts; `tests/test_kernel_backends.py` holds them
to bitwise agreement.  The box census `count_orthogonality_failures`
is the pure one on every backend: it proves that a basis spans the
whole orthogonal lattice, which the compiled point walk cannot, and
then only counts the box.
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
norm_representations = _impl.norm_representations
count_nontrivial_gcd_pairs = _impl.count_nontrivial_gcd_pairs
count_orthogonality_failures = _pure_module.count_orthogonality_failures


def backend_name():
    """Name of the kernel actually in use: "compiled" or "pure"."""
    return BACKEND
