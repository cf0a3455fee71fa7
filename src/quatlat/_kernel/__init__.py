"""Arithmetic kernel on plain 4-tuples of doubled coordinates.

Library modules call the kernel through this namespace rather than
through `pure` itself, so a tracer can wrap these attributes while the
kernel's internal calls stay untraced.
"""

from quatlat._kernel.pure import (
    count_nontrivial_gcd_pairs,
    count_orthogonality_failures,
    cross4,
    norm_representations,
    qadd,
    qconj,
    qdivmod,
    qdot4,
    qgcd,
    qmul,
    qneg,
    qnorm,
    qsub,
)
