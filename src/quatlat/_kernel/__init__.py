"""Arithmetic kernel on plain 4-tuples of doubled coordinates.

Library modules call the traced entry points below through this
namespace, so a tracer can wrap them while the kernel's internal calls
stay untraced; untraced private helpers (`xgcd`, for one) come from `pure`.
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
