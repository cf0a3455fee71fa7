"""Exact arithmetic for Lipschitz and Hurwitz integer quaternions.

The package keeps every quaternion in doubled integer coordinates, so
all results are exact: multiplication, norms, one-sided Euclidean
division and gcds, generalized cross products, orthogonal lattices of
quaternions, four-square decompositions, and the experiments measuring
how often random quaternion pairs betray a factor of a semiprime norm.

Hot loops run in one pure-Python kernel on plain integer tuples.

The package exports every name in the `__all__` of `core`, `cross`,
`errors`, `euclid`, `factor`, `lattice` and `rational`, so a public
name is declared once, in the module that defines it.
"""

from quatlat.core import *
from quatlat.cross import *
from quatlat.errors import *
from quatlat.euclid import *
from quatlat.factor import *
from quatlat.lattice import *
from quatlat.rational import *

__version__ = "0.1.0"


def kernel_backend() -> str:
    """Name of the arithmetic kernel; there is only the pure one."""
    return "pure"


__all__ = ["__version__", "kernel_backend"]
__all__ += core.__all__
__all__ += cross.__all__
__all__ += errors.__all__
__all__ += euclid.__all__
__all__ += factor.__all__
__all__ += lattice.__all__
__all__ += rational.__all__
