"""Exact computations with Ramanujan sums, the Ramanujan matrix, Foulkes
characters, and Schur expansions of the weighted power-sum family

    R(n, u) = sum over d | n of c_d(n/d)^u * p_d^(n/d).

All arithmetic is exact (Python ints); see the README for the CLI.  The
public names are those of each module's __all__.
"""

from . import arith, config, errors, foulkes, ramat, symfunc
from .arith import *
from .config import *
from .errors import *
from .foulkes import *
from .ramat import *
from .symfunc import *

__version__ = "0.1.0"

__all__ = [
    *arith.__all__,
    *config.__all__,
    *errors.__all__,
    *ramat.__all__,
    *symfunc.__all__,
    *foulkes.__all__,
]
