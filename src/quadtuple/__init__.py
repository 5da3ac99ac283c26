"""Exact-arithmetic toolkit for Diophantine quadruples in Z[sqrt(d)].

For d = 15 (mod 60) with x^2 - d*y^2 = -6 solvable, constructs quadruples
with property D((4m+2) + 4k*sqrt(d)) for even m + k, verifies them with
exact square-root witnesses, and pairs them with certificates that certain
n are not differences of two squares.

The package exports exactly the names in each module's __all__.
"""

from .construct import *
from .counterex import *
from .pellsolve import *
from .quadring import *
from .represent import *

__version__ = "0.1.0"
