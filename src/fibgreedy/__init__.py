"""Greedy two-term unit-fraction underapproximation over Fibonacci-type
sequences: compute the greedy sum for a target in (0, 1], decide exactly
whether it is best possible, and enumerate the windows where it is not.
All arithmetic is exact; decimal output is for display only.

Each computing module's ``__all__`` declares what the package exports from
it; ``__all__`` here is their union plus the two names taken from
``verification`` and the version.
"""

from . import errors, greedy, optimality, oracle, rationals, sequences
from .errors import *
from .greedy import *
from .optimality import *
from .oracle import *
from .rationals import *
from .sequences import *
from .verification import SuiteResult, run_all

__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *greedy.__all__,
    *optimality.__all__,
    *oracle.__all__,
    *rationals.__all__,
    *sequences.__all__,
    "SuiteResult",
    "run_all",
    "__version__",
]
