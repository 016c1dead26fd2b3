"""Convergence exponents of integer sets, growth ideals, and the exceptional
sets of classical arithmetic sequences.

The package exports the names in each module's __all__, and __version__.
"""

from . import arith, bulk, convergence, errors, exponent, sets, suite
from .arith import *  # noqa: F403
from .bulk import *  # noqa: F403
from .convergence import *  # noqa: F403
from .errors import *  # noqa: F403
from .exponent import *  # noqa: F403
from .sets import *  # noqa: F403
from .suite import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    *(name for m in (arith, bulk, convergence, errors, exponent, sets, suite)
      for name in m.__all__),
    "__version__",
]
