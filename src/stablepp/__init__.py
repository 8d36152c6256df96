"""Simulation and verification of scale- and shift-decorated Poisson point processes.

The package samples the four process families (scale- and shift-decorated,
with and without a random dilation or translation), predicts and estimates
their Laplace functionals, runs the stability / max-law / support / tail
statistical checks, extracts decorations from conditioned replicas, and
carries processes between the scale and shift carriers. It exports exactly
the names its modules list in their ``__all__``.
"""

from . import errors, point_measure, sampler, functionals, characterization, extraction, transform
from .errors import *
from .point_measure import *
from .sampler import *
from .functionals import *
from .characterization import *
from .extraction import *
from .transform import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [name for module in (errors, point_measure, sampler, functionals,
                                                 characterization, extraction, transform)
                             for name in module.__all__]
