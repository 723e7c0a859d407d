"""Coherence optimization over deterministic policies in exactly computable
tabular Bayesian learning systems. The package exports every name in its
modules' __all__."""

from .errors import *
from .systems import *
from .coherence import *
from .samplers import *
from .analysis import *
from .experiments import *
from .checks import *
from .fileio import *

__version__ = "0.1.0"
