"""Joint phase-time array beamformer design and evaluation toolkit."""

__version__ = "0.1.0"

# each module's __all__ is the one list of its public names, and the package re-exports them
from .array_model import *
from .beam_targets import *
from .design import *
from .hbf import *
from .heuristics import *
from .metrics import *
