"""taxisim: structured-grid simulation of a cell/signal/substrate taxis system.

The package couples a conservative upwind finite-volume discretization with
positivity-safe explicit time stepping, runtime monitors for every bound the
scheme is expected to preserve, and a deterministic sweep harness that maps
boundedness across the taxis-to-damping ratio theta = chi / mu.

The public API is the ``__all__`` of each module below, re-exported here.
"""

from . import config, diagnostics, grid, model, stepper, sweep
from .config import *
from .diagnostics import *
from .grid import *
from .model import *
from .stepper import *
from .sweep import *

__version__ = "0.1.0"

__all__ = [
    *grid.__all__,
    *model.__all__,
    *stepper.__all__,
    *diagnostics.__all__,
    *sweep.__all__,
    *config.__all__,
]
