"""Degree counting and spectral solving for singular Liouville systems.

The package computes the Leray-Schauder degree of coupled mean field
systems on closed surfaces and planar domains from topology and
singularity data alone, checks the matrix hypotheses the theory needs,
implements the blow-up mass identities, and numerically solves the
system on the unit flat torus in the subcritical regime.
"""

# Each star import also binds its submodule here, which __all__ reads.
from .degree import *
from .errors import *
from .matrix import *
from .pohozaev import *
from .solver import *
from .spectrum import *

__version__ = "0.1.0"

__all__ = [
    *degree.__all__,
    *errors.__all__,
    *matrix.__all__,
    *pohozaev.__all__,
    *solver.__all__,
    *spectrum.__all__,
]
