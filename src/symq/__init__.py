"""Workbench for twisted-conjugation quandles over finite groups.

Builds quandles of the form x ^ y = phi(x) phi(y^-1) y from a finite group
and one of its automorphisms, decides kei-ness and connectedness, enumerates
good involutions with an exhaustive oracle, and classifies symmetric quandle
structures two independent ways (pairwise isomorphism search, and centralizer
orbits on fixed self-inverse elements) with the agreement machine-checked.
"""

# the public API is the union of these modules' __all__ lists
from .__about__ import __version__
from .budget import *
from .catalog import *
from .errors import *
from .groups import *
from .involutions import *
from .quandles import *
from .report import *
from .specs import *
from .torus import *
