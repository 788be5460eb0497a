"""Numerical toolkit for an 8x8 three-qubit braid system.

Builds the braid generators and their unitary Yang-Baxterized matrix,
generates entangled three-qubit states, computes entanglement measures
(three-tangle, Wootters concurrence, one-vs-rest concurrence), constructs the
driven Hamiltonian with its spectrum, and evaluates the geometric phases
(holonomy) of its instantaneous eigenstates over the drive loop — each
closed-form claim checked by an independent numerical route. Each name is
bound and exported by its own module alone (``braidphase.braid.SPIN``).
"""

from . import berry, braid, dynamics, entanglement, linalg, states, yangbaxter

__version__ = "0.1.0"

__all__ = ["berry", "braid", "dynamics", "entanglement", "linalg", "states", "yangbaxter",
           "__version__"]
