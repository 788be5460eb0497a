"""Numerical toolkit for an 8x8 three-qubit braid system.

Builds the braid generators and their unitary Yang-Baxterized matrix,
generates entangled three-qubit states, computes entanglement measures
(three-tangle, Wootters concurrence, one-vs-rest concurrence), constructs the
driven Hamiltonian with its spectrum, and evaluates the geometric phases
(holonomy) of its instantaneous eigenstates over the drive loop — each
closed-form claim checked by an independent numerical route.
"""

from .linalg import EigenDecomposition, NumericalError, eigh
from .braid import (
    SPIN,
    BraidSet,
    Es2Report,
    SpinOps,
    build_braidset,
    build_m4,
    check_es2_relations,
    transcription_diagnostics,
)
from .yangbaxter import (
    THREE_QUBIT,
    TWO_QUBIT,
    RParams,
    SingularParameterError,
    SpectralParam,
    r_matrix,
    unitarity_residuals,
    ybe_residual,
)
from .states import BASIS_LABELS, apply_r, basis_state
from .entanglement import (
    EntanglementReport,
    full_report,
    one_vs_rest_sq_closed_form,
    pair_concurrence_closed_form,
    tangle_closed_form,
)
from .dynamics import (
    DriveParams,
    SpectrumReport,
    Su2Ops,
    eigenstate_fixture,
    fixture_energy,
    hamiltonian,
    ladder_residuals,
    spectrum,
    su2_ops,
)
from .berry import (
    berry_analytic,
    berry_wilson,
    closed_form_phase,
    solid_angle,
    zero_level_phase,
)

__version__ = "0.1.0"

__all__ = [
    "EigenDecomposition", "NumericalError", "eigh",
    "SPIN", "BraidSet", "Es2Report", "SpinOps", "build_braidset", "build_m4",
    "check_es2_relations", "transcription_diagnostics",
    "THREE_QUBIT", "TWO_QUBIT", "RParams", "SingularParameterError",
    "SpectralParam", "r_matrix", "unitarity_residuals", "ybe_residual",
    "BASIS_LABELS", "apply_r", "basis_state",
    "EntanglementReport", "full_report", "one_vs_rest_sq_closed_form",
    "pair_concurrence_closed_form", "tangle_closed_form",
    "DriveParams", "SpectrumReport", "Su2Ops", "eigenstate_fixture",
    "fixture_energy", "hamiltonian", "ladder_residuals", "spectrum", "su2_ops",
    "berry_analytic", "berry_wilson", "closed_form_phase", "solid_angle",
    "zero_level_phase",
    "__version__",
]
