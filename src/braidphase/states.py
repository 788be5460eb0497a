"""Three-qubit computational states and their images under the braid matrix.

Basis order is |000>, |001>, ..., |111> with qubit A (the first label) most
significant. States are complex128 vectors of length 8 normalized to 1, or
(B, 8) stacks of them. Images come from the braid matrix alone; the tests
check them entrywise against hand-coded templates of each basis image.
"""

from __future__ import annotations

import numpy as np

from . import linalg, yangbaxter

__all__ = [
    "BASIS_LABELS",
    "basis_state",
    "as_state",
    "apply_r",
]

BASIS_LABELS = ("000", "001", "010", "011", "100", "101", "110", "111")

NORM_TOL = 1e-12


def basis_state(label: str) -> np.ndarray:
    """Unit vector |klm> for a three-character 0/1 label."""
    if label not in BASIS_LABELS:
        raise ValueError(f"bad basis label {label!r}; expected one of {BASIS_LABELS}")
    v = np.zeros(8, dtype=complex)
    v[int(label, 2)] = 1.0
    return v


def as_state(amplitudes) -> np.ndarray:
    """Validate and return a fresh normalized 8-amplitude vector, or (B, 8) stack.

    A stack is checked at once, and a bad state is named by its index.
    """
    v = np.array(amplitudes, dtype=complex)
    if v.shape[-1:] != (8,) or v.ndim not in (1, 2):
        raise ValueError(f"state must have 8 amplitudes, or be a (B, 8) stack, "
                         f"got shape {v.shape}")
    norms = linalg.frobenius_norms(v.reshape(-1, 8))  # inf or nan if not finite
    linalg.reject_slices(~(np.abs(norms - 1.0) <= NORM_TOL), v.ndim == 2, "state",
                         f"is not finite with unit norm within {NORM_TOL}")
    return v


def apply_r(p: yangbaxter.RParams, state) -> np.ndarray:
    """Image of a state under the unitary three-qubit braid matrix.

    A theta grid in ``p`` and/or a (B, 8) stack of states gives the (B, 8)
    stack of images, each bitwise the image computed alone. The output norm
    is asserted (not renormalized): unitarity keeps it at 1 within NORM_TOL,
    and a violation raises NumericalError.
    """
    v = as_state(state)
    out = (yangbaxter.r_matrix(yangbaxter.THREE_QUBIT, p) @ v[..., None])[..., 0]
    norms = linalg.frobenius_norms(out.reshape(-1, 8))
    linalg.reject_slices(np.abs(norms - 1.0) > NORM_TOL, out.ndim == 2,
                         "braid image", f"norm drifted beyond {NORM_TOL}",
                         linalg.NumericalError)
    return out

