"""Geometric phases for the adiabatic loop phi: 0 -> 2*pi.

Two routes:

* berry_analytic -- gauge-invariant discrete line integral
  gamma = -Im sum_k log <chi(phi_k)|chi(phi_{k+1})> over the closed-form
  eigenstates (indices 5..8), second-order accurate in the step size;
* berry_wilson -- eigenphases of the Wilson loop of overlap matrices between
  numerical eigenbases of one degenerate doublet, for levels without closed
  forms of their connection.

Phases follow the gamma = i oint <chi|d_phi chi> sign convention (Wilson
eigenphases are reported as -arg of the loop eigenvalues so both routes
agree). Measured values: the -hbar*phidot*cos(theta) doublet (states 5 and 7)
carries +pi(1 - cos theta) twice, the +hbar*phidot*cos(theta) doublet (states
6 and 8) carries -pi(1 - cos theta) twice, and the zero level is flat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dynamics, linalg

__all__ = [
    "BerryReport",
    "LEVELS",
    "solid_angle",
    "closed_form_phase",
    "berry_analytic",
    "berry_wilson",
    "zero_level_phase",
    "phase_residual",
    "report",
]

TWO_PI = 2 * np.pi
LEVELS = ("zero", "minus", "plus")

# parity of the number of 1-bits of each basis index, which H conserves
_PARITY = np.array([bin(k).count("1") % 2 for k in range(8)])
EVEN, ODD = np.flatnonzero(_PARITY == 0), np.flatnonzero(_PARITY == 1)
_MIXING = _PARITY[:, None] != _PARITY[None, :]


@dataclass(frozen=True)
class BerryReport:
    """Geometric phases of one energy level against the closed form.

    phases are reported in (-2*pi, 2*pi]; residuals are circular distances
    (mod 2*pi), since the Wilson route only determines phases on the circle.
    """

    theta: float
    level: str
    method: str
    phases: tuple
    closed_form: float
    solid_angle: float
    residuals: tuple


def solid_angle(theta: float) -> float:
    """Solid angle 2*pi*(1 - cos theta) swept by the drive loop."""
    return float(TWO_PI * (1 - np.cos(theta)))


def closed_form_phase(level: str, theta: float) -> float:
    """Half the solid angle, signed by level: zero -> 0, minus -> +, plus -> -."""
    if level == "zero":
        return 0.0
    if level == "minus":
        return float(np.pi * (1 - np.cos(theta)))
    if level == "plus":
        return float(-np.pi * (1 - np.cos(theta)))
    raise ValueError(f"unknown level {level!r}; expected one of {LEVELS}")


def phase_residual(phase: float, reference: float) -> float:
    """Circular distance |phase - reference| mod 2*pi, folded into [0, pi]."""
    d = (phase - reference) % TWO_PI
    return float(min(d, TWO_PI - d))


def _fold(phase: float) -> float:
    """phase moved by whole turns into (-2*pi, 2*pi]; values already there are
    returned unchanged."""
    if -TWO_PI < phase <= TWO_PI:
        return phase
    rest = math.fmod(phase, TWO_PI)  # exact, with the sign of phase
    if phase > 0:
        return rest if rest > 0 else TWO_PI
    return rest + 0.0  # -0.0 -> 0.0


def berry_analytic(i: int, theta: float, steps: int) -> float:
    """Discrete closed-loop line integral for one closed-form eigenstate (i in 5..8).

    The grid identifies phi = 2*pi with phi = 0 so the overlap product closes
    exactly; the result converges at O(steps^-2) and is returned unwrapped
    (accumulated, not folded to a principal branch).
    """
    if i not in (5, 6, 7, 8):
        raise ValueError(f"state index must be 5..8, got {i}")
    if steps < 100:
        raise ValueError(f"steps must be >= 100, got {steps}")
    phis = np.linspace(0.0, TWO_PI, steps + 1)
    batch = dynamics.fixture_batch(i, theta, phis[:-1])
    rolled = np.vstack([batch[1:], batch[:1]])  # phi = 2*pi identified with 0
    overlaps = np.einsum("ij,ij->i", batch.conj(), rolled)
    return float(-np.sum(np.angle(overlaps)))


def _eig2(w: np.ndarray):
    # (w00 - w11)^2 + 4 w01 w10 equals tr^2 - 4 det without its cancellation,
    # which would lose half the digits on the near-degenerate Wilson loop.
    tr = w[0, 0] + w[1, 1]
    diff = w[0, 0] - w[1, 1]
    disc = np.sqrt(complex(diff * diff + 4 * w[0, 1] * w[1, 0]))
    return (tr + disc) / 2, (tr - disc) / 2


def berry_wilson(level: str, theta: float, steps: int) -> list:
    """Eigenphases of the Wilson loop over one degenerate doublet.

    At each grid point the Hamiltonian (hbar = phidot = 1) is diagonalized
    and the two eigenvectors of the requested level (energy -+cos theta for
    'minus'/'plus') form the frame; the loop multiplies the 2x2 overlap
    matrices between consecutive frames. Returns the two eigenphases, sorted,
    in the line-integral sign convention.

    H conserves the parity of the basis index, so each grid point is solved
    as its two 4x4 parity blocks, whose eigenvectors are padded back into
    8-dim frames. The split is checked at run time: an entry of H that mixes
    the parities and is not exactly 0 raises NumericalError.
    """
    if level not in ("minus", "plus"):
        raise ValueError(f"level must be 'minus' or 'plus', got {level!r}")
    if steps < 100:
        raise ValueError(f"steps must be >= 100, got {steps}")
    gap = abs(np.cos(theta))
    if gap < 1e-8:
        raise linalg.NumericalError(
            f"level gap {gap} below 1e-8; doublet crosses the zero level")
    target = -np.cos(theta) if level == "minus" else np.cos(theta)

    hams = dynamics.hamiltonian_grid(theta, TWO_PI * np.arange(steps) / steps)
    mixed = np.any(hams[:, _MIXING] != 0, axis=1)
    if mixed.any():
        raise linalg.NumericalError(
            f"H mixes even and odd parity at grid point {np.argmax(mixed)}; "
            f"cannot split it")
    blocks = np.stack([hams[:, EVEN[:, None], EVEN], hams[:, ODD[:, None], ODD]], axis=1)
    dec = linalg.eigh(blocks.reshape(2 * steps, 4, 4))
    values = dec.eigenvalues.reshape(steps, 8)
    block_vectors = dec.eigenvectors.reshape(steps, 2, 4, 4)
    vectors = np.zeros((steps, 8, 8), dtype=complex)
    vectors[:, EVEN, :4] = block_vectors[:, 0]
    vectors[:, ODD, 4:] = block_vectors[:, 1]

    in_level = np.abs(values - target) < gap / 2
    counts = in_level.sum(axis=1)
    if np.any(counts != 2):
        raise linalg.NumericalError(
            f"expected a doublet at energy {target}, "
            f"found {counts[counts != 2][0]} states")
    cols = np.nonzero(in_level)[1].reshape(steps, 1, 2)
    frames = np.take_along_axis(vectors, cols, axis=2)

    overlaps = frames.conj().transpose(0, 2, 1) @ np.roll(frames, -1, axis=0)
    loop = np.eye(2, dtype=complex)
    for step in overlaps:
        loop = loop @ step
    lam1, lam2 = _eig2(loop)
    phases = sorted(float(-np.angle(l)) for l in (lam1, lam2))
    return phases


def zero_level_phase(theta: float) -> float:
    """Geometric phase of the flat zero-energy level: identically 0.

    Asserts that the four zero-level fixtures carry no drive-angle dependence
    (bitwise equality across a phi grid) before returning 0.
    """
    probe = np.linspace(0.0, TWO_PI, 7)
    for i in dynamics.LEVEL_STATES["zero"]:
        batch = dynamics.fixture_batch(i, theta, probe)
        if not np.array_equal(batch, np.broadcast_to(batch[0], batch.shape)):
            raise linalg.NumericalError(f"zero-level fixture {i} is not flat")
    return 0.0


def report(level: str, theta: float, steps: int, method: str) -> BerryReport:
    """BerryReport for one level by either method.

    method 'analytic' integrates the closed-form states of the level (the
    zero level returns its asserted flat phases); 'wilson' runs the numerical
    loop and supports the two split doublets only.
    """
    closed = closed_form_phase(level, theta)
    if method == "analytic":
        if level == "zero":
            phases = (zero_level_phase(theta),) * len(dynamics.LEVEL_STATES["zero"])
        else:
            phases = tuple(_fold(berry_analytic(i, theta, steps))
                           for i in dynamics.LEVEL_STATES[level])
    elif method == "wilson":
        if level == "zero":
            raise ValueError("the wilson method applies to the split doublets only")
        phases = tuple(_fold(p) for p in berry_wilson(level, theta, steps))
    else:
        raise ValueError(f"unknown method {method!r}; expected 'analytic' or 'wilson'")
    residuals = tuple(phase_residual(p, closed) for p in phases)
    return BerryReport(theta=float(theta), level=level, method=method,
                       phases=phases, closed_form=closed,
                       solid_angle=solid_angle(theta), residuals=residuals)
