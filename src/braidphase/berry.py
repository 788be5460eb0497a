"""Geometric phases (holonomy) of H's instantaneous eigenstates over phi: 0 -> 2*pi.

Two routes:

* berry_analytic -- gauge-invariant discrete line integral
  gamma = -Im sum_k log <chi(phi_k)|chi(phi_{k+1})> over the closed-form
  eigenstates (indices 5..8), second-order accurate in the step size, from
  one read of one fixture batch over the fixture's parity sector; the loop's
  phase factors e^{-i phi} are built once per step count (_loop) and shared
  by all four fixtures and by every later call at that step count in the
  process, each fixture carrying the phase its own formula states;
* berry_wilson -- the Wilson loops of both split doublets over numerical
  eigenvectors, for levels without closed forms of their connection, from one
  solve of H's 2x2 blocks on the doublet range of each basis-index parity
  sector, built from the ladder operators (dynamics._doublet_blocks); each
  doublet has one member in each sector, so each loop is diagonal: one U(1)
  loop of scalar overlaps per sector, the link variables of Fukui, Hatsugai
  and Suzuki (J. Phys. Soc. Jpn. 74, 1674 (2005)).

Phases follow the gamma = i oint <chi|d_phi chi> sign convention (Wilson
phases are reported as -arg of the loops so both routes agree). Measured
values: the -hbar*phidot*cos(theta) doublet carries +pi(1 - cos theta) twice,
the +hbar*phidot*cos(theta) doublet carries -pi(1 - cos theta) twice, and the
zero level is flat; the members of each level are in dynamics.LEVELS. fold
moves a phase into (-2*pi, 2*pi], the range reports use.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import dynamics, linalg

__all__ = [
    "solid_angle",
    "closed_form_phase",
    "berry_analytic",
    "berry_wilson",
    "zero_level_phase",
    "phase_residual",
    "fold",
]

TWO_PI = 2 * np.pi

def solid_angle(theta: float) -> float:
    """Solid angle 2*pi*(1 - cos theta) swept by the drive loop."""
    return float(TWO_PI * (1 - np.cos(theta)))


def closed_form_phase(level: str, theta: float) -> float:
    """Half the solid angle, signed against the level's energy: zero -> 0,
    minus -> +, plus -> -."""
    if level not in dynamics.LEVELS:
        raise ValueError(f"unknown level {level!r}; expected one of "
                         f"{tuple(dynamics.LEVELS)}")
    return float(-dynamics.LEVELS[level][0] * np.pi * (1 - np.cos(theta)))


def phase_residual(phase: float, reference: float) -> float:
    """Circular distance |phase - reference| mod 2*pi, folded into [0, pi]."""
    d = (phase - reference) % TWO_PI
    return float(min(d, TWO_PI - d))


def fold(phase: float) -> float:
    """phase moved by whole turns into (-2*pi, 2*pi]; values already there are
    returned unchanged."""
    if -TWO_PI < phase <= TWO_PI:
        return phase
    rest = math.fmod(phase, TWO_PI)  # exact, with the sign of phase
    if phase > 0:
        return rest if rest > 0 else TWO_PI
    return rest + 0.0  # -0.0 -> 0.0


@functools.lru_cache(maxsize=2)
def _loop(steps: int) -> np.ndarray:
    """The phase factors z_k = e^{-i phi_k} of the analytic loop of ``steps``
    points, phi_k = 2*pi*k/steps (by linspace, phi = 2*pi left out), the
    argument z of dynamics.fixture_batch: built once per step count and
    read-only. A loop holds 16 B per step, and the cache keeps the last two."""
    z = np.exp(-1j * np.linspace(0.0, TWO_PI, steps + 1)[:-1])
    z.setflags(write=False)
    return z


def berry_analytic(i: int, theta: float, steps: int) -> float:
    """Discrete closed-loop line integral for one closed-form eigenstate (i in 5..8).

    The grid identifies phi = 2*pi with phi = 0 so the overlap product closes
    exactly; the result converges at O(steps^-2) and is returned unwrapped
    (accumulated, not folded to a principal branch). One batch is read once:
    overlaps of its consecutive slices, then the closing one, over the indices
    where it is nonzero (the fixture's parity sector).
    """
    if i not in (5, 6, 7, 8):
        raise ValueError(f"state index must be 5..8, got {i}")
    if steps < 100:
        raise ValueError(f"steps must be >= 100, got {steps}")
    if not np.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    # a row per basis index, over the loop of this step count
    chi = np.ascontiguousarray(dynamics.fixture_batch(i, theta, _loop(steps)).T)
    chi = chi[np.any(chi.view(float) != 0, axis=1)]  # the indices the fixture occupies
    bra = chi.conj()
    overlaps = np.empty(steps, dtype=complex)
    np.einsum("jk,jk->k", bra[:, :-1], chi[:, 1:], out=overlaps[:-1])
    np.einsum("jk,jk->k", bra[:, -1:], chi[:, :1], out=overlaps[-1:])  # phi = 2*pi is 0
    return float(-np.sum(np.angle(overlaps)))


def berry_wilson(theta: float, steps: int) -> dict:
    """Phases of the Wilson loops over the two split doublets, by level.

    Each grid point's Hamiltonian (hbar = phidot = 1) is solved once, as its
    2x2 block per parity sector on that sector's doublet range, from
    dynamics._doublet_blocks, which validates theta before its cosine is
    taken and checks exactly that the ladder operators keep that structure,
    else NumericalError names the operator. Each block holds exactly one state
    of each split level (energy -+cos theta for 'minus'/'plus'), so each
    doublet's Wilson loop is diagonal: per sector, the product of the link
    variables (Fukui, Hatsugai and Suzuki, J. Phys. Soc. Jpn. 74, 1674 (2005)),
    the overlaps of that level's 2-vectors at consecutive grid points (equal to
    those of the 8-vectors). A sector with other than one state at a level's
    energy raises NumericalError naming the grid point. Returns
    {"minus": [low, high], "plus": [low, high]}, each pair sorted, in the
    line-integral sign convention.
    """
    if steps < 100:
        raise ValueError(f"steps must be >= 100, got {steps}")
    blocks = dynamics._doublet_blocks(theta, TWO_PI * np.arange(steps) / steps, 1.0, 1.0)
    gap = abs(np.cos(theta))
    if gap < 1e-8:
        raise linalg.NumericalError(
            f"level gap {gap} below 1e-8; doublet crosses the zero level")
    dec = linalg.eigh(blocks.reshape(2 * steps, 2, 2))
    vectors = np.swapaxes(dec.eigenvectors, 1, 2)

    phases = {}
    for level, (sign, _) in dynamics.LEVELS.items():
        if not sign:
            continue
        target = sign * np.cos(theta)
        in_level = np.abs(dec.eigenvalues - target) < gap / 2
        counts = in_level[:, 0].astype(int) + in_level[:, 1]  # not bool + bool, an OR
        if np.any(counts != 1):
            bad = np.argmax(counts != 1)
            raise linalg.NumericalError(
                f"expected one state at energy {target} in each parity sector, "
                f"found {counts[bad]} at grid point {bad // 2}")
        # the one eigenvector at the target per (grid point, sector)
        states = vectors[in_level].reshape(steps, 2, 2)
        overlaps = np.einsum("ksi,ksi->ks", states.conj(), np.roll(states, -1, axis=0))
        loops = np.prod(overlaps, axis=0)
        phases[level] = sorted(float(-np.angle(loop)) for loop in loops)
    return phases


def zero_level_phase(theta: float) -> float:
    """Geometric phase of the flat zero-energy level: identically 0.

    Asserts that the four zero-level fixtures carry no drive-angle dependence
    (bitwise equality across a phi grid) before returning 0.
    """
    if not np.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    probe = np.linspace(0.0, TWO_PI, 7)
    for i in dynamics.LEVELS["zero"][1]:
        batch = dynamics.fixture_batch(i, theta, np.exp(-1j * probe))
        if not np.array_equal(batch, np.broadcast_to(batch[0], batch.shape)):
            raise linalg.NumericalError(f"zero-level fixture {i} is not flat")
    return 0.0
