"""Yang-Baxterization of the braid generators and Yang-Baxter residuals.

Two parameterizations of the same construction live here:

* the unitary family  R(theta, phi) = sin(theta) I + cos(theta) mcal(phi),
  used for state generation and dynamics (r_matrix / r_from_spectral);
* the Baxterized rational family
  R(x) = ((x + 1/x)/2) I + ((x - 1/x)/2) mcal(phi),
  which is what actually satisfies the multiplicative Yang-Baxter equation
  R12(x) R23(xy) R12(y) = R23(y) R12(xy) R23(x) as an identity in x, y.

On the unit circle the two families differ (cos(arg x) I + i sin(arg x) mcal
versus sin(theta) I + cos(theta) mcal); ybe_residual evaluates the rational
family by default and the unitary family on request, because the unitary one
violates the multiplicative equation at generic spectral parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import braid, linalg

__all__ = [
    "TWO_QUBIT",
    "THREE_QUBIT",
    "SYSTEMS",
    "SingularParameterError",
    "RParams",
    "SpectralParam",
    "r_matrix",
    "r_from_spectral",
    "rational_r",
    "theta_from_spectral",
    "unitarity_residuals",
    "ybe_residual",
]

TWO_QUBIT = "two_qubit"
THREE_QUBIT = "three_qubit"
SYSTEMS = (TWO_QUBIT, THREE_QUBIT)

# Stacks of angles or spectral pairs are worked through this many at a time,
# which bounds the working set; no result depends on it.
_BLOCK = 64


class SingularParameterError(ValueError):
    """Spectral parameter with x + 1/x = 0, where the theta map degenerates."""


@dataclass(frozen=True, eq=False)
class RParams:
    """Angle pair (theta, phi) of the unitary family; radians, any finite value.
    ``theta`` may be a 1-D grid of angles at one ``phi``, held as a read-only
    float array; two grids are equal, and hash alike, when their angles are."""

    theta: float
    phi: float

    def __post_init__(self):
        theta = np.array(self.theta, dtype=float)
        if theta.ndim > 1 or np.ndim(self.phi) or not (
                np.isfinite(theta).all() and np.isfinite(self.phi)):
            raise ValueError("theta (a float or a 1-D grid) and phi must be finite floats")
        if theta.ndim:
            theta.setflags(write=False)
            object.__setattr__(self, "theta", theta)

    def _key(self) -> tuple:
        theta = self.theta
        return (tuple(theta.tolist()) if np.ndim(theta) else theta, self.phi)

    def __eq__(self, other):
        return isinstance(other, RParams) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


@dataclass(frozen=True)
class SpectralParam:
    """Multiplicative spectral parameter on the unit circle, within 1e-10."""

    x: complex
    _tol = 1e-10  # a class constant, not a field

    def __post_init__(self):
        x = complex(self.x)
        if not (np.isfinite(x.real) and np.isfinite(x.imag)):
            raise ValueError("x must be finite")
        if abs(abs(x) - 1.0) > self._tol:
            raise ValueError(f"|x| = {abs(x)} is not on the unit circle within {self._tol}")
        object.__setattr__(self, "x", x)


def _generator(system: str, phi: float) -> np.ndarray:
    if system == TWO_QUBIT:
        return braid.build_m4(phi)
    if system == THREE_QUBIT:
        return braid.build_braidset(phi).mcal
    raise ValueError(f"unknown system {system!r}; expected one of {SYSTEMS}")


def _unitary(gen: np.ndarray, theta) -> np.ndarray:
    """sin(theta) I + cos(theta) gen, stacked over the axis of a theta grid."""
    eye = np.eye(gen.shape[0], dtype=complex)
    t = np.asarray(theta)[..., None, None]
    return np.sin(t) * eye + np.cos(t) * gen


def r_matrix(system: str, p: RParams) -> np.ndarray:
    """Unitary braid matrix sin(theta) I + cos(theta) * generator(phi), or the
    (B, n, n) stack over a theta grid, each slice bitwise the matrix alone."""
    return _unitary(_generator(system, p.phi), p.theta)


def unitarity_residuals(system: str, thetas, phi: float) -> np.ndarray:
    """||R^dag R - I|| of R = r_matrix(system, RParams(theta, phi)) for each theta.

    The generator is built once; the whole theta grid is one stacked product
    per block of angles, and each value is bitwise the one the single-matrix
    route gives.
    """
    p = RParams(np.reshape(thetas, -1), phi)
    gen = _generator(system, p.phi)
    out = np.empty(len(p.theta))
    for lo in range(0, len(p.theta), _BLOCK):
        r = _unitary(gen, p.theta[lo:lo + _BLOCK])
        r_dag = r.conj().transpose(0, 2, 1).copy()
        out[lo:lo + _BLOCK] = linalg.frobenius_norms(r_dag @ r - np.eye(r.shape[1]))
    return out


def theta_from_spectral(x: SpectralParam) -> float:
    """Branch theta = pi/2 - arg(x), arg in (-pi, pi]; x = 1 maps to the identity."""
    return _theta(x.x)


def _theta(x: complex) -> float:
    return float(np.pi / 2 - np.angle(x))


def _require_nonsingular(x: complex) -> None:
    if abs(x + 1.0 / x) < 1e-12:
        raise SingularParameterError(
            f"x = {x} has x + 1/x = 0; build from angles instead")


def r_from_spectral(system: str, x: SpectralParam, phi: float) -> np.ndarray:
    """Unitary braid matrix at theta = pi/2 - arg(x)."""
    _require_nonsingular(x.x)
    return r_matrix(system, RParams(theta_from_spectral(x), phi))


def rational_r(system: str, x: complex, phi: float) -> np.ndarray:
    """Baxterized rational matrix ((x+1/x)/2) I + ((x-1/x)/2) * generator(phi).

    Defined for any nonzero complex x; this is the family entering
    ybe_residual's default check.
    """
    x = complex(x)
    if x == 0:
        raise ValueError("x must be nonzero")
    gen = _generator(system, phi)
    eye = np.eye(gen.shape[0], dtype=complex)
    return ((x + 1 / x) / 2) * eye + ((x - 1 / x) / 2) * gen


def _coefficients(family: str, points: list) -> np.ndarray:
    """(a, b) rows with R(x) = a I + b generator at each complex point x.

    Formed with Python complex scalars, one point at a time, so that each
    coefficient is bitwise the one rational_r or r_from_spectral uses.
    """
    if family == "rational":
        pairs = [((x + 1 / x) / 2, (x - 1 / x) / 2) for x in points]
    elif family == "unitary":
        pairs = [(np.sin(t), np.cos(t)) for t in map(_theta, points)]
    else:
        raise ValueError(f"unknown family {family!r}; expected 'rational' or 'unitary'")
    return np.array(pairs, dtype=complex).reshape(-1, 2).T


def ybe_residual(system: str, x, y, phi: float, family: str = "rational"):
    """Frobenius norm of LHS - RHS of the multiplicative Yang-Baxter equation.

    ``x`` and ``y`` are SpectralParam values, or two equal-length sequences of
    them; a single pair gives a float, sequences an array with one residual
    per pair (x[k], y[k]). A single pair is the stack of one.

    The braid matrix on sites (i, i+1) is lifted as R otimes I_2 and the one
    on (i+1, i+2) as I_2 otimes R, so the two_qubit check runs on 3 sites
    (8x8) and the three_qubit check on 4 overlapping sites (16x16). Each lift
    is formed as a I + b G from the lifted generator G, and both sides are
    stacked products over blocks of pairs.

    For the two_qubit system the rational family satisfies the equation
    identically; for the three_qubit system the residual is generically
    nonzero (the overlapping-triple lifts do not close the extraspecial
    algebra) and is reported, not asserted, by every caller in this package.
    """
    if not np.isfinite(phi):
        raise ValueError("phi must be finite")
    single = isinstance(x, SpectralParam) and isinstance(y, SpectralParam)
    xs, ys = ([x], [y]) if single else (list(x), list(y))
    if len(xs) != len(ys):
        raise ValueError(f"{len(xs)} x values but {len(ys)} y values")
    xys = []
    for px, py in zip(xs, ys):
        for p in (px, py):
            if not isinstance(p, SpectralParam):
                raise TypeError("x and y must be SpectralParam values")
            _require_nonsingular(p.x)
        # |xy| = 1 within 2e-10 plus rounding, since |x| and |y| are within 1e-10
        xy = px.x * py.x
        _require_nonsingular(xy)
        xys.append(xy)
    # a[j, k], b[j, k]: coefficients of R(x_k), R(x_k y_k), R(y_k) for j = 0, 1, 2
    points = [p.x for p in xs] + xys + [p.x for p in ys]
    a, b = _coefficients(family, points).reshape(2, 3, len(xs), 1, 1)

    gen = _generator(system, phi)
    eye2 = np.eye(2, dtype=complex)
    g12, g23 = np.kron(gen, eye2), np.kron(eye2, gen)
    eye = np.eye(len(g12), dtype=complex)
    out = np.empty(len(xs))
    for lo in range(0, len(xs), _BLOCK):
        k = slice(lo, lo + _BLOCK)
        r12 = a[:, k] * eye + b[:, k] * g12
        r23 = a[:, k] * eye + b[:, k] * g23
        lhs = r12[0] @ r23[1] @ r12[2]
        rhs = r23[2] @ r12[1] @ r23[0]
        out[k] = linalg.frobenius_norms(lhs - rhs)
    return float(out[0]) if single else out
