"""Yang-Baxterization of the braid generators and Yang-Baxter residuals.

Two parameterizations of the same construction live here:

* the unitary family  R(theta, phi) = sin(theta) I + cos(theta) mcal(phi),
  used for state generation and dynamics (r_matrix), and reached from a
  spectral parameter x on the unit circle at theta = pi/2 - arg(x);
* the Baxterized rational family
  R(x) = ((x + 1/x)/2) I + ((x - 1/x)/2) mcal(phi),
  which is what actually satisfies the multiplicative Yang-Baxter equation
  R12(x) R23(xy) R12(y) = R23(y) R12(xy) R23(x) as an identity in x, y.

On the unit circle the two families differ, and the unitary one violates the
multiplicative equation at generic spectral parameters; ybe_residual checks
the rational family by default and the unitary one on request, as three
fixed differences of words in the lifted generator over stacks of spectral
pairs and a phi grid. Whole matrices of either family at a spectral point
are built only by the tests' product-route oracle.
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
    float array. Two RParams compare, and hash, by identity."""

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
    """sin(theta) I + cos(theta) gen, stacked over a theta grid and a generator stack."""
    eye = np.eye(gen.shape[-1], dtype=complex)
    t = np.asarray(theta)[..., None, None]
    return np.sin(t) * eye + np.cos(t) * gen


def r_matrix(system: str, p: RParams) -> np.ndarray:
    """Unitary braid matrix sin(theta) I + cos(theta) * generator(phi), or the
    (B, n, n) stack over a theta grid, each slice bitwise the matrix alone."""
    return _unitary(_generator(system, p.phi), p.theta)


def unitarity_residuals(gen: np.ndarray, thetas) -> np.ndarray:
    """||R^dag R - I|| of R = sin(theta) I + cos(theta) gen for each theta, on
    a generator the caller holds, or a (P, n, n) stack of them, giving (P, T);
    one stacked product per block of the flattened generator x angle pairs,
    each value bitwise the one the single-matrix route gives.
    """
    thetas = np.array(thetas, dtype=float).reshape(-1)
    if not np.isfinite(thetas).all():
        raise ValueError("thetas must be finite")
    stack = gen.reshape((-1,) + gen.shape[-2:])
    out = np.empty(len(stack) * len(thetas))
    for lo in range(0, len(out), _BLOCK):
        g, t = np.divmod(np.arange(lo, min(lo + _BLOCK, len(out))), len(thetas))
        r = _unitary(stack[g], thetas[t])
        r_dag = r.conj().transpose(0, 2, 1).copy()
        out[lo:lo + _BLOCK] = linalg.frobenius_norms(r_dag @ r - np.eye(r.shape[1]))
    return out.reshape(gen.shape[:-2] + thetas.shape)


def _require_nonsingular(*xs: complex) -> None:
    for x in xs:
        if abs(x + 1.0 / x) < 1e-12:
            raise SingularParameterError(f"x = {x} has x + 1/x = 0; build from angles instead")


def _coefficients(family: str, points) -> list:
    """(a, b) with R(x) = a I + b generator at each complex point x, from
    Python scalars: ((x + 1/x)/2, (x - 1/x)/2) for the rational family, and
    (sin(theta), cos(theta)) at theta = pi/2 - arg(x), arg in (-pi, pi], for
    the unitary one (x = 1 maps to the identity)."""
    if family == "rational":
        return [((x + 1 / x) / 2, (x - 1 / x) / 2) for x in points]
    if family == "unitary":
        return [(np.sin(t), np.cos(t)) for t in (np.pi / 2 - np.angle(x) for x in points)]
    raise ValueError(f"unknown family {family!r}; expected 'rational' or 'unitary'")


def ybe_residual(system: str, x, y, phi, family: str = "rational"):
    """Frobenius norm of LHS - RHS of the multiplicative Yang-Baxter equation.

    ``x`` and ``y`` are SpectralParam values or two equal-length sequences of
    them, ``phi`` an angle or a 1-D grid; sequences add a trailing axis of
    pairs (x[k], y[k]), a grid a leading axis of phi. A single pair or phi is
    the stack of one: each residual is bitwise the same whatever the batch or
    the grid, and a single pair at a single phi gives a float.

    R12 = R otimes I_2 and R23 = I_2 otimes R, on 3 sites (8x8) for two_qubit
    and 4 overlapping sites (16x16) for three_qubit. With R = a I + b G,
    A = G otimes I_2 and B = I_2 otimes G, distributivity alone (no braid
    relation) turns LHS - RHS into c_A (A - B) + c_AA (AA - BB) +
    c_ABA (ABA - BAB), with c_A = a0 a1 b2 + b0 a1 a2 - a0 b1 a2,
    c_AA = b0 a1 b2 and c_ABA = b0 b1 b2 from the (a, b) of R(x), R(xy),
    R(y): since the scalars commute, the coefficients of I, AB and BA cancel
    and those of B, BB and BAB are minus those of A, AA and ABA. Each pair is
    validated and its coefficients formed once per call, the generator built
    once per phi, the three word differences once per phi and block of pairs;
    the sum runs in that order.

    The rational family satisfies the two_qubit equation identically; the
    three_qubit residual is generically nonzero (the overlapping-triple lifts
    do not close the extraspecial algebra) and is reported, never asserted.
    """
    phis = np.array(phi, dtype=float)
    if phis.ndim > 1 or not np.isfinite(phis).all():
        raise ValueError("phi (a float or a 1-D grid) must be finite")
    single = isinstance(x, SpectralParam) and isinstance(y, SpectralParam)
    xs, ys = ([x], [y]) if single else (list(x), list(y))
    if len(xs) != len(ys):
        raise ValueError(f"{len(xs)} x values but {len(ys)} y values")
    gens = [_generator(system, p) for p in phis.reshape(-1)]  # once per phi
    out = np.empty((phis.size, len(xs)))
    for lo in range(0, len(xs), _BLOCK):
        coeffs = []
        for px, py in zip(xs[lo:lo + _BLOCK], ys[lo:lo + _BLOCK]):
            if not (isinstance(px, SpectralParam) and isinstance(py, SpectralParam)):
                raise TypeError("x and y must be SpectralParam values")
            # |xy| = 1 within 2e-10 plus rounding, since |x| and |y| are within 1e-10
            points = (px.x, px.x * py.x, py.x)
            _require_nonsingular(*points)
            (a0, b0), (a1, b1), (a2, b2) = _coefficients(family, points)
            # LHS (a0 + b0 A)(a1 + b1 B)(a2 + b2 A) - RHS (a2 + b2 B)(a1 + b1 A)(a0 + b0 B)
            coeffs.append((a0 * a1 * b2 + b0 * a1 * a2 - a0 * b1 * a2,
                           b0 * a1 * b2, b0 * b1 * b2))
        coeffs = np.array(coeffs, dtype=complex).T[..., None, None]
        for row, gen in zip(out, gens):
            row[lo:lo + _BLOCK] = _word_norms(coeffs, gen)
    out = out.reshape(phis.shape + (() if single else (len(xs),)))
    return out if out.ndim else float(out)


def _word_norms(coeffs: np.ndarray, gen: np.ndarray) -> np.ndarray:
    """||c_A (A - B) + c_AA (AA - BB) + c_ABA (ABA - BAB)|| over a block of pairs,
    summed elementwise in that order, of A = gen otimes I_2, B = I_2 otimes gen."""
    a, b = (np.multiply.outer(p, q).transpose(0, 2, 1, 3).reshape(2 * len(gen), -1)
            for p, q in ((gen, braid.IDENTITY_2), (braid.IDENTITY_2, gen)))  # np.kron(p, q)
    diff = coeffs[0] * (a - b)
    term = np.empty_like(diff)
    for c, word in zip(coeffs[1:], (a @ a - b @ b, a @ b @ a - b @ a @ b)):
        diff += np.multiply(c, word, out=term)
    return linalg.frobenius_norms(diff)
