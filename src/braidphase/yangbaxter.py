"""Yang-Baxterization of the braid generators and Yang-Baxter residuals.

Two parameterizations of the same construction live here:

* the unitary family  R(theta, phi) = sin(theta) I + cos(theta) mcal(phi),
  used for state generation and dynamics (r_matrix); its unitarity at every
  theta follows from two residuals per phi (unitarity_residuals), and it
  satisfies the Yang-Baxter equation under the velocity-addition rule of the
  README finding "8x8 Yang-Baxter residual";
* the Baxterized rational family
  R(x) = ((x + 1/x)/2) I + ((x - 1/x)/2) mcal(phi), which satisfies the
  multiplicative Yang-Baxter equation R12(x) R23(xy) R12(y) =
  R23(y) R12(xy) R23(x) as an identity in x, y on two qubits. It is defined
  on the whole unit circle: at x = +-i it is +-i mcal(phi).

ybe_residual checks the rational family on both systems in one pass, as
three fixed differences of words in the lifted generator over stacks of
spectral pairs and a phi grid: the generators and words of a chunk of phi are
built as one stack, and each word conserves the parity of the basis index, so
it is checked to be exactly zero off its two parity blocks and summed on
those blocks alone. Whole matrices at a spectral point are built only by the
tests' product-route oracle.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from . import braid, linalg

__all__ = [
    "TWO_QUBIT",
    "THREE_QUBIT",
    "SYSTEMS",
    "RParams",
    "SpectralParam",
    "r_matrix",
    "unitarity_residuals",
    "ybe_residual",
]

TWO_QUBIT = "two_qubit"
THREE_QUBIT = "three_qubit"
SYSTEMS = (TWO_QUBIT, THREE_QUBIT)

# Stacks of angles, or of spectral pairs, are worked through this many at a
# time, which bounds the working set; no result depends on it.
_BLOCK = 64
# ybe_residual builds the generators and words of this many phi as one stack;
# no result depends on it either
_WORD_BLOCK = 5


class RParams(namedtuple("RParams", "theta phi")):
    """Angle pair (theta, phi) of the unitary family; radians, any finite value.

    theta -- float, or a 1-D grid of angles at one ``phi``, held as a
             read-only float np.ndarray
    phi   -- float

    Two RParams compare, and hash, by identity."""

    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def __new__(cls, theta, phi):
        grid = np.array(theta, dtype=float)
        if grid.ndim > 1 or np.ndim(phi) or not (np.isfinite(grid).all() and np.isfinite(phi)):
            raise ValueError("theta (a float or a 1-D grid) and phi must be finite floats")
        if grid.ndim:
            grid.setflags(write=False)
            theta = grid
        return super().__new__(cls, theta, phi)

    @classmethod
    def _make(cls, iterable):  # _replace builds through __new__, so it validates
        return cls(*iterable)


class SpectralParam(namedtuple("SpectralParam", "x")):
    """Multiplicative spectral parameter x, a complex on the unit circle within 1e-10."""

    __slots__ = ()
    _tol = 1e-10  # a class constant, not a field

    def __new__(cls, x):
        x = complex(x)
        if not (math.isfinite(x.real) and math.isfinite(x.imag)):
            raise ValueError("x must be finite")
        if abs(abs(x) - 1.0) > cls._tol:
            raise ValueError(f"|x| = {abs(x)} is not on the unit circle within {cls._tol}")
        return super().__new__(cls, x)

    @classmethod
    def _make(cls, iterable):  # _replace builds through __new__, so it validates
        return cls(*iterable)


def _generator(system: str, phi) -> np.ndarray:
    """The system's generator at ``phi``, or their (P, h, h) stack over a grid."""
    if system == TWO_QUBIT:
        return braid.build_m4(phi)
    if system == THREE_QUBIT:
        return braid._lifts_and_mcal(phi)[2]
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


def unitarity_residuals(gen: np.ndarray, thetas) -> tuple:
    """(paired, bound) of a (P, n, n) generator stack G and P angles:
    paired[k] = ||R^dag R - I|| of R = sin(thetas[k]) I + cos(thetas[k]) G[k],
    bitwise the single-matrix route's, and bound[k] = ||G^dag G - I|| +
    ||G + G^dag||/2 at G[k], which no theta exceeds, as R^dag R - I =
    cos^2(theta) (G^dag G - I) + sin(theta) cos(theta) (G + G^dag)."""
    thetas = np.array(thetas, dtype=float)
    if gen.ndim != 3 or thetas.shape != gen.shape[:1] or not np.isfinite(thetas).all():
        raise ValueError(f"thetas must be finite and pair with the {gen.shape} generators")
    r = _unitary(gen, thetas)
    r_dag, gen_dag = (m.conj().transpose(0, 2, 1).copy() for m in (r, gen))
    eye, norm = np.eye(gen.shape[-1]), linalg.frobenius_norms
    return norm(r_dag @ r - eye), norm(gen_dag @ gen - eye) + norm(gen + gen_dag) / 2


def _pair_coefficients(xs, ys) -> np.ndarray:
    """The (N, 1, 3) rows (c_A, c_AA, c_ABA) of N spectral pairs, from the
    (a, b) = ((x + 1/x)/2, (x - 1/x)/2) of R = a I + b generator at each
    point (x, xy, y) of a checked pair, in Python complex arithmetic (numpy's
    complex multiply rounds some rows otherwise)."""
    rows = np.empty((len(xs), 1, 3), dtype=complex)
    for k, (px, py) in enumerate(zip(xs, ys)):
        if not (isinstance(px, SpectralParam) and isinstance(py, SpectralParam)):
            raise TypeError("x and y must be SpectralParam values")
        # |xy| = 1 within 2e-10 plus rounding, since |x| and |y| are within 1e-10
        point = (px.x, px.x * py.x, py.x)
        (a0, a1, a2), (b0, b1, b2) = ([(x + 1 / x) / 2 for x in point],
                                      [(x - 1 / x) / 2 for x in point])
        # LHS (a0 + b0 A)(a1 + b1 B)(a2 + b2 A) - RHS (a2 + b2 B)(a1 + b1 A)(a0 + b0 B)
        rows[k, 0] = a0 * a1 * b2 + b0 * a1 * a2 - a0 * b1 * a2, b0 * a1 * b2, b0 * b1 * b2
    return rows


def ybe_residual(x, y, phi) -> dict:
    """Frobenius norms of LHS - RHS of the multiplicative Yang-Baxter equation,
    for the rational family on both systems, keyed "<system>_rational".

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
    and those of B, BB and BAB are minus those of A, AA and ABA.

    G conserves the parity of the basis index, and so do A, B and every
    word. The grid is worked through in chunks of up to _WORD_BLOCK phi: the
    generators of a chunk are built as one (P, h, h) stack and its words by
    stacked products. Each word difference is gathered into its even and odd
    parity blocks (2x4x4 for two_qubit, 2x8x8 for three_qubit) once its
    entries off the blocks are checked to be exactly 0; a nonzero one raises
    NumericalError naming the first phi that has one. The sum is then one
    stacked complex matrix product per row of the grid and block of up to 64
    pairs, each pair's (c_A, c_AA, c_ABA) by the three flattened word
    differences of the row's phi, and its norm is taken on the parity blocks
    only.

    Each pair is validated (every pair on the unit circle is valid, x, y or
    xy = +-i included) and its coefficients formed once, the generator of
    each (system, phi) and its three word differences once per call; memory
    beyond the result grows with the pairs, the grid and the chunk, not with
    the product of pairs and grid.

    The rational family satisfies the two_qubit equation identically; its
    three_qubit residual ({A, B} = -(2/3) I there, not 0) is generically
    nonzero and reported, never asserted.
    """
    phis = np.array(phi, dtype=float)
    if phis.ndim > 1 or not np.isfinite(phis).all():
        raise ValueError("phi (a float or a 1-D grid) must be finite")
    single = isinstance(x, SpectralParam) and isinstance(y, SpectralParam)
    xs, ys = ([x], [y]) if single else (list(x), list(y))
    if len(xs) != len(ys):
        raise ValueError(f"{len(xs)} x values but {len(ys)} y values")
    coeffs = _pair_coefficients(xs, ys)
    flat, out = phis.reshape(-1), {}
    for system in SYSTEMS:
        grid = np.empty((flat.size, len(xs)))
        for at in range(0, len(flat), _WORD_BLOCK):
            chunk = flat[at:at + _WORD_BLOCK]
            stack = _parity_words(_generator(system, chunk), chunk)
            for row, words in zip(grid[at:at + _WORD_BLOCK], stack):
                for lo in range(0, len(row), _BLOCK):
                    # a stack of (1, 3) @ (3, E) products, one per row: a (B, 3)
                    # @ (3, E) product rounds a row by where BLAS tiles it
                    row[lo:lo + _BLOCK] = linalg.frobenius_norms(coeffs[lo:lo + _BLOCK] @ words)
        res = grid.reshape(phis.shape + (len(xs),))
        res = res[..., 0] if single else res
        out[f"{system}_rational"] = res if res.ndim else float(res)
    return out


def _parity_words(gens: np.ndarray, phis) -> np.ndarray:
    """A - B, AA - BB and ABA - BAB of A = G otimes I_2, B = I_2 otimes G for
    each G of a (P, h, h) stack, each on its even and odd parity blocks,
    flattened to (P, 3, 2 h^2): an entry off the blocks that is not exactly 0
    raises NumericalError naming the first of ``phis`` whose words have one."""
    count, h = len(gens), gens.shape[-1]
    # np.kron(G, I_2) and np.kron(I_2, G), slice by slice
    a = np.multiply.outer(gens, braid.IDENTITY_2).transpose(0, 1, 3, 2, 4)
    b = np.multiply.outer(braid.IDENTITY_2, gens).transpose(2, 0, 3, 1, 4)
    a, b = a.reshape(count, 2 * h, 2 * h), b.reshape(count, 2 * h, 2 * h)
    words = np.stack([a - b, a @ a - b @ b, a @ b @ a - b @ a @ b], axis=1)
    blocks, mixing = braid._PARITY_BLOCKS[2 * h]
    mixed = np.flatnonzero(np.any(words[:, :, mixing] != 0, axis=(1, 2)))
    if mixed.size:
        raise linalg.NumericalError(
            f"Yang-Baxter words at phi = {float(phis[mixed[0]])!r} join even and odd basis "
            f"indices; cannot split them into parity blocks")
    return words[:, :, blocks[:, :, None], blocks[:, None, :]].reshape(count, 3, -1)
