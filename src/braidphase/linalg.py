"""Minimal dense complex linear-algebra kernel.

Matrices and state vectors are plain complex128 numpy arrays. A value is
validated where it enters the package, with ``reject_slices`` naming the
first bad slice of a stack, and the arithmetic behind that point does not
check it again: ``frobenius_norms``, the package's one norm, takes its stack
as it is. No density matrix enters: the package reduces validated states.

The Hermitian eigensolver, ``eigh``, takes the one size the package solves,
2 x 2 matrices, alone or stacked, and serves only H on the doublet range of
each parity sector: the entanglement measures solve no eigenproblem. It
makes no numpy.linalg call and no matrix product.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

__all__ = [
    "NumericalError",
    "EigenDecomposition",
    "eigh",
    "frobenius_norms",
    "reject_slices",
]


class NumericalError(RuntimeError):
    """A numerical procedure failed to reach its target."""


class EigenDecomposition(namedtuple("EigenDecomposition", "eigenvalues eigenvectors")):
    """Spectral decomposition of a Hermitian matrix; unpacks, like numpy's EighResult.

    eigenvalues  -- np.ndarray, real, ascending, shape (2,)
    eigenvectors -- np.ndarray, complex, shape (2, 2), column k pairs with eigenvalue k;
                    columns are orthonormal. Degenerate eigenvalues come with
                    an arbitrary orthonormal basis of their eigenspace.

    For a stack of B matrices both arrays carry a leading axis of length B.
    """

    __slots__ = ()


def frobenius_norms(stack) -> np.ndarray:
    """Frobenius norm of each slice of a (B, ...) stack; no validation.

    Each slice is summed at the power-of-two scale that brings its largest
    modulus into [1/2, 1), and the norm is scaled back: the scaling is exact,
    so no finite slice overflows or underflows its squares, and a slice with a
    non-finite entry has a non-finite norm.
    """
    stack = np.asarray(stack)
    mod = np.abs(stack.reshape(len(stack), -1), dtype=float)
    exponent = np.frexp(mod.max(axis=1, initial=0.0))[1]
    np.ldexp(mod, -exponent[:, None], out=mod)
    np.square(mod, out=mod)
    return np.ldexp(np.sqrt(mod.sum(axis=1)), exponent)


def reject_slices(bad, stacked: bool, what: str, problem: str,
                  error: type = ValueError) -> None:
    """Raise ``error`` "<what> <problem>" if any slice is ``bad``; the first
    bad slice of a stack is named by its index: "<what> <index> <problem>"."""
    idx = np.flatnonzero(bad)
    if idx.size:
        raise error(f"{what} {idx[0]} {problem}" if stacked else f"{what} {problem}")


# A stack is solved in blocks of this many complex entries (64 KB), 1024
# matrices. The 1600 Wilson blocks take a median 0.55 ms of CPU at 4096
# entries, 0.71 ms at 2048, 0.93 ms at 1024 and 0.64 ms unblocked (2-vCPU
# Xeon, numpy 2.4.6); the tracemalloc peak of berry_wilson(1.1, .) is 680 B
# per step at 10**4 and 10**5 steps, 1,357 B unblocked. No result depends on it.
_BLOCK_ENTRIES = 4096

# Off-diagonal Frobenius mass, relative to the matrix norm, at or below which
# a matrix is diagonal.
_TARGET = 1e-12

# Skew-Hermitian mass, relative to the matrix norm, above which eigh rejects.
_HERMITIAN_TOL = 1e-10

# Plane order of the transpose of a (4, B) stack; with conj, the dagger.
_DAGGER = [0, 2, 1, 3]


def eigh(a) -> EigenDecomposition:
    """Full spectral decomposition of a Hermitian 2 x 2 matrix or a (B, 2, 2) stack.

    A matrix whose off-diagonal Frobenius mass is above 1e-12 of its norm
    takes one Jacobi rotation, which must bring it to at most that, or
    NumericalError is raised; any other matrix is its own diagonal, with
    identity eigenvectors. Each matrix is solved at the power-of-two scale
    that brings its largest entry into [1/2, 1), and its eigenvalues are
    scaled back: the scaling is exact, so no input overflows or underflows a
    norm, and scaling an input by a power of two scales the eigenvalues
    bitwise and leaves the eigenvectors as they are. The bits come from
    elementwise IEEE operations only, and each slice of a stack comes out
    bitwise equal to the same matrix solved alone, whatever the block size
    and the memory layout.

    Each matrix must be Hermitian within 1e-10 relative to its Frobenius
    norm; any shape other than (2, 2) or (B, 2, 2) is a ValueError. Returns
    eigenvalues of shape (..., 2), ascending, and eigenvectors of shape
    (..., 2, 2), with the leading axis of a stack kept.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-2:] != (2, 2):
        raise ValueError(f"eigh takes a 2 x 2 matrix or a (B, 2, 2) stack, "
                         f"got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix contains non-finite entries")
    # entry k of every matrix is one contiguous plane, the batch last, so that
    # each per-matrix reduction is an elementwise pass over the leading axis
    stack = a.reshape(-1, 4).T.copy()
    peak = np.maximum(np.abs(stack.real), np.abs(stack.imag)).max(axis=0, initial=0.0)
    exponent = np.frexp(peak)[1]
    np.ldexp(stack.real, -exponent, out=stack.real)
    np.ldexp(stack.imag, -exponent, out=stack.imag)
    scale = _plane_norms(stack)
    skew = _plane_norms(stack - stack[_DAGGER].conj())
    reject_slices(skew > _HERMITIAN_TOL * scale, a.ndim == 3, "matrix",
                  "is not Hermitian within tolerance")

    values = np.empty((len(peak), 2))
    vectors = np.zeros((len(peak), 4), dtype=complex)
    vectors[:, ::3] = 1.0
    block = _BLOCK_ENTRIES // 4
    for lo in range(0, len(peak), block):
        live = slice(lo, lo + block)
        # halved on the float view, not by a complex / 2 (a complex division);
        # the two differ only in the sign of a zero part, and + 0.0 gives the
        # diagonal the +0 that / 2 gives it, so no output bit changes: a zero
        # matrix needs no mask, its diagonal is +0 and it is not rotated
        t = stack[:, live] + stack[_DAGGER, live].conj()
        np.multiply(t.view(float), 0.5, out=t.view(float))
        stop = _TARGET * scale[live]
        lam, v = t[::3].real + 0.0, vectors[live].T
        # the off-diagonal mass of a matrix is the norm of its pair t01, t10
        todo = _plane_norms(t[1:3]) > stop
        if todo.any():
            # one rotation [[c, s], [-conj(s), c]]: c and s / e are the cosine
            # and sine of the real rotation that zeroes a pivot of modulus
            # |t01|, and e is its phase; rows, then columns, entry by entry
            pick = slice(None) if todo.all() else todo
            t00, t01, t10, t11 = t[:, pick]
            mod = np.abs(t01)
            tau = (t11.real - t00.real) / (2 * mod)
            tan = np.where(tau == 0.0, 1.0, np.sign(tau) / (np.abs(tau) + np.hypot(1.0, tau)))
            c = 1.0 / np.hypot(1.0, tan)
            s = tan * c * (t01 / mod)
            sc = s.conj()
            r00, r01 = c * t00 - s * t10, c * t01 - s * t11
            r10, r11 = sc * t00 + c * t10, sc * t01 + c * t11
            lam[0, pick], lam[1, pick] = (c * r00 - sc * r01).real, (s * r10 + c * r11).real
            off = np.stack((s * r00 + c * r01, c * r10 - sc * r11))
            if not np.all(_plane_norms(off) <= stop[pick]):
                raise NumericalError("a Jacobi rotation left a 2 x 2 matrix off diagonal")
            # the columns of the identity, rotated: the products by its exact
            # zeros and ones leave c, s and -conj(s), with every zero +0
            v[:, pick] = c, s + 0.0, 0.0 - sc, c
        # ascending: swap the pair, and the columns, where it is descending
        swap = lam[0] > lam[1]
        values[live] = np.ldexp(np.where(swap, lam[::-1], lam), exponent[live]).T
        vectors[live] = np.where(swap, v[[1, 0, 3, 2]], v).T
    return EigenDecomposition(values.reshape(a.shape[:-1]), vectors.reshape(a.shape))


def _plane_norms(planes: np.ndarray) -> np.ndarray:
    """frobenius_norms of an (n, B) stack of entry planes, one per column."""
    # bitwise frobenius_norms of the (B, n) stack only for n <= 4 terms
    mod = np.abs(planes)
    exponent = np.frexp(mod.max(axis=0, initial=0.0))[1]
    np.ldexp(mod, -exponent, out=mod)
    np.square(mod, out=mod)
    return np.ldexp(np.sqrt(mod.sum(axis=0)), exponent)
