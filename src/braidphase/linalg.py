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
# matrices. The 1600 Wilson blocks take a median 2.4 ms of CPU at 4096
# entries, 2.1 ms at 8192 to 32768 and 3.6 ms at 1024 (2-vCPU Xeon, numpy
# 2.4.6); unblocked, the tracemalloc peak of berry_wilson(1.1, 10**4) is
# 2,920 B per step against 1,590 B. No result depends on it.
_BLOCK_ENTRIES = 4096

# Off-diagonal Frobenius mass, relative to the matrix norm, at or below which
# a matrix is diagonal.
_TARGET = 1e-12

# Skew-Hermitian mass, relative to the matrix norm, above which eigh rejects.
_HERMITIAN_TOL = 1e-10


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
    raw = a.reshape(-1, 2, 2)
    peak = np.maximum(np.abs(raw.real), np.abs(raw.imag)).max(axis=(1, 2), initial=0.0)
    exponent = np.frexp(peak)[1]
    stack = np.empty_like(raw)
    stack.real = np.ldexp(raw.real, -exponent[:, None, None])
    stack.imag = np.ldexp(raw.imag, -exponent[:, None, None])
    scale = frobenius_norms(stack)
    skew = frobenius_norms(stack - stack.conj().transpose(0, 2, 1))
    reject_slices(skew > _HERMITIAN_TOL * scale, a.ndim == 3, "matrix",
                  "is not Hermitian within tolerance")

    values = np.zeros((len(stack), 2))
    vectors = np.broadcast_to(np.eye(2, dtype=complex), stack.shape).copy()
    block = _BLOCK_ENTRIES // 4
    for lo in range(0, len(stack), block):
        live = lo + np.flatnonzero(peak[lo:lo + block] > 0.0)
        if live.size:
            sub = stack[live]
            tv = _rotate((sub + sub.conj().transpose(0, 2, 1)) / 2, _TARGET * scale[live])
            lam = np.diagonal(tv[:, :2], axis1=1, axis2=2).real
            order = np.argsort(lam, axis=1, kind="stable")
            values[live] = np.ldexp(np.take_along_axis(lam, order, axis=1),
                                    exponent[live, None])
            vectors[live] = np.take_along_axis(tv[:, 2:], order[:, None, :], axis=2)
    return EigenDecomposition(values.reshape(a.shape[:-1]), vectors.reshape(a.shape))


def _rotate(t: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """One Jacobi rotation [[c, s], [-conj(s), c]] of each matrix of a
    (B, 2, 2) Hermitian stack whose off-diagonal mass is above its ``stop``:
    c and s / e are the cosine and sine of the real rotation that zeroes a
    pivot of modulus |t_01|, and e is the phase of t_01. Returns a (B, 4, 2)
    stack, the matrices on top of their rotations."""
    # rows and columns lead and the batch is last, so that an entry of every
    # matrix is one contiguous run; t sits on top of its rotation v
    tv = np.empty((4, 2, len(t)), dtype=complex)
    tv[:2] = t.transpose(1, 2, 0)
    tv[2:] = np.eye(2)[:, :, None]
    # the off-diagonal mass of a matrix is the norm of its pair t_01, t_10
    todo = frobenius_norms(tv[[0, 1], [1, 0]].T) > stop
    if not todo.any():
        return tv.transpose(2, 0, 1)
    every = todo.all()
    sub = tv if every else tv[..., todo]
    # the one pivot (p, q) = (0, 1), as length-1 index arrays
    p, q = pq = np.array([[0], [1]])
    tpq = sub[p, q]
    mod = np.abs(tpq)
    dp, dq = sub[pq, pq].real
    tau = (dq - dp) / (2 * mod)
    tan = np.where(tau == 0.0, 1.0, np.sign(tau) / (np.abs(tau) + np.hypot(1.0, tau)))
    c = 1.0 / np.hypot(1.0, tan)
    s = tan * c * (tpq / mod)
    sc = s.conj()
    # rows p, q of t, then columns p, q of t and v together; c is real
    xp, xq = sub[p], sub[q]
    sub[p] = c[:, None] * xp - s[:, None] * xq
    sub[q] = sc[:, None] * xp + c[:, None] * xq
    yp, yq = sub[:, p], sub[:, q]
    sub[:, p] = c * yp - sc * yq
    sub[:, q] = s * yp + c * yq
    if not np.all(frobenius_norms(sub[[0, 1], [1, 0]].T) <= stop[todo]):
        raise NumericalError("a Jacobi rotation left a 2 x 2 matrix off diagonal")
    if not every:
        tv[..., todo] = sub
    return tv.transpose(2, 0, 1)
