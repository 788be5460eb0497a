"""Minimal dense complex linear-algebra kernel.

Matrices and state vectors are plain complex128 numpy arrays. A value is
validated where it enters the package, and the arithmetic behind that point
does not check it again: ``frobenius_norms``, the package's one norm, takes
its stack as it is.

The Hermitian eigensolver is a cyclic Jacobi iteration of complex plane
rotations on the matrix itself, with no dependency beyond numpy array
arithmetic. It solves one matrix or a (B, n, n) stack by the same code, and
its results are reproducible bitwise, and independent of batch shape: each
matrix of a stack comes out bitwise equal to the same matrix solved alone.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NumericalError",
    "EigenDecomposition",
    "eigh",
    "frobenius_norms",
    "reject_slices",
    "as_density_stack",
]


class NumericalError(RuntimeError):
    """An iterative numerical procedure failed to reach its target."""


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral decomposition of a Hermitian matrix.

    eigenvalues  -- real, ascending, shape (n,)
    eigenvectors -- complex, shape (n, n), column k pairs with eigenvalue k;
                    columns are orthonormal. Degenerate eigenvalues come with
                    an arbitrary orthonormal basis of their eigenspace.

    For a stack of B matrices both arrays carry a leading axis of length B.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def frobenius_norms(stack) -> np.ndarray:
    """Frobenius norm of each slice of a (B, ...) stack; no validation."""
    stack = np.asarray(stack)
    return np.sqrt(np.sum(np.abs(stack.reshape(len(stack), -1)) ** 2, axis=1))


def reject_slices(bad, stacked: bool, what: str, problem: str,
                  error: type = ValueError) -> None:
    """Raise ``error`` "<what> <problem>" if any slice is ``bad``; the first
    bad slice of a stack is named by its index: "<what> <index> <problem>"."""
    idx = np.flatnonzero(bad)
    if idx.size:
        raise error(f"{what} {idx[0]} {problem}" if stacked else f"{what} {problem}")


@functools.cache
def _round_robin_schedule(n: int) -> tuple:
    """All index pairs of range(n), grouped into rounds of disjoint pairs.

    An odd n is scheduled as n + 1, and the pairs of the phantom index n are
    dropped. Each round is (p, q, rows, cols): index arrays p < q of its
    pairs, and the (rows, cols) positions of a rotation's entries, in the
    order (p, p), (q, q), (p, q), (q, p).
    """
    m = n + n % 2
    idx = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = [(min(idx[i], idx[m - 1 - i]), max(idx[i], idx[m - 1 - i]))
                 for i in range(m // 2)]
        p = np.array([a for a, b in pairs if b < n])
        q = np.array([b for _, b in pairs if b < n])
        if p.size:
            rounds.append((p, q, np.concatenate([p, q, p, q]),
                           np.concatenate([p, q, q, p])))
        idx = [idx[0]] + [idx[-1]] + idx[1:-1]
    return tuple(rounds)


# A stack is diagonalized in blocks of this many complex entries (64 KB),
# which bounds the working set of the rotation updates: 64 matrices at n = 8,
# 256 at n = 4. No result depends on it.
_BLOCK_ENTRIES = 4096

# Off-diagonal Frobenius mass, relative to the matrix norm, at which the
# Jacobi iteration stops.
_TARGET = 1e-12


def _off_diagonal_mass(t: np.ndarray) -> np.ndarray:
    off = t.copy()
    diag = np.arange(t.shape[1])
    off[:, diag, diag] = 0.0
    return frobenius_norms(off)


def eigh(a, tol: float = 1e-10, *, max_sweeps: int = 64) -> EigenDecomposition:
    """Full spectral decomposition of a Hermitian matrix or a stack of them.

    The complex n x n matrix is diagonalized by cyclic Jacobi sweeps of
    complex plane rotations, iterated until the off-diagonal Frobenius mass
    falls below 1e-12 relative to the matrix norm. Each sweep visits every
    pivot pair once, in a fixed round-robin order that lets disjoint
    rotations within a round be applied as a single unitary update.

    A (B, n, n) stack is solved by the same code, each round updating every
    matrix of the stack that is not yet converged at once; an (n, n) matrix
    is the stack of one. Results are bitwise reproducible and independent of
    batch shape: each slice of a stack comes out bitwise equal to the same
    matrix solved alone.

    Parameters
    ----------
    a : array_like of shape (n, n) or (B, n, n), each matrix Hermitian within
        ``tol`` relative to its Frobenius norm.
    tol : admission tolerance of the Hermiticity check.
    max_sweeps : sweep budget; exceeding it raises NumericalError.

    Returns eigenvalues of shape (..., n) and eigenvectors of shape
    (..., n, n), with the leading axis of a stack kept.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim not in (2, 3):
        raise ValueError(f"matrix must be 2-dimensional or a stack of matrices, "
                         f"got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix contains non-finite entries")
    if a.shape[-1] != a.shape[-2]:
        raise ValueError(f"matrix must be square, got shape {a.shape[-2:]}")
    stack = a.reshape((-1,) + a.shape[-2:])
    n = stack.shape[1]
    scale = frobenius_norms(stack)
    skew = frobenius_norms(stack - stack.conj().transpose(0, 2, 1))
    reject_slices(skew > tol * scale, a.ndim == 3, "matrix",
                  "is not Hermitian within tolerance")

    values = np.zeros((len(stack), n))
    vectors = np.broadcast_to(np.eye(n, dtype=complex), stack.shape).copy()
    block = max(1, _BLOCK_ENTRIES // n ** 2)
    for lo in range(0, len(stack), block):
        live = lo + np.flatnonzero(scale[lo:lo + block] > 0.0)
        if live.size:
            sub = stack[live]
            t, v = _jacobi((sub + sub.conj().transpose(0, 2, 1)) / 2,
                           _TARGET * scale[live] / (10 * n), _TARGET * scale[live],
                           max_sweeps)
            lam = np.diagonal(t, axis1=1, axis2=2).real
            order = np.argsort(lam, axis=1, kind="stable")
            values[live] = np.take_along_axis(lam, order, axis=1)
            vectors[live] = np.take_along_axis(v, order[:, None, :], axis=2)
    if a.ndim == 2:
        return EigenDecomposition(values[0], vectors[0])
    return EigenDecomposition(values, vectors)


def _jacobi(t: np.ndarray, skip: np.ndarray, stop: np.ndarray, max_sweeps: int):
    """Cyclic Jacobi sweeps over a stack of Hermitian matrices.

    The rotation of pivot (p, q) is [[c, s e], [-s conj(e), c]], with e the
    phase of t_pq and c, s the real rotation that zeroes a pivot of modulus
    |t_pq|. A matrix leaves the stack once its off-diagonal mass is at most
    its ``stop``; a rotation whose pivot is at most its ``skip`` is left out,
    and a matrix with no rotation left in a round is not touched by it.
    Returns the rotated stack and the accumulated rotations.
    """
    count, n = t.shape[0], t.shape[1]
    eye = np.broadcast_to(np.eye(n, dtype=complex), t.shape)
    v = eye.copy()
    out_t = np.empty_like(t)
    out_v = np.empty_like(t)
    live = np.arange(count)
    for sweep in range(max_sweeps + 1):
        done = _off_diagonal_mass(t) <= stop[live]
        if sweep == max_sweeps and not done.all():
            raise NumericalError(
                f"Jacobi iteration did not converge in {max_sweeps} sweeps")
        if done.any():
            out_t[live[done]] = t[done]
            out_v[live[done]] = v[done]
            live, t, v = live[~done], t[~done], v[~done]
        if not live.size:
            break
        live_skip = skip[live][:, None]
        for p, q, at_rows, at_cols in _round_robin_schedule(n):
            tpq = t[:, p, q]
            hit = np.abs(tpq) > live_skip
            touched = hit.any(axis=1)
            every = touched.all()
            if every:
                sub = t
            elif touched.any():
                rows = np.flatnonzero(touched)
                hit, tpq, sub = hit[rows], tpq[rows], t[rows]
            else:
                continue
            # the modulus is replaced by 1 where no rotation is applied, so
            # that neither tau nor the phase divides by zero
            mod = np.where(hit, np.abs(tpq), 1.0)
            tau = (sub[:, q, q].real - sub[:, p, p].real) / (2 * mod)
            tan = np.where(tau == 0.0, 1.0,
                           np.sign(tau) / (np.abs(tau) + np.hypot(1.0, tau)))
            c = np.where(hit, 1.0 / np.hypot(1.0, tan), 1.0)
            s = np.where(hit, tan * c, 0.0) * (tpq / mod)
            rot = eye[:len(sub)].copy()
            rot[:, at_rows, at_cols] = np.concatenate([c, c, s, -s.conj()], axis=1)
            sub = rot.conj().transpose(0, 2, 1) @ sub @ rot
            if every:
                t = sub
                v = v @ rot
            else:
                t[rows] = sub
                v[rows] = v[rows] @ rot
    return out_t, out_v


def as_density_stack(rho, dim: int, tol: float):
    """(stack, stacked): a dim x dim density matrix, or a stack, as (B, dim, dim).

    Each matrix must be finite, Hermitian and of unit trace within ``tol``;
    the whole stack is checked at once, and a bad matrix is named by its index.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (dim, dim) or rho.ndim not in (2, 3):
        raise ValueError(f"density matrix has shape {rho.shape}, expected "
                         f"{(dim, dim)} or a stack of them")
    stack, stacked = rho.reshape(-1, dim, dim), rho.ndim == 3
    reject_slices(~np.isfinite(stack).all(axis=(1, 2)), stacked, "density matrix",
                  "contains non-finite entries")
    scale = frobenius_norms(stack)
    skew = frobenius_norms(stack - stack.conj().transpose(0, 2, 1))
    reject_slices(skew > tol * np.maximum(scale, 1.0), stacked, "density matrix",
                  "is not Hermitian within tolerance")
    trace = np.trace(stack, axis1=1, axis2=2)
    reject_slices((np.abs(trace.real - 1.0) > tol) | (np.abs(trace.imag) > tol),
                  stacked, "density matrix", "does not have unit trace within tolerance")
    return stack, stacked
