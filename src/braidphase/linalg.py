"""Minimal dense complex linear-algebra kernel.

Matrices and state vectors are plain complex128 numpy arrays. A value is
validated where it enters the package, with ``reject_slices`` naming the
first bad slice of a stack, and the arithmetic behind that point does not
check it again: ``frobenius_norms``, the package's one norm, takes its stack
as it is. No density matrix enters: the package reduces validated states.

The Hermitian eigensolver is a cyclic Jacobi iteration of complex plane
rotations on the matrix itself. It makes no numpy.linalg call and no matrix
product: a round of rotations is a few elementwise updates of rows and
columns, so its bits come from elementwise IEEE operations only. It solves
one matrix or a (B, n, n) stack by the same code, and its results are
reproducible bitwise, and independent of batch shape and memory layout: each
matrix of a stack comes out bitwise equal to the same matrix solved alone.
"""

from __future__ import annotations

import functools
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
    """An iterative numerical procedure failed to reach its target."""


class EigenDecomposition(namedtuple("EigenDecomposition", "eigenvalues eigenvectors")):
    """Spectral decomposition of a Hermitian matrix; unpacks, like numpy's EighResult.

    eigenvalues  -- np.ndarray, real, ascending, shape (n,)
    eigenvectors -- np.ndarray, complex, shape (n, n), column k pairs with eigenvalue k;
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


@functools.cache
def _round_robin_schedule(n: int) -> tuple:
    """All index pairs of range(n), grouped into rounds of disjoint pairs.

    An odd n is scheduled as n + 1, and the pairs of the phantom index n are
    dropped. Each round is a (2, k) index array: its k pairs, p < q, as the
    rows p and q.
    """
    m = n + n % 2
    idx = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = [(min(idx[i], idx[m - 1 - i]), max(idx[i], idx[m - 1 - i]))
                 for i in range(m // 2)]
        pairs = [pair for pair in pairs if pair[1] < n]
        if pairs:
            rounds.append(np.array(pairs).T)
        idx = [idx[0]] + [idx[-1]] + idx[1:-1]
    return tuple(rounds)


# A stack is diagonalized in blocks of this many complex entries (64 KB):
# 64 matrices at n = 8, 256 at n = 4. A round's largest temporaries, columns
# p (or q) of every t and v, hold as many entries as the block, and numpy
# slows by a factor of several once they grow much past 128 KB. The 1600
# 2 x 2 blocks of the Wilson loop take a median 2.4 ms of CPU at 4096
# entries, 2.3 ms at 8192 to 32768 and 3.8 ms at 1024 (2-vCPU Xeon, numpy
# 2.4.6), so larger blocks would buy little. No result depends on it.
_BLOCK_ENTRIES = 4096

# Off-diagonal Frobenius mass, relative to the matrix norm, at which the
# Jacobi iteration stops.
_TARGET = 1e-12

# Sweep budget of the Jacobi iteration; exceeding it raises NumericalError.
_MAX_SWEEPS = 64

# Skew-Hermitian mass, relative to the matrix norm, above which eigh rejects.
_HERMITIAN_TOL = 1e-10


def eigh(a) -> EigenDecomposition:
    """Full spectral decomposition of a Hermitian matrix or a stack of them.

    The complex n x n matrix is diagonalized by cyclic Jacobi sweeps of
    complex plane rotations, iterated until the off-diagonal Frobenius mass
    falls below 1e-12 relative to the matrix norm. Each sweep visits every
    pivot pair once, in a fixed round-robin order whose rounds are disjoint
    pairs; a round's rotations are applied at once, by elementwise updates of
    their rows and columns. Each matrix is solved at the power-of-two scale
    that brings its largest entry into [1/2, 1), and its eigenvalues are
    scaled back: the scaling is exact, so no input overflows or underflows a
    norm, and scaling an input by a power of two scales the eigenvalues
    bitwise and leaves the eigenvectors as they are.

    A (B, n, n) stack is solved by the same code, each round updating every
    matrix of the stack that is not yet converged at once; an (n, n) matrix
    is the stack of one. Results are bitwise reproducible and independent of
    batch shape, block size and memory layout: each slice of a stack comes
    out bitwise equal to the same matrix solved alone.

    Parameters
    ----------
    a : array_like of shape (n, n) or (B, n, n), each matrix Hermitian within
        1e-10 relative to its Frobenius norm.

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
    raw = a.reshape((-1,) + a.shape[-2:])
    n = raw.shape[1]
    peak = np.maximum(np.abs(raw.real), np.abs(raw.imag)).max(axis=(1, 2), initial=0.0)
    exponent = np.frexp(peak)[1]
    stack = np.empty_like(raw)
    stack.real = np.ldexp(raw.real, -exponent[:, None, None])
    stack.imag = np.ldexp(raw.imag, -exponent[:, None, None])
    scale = frobenius_norms(stack)
    skew = frobenius_norms(stack - stack.conj().transpose(0, 2, 1))
    reject_slices(skew > _HERMITIAN_TOL * scale, a.ndim == 3, "matrix",
                  "is not Hermitian within tolerance")

    values = np.zeros((len(stack), n))
    vectors = np.broadcast_to(np.eye(n, dtype=complex), stack.shape).copy()
    block = max(1, _BLOCK_ENTRIES // n ** 2)
    for lo in range(0, len(stack), block):
        live = lo + np.flatnonzero(peak[lo:lo + block] > 0.0)
        if live.size:
            sub = stack[live]
            tv = _jacobi((sub + sub.conj().transpose(0, 2, 1)) / 2,
                         _TARGET * scale[live] / (10 * n), _TARGET * scale[live])
            lam = np.diagonal(tv[:, :n], axis1=1, axis2=2).real
            order = np.argsort(lam, axis=1, kind="stable")
            values[live] = np.ldexp(np.take_along_axis(lam, order, axis=1),
                                    exponent[live, None])
            vectors[live] = np.take_along_axis(tv[:, n:], order[:, None, :], axis=2)
    if a.ndim == 2:
        return EigenDecomposition(values[0], vectors[0])
    return EigenDecomposition(values, vectors)


def _jacobi(t: np.ndarray, skip: np.ndarray, stop: np.ndarray):
    """Cyclic Jacobi sweeps over a (B, n, n) stack of Hermitian matrices.

    The rotation of pivot (p, q) is [[c, s], [-conj(s), c]] in rows and
    columns p, q: c and s / e are the cosine and sine of the real rotation
    that zeroes a pivot of modulus |t_pq|, and e is the phase of t_pq. The
    disjoint pivots of a round are rotated at once, rows p, q of t and then
    columns p, q of t and v, each an elementwise update. A matrix leaves the
    stack once its off-diagonal mass is at most its ``stop``; a rotation
    whose pivot is at most its ``skip`` is left out, and a matrix with no
    rotation left in a round is not touched by it. Returns a (B, 2n, n)
    stack: the rotated matrices on top of the accumulated rotations.
    """
    count, n = t.shape[0], t.shape[1]
    # rows and columns lead and the batch is last, so that an entry of every
    # matrix is one contiguous run; t sits on top of v
    tv = np.empty((2 * n, n, count), dtype=complex)
    tv[:n] = t.transpose(1, 2, 0)
    tv[n:] = np.eye(n)[:, :, None]
    out = np.empty_like(tv)
    diag = np.arange(n)
    live = np.arange(count)
    for sweep in range(_MAX_SWEEPS + 1):
        off = tv[:n].copy()
        off[diag, diag] = 0.0
        # summed batch-first, so that a matrix's mass is summed in one order
        # whatever the batch size
        done = frobenius_norms(off.transpose(2, 0, 1)) <= stop[live]
        if sweep == _MAX_SWEEPS and not done.all():
            raise NumericalError(
                f"Jacobi iteration did not converge in {_MAX_SWEEPS} sweeps")
        if done.any():
            out[..., live[done]] = tv[..., done]
            live, tv = live[~done], tv[..., ~done]
        if not live.size:
            break
        live_skip = skip[live]
        for pq in _round_robin_schedule(n):
            p, q = pq
            tpq = tv[p, q]
            modulus = np.abs(tpq)
            hit = modulus > live_skip
            touched = hit.any(axis=0)
            every = touched.all()
            if every:
                sub = tv
            elif touched.any():
                at = np.flatnonzero(touched)
                hit, tpq, modulus = hit[:, at], tpq[:, at], modulus[:, at]
                sub = tv[..., at]
            else:
                continue
            # the modulus is replaced by 1 where no rotation is applied, so
            # that neither tau nor the phase divides by zero
            mod = np.where(hit, modulus, 1.0)
            dp, dq = sub[pq, pq].real
            tau = (dq - dp) / (2 * mod)
            tan = np.where(tau == 0.0, 1.0,
                           np.sign(tau) / (np.abs(tau) + np.hypot(1.0, tau)))
            c = np.where(hit, 1.0 / np.hypot(1.0, tan), 1.0)
            s = np.where(hit, tan * c, 0.0) * (tpq / mod)
            sc = s.conj()
            # rows p, q of t, then columns p, q of t and v together; c is real
            xp, xq = sub[p], sub[q]
            sub[p] = c[:, None] * xp - s[:, None] * xq
            sub[q] = sc[:, None] * xp + c[:, None] * xq
            yp, yq = sub[:, p], sub[:, q]
            sub[:, p] = c * yp - sc * yq
            sub[:, q] = s * yp + c * yq
            if not every:
                tv[..., at] = sub
    return out.transpose(2, 0, 1)
