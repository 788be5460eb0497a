"""Minimal dense complex linear-algebra kernel.

Every other module expresses its math through the helpers here. Matrices and
state vectors are plain complex128 numpy arrays treated as immutable values:
every operation validates its inputs and returns a fresh array.

The Hermitian eigensolver is a cyclic Jacobi iteration on the real-symmetric
embedding of the complex matrix, with no dependency beyond numpy array
arithmetic. It solves one matrix or a (B, n, n) stack by the same code, and
its results are reproducible bitwise, and independent of batch shape: each
matrix of a stack comes out bitwise equal to the same matrix solved alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NumericalError",
    "EigenDecomposition",
    "dagger",
    "eigh",
    "partial_trace",
    "frobenius_distance",
    "frobenius_norm",
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


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def frobenius_norm(a) -> float:
    a = _as_matrix(a)
    return float(np.sqrt(np.sum(np.abs(a) ** 2)))


def frobenius_distance(a, b) -> float:
    """Frobenius distance between two matrices of identical shape."""
    a = _as_matrix(a, "a")
    b = _as_matrix(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.sqrt(np.sum(np.abs(a - b) ** 2)))


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


def dagger(a) -> np.ndarray:
    """Conjugate transpose as a fresh array; an exact (bitwise) involution."""
    return _as_matrix(a).conj().T.copy()


def _round_robin_schedule(m: int) -> tuple:
    """All index pairs of range(m), grouped into m-1 rounds of disjoint pairs.

    Each round is (p, q, rows, cols): index arrays p < q of its pairs, and the
    (rows, cols) positions of a rotation's entries, in the order
    (p, p), (q, q), (p, q), (q, p).
    """
    idx = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = [(min(idx[i], idx[m - 1 - i]), max(idx[i], idx[m - 1 - i]))
                 for i in range(m // 2)]
        p = np.array([a for a, _ in pairs])
        q = np.array([b for _, b in pairs])
        rounds.append((p, q, np.concatenate([p, q, p, q]), np.concatenate([p, q, q, p])))
        idx = [idx[0]] + [idx[-1]] + idx[1:-1]
    return tuple(rounds)


_SCHEDULE_CACHE: dict = {}

# A stack is diagonalized in blocks of this many real entries of 2n x 2n
# embeddings (128 KB), which bounds the working set of the rotation updates:
# 64 matrices at n = 8, 256 at n = 4. No result depends on it.
_BLOCK_ENTRIES = 16384


def _schedule(m: int) -> tuple:
    if m not in _SCHEDULE_CACHE:
        _SCHEDULE_CACHE[m] = _round_robin_schedule(m)
    return _SCHEDULE_CACHE[m]


def _off_diagonal_mass(t: np.ndarray) -> np.ndarray:
    off = t.copy()
    diag = np.arange(t.shape[1])
    off[:, diag, diag] = 0.0
    return frobenius_norms(off)


def eigh(a, tol: float = 1e-10, *, target: float = 1e-12,
         max_sweeps: int = 64) -> EigenDecomposition:
    """Full spectral decomposition of a Hermitian matrix or a stack of them.

    The complex n x n matrix is embedded as the 2n x 2n real symmetric block
    matrix [[X, -Y], [Y, X]] (A = X + iY) and diagonalized by cyclic Jacobi
    sweeps, iterated until the off-diagonal Frobenius mass falls below
    ``target`` relative to the matrix norm. Each sweep visits every pivot pair
    once, in a fixed round-robin order that lets disjoint rotations within a
    round be applied as a single orthogonal update.

    A (B, n, n) stack is solved by the same code, each round updating every
    matrix of the stack that is not yet converged at once; an (n, n) matrix
    is the stack of one. Results are bitwise reproducible and independent of
    batch shape: each slice of a stack comes out bitwise equal to the same
    matrix solved alone.

    Parameters
    ----------
    a : array_like of shape (n, n) or (B, n, n), each matrix Hermitian within
        ``tol`` relative to its Frobenius norm.
    tol : admission tolerance for the Hermiticity check and for eigenvalue
        clustering when extracting complex eigenvectors.
    target : internal off-diagonal convergence target (relative).
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
    block = max(1, _BLOCK_ENTRIES // (2 * n) ** 2)
    for lo in range(0, len(stack), block):
        live = lo + np.flatnonzero(scale[lo:lo + block] > 0.0)
        if live.size:
            values[live], vectors[live] = _eigh_block(
                stack[live], scale[live], tol, target, max_sweeps)
    if a.ndim == 2:
        return EigenDecomposition(values[0], vectors[0])
    return EigenDecomposition(values, vectors)


def _eigh_block(a: np.ndarray, scale: np.ndarray, tol: float, target: float,
                max_sweeps: int):
    """(values, vectors) of a stack of nonzero Hermitian matrices of norms ``scale``."""
    n = a.shape[1]
    m = 2 * n
    x = (a.real + a.real.transpose(0, 2, 1)) / 2
    y = (a.imag - a.imag.transpose(0, 2, 1)) / 2
    t = np.empty((len(a), m, m))
    t[:, :n, :n] = x
    t[:, :n, n:] = -y
    t[:, n:, :n] = y
    t[:, n:, n:] = x
    t_scale = frobenius_norms(t)
    t, v = _jacobi(t, target * t_scale / (10 * m), target * t_scale, max_sweeps)

    lam = np.diagonal(t, axis1=1, axis2=2)
    order = np.argsort(lam, axis=1, kind="stable")
    lam = np.take_along_axis(lam, order, axis=1)
    w = np.take_along_axis(v, order[:, None, :], axis=2)
    return _extract_complex_pairs(lam, w, n, np.maximum(tol * scale / 10, 5e-300))


def _jacobi(t: np.ndarray, skip: np.ndarray, stop: np.ndarray, max_sweeps: int):
    """Cyclic Jacobi sweeps over a stack of real symmetric matrices.

    A matrix leaves the stack once its off-diagonal mass is at most its
    ``stop``; a rotation whose pivot is at most its ``skip`` is left out, and
    a matrix with no rotation left in a round is not touched by it.
    Returns the rotated stack and the accumulated rotations.
    """
    count, m = t.shape[0], t.shape[1]
    eye = np.broadcast_to(np.eye(m), t.shape)
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
        for p, q, at_rows, at_cols in _schedule(m):
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
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                tau = (sub[:, q, q] - sub[:, p, p]) / (2 * tpq)
                tan = np.where(tau == 0.0, 1.0,
                               np.sign(tau) / (np.abs(tau) + np.hypot(1.0, tau)))
            c = np.where(hit, 1.0 / np.hypot(1.0, tan), 1.0)
            s = tan * c
            rot = eye[:len(sub)].copy()
            rot[:, at_rows, at_cols] = np.concatenate(
                [c, c, np.where(hit, s, 0.0), np.where(hit, -s, 0.0)], axis=1)
            sub = rot.transpose(0, 2, 1) @ sub @ rot
            if every:
                t = sub
                v = v @ rot
            else:
                t[rows] = sub
                v[rows] = v[rows] @ rot
    return out_t, out_v


def _merged_clusters(cuts: np.ndarray) -> list:
    """[lo, hi) ranges of sorted real-embedded eigenvalues that pair up.

    ``cuts[k]`` marks a gap between eigenvalues k and k + 1; a cluster of odd
    size is merged with the next one.
    """
    merged: list = []
    lo = 0
    for hi in list(np.flatnonzero(cuts) + 1) + [len(cuts) + 1]:
        if merged and (merged[-1][1] - merged[-1][0]) % 2 == 1:
            merged[-1][1] = hi
        else:
            merged.append([lo, hi])
        lo = hi
    if (merged[-1][1] - merged[-1][0]) % 2 == 1:
        raise NumericalError("eigenvalue pairing failed in the real embedding")
    return merged


def _extract_complex_pairs(lam: np.ndarray, w: np.ndarray, n: int,
                           cluster_eps: np.ndarray):
    # Real-embedded eigenvalues come in exact pairs (z and iz images); cluster
    # them and pull one complex representative per pair by pivoted
    # Gram-Schmidt over the cluster's mapped eigenvectors. Slices with the
    # same cluster boundaries are orthogonalized together.
    values = np.empty((len(lam), n))
    vectors = np.empty((len(lam), n, n), dtype=complex)
    cuts = np.diff(lam, axis=1) > cluster_eps[:, None]
    groups: dict = {}
    for k, row in enumerate(cuts):
        groups.setdefault(row.tobytes(), []).append(k)
    for members in groups.values():
        idx = np.array(members)
        col = 0
        for lo, hi in _merged_clusters(cuts[members[0]]):
            want = (hi - lo) // 2
            basis = _pivoted_gram_schmidt(
                w[idx, :n, lo:hi] + 1j * w[idx, n:, lo:hi], want)
            values[idx, col:col + want] = np.mean(lam[idx, lo:hi], axis=1)[:, None]
            vectors[idx, :, col:col + want] = basis.transpose(0, 2, 1)
            col += want
    return values, vectors


def _pivoted_gram_schmidt(z: np.ndarray, want: int) -> np.ndarray:
    """``want`` orthonormal vectors from the columns of each (n, k) slice of z.

    Each step orthogonalizes every unused candidate against the basis so far
    and takes the one with the largest residual. Returns shape (B, want, n).
    """
    cand = np.ascontiguousarray(z.transpose(0, 2, 1))
    rows = np.arange(len(cand))
    used = np.zeros(cand.shape[:2], dtype=bool)
    basis = np.empty((len(cand), want, cand.shape[2]), dtype=complex)
    for j in range(want):
        r = cand.copy()
        for b in basis[:, :j].transpose(1, 0, 2):
            # <b|r> per (slice, candidate) as a (1, n) @ (n, 1) product: one BLAS
            # dot product each, as np.vdot takes (an einsum sums in another order)
            r -= (b.conj()[:, None, None, :] @ r[..., None])[..., 0] * b[:, None, :]
        residual = np.sqrt(np.sum(np.abs(r) ** 2, axis=2))
        residual[used] = -np.inf
        pick = np.argmax(residual, axis=1)
        best = residual[rows, pick]
        if np.any(best < 1e-6):
            raise NumericalError("eigenvector extraction failed")
        used[rows, pick] = True
        basis[:, j] = r[rows, pick] / best[:, None]
    return basis


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


def partial_trace(rho, keep, n_qubits: int, tol: float = 1e-10) -> np.ndarray:
    """Reduced density matrix on the kept qubits, of one matrix or a stack.

    Qubit 0 is the most significant index of the 2**n_qubits basis ordering.
    ``keep`` is an iterable of distinct qubit indices; the output subsystem
    order follows the sorted kept indices. The input must be a density matrix
    (Hermitian, unit trace) within ``tol``, or a (B, dim, dim) stack of them,
    which gives the stack of reductions, each slice bitwise equal to the
    reduction of its matrix alone.
    """
    keep = sorted(set(int(k) for k in keep))
    if not keep or any(k < 0 or k >= n_qubits for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {n_qubits} qubits")
    stack, stacked = as_density_stack(rho, 2 ** n_qubits, tol)

    tensor = stack.reshape([len(stack)] + [2] * (2 * n_qubits))
    traced = [k for k in range(n_qubits) if k not in keep]
    for axis in sorted(traced, reverse=True):
        tensor = np.trace(tensor, axis1=1 + axis, axis2=1 + axis + (tensor.ndim - 1) // 2)
    d = 2 ** len(keep)
    return tensor.reshape((-1, d, d) if stacked else (d, d))
