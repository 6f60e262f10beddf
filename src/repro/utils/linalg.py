"""Linear-algebra primitives for subspace manipulation.

Interference nulling, interference alignment and multi-dimensional carrier
sense all reduce to a handful of subspace operations on complex matrices:
computing null spaces (Claim 3.3 / 3.5 of the paper), orthonormal
complements (the "unwanted space" U and its complement U-perp, and the
projection plane used by carrier sense in Fig. 6), and projections of
received samples onto those subspaces.

All functions operate on complex ``numpy`` arrays.  Subspaces are always
represented by matrices whose *columns* form an orthonormal basis.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.exceptions import DimensionError
from repro.utils import guarded

__all__ = [
    "null_space",
    "null_space_batch",
    "orthonormal_basis",
    "orthonormal_complement",
    "orthonormal_complement_batch",
    "singular_value_ranks",
    "rank_and_pinv",
    "rank_and_pinv_batch",
    "project_onto_subspace",
    "project_out_subspace",
    "projection_matrix",
    "random_unitary",
    "subspace_angle",
    "is_in_subspace",
]

#: Default relative tolerance used to decide which singular values are zero.
DEFAULT_RCOND = 1e-10

#: ``np.linalg.pinv``'s default cutoff, relative to the largest singular value.
PINV_RCOND = 1e-15


def _as_complex_matrix(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return ``a`` as a 2-D complex array, raising :class:`DimensionError`
    if it cannot be interpreted as a matrix."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 1-D or 2-D, got shape {arr.shape}")
    return arr


def null_space(matrix: np.ndarray, rcond: float = DEFAULT_RCOND) -> np.ndarray:
    """Return an orthonormal basis of the (right) null space of ``matrix``.

    The null space of the stacked nulling/alignment constraint matrix is
    exactly the set of admissible pre-coding vectors (Claims 3.3-3.5).

    Parameters
    ----------
    matrix:
        A ``(rows, cols)`` complex matrix ``A``.
    rcond:
        Singular values below ``rcond * max(singular values)`` are treated
        as zero.

    Returns
    -------
    numpy.ndarray
        A ``(cols, k)`` matrix whose columns are orthonormal and satisfy
        ``A @ v ~= 0``.  ``k`` may be zero, in which case the returned
        array has shape ``(cols, 0)``.
    """
    a = _as_complex_matrix(matrix)
    if a.shape[0] == 0:
        # No constraints: the whole space is the null space.
        return np.eye(a.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(a, full_matrices=True)
    tol = rcond * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > tol))
    return vh[rank:].conj().T


def singular_value_ranks(
    singular_values: np.ndarray, rcond: float = DEFAULT_RCOND
) -> np.ndarray:
    """Numerical ranks of a stack of matrices from their singular values.

    ``singular_values`` has shape ``(batch, n_sv)`` (as returned by a
    batched SVD); the tolerance is ``rcond * s_max`` per matrix, matching
    the single-matrix functions above so batched fast paths and their
    per-matrix fallbacks always agree on rank.
    """
    s = np.asarray(singular_values)
    tol = rcond * s[:, :1]
    return np.sum(s > tol, axis=1)


def rank_and_pinv(matrices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Tolerance rank and pseudo-inverse of a matrix or stack from one SVD.

    Returns ``(np.linalg.matrix_rank(a), np.linalg.pinv(a))`` bit for bit
    while decomposing ``a`` once instead of twice.  Both come from the
    SVD of ``a.conjugate()`` that ``pinv`` takes (conjugation leaves the
    singular values unchanged), through numpy's own formulas: the rank
    counts singular values above ``s_max * max(m, n) * eps``, and the
    pseudo-inverse drops those at or below ``PINV_RCOND * s_max``.
    Raises ``LinAlgError`` where numpy would (SVD non-convergence).

    Parameters
    ----------
    matrices:
        A ``(m, n)`` matrix or ``(..., m, n)`` stack.

    Returns
    -------
    tuple
        ``(rank, pinv)`` with shapes ``(...)`` and ``(..., n, m)``.
    """
    a = np.asarray(matrices)
    m, n = a.shape[-2:]
    if a.size == 0:
        return (
            np.zeros(a.shape[:-2], dtype=np.intp),
            np.empty(a.shape[:-2] + (n, m), dtype=a.dtype),
        )
    u, s, vt = np.linalg.svd(a.conjugate(), full_matrices=False)
    s_max = s.max(axis=-1, keepdims=True, initial=0)
    rank = np.count_nonzero(s > s_max * (max(m, n) * np.finfo(s.dtype).eps), axis=-1)
    large = s > PINV_RCOND * s_max
    s = np.divide(1, s, where=large, out=s)
    s[~large] = 0
    pinv = np.matmul(np.swapaxes(vt, -1, -2), np.multiply(s[..., None], np.swapaxes(u, -1, -2)))
    return rank, pinv


def rank_and_pinv_batch(matrices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`rank_and_pinv` of a ``(batch, m, n)`` stack that cannot raise.

    With guards enabled (the default, :mod:`repro.utils.guarded`),
    non-finite members are zeroed first, a LAPACK non-convergence falls
    back to a per-matrix sweep in which only the non-converging members
    come out as rank 0 with a zero pseudo-inverse, and a non-finite
    pseudo-inverse is zeroed; each fallback notes a degradation
    (``"nonfinite-input"``, ``"pinv-non-convergent"``,
    ``"nonfinite-pinv"``).  Finite stacks get exactly
    :func:`rank_and_pinv`, which is also the guards-disabled path.
    """
    a = np.asarray(matrices, dtype=complex)
    if not guarded.guards_enabled():
        return rank_and_pinv(a)
    a, _ = guarded.sanitize_stack(a)
    try:
        rank, pinv = rank_and_pinv(a)
    except np.linalg.LinAlgError:  # pragma: no cover - LAPACK-dependent
        guarded.note_degradation("pinv-non-convergent")
        batch, m, n = a.shape
        rank = np.zeros(batch, dtype=np.intp)
        pinv = np.zeros((batch, n, m), dtype=complex)
        for index in range(batch):
            try:
                rank[index], pinv[index] = rank_and_pinv(a[index])
            except np.linalg.LinAlgError:
                pass
    if not np.isfinite(pinv).all():  # pragma: no cover - defensive
        guarded.note_degradation("nonfinite-pinv")
        pinv = np.where(np.isfinite(pinv), pinv, 0.0)
    return rank, pinv


def null_space_batch(
    matrices: np.ndarray, n_vectors: int, rcond: float = DEFAULT_RCOND
) -> np.ndarray:
    """Null-space bases of a stack of matrices in one batched SVD.

    The per-subcarrier pre-coding math repeats :func:`null_space` once per
    OFDM subcarrier; this helper performs the whole stack at once.

    Parameters
    ----------
    matrices:
        Complex array of shape ``(batch, rows, cols)``.
    n_vectors:
        How many null-space directions to return per matrix.  Each matrix
        must have a null space of at least this dimension.
    rcond:
        Rank tolerance, as in :func:`null_space`.

    Returns
    -------
    numpy.ndarray
        Shape ``(batch, cols, n_vectors)``: per matrix, the first
        ``n_vectors`` columns that :func:`null_space` would return.

    Raises
    ------
    DimensionError
        If any matrix in the stack has a null space thinner than
        ``n_vectors`` -- only when guards are disabled
        (:mod:`repro.utils.guarded`).  With guards enabled (the
        default), deficient matrices instead fall back to the
        ``n_vectors`` *smallest*-singular-value directions (the
        deterministic pinned-rcond choice) and a degradation is noted
        so the MAC layer can quarantine the link.
    """
    a = np.asarray(matrices, dtype=complex)
    if a.ndim != 3:
        raise DimensionError(f"expected a stack of matrices, got shape {a.shape}")
    batch, rows, cols = a.shape
    if n_vectors < 0 or n_vectors > cols:
        raise DimensionError(f"cannot take {n_vectors} null-space vectors in dimension {cols}")
    if rows == 0:
        eye = np.eye(cols, dtype=complex)[:, :n_vectors]
        return np.broadcast_to(eye, (batch, cols, n_vectors)).copy()
    if guarded.guards_enabled():
        _, s, vh = guarded.svd_stack(a, full_matrices=True)
        ranks = singular_value_ranks(s, rcond)
        if np.any(guarded.ill_conditioned(s)):
            guarded.note_degradation("ill-conditioned-null-space")
        deficient = ranks + n_vectors > cols
        if np.any(deficient):
            guarded.note_degradation("null-space-deficit")
            ranks = np.where(deficient, cols - n_vectors, ranks)
    else:
        _, s, vh = np.linalg.svd(a, full_matrices=True)
        ranks = singular_value_ranks(s, rcond)
        if np.any(ranks + n_vectors > cols):
            raise DimensionError(
                f"a matrix in the stack has a null space of dimension smaller than {n_vectors}"
            )
    # Gather rows ``rank .. rank + n_vectors`` of each V^H, even when the
    # ranks differ across the stack.
    row_idx = ranks[:, None] + np.arange(n_vectors)[None, :]
    selected = vh[np.arange(batch)[:, None], row_idx, :]  # (batch, n_vectors, cols)
    return selected.conj().transpose(0, 2, 1)


def orthonormal_complement_batch(
    matrices: np.ndarray, n_vectors: int, rcond: float = DEFAULT_RCOND
) -> np.ndarray:
    """Orthonormal-complement bases of a stack of matrices at once.

    Parameters
    ----------
    matrices:
        Complex array of shape ``(batch, n, k)``.
    n_vectors:
        Number of complement directions to return per matrix.

    Returns
    -------
    numpy.ndarray
        Shape ``(batch, n, n_vectors)``: per matrix, the first
        ``n_vectors`` columns that :func:`orthonormal_complement` would
        return.

    Raises
    ------
    DimensionError
        If any matrix's complement has fewer than ``n_vectors``
        dimensions -- only when guards are disabled
        (:mod:`repro.utils.guarded`).  With guards enabled (the
        default), deficient matrices fall back to the ``n_vectors``
        weakest left-singular directions and a degradation is noted.
    """
    a = np.asarray(matrices, dtype=complex)
    if a.ndim != 3:
        raise DimensionError(f"expected a stack of matrices, got shape {a.shape}")
    batch, n, k = a.shape
    if n_vectors < 0 or n_vectors > n:
        raise DimensionError(f"cannot take {n_vectors} complement vectors in dimension {n}")
    if k == 0:
        eye = np.eye(n, dtype=complex)[:, :n_vectors]
        return np.broadcast_to(eye, (batch, n, n_vectors)).copy()
    if guarded.guards_enabled():
        u, s, _ = guarded.svd_stack(a, full_matrices=True)
        ranks = singular_value_ranks(s, rcond)
        if np.any(guarded.ill_conditioned(s)):
            guarded.note_degradation("ill-conditioned-complement")
        deficient = ranks + n_vectors > n
        if np.any(deficient):
            guarded.note_degradation("complement-deficit")
            ranks = np.where(deficient, n - n_vectors, ranks)
    else:
        u, s, _ = np.linalg.svd(a, full_matrices=True)
        ranks = singular_value_ranks(s, rcond)
        if np.any(ranks + n_vectors > n):
            raise DimensionError(
                f"a matrix in the stack has an orthogonal complement thinner than {n_vectors}"
            )
    col_idx = ranks[:, None] + np.arange(n_vectors)[None, :]
    selected = u[np.arange(batch)[:, None], :, col_idx]  # (batch, n_vectors, n)
    return selected.transpose(0, 2, 1)


def orthonormal_basis(matrix: np.ndarray, rcond: float = DEFAULT_RCOND) -> np.ndarray:
    """Return an orthonormal basis for the column space of ``matrix``.

    Used to turn a set of (possibly linearly dependent) channel vectors of
    ongoing transmissions into a clean basis of the occupied signal
    subspace (Fig. 6).
    """
    a = _as_complex_matrix(matrix)
    if a.shape[1] == 0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    tol = rcond * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > tol))
    return u[:, :rank]


def orthonormal_complement(matrix: np.ndarray, rcond: float = DEFAULT_RCOND) -> np.ndarray:
    """Return an orthonormal basis of the orthogonal complement of the
    column space of ``matrix``.

    This is the subspace a multi-antenna node projects onto in order to
    carrier sense "as if the medium were idle" (§3.2), and the U-perp
    matrix of Claim 3.4 when ``matrix`` spans the unwanted space U.

    The returned basis has ``n - rank(matrix)`` columns where ``n`` is the
    number of rows of ``matrix``.
    """
    a = _as_complex_matrix(matrix)
    n = a.shape[0]
    if a.shape[1] == 0:
        return np.eye(n, dtype=complex)
    u, s, _ = np.linalg.svd(a, full_matrices=True)
    tol = rcond * (s[0] if s.size else 0.0)
    rank = int(np.sum(s > tol))
    return u[:, rank:]


def projection_matrix(basis: np.ndarray) -> np.ndarray:
    """Return the orthogonal-projection matrix onto the span of ``basis``.

    ``basis`` need not be orthonormal; the projector is computed as
    ``B (B^H B)^-1 B^H`` via the pseudo-inverse.
    """
    b = _as_complex_matrix(basis, "basis")
    if b.shape[1] == 0:
        return np.zeros((b.shape[0], b.shape[0]), dtype=complex)
    return b @ np.linalg.pinv(b)


def project_onto_subspace(vectors: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Project ``vectors`` onto the subspace spanned by the columns of
    ``basis`` and return the *coordinates* in that basis.

    Parameters
    ----------
    vectors:
        Shape ``(n,)`` or ``(n, t)``: one column per time sample.
    basis:
        Shape ``(n, k)`` with orthonormal columns.

    Returns
    -------
    numpy.ndarray
        Shape ``(k,)`` or ``(k, t)``: the coefficients ``basis^H @ vectors``.
    """
    b = _as_complex_matrix(basis, "basis")
    v = np.asarray(vectors, dtype=complex)
    squeeze = v.ndim == 1
    if squeeze:
        v = v.reshape(-1, 1)
    if v.shape[0] != b.shape[0]:
        raise DimensionError(
            f"vectors have dimension {v.shape[0]} but basis lives in dimension {b.shape[0]}"
        )
    coords = b.conj().T @ v
    return coords[:, 0] if squeeze else coords


def project_out_subspace(vectors: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Remove from ``vectors`` every component lying in the span of
    ``basis`` and return the residual expressed in the original coordinates.

    This is the operation a receiver applies to cancel ongoing
    transmissions before decoding or carrier sensing.
    """
    b = _as_complex_matrix(basis, "basis")
    v = np.asarray(vectors, dtype=complex)
    squeeze = v.ndim == 1
    if squeeze:
        v = v.reshape(-1, 1)
    if v.shape[0] != b.shape[0]:
        raise DimensionError(
            f"vectors have dimension {v.shape[0]} but basis lives in dimension {b.shape[0]}"
        )
    if b.shape[1] == 0:
        residual = v
    else:
        ortho = orthonormal_basis(b)
        residual = v - ortho @ (ortho.conj().T @ v)
    return residual[:, 0] if squeeze else residual


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Return a Haar-distributed ``n x n`` unitary matrix.

    Useful for generating random orthogonal signalling directions in tests
    and synthetic channels.
    """
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    # Normalise the phases so the distribution is Haar.
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def subspace_angle(a: np.ndarray, b: np.ndarray) -> float:
    """Return the principal angle (radians) between the subspaces spanned by
    the columns of ``a`` and ``b``.

    The angle between a wanted stream and the interference directions
    determines the post-projection SNR (Fig. 7) and therefore the best
    bitrate (§3.4).
    """
    qa = orthonormal_basis(_as_complex_matrix(a))
    qb = orthonormal_basis(_as_complex_matrix(b))
    if qa.shape[1] == 0 or qb.shape[1] == 0:
        return float(np.pi / 2)
    sigma = np.linalg.svd(qa.conj().T @ qb, compute_uv=False)
    cos_theta = float(np.clip(sigma.max(), -1.0, 1.0))
    return float(np.arccos(cos_theta))


def is_in_subspace(vector: np.ndarray, basis: np.ndarray, tol: float = 1e-8) -> bool:
    """Return ``True`` if ``vector`` lies (numerically) inside the span of
    the columns of ``basis``."""
    v = np.asarray(vector, dtype=complex).reshape(-1)
    norm = np.linalg.norm(v)
    if norm == 0:
        return True
    residual = project_out_subspace(v, basis)
    return float(np.linalg.norm(residual)) <= tol * max(1.0, norm)
