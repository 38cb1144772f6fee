"""Dense linear-algebra kernels used by every other module.

Symmetric eigendecomposition with deterministic ordering, the polar factor
(the Stiefel-manifold projection step of the generalized power method) and
an orthonormal basis of a row space.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotSymmetric, RankDeficient

# Relative eigenvalue gap below which two eigenvalues count as tied.
TIE_TOL = 1e-10


@dataclass(frozen=True)
class EigenPairs:
    """Full spectral decomposition of a symmetric matrix.

    values are sorted descending; column k of vectors is the unit
    eigenvector belonging to values[k].
    """

    values: np.ndarray
    vectors: np.ndarray

    def top(self, m: int) -> np.ndarray:
        """Return the leading m eigenvectors as columns (N x m)."""
        return self.vectors[:, :m]


def _canonicalize_columns(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its first nonzero coordinate is positive."""
    out = vectors.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        nz = np.nonzero(np.abs(col) > 1e-12 * max(1.0, np.abs(col).max()))[0]
        if nz.size and col[nz[0]] < 0:
            out[:, k] = -col
    return out


def sym_eig(matrix: np.ndarray) -> EigenPairs:
    """Spectral decomposition with descending eigenvalues.

    Ordering is deterministic even for (near-)degenerate spectra: within a
    tied group (gap below TIE_TOL relative to the largest magnitude
    eigenvalue) vectors are sign-canonicalized and sorted by the index of
    their largest-magnitude coordinate.

    Raises
    ------
    NotSymmetric
        If the input deviates from its transpose by more than 1e-9 relative.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {a.shape}")
    scale = max(1.0, float(np.abs(a).max()))
    if float(np.abs(a - a.T).max()) > 1e-9 * scale:
        raise NotSymmetric("matrix is not symmetric within 1e-9 relative")
    a = 0.5 * (a + a.T)
    vals, vecs = np.linalg.eigh(a)
    order = np.argsort(vals, kind="stable")[::-1]
    vals = vals[order]
    vecs = _canonicalize_columns(vecs[:, order])
    # stable ordering inside tied groups
    n = vals.size
    gap_tol = TIE_TOL * max(1.0, float(np.abs(vals).max()))
    k = 0
    while k < n:
        j = k + 1
        while j < n and abs(vals[j - 1] - vals[j]) <= gap_tol:
            j += 1
        if j - k > 1:
            block = vecs[:, k:j]
            keys = [int(np.argmax(np.abs(block[:, c]))) for c in range(j - k)]
            perm = np.argsort(keys, kind="stable")
            vecs[:, k:j] = block[:, perm]
        k = j
    return EigenPairs(values=vals, vectors=vecs)


def polar_factor(g: np.ndarray) -> np.ndarray:
    """Polar factor U = G(G^T G)^{-1/2} of a tall matrix G.

    U has orthonormal columns and maximizes trace(U^T G) over the Stiefel
    manifold. Computed through the SVD for stability.

    Raises
    ------
    RankDeficient
        If the smallest singular value is below 1e-12 times the largest.
    """
    g = np.asarray(g, dtype=float)
    p, sv, qt = np.linalg.svd(g, full_matrices=False)
    if sv[0] == 0.0 or sv[-1] < 1e-12 * sv[0]:
        raise RankDeficient("polar factor undefined: rank-deficient input")
    return p @ qt


def row_basis(w: np.ndarray) -> np.ndarray:
    """Orthonormal basis B (r x N) of the row span of W, at numerical rank.

    Zero rows (fully deactivated sensors) contribute nothing and are
    dropped; dependent rows collapse onto their span, keeping the right
    singular vectors whose singular value exceeds 1e-12 times the largest.
    An all-zero W yields a 0 x N basis. The projection of s onto the row
    span is P_w s = B^T (B s), and ||P_w s||^2 = ||B s||^2.
    """
    w = np.atleast_2d(np.asarray(w, dtype=float))
    alive = w[np.abs(w).max(axis=1) > 0.0]
    if alive.shape[0] == 0:
        return np.zeros((0, w.shape[1]))
    _, sv, vt = np.linalg.svd(alive, full_matrices=False)
    return vt[sv > 1e-12 * sv[0]]

