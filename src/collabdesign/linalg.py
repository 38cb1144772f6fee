"""Dense linear-algebra kernels used by every other module.

The polar factor (the Stiefel-manifold projection step of the generalized
power method), an orthonormal basis of a row space, and the leading right
singular vectors of a matrix. The thin SVD is the package's only matrix
factorization: no eigendecomposition runs anywhere.
"""
from __future__ import annotations

import numpy as np

from .errors import RankDeficient


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


def leading_rows(x: np.ndarray, m: int) -> np.ndarray:
    """The m leading right singular vectors of x, as m orthonormal rows.

    They come from row_basis(x), in descending order of singular value. Rows
    past the numerical rank of x are completed one at a time: the unit
    residual of the coordinate vector e_j that the rows so far cover least
    (smallest column norm, lowest j on ties), orthogonalized twice. With k
    rows so far its squared norm is at least (n - k) / n, and the work is
    O(m^2 n): no n x n matrix is formed. Each row's first nonzero
    coordinate is then made positive. Requires m <= n for an n-column x.
    """
    rows = row_basis(x)[:m]
    while rows.shape[0] < m:
        j = int(np.argmin(np.einsum("ij,ij->j", rows, rows)))
        v = -(rows.T @ rows[:, j])
        v[j] += 1.0
        v -= rows.T @ (rows @ v)
        rows = np.vstack([rows, v / np.linalg.norm(v)])
    for k, row in enumerate(rows):
        nz = np.nonzero(np.abs(row) > 1e-12 * max(1.0, np.abs(row).max()))[0]
        if nz.size and row[nz[0]] < 0:
            rows[k] = -row
    return rows
