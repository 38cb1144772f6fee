"""Collaboration-matrix construction: the cost-free optimum and baselines.

The cost-free design problem max Tr(W Omega W^T), Omega = S^T S, over
orthonormal-row W is solved exactly by the M leading eigenvectors of
Omega, which are the M leading right singular vectors of the I x N signal
matrix S; they come from the thin factorization of S, never from an N x N
decomposition. When the columns of S are mutually orthogonal (Omega
diagonal) a shortcut picks single sensors, and a random dense W serves as
the reference design whose expected C-DC is (M/N) sum_i ||s_i||^2.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import NotDiagonal
from .linalg import _canonicalize_columns, row_basis
from .metrics import _weights, cumulative_dc
from .model import DesignSpec, Penalty, SignalClass


class Provenance(enum.Enum):
    PCA = "pca"
    DIAGONAL_SHORTCUT = "diagonal_shortcut"
    RANDOM = "random"
    SPARSE_L0 = "sparse_l0"
    SPARSE_L1 = "sparse_l1"


@dataclass(frozen=True)
class CollaborationMatrix:
    """An M x N combining matrix together with how it was produced."""

    W: np.ndarray
    provenance: Provenance
    spec: DesignSpec

    def __post_init__(self) -> None:
        w = np.atleast_2d(np.asarray(self.W, dtype=float))
        if w.shape != (self.spec.M, self.spec.N):
            raise ValueError(
                f"W has shape {w.shape}, spec says {(self.spec.M, self.spec.N)}"
            )
        if self.provenance is Provenance.PCA:
            gram = w @ w.T
            if float(np.abs(gram - np.eye(w.shape[0])).max()) > 1e-9:
                raise ValueError("PCA provenance requires orthonormal rows")
        object.__setattr__(self, "W", w)

    @property
    def deactivated_ratio(self) -> float:
        return 1.0 - np.count_nonzero(self.W) / self.W.size


def _complete_rows(rows: np.ndarray, M: int) -> np.ndarray:
    """Extend r orthonormal rows to M orthonormal rows, deterministically.

    Each new row is the unit residual of the coordinate vector e_j that the
    rows so far cover least (smallest column norm, lowest j on ties),
    orthogonalized twice. With k rows so far its squared norm is at least
    (N - k) / N, and the work is O(M^2 N): no N x N matrix is formed.
    """
    while rows.shape[0] < M:
        j = int(np.argmin(np.einsum("ij,ij->j", rows, rows)))
        v = -(rows.T @ rows[:, j])
        v[j] += 1.0
        v -= rows.T @ (rows @ v)
        rows = np.vstack([rows, v / np.linalg.norm(v)])
    return rows


def design_cost_free(signal_class: SignalClass, M: int) -> CollaborationMatrix:
    """Rows of W are the M leading right singular vectors of S.

    These are the M leading unit eigenvectors of Omega = S^T S, so W
    achieves C-DC equal to the sum of the M largest eigenvalues, the
    optimum over all full-row-rank W. Each row's first nonzero coordinate
    is positive. Rows beyond the numerical rank of S span part of its null
    space (see _complete_rows) and add no C-DC.
    """
    n = signal_class.dimension
    if not (1 <= M <= n):
        raise ValueError(f"need 1 <= M <= N={n}, got M={M}")
    rows = _complete_rows(row_basis(signal_class.signals)[:M], M)
    w = _canonicalize_columns(rows.T).T
    spec = DesignSpec(N=n, M=M, penalty=Penalty.NONE)
    return CollaborationMatrix(W=w, provenance=Provenance.PCA, spec=spec)


def design_diagonal_shortcut(signal_class: SignalClass, M: int) -> CollaborationMatrix:
    """For diagonal Omega = S^T S, pick unit rows on its M largest diagonal entries.

    Columns outside the nonzero support of the diagonal never influence
    Tr(W Omega W^T), so they are set to zero outright. Ties in the diagonal
    break toward the lower sensor index.

    Raises
    ------
    NotDiagonal
        If off-diagonal mass exceeds 1e-10 relative to the largest entry.
    """
    n = signal_class.dimension
    if not (1 <= M <= n):
        raise ValueError(f"need 1 <= M <= N={n}, got M={M}")
    a = signal_class.signals.T @ signal_class.signals
    off = a - np.diag(np.diag(a))
    if float(np.abs(off).max()) > 1e-10 * max(1.0, float(np.abs(a).max())):
        raise NotDiagonal("omega has significant off-diagonal mass")
    diag = np.diag(a)
    order = np.argsort(-diag, kind="stable")[:M]
    w = np.zeros((M, n))
    for row, j in enumerate(order):
        w[row, j] = 1.0
    spec = DesignSpec(N=n, M=M, penalty=Penalty.NONE)
    return CollaborationMatrix(W=w, provenance=Provenance.DIAGONAL_SHORTCUT, spec=spec)


def design_random(spec: DesignSpec, seed) -> CollaborationMatrix:
    """Dense W with i.i.d. standard-normal entries; deterministic per seed."""
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((spec.M, spec.N))
    return CollaborationMatrix(W=w, provenance=Provenance.RANDOM, spec=spec)


def random_baseline_prediction(signal_class: SignalClass, M: int) -> float:
    """Expected C-DC of a random dense design: (M/N) sum_i ||s_i||^2."""
    n = signal_class.dimension
    if not (1 <= M <= n):
        raise ValueError(f"need 1 <= M <= N={n}, got M={M}")
    return (M / n) * signal_class.energy


def check_stable_embedding(
    w, signal_class: SignalClass, delta: float
) -> np.ndarray:
    """Per-signal test that the scaled projection preserves energy.

    Signal i passes when
    (1-delta) ||s_i||^2 <= (N/M) ||P_w s_i||^2 <= (1+delta) ||s_i||^2.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0,1), got {delta}")
    mat = _weights(w)
    m, n = mat.shape
    scaled = (n / m) * cumulative_dc(mat, signal_class)[1]
    energy = np.einsum("ij,ij->i", signal_class.signals, signal_class.signals)
    return ((1.0 - delta) * energy <= scaled) & (scaled <= (1.0 + delta) * energy)
