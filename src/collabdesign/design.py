"""Collaboration-matrix construction: the cost-free optimum and baselines.

The cost-free design problem max Tr(W Omega W^T) over orthonormal-row W is
solved exactly by the M leading eigenvectors of Omega. A diagonal Omega
admits a shortcut whose off-support columns are provably irrelevant, and a
random dense W serves as the reference design whose expected C-DC is
(M/N) sum_i ||s_i||^2.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import NotDiagonal
from .linalg import row_basis, sym_eig
from .model import DesignSpec, Omega, Penalty, SignalClass


class Provenance(enum.Enum):
    PCA = "pca"
    DIAGONAL_SHORTCUT = "diagonal_shortcut"
    RANDOM = "random"
    SPARSE_L0 = "sparse_l0"
    SPARSE_L1 = "sparse_l1"
    USER_SUPPLIED = "user_supplied"


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


def design_cost_free(omega: Omega, M: int) -> CollaborationMatrix:
    """Rows of W are the M leading unit eigenvectors of Omega.

    Achieves C-DC equal to the sum of the M largest eigenvalues, the
    optimum over all full-row-rank W.
    """
    n = omega.dimension
    if not (1 <= M <= n):
        raise ValueError(f"need 1 <= M <= N={n}, got M={M}")
    pairs = sym_eig(omega.matrix)
    w = pairs.top(M).T
    spec = DesignSpec(N=n, M=M, penalty=Penalty.NONE)
    return CollaborationMatrix(W=w, provenance=Provenance.PCA, spec=spec)


def design_diagonal_shortcut(omega: Omega, M: int) -> CollaborationMatrix:
    """For diagonal Omega, pick unit rows on the M largest diagonal entries.

    Columns outside the nonzero support of the diagonal never influence
    Tr(W Omega W^T), so they are set to zero outright. Ties in the diagonal
    break toward the lower sensor index.

    Raises
    ------
    NotDiagonal
        If off-diagonal mass exceeds 1e-10 relative to the largest entry.
    """
    a = omega.matrix
    n = omega.dimension
    if not (1 <= M <= n):
        raise ValueError(f"need 1 <= M <= N={n}, got M={M}")
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
    mat = np.atleast_2d(np.asarray(getattr(w, "W", w), dtype=float))
    m, n = mat.shape
    coords = signal_class.signals @ row_basis(mat).T
    scaled = (n / m) * np.einsum("ij,ij->i", coords, coords)
    energy = np.einsum("ij,ij->i", signal_class.signals, signal_class.signals)
    return ((1.0 - delta) * energy <= scaled) & (scaled <= (1.0 + delta) * energy)
