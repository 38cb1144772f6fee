"""Domain types: signal classes, problem dimensions and penalties.

The detection problem observes x = s + n (signal present) or x = n
(noise only), where s is one of I known deterministic signals collected
row-wise in an I x N matrix S. The paper's design objective is
Tr(W Omega W^T) with Omega = S^T S = sum_i s_i s_i^T. The package never
forms Omega to decompose it: its nonzero eigenvalues are those of the
I x I Gram matrix S S^T, and its leading eigenvectors are the leading
right singular vectors of S.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .linalg import sym_eig


class Penalty(enum.Enum):
    """Row-sparsity penalty applied to the collaboration matrix."""

    NONE = "none"
    L0 = "l0"
    L1 = "l1"


@dataclass(frozen=True)
class SignalClass:
    """The I known deterministic signals, stacked as an I x N matrix."""

    signals: np.ndarray

    def __post_init__(self) -> None:
        s = np.atleast_2d(np.asarray(self.signals, dtype=float))
        if s.ndim != 2 or s.shape[0] < 1 or s.shape[1] < 1:
            raise ValueError(f"signals must be a nonempty 2-D array, got shape {s.shape}")
        if not np.isfinite(s).all():
            raise ValueError("signals must be finite")
        object.__setattr__(self, "signals", s)

    @property
    def count(self) -> int:
        return self.signals.shape[0]

    @property
    def dimension(self) -> int:
        return self.signals.shape[1]

    @property
    def energy(self) -> float:
        """Sum of squared signal norms, the Cauchy-Schwarz ceiling on C-DC."""
        return float(np.sum(self.signals * self.signals))

    @property
    def spectrum(self) -> np.ndarray:
        """Eigenvalues of the I x I matrix S S^T, descending.

        S S^T and Omega = S^T S share every nonzero eigenvalue, so the sum
        of the first M entries is the cost-free optimum C-DC for any M.
        """
        return sym_eig(self.signals @ self.signals.T).values


@dataclass(frozen=True)
class DesignSpec:
    """Dimensions and penalty weights for one collaboration design.

    gammas holds the per-row cost penalties, zero by default.
    """

    N: int
    M: int
    gammas: np.ndarray = field(default=None)  # type: ignore[assignment]
    penalty: Penalty = Penalty.NONE

    def __post_init__(self) -> None:
        if not (1 <= self.M <= self.N):
            raise ValueError(f"need 1 <= M <= N, got M={self.M}, N={self.N}")
        g = self.gammas
        g = np.zeros(self.M) if g is None else np.asarray(g, dtype=float) * np.ones(self.M)
        if g.shape != (self.M,):
            raise ValueError(f"gammas must have length M={self.M}")
        if not (g >= 0).all():
            raise ValueError("penalties must be nonnegative")
        object.__setattr__(self, "gammas", g)


def generate_signal_class(I: int, N: int, seed) -> SignalClass:
    """Draw an I x N signal class with i.i.d. standard-normal entries.

    Deterministic for a fixed seed; seed may be anything accepted by
    numpy's default_rng (integer or tuple).
    """
    if I < 1 or N < 1:
        raise ValueError(f"need I >= 1 and N >= 1, got I={I}, N={N}")
    rng = np.random.default_rng(seed)
    return SignalClass(signals=rng.standard_normal((I, N)))

