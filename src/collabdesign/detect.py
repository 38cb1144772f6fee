"""Detection operating characteristics for a designed combining matrix.

The fusion center receives y = W x and tests H0: x = n against
H1: x = s + n with n ~ N(0, sigma^2 I). The per-signal matched statistic in
the projected space is T = (P_w s)^T x, computable from y alone; its
deflection d = ||P_w s|| / sigma fixes the whole ROC, which is why the
design objective optimizes deflection.
"""
from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .linalg import row_basis
from .metrics import _weights
from .model import SignalClass

_NORMAL = NormalDist()


def _q_tail(x: float) -> float:
    """Standard normal upper-tail probability Q(x)."""
    return _NORMAL.cdf(-x)


def _q_tail_inv(p: float) -> float:
    """Inverse of Q; Q(_q_tail_inv(p)) = p for p in (0, 1)."""
    return -_NORMAL.inv_cdf(p)


@dataclass(frozen=True)
class DetectionResult:
    """Closed-form and Monte-Carlo detection power at a fixed false-alarm rate."""

    pfa: float
    pd_closed_form: float
    pd_monte_carlo: float
    trials: int
    ci_half_width: float
    signal_index: int
    deflection_root: float

    def __post_init__(self) -> None:
        gap = abs(self.pd_closed_form - self.pd_monte_carlo)
        if gap > 3.0 * self.ci_half_width:
            raise ValueError(
                f"Monte-Carlo pd {self.pd_monte_carlo:.6f} inconsistent with "
                f"closed form {self.pd_closed_form:.6f} (gap {gap:.2e} > "
                f"3 x {self.ci_half_width:.2e})"
            )

    def as_dict(self) -> dict[str, float | int]:
        return {
            "signal_index": self.signal_index,
            "pfa": self.pfa,
            "deflection_root": self.deflection_root,
            "pd_closed_form": self.pd_closed_form,
            "pd_monte_carlo": self.pd_monte_carlo,
            "trials": self.trials,
            "ci_half_width": self.ci_half_width,
        }


def pd_closed_form(w, s: np.ndarray, sigma: float, pfa: float) -> float:
    """Power of the matched test at false-alarm rate pfa.

    With d = ||P_w s|| / sigma the test statistic is Gaussian with unit
    deflection gap d, so pd = Q(Q^{ -1}(pfa) - d).
    """
    if not (0.0 < pfa < 1.0):
        raise ValueError(f"pfa must lie in (0, 1), got {pfa}")
    if not (sigma > 0.0):
        raise ValueError(f"sigma must be positive, got {sigma}")
    coords = row_basis(_weights(w)) @ np.asarray(s, dtype=float)
    d = float(np.linalg.norm(coords)) / sigma
    return _q_tail(_q_tail_inv(pfa) - d)


def simulate_detection(
    w,
    signal_class: SignalClass,
    signal_index: int,
    sigma: float = 1.0,
    pfa: float = 0.05,
    trials: int = 100_000,
    seed=None,
    threshold: str = "analytic",
) -> DetectionResult:
    """Monte-Carlo power estimate for one signal of the class.

    The matched statistic T = p^T x, p = P_w s, is Gaussian with standard
    deviation sigma ||p|| and mean 0 under H0 and s^T p = ||p||^2 under H1.
    trials/2 values of T are drawn under each hypothesis, O(trials) work
    whatever N, and thresholded either at the analytic level (default) or
    at the empirical H0 quantile. When the statistic is degenerate
    (P_w s = 0 or W = 0) the calibrated test is a data-independent coin
    that rejects with probability pfa.
    """
    if trials < 100:
        raise ValueError(f"need at least 100 trials, got {trials}")
    if threshold not in ("analytic", "empirical"):
        raise ValueError(f"unknown threshold mode {threshold!r}")
    wm = np.asarray(_weights(w), dtype=float)
    s = np.asarray(signal_class.signals[signal_index], dtype=float)
    basis = row_basis(wm)
    p = basis.T @ (basis @ s)
    scale = float(np.linalg.norm(p))
    d = scale / sigma
    closed = pd_closed_form(wm, s, sigma, pfa)

    rng = np.random.default_rng(seed)
    per_hyp = trials // 2
    if scale == 0.0:
        detect_h1 = rng.random(per_hyp) < pfa
    else:
        # p = P_w s lies in the row span of W, so T = p^T x is a function of
        # y = W x alone.
        t_h0 = (sigma * scale) * rng.standard_normal(per_hyp)
        t_h1 = scale * scale + (sigma * scale) * rng.standard_normal(per_hyp)
        if threshold == "analytic":
            tau = sigma * scale * _q_tail_inv(pfa)
        else:
            tau = float(np.quantile(t_h0, 1.0 - pfa))
        detect_h1 = t_h1 > tau
    pd_hat = float(np.mean(detect_h1))
    half = 1.96 * float(np.sqrt(max(pd_hat * (1.0 - pd_hat), 1.0 / per_hyp) / per_hyp))
    return DetectionResult(
        pfa=pfa,
        pd_closed_form=closed,
        pd_monte_carlo=pd_hat,
        trials=2 * per_hyp,
        ci_half_width=half,
        signal_index=signal_index,
        deflection_root=d,
    )
