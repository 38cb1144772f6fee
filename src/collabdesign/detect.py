"""Detection operating characteristics for a designed combining matrix.

The fusion center receives y = W x and tests H0: x = n against
H1: x = s + n with n ~ N(0, sigma^2 I). The per-signal matched statistic in
the projected space is T = (P_w s)^T x, computable from y alone. Its
deflection d = ||P_w s|| / sigma fixes the whole ROC,
pd = Q(Q^{-1}(pfa) - d), and (sigma d)^2 is the signal's deflection
coefficient, the term of the C-DC that the designs maximize.
simulate_detection computes d once per signal, from one factorization of W.
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


# Columns of a detection table: the seed, then the fields of DetectionResult.as_dict.
DETECTION_COLUMNS = (
    "seed",
    "signal_index",
    "pfa",
    "deflection_root",
    "pd_closed_form",
    "pd_monte_carlo",
    "trials",
    "ci_half_width",
)


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
        return {name: getattr(self, name) for name in DETECTION_COLUMNS[1:]}


def pd_closed_form(deflection: float, pfa: float) -> float:
    """Power of the matched test at false-alarm rate pfa: Q(Q^{-1}(pfa) - d).

    d = ||P_w s|| / sigma is the deflection: the statistic normalized by its
    standard deviation is Gaussian with unit variance under both hypotheses,
    and its mean moves from 0 to d, so d fixes the whole ROC.
    """
    if not (0.0 < pfa < 1.0):
        raise ValueError(f"pfa must lie in (0, 1), got {pfa}")
    return _q_tail(_q_tail_inv(pfa) - deflection)


def simulate_detection(
    w,
    signal_class: SignalClass,
    signal_index: int,
    sigma: float = 1.0,
    pfa: float = 0.05,
    trials: int = 100_000,
    seed=None,
) -> DetectionResult:
    """Closed-form power and a Monte-Carlo estimate for one signal of the class.

    W is factored once: with B = row_basis(W), the matched statistic
    T = (P_w s)^T x is Gaussian with standard deviation sigma ||B s|| and
    mean 0 under H0 and ||B s||^2 under H1. One deflection
    d = ||B s|| / sigma gives deflection_root and pd_closed_form, and sets
    the H1 draws. The threshold sigma ||B s|| Q^{-1}(pfa) has false-alarm
    rate exactly pfa, so only H1 is simulated: trials/2 values of T,
    O(trials) work whatever N, and pd is the fraction above the threshold.
    When the statistic is degenerate (P_w s = 0 or W = 0) the calibrated
    test is a data-independent coin that rejects with probability pfa.
    """
    if trials < 100:
        raise ValueError(f"need at least 100 trials, got {trials}")
    if not (sigma > 0.0):
        raise ValueError(f"sigma must be positive, got {sigma}")
    s = np.asarray(signal_class.signals[signal_index], dtype=float)
    scale = float(np.linalg.norm(row_basis(_weights(w)) @ s))
    d = scale / sigma
    closed = pd_closed_form(d, pfa)

    rng = np.random.default_rng(seed)
    per_hyp = trials // 2
    if scale == 0.0:
        detect_h1 = rng.random(per_hyp) < pfa
    else:
        # P_w s lies in the row span of W, so T is a function of y = W x
        # alone. Only H1 is drawn: the threshold is analytic.
        t_h1 = scale * scale + (sigma * scale) * rng.standard_normal(per_hyp)
        detect_h1 = t_h1 > sigma * scale * _q_tail_inv(pfa)
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
