"""Performance and cost metrics for collaboration designs.

The central quantity is the cumulative deflection coefficient
C-DC = sum_i ||P_w s_i||^2, the summed squared norms of the signals after
orthogonal projection onto the row span of W. When W has full row rank this
equals sum_i s_i^T W^T (W W^T)^{-1} W s_i. Zero rows and rows that depend
on the others do not change the span, so they do not change the C-DC.
Cost of universality normalizes it by the per-signal-optimal total
sum_i ||s_i||^2, and cost of collaboration is the total penalty weight
sum_i |gamma_i|.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ZeroSignalClass
from .linalg import row_basis
from .model import DesignSpec, SignalClass


def _weights(w) -> np.ndarray:
    """Accept either a raw matrix or an object carrying one in .W."""
    return np.atleast_2d(np.asarray(getattr(w, "W", w), dtype=float))


@dataclass(frozen=True)
class MetricsReport:
    """Flat record of every metric for one design, ready to serialize."""

    cdc: float
    per_signal_dc: np.ndarray
    cdc_upper_bound: float
    cost_universality: float
    cost_collaboration: float
    active_link_ratio: float
    normalized_cdc: float

    def as_dict(self) -> dict:
        out = {
            "cdc": self.cdc,
            "cdc_upper_bound": self.cdc_upper_bound,
            "cost_universality": self.cost_universality,
            "cost_collaboration": self.cost_collaboration,
            "active_link_ratio": self.active_link_ratio,
            "normalized_cdc": self.normalized_cdc,
        }
        for i, v in enumerate(self.per_signal_dc):
            out[f"dc_{i}"] = float(v)
        return out


def cumulative_dc(w, signal_class: SignalClass) -> tuple[float, np.ndarray]:
    """C-DC and the per-signal deflection coefficients ||P_w s_i||^2."""
    coords = signal_class.signals @ row_basis(_weights(w)).T
    per_signal = np.einsum("ij,ij->i", coords, coords)
    return float(per_signal.sum()), per_signal


def cost_of_universality(w, signal_class: SignalClass) -> float:
    """C-DC divided by the per-signal-optimal total sum_i ||s_i||^2."""
    total = signal_class.energy
    if total == 0.0:
        raise ZeroSignalClass("cost of universality undefined for all-zero signals")
    cdc, _ = cumulative_dc(w, signal_class)
    return min(cdc / total, 1.0)


def cost_of_collaboration(spec: DesignSpec) -> float:
    """Total penalty weight sum_i |gamma_i|."""
    return float(np.sum(np.abs(spec.gammas)))


def active_link_ratio(w) -> float:
    """Fraction of entries of W that are nonzero.

    The percentage of deactivated links is 1 minus this value; a link is
    deactivated exactly when its entry is zero, as the sparse recoveries
    write it.
    """
    mat = _weights(w)
    return float(np.count_nonzero(mat)) / mat.size


def metrics_report(w, signal_class: SignalClass, spec: DesignSpec) -> MetricsReport:
    """Assemble the full metric record for one design.

    normalized_cdc divides C-DC by the cost-free optimum for the same M
    (the sum of the M largest eigenvalues of Omega).
    """
    mat = _weights(w)
    cdc, per_signal = cumulative_dc(mat, signal_class)
    upper = signal_class.energy
    cdc_opt = float(np.sum(signal_class.spectrum[: mat.shape[0]]))
    return MetricsReport(
        cdc=cdc,
        per_signal_dc=per_signal,
        cdc_upper_bound=upper,
        cost_universality=min(cdc / upper, 1.0) if upper > 0 else 0.0,
        cost_collaboration=cost_of_collaboration(spec),
        active_link_ratio=active_link_ratio(mat),
        normalized_cdc=min(cdc / cdc_opt, 1.0) if cdc_opt > 0 else 0.0,
    )
