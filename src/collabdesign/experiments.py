"""Config-driven reproduction of the reported experiments.

Each run_* function maps a RunConfig to plot-ready rows. Work is split into
independent per-seed cells, run and aggregated in seed order.

Sweeps can request more combining rows than the class has signals (or fewer
signals than rows). The Stiefel variable caps the solvable row count at
min(M, I); the remaining rows are structurally inactive and count as
deactivated links, exactly as the M x N accounting in the deactivation
fraction implies. The per-solve target below compensates for those rows.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .design import (
    CollaborationMatrix,
    design_cost_free,
    design_diagonal_shortcut,
    design_random,
    random_baseline_prediction,
)
from .detect import simulate_detection
from .errors import ConfigError
from .metrics import _weights, cost_of_collaboration, cumulative_dc, metrics_report
from .model import DesignSpec, Penalty, SignalClass, build_omega, generate_signal_class
from .runconfig import RunConfig
from .sparse import SparseSolution, calibrate_gamma, design_path, design_sparse

DEFAULT_DEACTIVATION_TARGET = 0.4
_SPARSE_PENALTIES = (Penalty.L0, Penalty.L1)


@dataclass(frozen=True)
class ExperimentTable:
    """Plot-ready rows plus the scalar read-offs worth recording."""

    columns: tuple[str, ...]
    rows: tuple[dict, ...]
    summary: dict


def effective_row_target(total_target: float, m_total: int, m_eff: int) -> float:
    """Deactivation target for the solved m_eff x N block.

    The m_total - m_eff structurally inactive rows already contribute
    (m_total - m_eff) * N zeros to the M x N count, so the solved block only
    needs to make up the remainder (never less than a dense block).
    """
    if m_eff >= m_total:
        return total_target
    needed = total_target * m_total - (m_total - m_eff)
    return max(0.0, needed / m_eff)


def calibrated_sparse_design(
    signal_class: SignalClass,
    m: int,
    penalty: Penalty,
    target: float,
    y_diag=None,
) -> tuple[float, SparseSolution]:
    """Calibrate gamma on the solvable min(m, I)-row block."""
    m_eff = min(m, signal_class.count)
    block_target = effective_row_target(target, m, m_eff)
    spec = DesignSpec(
        N=signal_class.dimension, M=m_eff, penalty=penalty, y_diag=y_diag
    )
    return calibrate_gamma(signal_class.signals, spec, block_target, penalty)


def run_fig2(config: RunConfig) -> ExperimentTable:
    """Mean C-DC versus the number of combining rows M, one column per method."""
    m_values = config.m_values or tuple(range(2, config.n + 1))
    target = (
        DEFAULT_DEACTIVATION_TARGET
        if config.target_deactivation is None
        else config.target_deactivation
    )

    def one_seed(seed: int) -> dict:
        cls = generate_signal_class(config.i, config.n, seed)
        lam = cls.spectrum
        cell: dict = {}
        cache: dict = {}
        for m in m_values:
            opt = float(np.sum(lam[:m]))
            m_eff = min(m, config.i)
            block_target = effective_row_target(target, m, m_eff)
            sparse_cdc = {}
            for pen in _SPARSE_PENALTIES:
                key = (m_eff, block_target, pen)
                if key not in cache:
                    spec = DesignSpec(N=config.n, M=m_eff, penalty=pen)
                    _, sol = calibrate_gamma(cls.signals, spec, block_target, pen)
                    cache[key] = cumulative_dc(sol.W, cls)[0]
                sparse_cdc[pen] = cache[key]
            draws = [
                cumulative_dc(
                    design_random(DesignSpec(N=config.n, M=m), seed=(seed, m, k)), cls
                )[0]
                for k in range(config.random_draws)
            ]
            cell[m] = (
                opt,
                sparse_cdc[Penalty.L0],
                sparse_cdc[Penalty.L1],
                float(np.mean(draws)),
                random_baseline_prediction(cls, m),
            )
        return cell

    cells = [one_seed(s) for s in config.seeds]
    columns = ("M", "cdc_opt", "cdc_l0", "cdc_l1", "cdc_random", "cdc_random_prediction")
    rows = []
    for m in m_values:
        stacked = np.array([c[m] for c in cells])
        means = stacked.mean(axis=0)
        rows.append(dict(zip(columns, (m, *map(float, means)))))
    summary = {"target_deactivation": target, "seed_count": len(config.seeds)}
    return ExperimentTable(columns=columns, rows=tuple(rows), summary=summary)


def run_fig3(config: RunConfig) -> ExperimentTable:
    """Mean cost of universality versus class size I.

    Classes are nested across I for a fixed seed (standard-normal draws fill
    row-major, so the I-signal class is a prefix of the larger one), which
    keeps the sweep comparable seedwise.
    """
    i_values = config.i_values or tuple(range(2, config.n + 1))
    target = (
        DEFAULT_DEACTIVATION_TARGET
        if config.target_deactivation is None
        else config.target_deactivation
    )

    def one_seed(seed: int) -> dict:
        cell = {}
        for i_val in i_values:
            cls = generate_signal_class(i_val, config.n, seed)
            energy = cls.energy
            w_opt = design_cost_free(build_omega(cls), config.m)
            cu_opt = min(cumulative_dc(w_opt, cls)[0] / energy, 1.0)
            cu_pen = {}
            for pen in _SPARSE_PENALTIES:
                _, sol = calibrated_sparse_design(cls, config.m, pen, target)
                cu_pen[pen] = min(cumulative_dc(sol.W, cls)[0] / energy, 1.0)
            cell[i_val] = (cu_opt, cu_pen[Penalty.L0], cu_pen[Penalty.L1])
        return cell

    cells = [one_seed(s) for s in config.seeds]
    columns = ("I", "cu_opt", "cu_l0", "cu_l1")
    rows = []
    for i_val in i_values:
        stacked = np.array([c[i_val] for c in cells])
        means = stacked.mean(axis=0)
        rows.append(dict(zip(columns, (i_val, *map(float, means)))))
    summary = {"target_deactivation": target, "seed_count": len(config.seeds)}
    return ExperimentTable(columns=columns, rows=tuple(rows), summary=summary)


def read_at_deactivation(deactivation, values, target: float = 0.4) -> float:
    """Value of a trade-off curve at a deactivation level, linearly interpolated."""
    d = np.asarray(deactivation, dtype=float)
    v = np.asarray(values, dtype=float)
    idx = np.argsort(d, kind="stable")
    d, v = d[idx], v[idx]
    if target <= d[0]:
        return float(v[0])
    for k in range(1, d.size):
        if d[k] >= target:
            if d[k] == d[k - 1]:
                return float(v[k])
            t = (target - d[k - 1]) / (d[k] - d[k - 1])
            return float(v[k - 1] + t * (v[k] - v[k - 1]))
    return float(v[-1])


def max_deactivation_at(deactivation, values, floor: float = 0.9) -> float:
    """Largest deactivation on the curve whose value still meets the floor."""
    d = np.asarray(deactivation, dtype=float)
    ok = np.asarray(values, dtype=float) >= floor
    return float(np.max(d[ok])) if np.any(ok) else 0.0


def penalty_gamma_grid(signals: np.ndarray, penalty: Penalty, points: int) -> np.ndarray:
    """Grid from 0 to a provably full-deactivation gamma.

    The hard threshold compares squared scores to gamma, so the l0 grid is
    uniform in the score amplitude sqrt(gamma); the soft threshold acts on
    the amplitude directly, so the l1 grid is uniform in gamma.
    """
    cmax = float(np.linalg.norm(np.asarray(signals, dtype=float), axis=0).max())
    t = np.linspace(0.0, 1.0, points)
    return (t * cmax) ** 2 if penalty is Penalty.L0 else t * cmax


def _penalty_merit(z: np.ndarray, penalty: Penalty) -> float:
    """The achieved coupling of the recovered raw scores, before row scaling.

    For the hard threshold this is the squared-diagonal coupling
    sum_i ||z_i||^4; for the soft threshold it is the attained objective
    ||Z||_F^2. Each penalty's variational problem scores its own recovery;
    at gamma = 0 both equal their cost-free ceiling, giving 1 after
    normalization.
    """
    if penalty is Penalty.L0:
        row_power = np.sum(z * z, axis=1)
        return float(np.sum(row_power * row_power))
    return float(np.sum(z * z))


def run_fig4(config: RunConfig) -> ExperimentTable:
    """Deactivation/performance trade-off curves, one per penalty.

    normalized_cdc is each penalty's merit normalized to its gamma = 0
    value; span_normalized_cdc is the subspace C-DC of the unit-row design
    against the cost-free optimum, reported alongside because row spans
    saturate well before the per-row couplings do.
    """

    def one_seed(seed: int) -> dict:
        cls = generate_signal_class(config.i, config.n, seed)
        opt = float(np.sum(cls.spectrum[: min(config.m, config.i)]))
        out = {}
        for pen in _SPARSE_PENALTIES:
            grid = penalty_gamma_grid(cls.signals, pen, config.grid_points)
            deact = np.empty(grid.size)
            native = np.empty(grid.size)
            span = np.empty(grid.size)
            spec = DesignSpec(N=config.n, M=min(config.m, config.i), penalty=pen)
            for k, sol in enumerate(design_path(cls.signals, spec, grid)):
                deact[k] = sol.deactivated_ratio
                native[k] = _penalty_merit(sol.raw_scores, pen)
                span[k] = cumulative_dc(sol.W, cls)[0] / opt
            if native[0] <= 0.0:
                raise ValueError("degenerate class: zero merit at gamma = 0")
            out[pen] = (grid, deact, native / native[0], span)
        return out

    cells = [one_seed(s) for s in config.seeds]
    columns = (
        "penalty",
        "grid_index",
        "gamma",
        "deactivation_pct",
        "normalized_cdc",
        "span_normalized_cdc",
    )
    rows = []
    summary: dict = {"seed_count": len(config.seeds)}
    for pen in _SPARSE_PENALTIES:
        gammas = np.mean([c[pen][0] for c in cells], axis=0)
        deact = np.mean([c[pen][1] for c in cells], axis=0)
        ncdc = np.mean([c[pen][2] for c in cells], axis=0)
        span = np.mean([c[pen][3] for c in cells], axis=0)
        for k in range(gammas.size):
            rows.append(
                {
                    "penalty": pen.value,
                    "grid_index": k,
                    "gamma": float(gammas[k]),
                    "deactivation_pct": float(100.0 * deact[k]),
                    "normalized_cdc": float(ncdc[k]),
                    "span_normalized_cdc": float(span[k]),
                }
            )
        summary[f"{pen.value}_normalized_cdc_at_40pct_deactivation"] = read_at_deactivation(
            deact, ncdc, 0.40
        )
        summary[f"{pen.value}_max_deactivation_pct_at_normalized_cdc_0.9"] = 100.0 * (
            max_deactivation_at(deact, ncdc, 0.90)
        )
    return ExperimentTable(columns=columns, rows=tuple(rows), summary=summary)


def build_design(config: RunConfig, signal_class: SignalClass, seed) -> tuple:
    """One design by the configured method; returns (matrix, spec, extras).

    A calibrated sparse design records calibration_miss_links: how far the
    solved block's count of zero links lies from its target (see
    calibrate_gamma), 1 or less unless calibration missed.
    """
    method = config.resolved_method()
    extras: dict = {"method": method}
    if method == "pca":
        w = design_cost_free(build_omega(signal_class), config.m)
        return w, DesignSpec(N=config.n, M=config.m), extras
    if method == "diagonal":
        w = design_diagonal_shortcut(build_omega(signal_class), config.m)
        return w, DesignSpec(N=config.n, M=config.m), extras
    if method == "random":
        spec = DesignSpec(N=config.n, M=config.m)
        # Seed tuple keeps the draw independent of the class generation stream.
        return design_random(spec, seed=(seed, config.m, 0)), spec, extras
    penalty = Penalty.L0 if method == "l0" else Penalty.L1
    if config.target_deactivation is not None:
        gamma, sol = calibrated_sparse_design(
            signal_class, config.m, penalty, config.target_deactivation
        )
        extras["calibrated_gamma"] = gamma
        block_target = effective_row_target(
            config.target_deactivation, config.m, sol.W.spec.M
        )
        extras["calibration_miss_links"] = sol.link_miss(block_target)
    else:
        gamma = config.gamma if config.gamma is not None else 0.0
        spec = DesignSpec(N=config.n, M=config.m, gammas=gamma, penalty=penalty)
        sol = design_sparse(signal_class.signals, spec, allow_all_dead=True)
        extras["gamma"] = gamma
    extras["achieved_deactivation"] = sol.deactivated_ratio
    extras["dead_rows"] = list(sol.dead_rows)
    extras["solver_iterations"] = sol.U.iterations
    extras["solver_converged"] = sol.U.converged
    return sol.W, sol.W.spec, extras


def _class_for(config: RunConfig, seed) -> SignalClass:
    """Signal class for one run: loaded from file when given, else generated."""
    if config.signals is None:
        return generate_signal_class(config.i, config.n, seed)
    from .persist import read_signals_csv

    cls = read_signals_csv(config.signals)
    if cls.dimension != config.n:
        raise ConfigError(
            f"signals file has {cls.dimension} columns but n={config.n}"
        )
    return cls


def run_single_design(config: RunConfig) -> dict:
    """One design with its metrics; the artifact set for the design verb."""
    seed = config.seeds[0]
    cls = _class_for(config, seed)
    w, spec, extras = build_design(config, cls, seed)
    report = metrics_report(w, cls, spec)
    artifacts = {
        "W": np.asarray(_weights(w), dtype=float),
        "metrics": report.as_dict(),
        "summary": {**extras, "seed": seed, "cost_of_collaboration": cost_of_collaboration(spec)},
        "detection_rows": None,
    }
    if config.signal_index is not None:
        result = simulate_detection(
            w,
            cls,
            config.signal_index,
            sigma=config.sigma,
            pfa=config.pfa,
            trials=config.trials,
            seed=(seed, config.signal_index),
        )
        artifacts["detection_rows"] = [{"seed": seed, **result.as_dict()}]
    return artifacts


def run_detect(config: RunConfig) -> ExperimentTable:
    """Closed-form and Monte-Carlo detection power for the configured design.

    For a calibrated sparse design the summary holds the largest
    calibration_miss_links over the seeds.
    """
    misses = []

    def one_seed(seed: int) -> list[dict]:
        cls = _class_for(config, seed)
        w, _, extras = build_design(config, cls, seed)
        if "calibration_miss_links" in extras:
            misses.append(extras["calibration_miss_links"])
        indices = (
            [config.signal_index]
            if config.signal_index is not None
            else list(range(cls.count))
        )
        rows = []
        for idx in indices:
            result = simulate_detection(
                w,
                cls,
                idx,
                sigma=config.sigma,
                pfa=config.pfa,
                trials=config.trials,
                seed=(seed, idx),
            )
            rows.append({"seed": seed, **result.as_dict()})
        return rows

    cells = [one_seed(s) for s in config.seeds]
    rows = [row for cell in cells for row in cell]
    columns = (
        "seed",
        "signal_index",
        "pfa",
        "deflection_root",
        "pd_closed_form",
        "pd_monte_carlo",
        "trials",
        "ci_half_width",
    )
    summary = {"trials": config.trials, "sigma": config.sigma, "pfa": config.pfa}
    if misses:
        summary["calibration_miss_links"] = max(misses)
    return ExperimentTable(columns=columns, rows=tuple(rows), summary=summary)
