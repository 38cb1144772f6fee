"""Config-driven reproduction of the reported experiments.

Each run_* function maps a RunConfig to plot-ready rows. It loops over the
seeds in order, and the figure runners average the per-seed values of each
row over the seeds.

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
    design_cost_free,
    design_diagonal_shortcut,
    design_random,
    random_baseline_prediction,
)
from .detect import DETECTION_COLUMNS, simulate_detection
from .errors import ConfigError
from .metrics import (
    _weights,
    cost_of_collaboration,
    cost_of_universality,
    cumulative_dc,
    metrics_report,
)
from .model import DesignSpec, Penalty, SignalClass, generate_signal_class
from .runconfig import RunConfig
from .sparse import SparseSolution, calibrate_gamma, design_path, design_sparse, gamma_ceiling

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
) -> tuple[float, SparseSolution, float]:
    """Calibrate gamma on the solvable min(m, I)-row block.

    Returns (gamma, solution, miss): miss is the solution's
    calibration_miss_links, the distance in links of its count of zero
    links from the block target (see calibrate_gamma).
    """
    m_eff = min(m, signal_class.count)
    block_target = effective_row_target(target, m, m_eff)
    spec = DesignSpec(N=signal_class.dimension, M=m_eff, penalty=penalty)
    gamma, sol = calibrate_gamma(signal_class.signals, spec, block_target)
    return gamma, sol, sol.link_miss(block_target)


def _deactivation_target(config: RunConfig) -> float:
    if config.target_deactivation is None:
        return DEFAULT_DEACTIVATION_TARGET
    return config.target_deactivation


def _seed_mean_table(
    columns, keys, per_key: dict, target: float, seed_count: int
) -> ExperimentTable:
    """One row per entry of keys: the key, then the means over seeds of its value tuples.

    keys is the configured sweep, which may repeat a value; per_key holds
    the per-seed tuples of each distinct value.
    """
    rows = tuple(
        dict(zip(columns, (key, *map(float, np.mean(per_key[key], axis=0))))) for key in keys
    )
    summary = {"target_deactivation": target, "seed_count": seed_count}
    return ExperimentTable(columns=columns, rows=rows, summary=summary)


def run_fig2(config: RunConfig) -> ExperimentTable:
    """Mean C-DC versus the number of combining rows M, one column per method."""
    m_values = config.m_values or tuple(range(2, config.n + 1))
    target = _deactivation_target(config)
    per_m: dict = {m: [] for m in m_values}
    for seed in config.seeds:
        cls = generate_signal_class(config.i, config.n, seed)
        lam = cls.spectrum
        cache: dict = {}
        for m in per_m:
            m_eff = min(m, config.i)
            sparse_cdc = {}
            for pen in _SPARSE_PENALTIES:
                key = (m_eff, effective_row_target(target, m, m_eff), pen)
                if key not in cache:
                    _, sol, _ = calibrated_sparse_design(cls, m, pen, target)
                    cache[key] = cumulative_dc(sol.W, cls)[0]
                sparse_cdc[pen] = cache[key]
            draws = [
                cumulative_dc(
                    design_random(DesignSpec(N=config.n, M=m), seed=(seed, m, k)), cls
                )[0]
                for k in range(config.random_draws)
            ]
            per_m[m].append((
                float(np.sum(lam[:m])),
                sparse_cdc[Penalty.L0],
                sparse_cdc[Penalty.L1],
                float(np.mean(draws)),
                random_baseline_prediction(cls, m),
            ))
    columns = ("M", "cdc_opt", "cdc_l0", "cdc_l1", "cdc_random", "cdc_random_prediction")
    return _seed_mean_table(columns, m_values, per_m, target, len(config.seeds))


def run_fig3(config: RunConfig) -> ExperimentTable:
    """Mean cost of universality versus class size I.

    Classes are nested across I for a fixed seed (standard-normal draws fill
    row-major, so the I-signal class is a prefix of the larger one), which
    keeps the sweep comparable seedwise.
    """
    i_values = config.i_values or tuple(range(2, config.n + 1))
    target = _deactivation_target(config)
    per_i: dict = {i_val: [] for i_val in i_values}
    for seed in config.seeds:
        for i_val in per_i:
            cls = generate_signal_class(i_val, config.n, seed)
            cu = [cost_of_universality(design_cost_free(cls, config.m), cls)]
            for pen in _SPARSE_PENALTIES:
                _, sol, _ = calibrated_sparse_design(cls, config.m, pen, target)
                cu.append(cost_of_universality(sol.W, cls))
            per_i[i_val].append(tuple(cu))
    columns = ("I", "cu_opt", "cu_l0", "cu_l1")
    return _seed_mean_table(columns, i_values, per_i, target, len(config.seeds))


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
    cmax = gamma_ceiling(signals, Penalty.L1)
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
    curves: dict = {pen: [] for pen in _SPARSE_PENALTIES}
    for seed in config.seeds:
        cls = generate_signal_class(config.i, config.n, seed)
        opt = float(np.sum(cls.spectrum[: min(config.m, config.i)]))
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
            curves[pen].append((grid, deact, native / native[0], span))
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
        gammas, deact, ncdc, span = np.mean(curves[pen], axis=0)
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
        w = design_cost_free(signal_class, config.m)
        return w, DesignSpec(N=config.n, M=config.m), extras
    if method == "diagonal":
        w = design_diagonal_shortcut(signal_class, config.m)
        return w, DesignSpec(N=config.n, M=config.m), extras
    if method == "random":
        spec = DesignSpec(N=config.n, M=config.m)
        # Seed tuple keeps the draw independent of the class generation stream.
        return design_random(spec, seed=(seed, config.m, 0)), spec, extras
    penalty = Penalty.L0 if method == "l0" else Penalty.L1
    if config.target_deactivation is not None:
        gamma, sol, miss = calibrated_sparse_design(
            signal_class, config.m, penalty, config.target_deactivation
        )
        extras["calibrated_gamma"] = gamma
        extras["calibration_miss_links"] = miss
    else:
        gamma = config.gamma if config.gamma is not None else 0.0
        spec = DesignSpec(N=config.n, M=config.m, gammas=gamma, penalty=penalty)
        sol = design_sparse(signal_class.signals, spec)
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
    if config.signal_index is not None and config.signal_index >= cls.count:
        raise ConfigError(
            f"signal_index={config.signal_index} but the signals file holds {cls.count} signals"
        )
    return cls


def _detection_row(config: RunConfig, w, signal_class: SignalClass, seed, index: int) -> dict:
    """One row of DETECTION_COLUMNS: signal index of the seed's class against w."""
    result = simulate_detection(
        w,
        signal_class,
        index,
        sigma=config.sigma,
        pfa=config.pfa,
        trials=config.trials,
        seed=(seed, index),
    )
    return {"seed": seed, **result.as_dict()}


def run_single_design(config: RunConfig) -> dict:
    """One design with its metrics; the artifact set for the design verb."""
    seed = config.seeds[0]
    cls = _class_for(config, seed)
    w, spec, extras = build_design(config, cls, seed)
    report = metrics_report(w, cls, spec)
    detection_rows = None
    if config.signal_index is not None:
        detection_rows = [_detection_row(config, w, cls, seed, config.signal_index)]
    return {
        "W": np.asarray(_weights(w), dtype=float),
        "metrics": report.as_dict(),
        "summary": {**extras, "seed": seed, "cost_of_collaboration": cost_of_collaboration(spec)},
        "detection_rows": detection_rows,
    }


def run_detect(config: RunConfig) -> ExperimentTable:
    """Closed-form and Monte-Carlo detection power for the configured design.

    For a calibrated sparse design the summary holds the largest
    calibration_miss_links over the seeds.
    """
    rows, misses = [], []
    for seed in config.seeds:
        cls = _class_for(config, seed)
        w, _, extras = build_design(config, cls, seed)
        if "calibration_miss_links" in extras:
            misses.append(extras["calibration_miss_links"])
        indices = range(cls.count) if config.signal_index is None else (config.signal_index,)
        rows.extend(_detection_row(config, w, cls, seed, idx) for idx in indices)
    summary = {"trials": config.trials, "sigma": config.sigma, "pfa": config.pfa}
    if misses:
        summary["calibration_miss_links"] = max(misses)
    return ExperimentTable(columns=DETECTION_COLUMNS, rows=tuple(rows), summary=summary)
