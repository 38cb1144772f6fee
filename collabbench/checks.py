"""Output checks made apart from the program, and the ncdc metrics read from outputs.

Nothing here imports collabdesign. Every check compares a written value
with a computation made here from the inputs (classes regenerated from
their seeds, or the signals file and the written W), or tests a property
the method must have. Each check_* returns a list of error strings; an
empty list means the outputs passed.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from statistics import NormalDist

import numpy as np

RTOL = 1e-9


def read_table(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_matrix(path: Path) -> np.ndarray:
    rows = read_table(path)
    return np.array([[float(v) for v in row.values()] for row in rows], dtype=float)


def read_signals(path) -> np.ndarray:
    with open(path, newline="") as fh:
        return np.array([[float(v) for v in row] for row in csv.reader(fh) if row], dtype=float)


def class_from_seed(seed: int, i: int, n: int) -> np.ndarray:
    """The program's documented class draw: i x n standard normals from default_rng(seed)."""
    return np.random.default_rng(seed).standard_normal((i, n))


def top_eig_sum(signals: np.ndarray, m: int) -> float:
    """Sum of the m largest eigenvalues of S^T S, via eigvalsh of the smaller Gram."""
    s = np.asarray(signals, dtype=float)
    gram = s @ s.T if s.shape[0] <= s.shape[1] else s.T @ s
    values = np.sort(np.linalg.eigvalsh(gram))[::-1]
    return float(np.sum(values[:m]))


def row_span_basis(w: np.ndarray) -> np.ndarray:
    """Orthonormal basis (rows) of the row span of W, at numerical rank."""
    active = w[np.any(w != 0.0, axis=1)]
    if active.shape[0] == 0:
        return np.zeros((0, w.shape[1]))
    _, sv, vt = np.linalg.svd(active, full_matrices=False)
    return vt[sv > 1e-10 * sv[0]]


def projected_energy(signals: np.ndarray, w: np.ndarray) -> np.ndarray:
    """||P_W s_i||^2 for every signal."""
    coeffs = signals @ row_span_basis(w).T
    return np.sum(coeffs * coeffs, axis=1)


def q_tail(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def _close(errors: list, label: str, got: float, want: float, rtol: float = RTOL,
           atol: float = 0.0) -> None:
    if not abs(got - want) <= atol + rtol * abs(want):
        errors.append(f"{label}: got {got!r}, expected {want!r}")


def check_fig2(out: Path, ctx: dict) -> list[str]:
    errors: list[str] = []
    rows = read_table(out / "fig2.csv")
    n, i = ctx["n"], ctx["i"]
    classes = [class_from_seed(s, i, n) for s in ctx["seeds"]]
    energy = float(np.mean([np.sum(s * s) for s in classes]))
    ms = [int(r["M"]) for r in rows]
    if ms != sorted(ctx["m_values"]):
        errors.append(f"fig2 M column {ms} != {sorted(ctx['m_values'])}")
        return errors
    previous = -math.inf
    for row in rows:
        m = int(row["M"])
        opt = float(row["cdc_opt"])
        _close(errors, f"fig2 M={m} cdc_opt", opt,
               float(np.mean([top_eig_sum(s, m) for s in classes])))
        _close(errors, f"fig2 M={m} cdc_random_prediction",
               float(row["cdc_random_prediction"]), (m / n) * energy)
        for col in ("cdc_l0", "cdc_l1", "cdc_random"):
            v = float(row[col])
            if not (0.0 < v <= opt * (1.0 + RTOL)):
                errors.append(f"fig2 M={m} {col}={v!r} outside (0, cdc_opt={opt!r}]")
        if m >= i:
            _close(errors, f"fig2 M={m} cdc_opt vs energy", opt, energy)
        if opt < previous * (1.0 - RTOL):
            errors.append(f"fig2 cdc_opt decreases at M={m}")
        previous = opt
    return errors


def _fig4_curves(rows: list[dict]) -> dict:
    curves: dict = {}
    for row in rows:
        curves.setdefault(row["penalty"], []).append(row)
    for pen in curves:
        curves[pen].sort(key=lambda r: int(r["grid_index"]))
    return curves


def check_fig4(out: Path, ctx: dict) -> list[str]:
    errors: list[str] = []
    curves = _fig4_curves(read_table(out / "fig4.csv"))
    if sorted(curves) != ["l0", "l1"]:
        return [f"fig4 penalties {sorted(curves)} != ['l0', 'l1']"]
    classes = [class_from_seed(s, ctx["i"], ctx["n"]) for s in ctx["seeds"]]
    cmax = np.array([np.linalg.norm(s, axis=0).max() for s in classes])
    t = np.linspace(0.0, 1.0, ctx["grid_points"])
    for pen, rows in curves.items():
        if [int(r["grid_index"]) for r in rows] != list(range(ctx["grid_points"])):
            errors.append(f"fig4 {pen}: grid_index is not 0..{ctx['grid_points'] - 1}")
            continue
        amp = t[:, None] * cmax[None, :]
        gammas = np.mean(amp * amp if pen == "l0" else amp, axis=1)
        for k, row in enumerate(rows):
            _close(errors, f"fig4 {pen}[{k}] gamma", float(row["gamma"]), float(gammas[k]),
                   atol=1e-12)
            for col in ("normalized_cdc", "span_normalized_cdc"):
                v = float(row[col])
                if not (0.0 <= v <= 1.0 + 1e-9):
                    errors.append(f"fig4 {pen}[{k}] {col}={v!r} outside [0, 1+1e-9]")
        first, last = rows[0], rows[-1]
        if float(first["deactivation_pct"]) != 0.0:
            errors.append(f"fig4 {pen}[0] deactivation_pct={first['deactivation_pct']} != 0")
        if float(last["deactivation_pct"]) != 100.0:
            errors.append(f"fig4 {pen}[-1] deactivation_pct={last['deactivation_pct']} != 100")
        for col in ("normalized_cdc", "span_normalized_cdc"):
            if abs(float(first[col]) - 1.0) > 1e-6:
                errors.append(f"fig4 {pen}[0] {col}={first[col]} is not 1 within 1e-6")
            if float(last[col]) != 0.0:
                errors.append(f"fig4 {pen}[-1] {col}={last[col]} != 0")
    return errors


def _check_detection_rows(errors: list, label: str, rows: list[dict], w: np.ndarray,
                          signals: np.ndarray, ctx: dict) -> None:
    sigma, pfa = ctx["sigma"], ctx["pfa"]
    energy = projected_energy(signals, w)
    q_inv = NormalDist().inv_cdf(1.0 - pfa)
    for row in rows:
        idx = int(row["signal_index"])
        d = math.sqrt(float(energy[idx])) / sigma
        _close(errors, f"{label} signal {idx} deflection_root", float(row["deflection_root"]), d,
               rtol=1e-8)
        pd_cf = float(row["pd_closed_form"])
        _close(errors, f"{label} signal {idx} pd_closed_form", pd_cf, q_tail(q_inv - d),
               rtol=0.0, atol=1e-9)
        gap = abs(float(row["pd_monte_carlo"]) - pd_cf)
        if gap > 3.0 * float(row["ci_half_width"]):
            errors.append(f"{label} signal {idx}: |pd_mc - pd_cf| = {gap!r} > 3 x ci_half_width")
        if int(row["trials"]) != ctx["trials"]:
            errors.append(f"{label} signal {idx}: trials {row['trials']} != {ctx['trials']}")


def check_design(out: Path, ctx: dict) -> list[str]:
    errors: list[str] = []
    label = f"design-{ctx['penalty']}"
    signals = read_signals(ctx["signals"])
    w = read_matrix(out / "design_w.csv")
    if w.shape != (ctx["m"], signals.shape[1]):
        return [f"{label}: W has shape {w.shape}"]
    for r, row in enumerate(w):
        norm = float(np.linalg.norm(row))
        if norm != 0.0 and abs(norm - 1.0) > 1e-9:
            errors.append(f"{label}: row {r} of W has norm {norm!r}, neither 1 nor 0")
    cdc = float(json.loads((out / "design_metrics.json").read_text())["cdc"])
    _close(errors, f"{label} cdc", cdc, float(np.sum(projected_energy(signals, w))), rtol=1e-8)
    bound = top_eig_sum(signals, ctx["m"])
    if cdc > bound * (1.0 + RTOL):
        errors.append(f"{label}: cdc {cdc!r} exceeds the top-M eigenvalue sum {bound!r}")
    achieved = float(np.count_nonzero(w == 0.0)) / w.size
    if abs(achieved - ctx["target"]) > ctx["tol"]:
        errors.append(f"{label}: deactivation {achieved!r} not within {ctx['tol']} of "
                      f"{ctx['target']}")
    rows = read_table(out / "design_detection.csv")
    if [int(r["signal_index"]) for r in rows] != [ctx["signal_index"]]:
        errors.append(f"{label}: detection rows are not for signal {ctx['signal_index']}")
    _check_detection_rows(errors, label, rows, w, signals, ctx)
    return errors


def check_detect(out: Path, ctx: dict) -> list[str]:
    """The cost-free detect run; its W is not written, so rebuild the PCA rows here."""
    errors: list[str] = []
    signals = read_signals(ctx["signals"])
    m = ctx["m"]
    _, _, vt = np.linalg.svd(signals, full_matrices=False)
    w_pca = vt[:m]
    rows = read_table(out / "detect.csv")
    if sorted(int(r["signal_index"]) for r in rows) != list(range(signals.shape[0])):
        return ["detect: rows do not cover every signal once"]
    _check_detection_rows(errors, "detect", rows, w_pca, signals, ctx)
    total = sum((ctx["sigma"] * float(r["deflection_root"])) ** 2 for r in rows)
    _close(errors, "detect sum of (sigma*deflection_root)^2", total, top_eig_sum(signals, m),
           rtol=1e-8)
    for r in rows:
        pd = float(r["pd_closed_form"])
        if not (0.1 < pd < 0.99):
            errors.append(f"detect signal {r['signal_index']}: pd {pd!r} outside (0.1, 0.99)")
    return errors


CHECKS = {"fig2": check_fig2, "fig4": check_fig4, "design": check_design, "detect": check_detect}


def read_at(deactivation: np.ndarray, values: np.ndarray, target: float) -> float:
    """Curve value at a deactivation level, linear between the bracketing points."""
    order = np.argsort(deactivation, kind="stable")
    d, v = deactivation[order], values[order]
    if target <= d[0]:
        return float(v[0])
    k = int(np.argmax(d >= target)) if d[-1] >= target else -1
    if k < 0:
        return float(v[-1])
    if d[k] == d[k - 1]:
        return float(v[k])
    frac = (target - d[k - 1]) / (d[k] - d[k - 1])
    return float(v[k - 1] + frac * (v[k] - v[k - 1]))


def ncdc(workload: str, outs: dict, ctx_of: dict) -> dict:
    """ncdc_l0 / ncdc_l1 of one round of a workload, from its outputs.

    outs maps op name to its output directory; ctx_of maps op name to its
    check context.
    """
    if workload == "fig4-grid":
        # One curve per class seed; the read-off is their mean.
        values: dict = {}
        for name in sorted(outs):
            for pen, rows in _fig4_curves(read_table(outs[name] / "fig4.csv")).items():
                d = np.array([float(r["deactivation_pct"]) for r in rows]) / 100.0
                v = np.array([float(r["span_normalized_cdc"]) for r in rows])
                values.setdefault(f"ncdc_{pen}", []).append(read_at(d, v, 0.40))
        return {k: float(np.mean(v)) for k, v in values.items()}
    if workload == "fig2-calibrate":
        rows = [r for name in sorted(outs) for r in read_table(outs[name] / "fig2.csv")]
        return {
            f"ncdc_{pen}": float(np.mean([float(r[f"cdc_{pen}"]) / float(r["cdc_opt"])
                                          for r in rows]))
            for pen in ("l0", "l1")
        }
    result = {}
    for pen in ("l0", "l1"):
        ctx = ctx_of[f"design-{pen}"]
        signals = read_signals(ctx["signals"])
        w = read_matrix(outs[f"design-{pen}"] / "design_w.csv")
        result[f"ncdc_{pen}"] = float(np.sum(projected_energy(signals, w))) / top_eig_sum(
            signals, ctx["m"]
        )
    return result
