"""Acceptance gate: one test per numbered release criterion.

Each test prints a single line with the measured quantities next to the
thresholds it must meet; the pytest verdict for the test is the pass/fail
line for that criterion. Criteria 4-6 run the full figure sweeps at the
production problem size (N=30, M=10, 50 or 20 seeds) and dominate the
runtime of the suite.
"""
import json
import time

import numpy as np
import pytest

from collabdesign import (
    DesignSpec,
    Penalty,
    RunConfig,
    SignalClass,
    cumulative_dc,
    design_cost_free,
    design_sparse,
    generate_signal_class,
    random_baseline_prediction,
    simulate_detection,
    solve_gpower,
)
from collabdesign.cli import main
from collabdesign.experiments import penalty_gamma_grid, run_fig2, run_fig3, run_fig4
from collabdesign.sparse import (
    gradient_l0,
    gradient_l1,
    objective_l0,
    objective_l1,
)
from conftest import CONFIGS_C9, assert_trace_monotone, random_orthonormal_rows


def sampled_cdc(rng, signals: np.ndarray, m: int, draws: int) -> np.ndarray:
    """C-DC of `draws` uniformly random orthonormal designs, batched."""
    n = signals.shape[1]
    g = rng.standard_normal((draws, n, m))
    q, r = np.linalg.qr(g)
    q *= np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    proj = np.einsum("dnm,in->dim", q, signals)
    return np.sum(proj * proj, axis=(1, 2))


def test_criterion_1_cost_free_design_attains_the_eigenvalue_optimum():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_rel = 0.0
    worst_excess = -np.inf
    for _ in range(100):
        n = int(rng.integers(3, 13))
        m = int(rng.integers(1, min(n, 4) + 1))
        i = int(rng.integers(1, 9))
        cls = SignalClass(signals=rng.standard_normal((i, n)))
        cdc, _ = cumulative_dc(design_cost_free(cls, m), cls)
        target = float(np.sort(np.linalg.eigvalsh(cls.signals.T @ cls.signals))[::-1][:m].sum())
        worst_rel = max(worst_rel, abs(cdc - target) / target)
        worst_excess = max(worst_excess, float(sampled_cdc(rng, cls.signals, m, 1000).max() - cdc))
    elapsed = time.perf_counter() - start
    assert worst_rel <= 1e-8
    assert worst_excess <= 1e-9
    assert elapsed < 30.0
    print(
        f"criterion 1: worst relative gap {worst_rel:.2e} (<=1e-8), "
        f"worst sampled excess {worst_excess:.2e} (<=1e-9), {elapsed:.1f}s (<30s) -> PASS"
    )


def test_criterion_2_random_design_mean_matches_dimension_ratio_prediction():
    start = time.perf_counter()
    cls = generate_signal_class(10, 30, seed=42)
    predicted = random_baseline_prediction(cls, 10)
    assert predicted == pytest.approx(cls.energy * 10 / 30, rel=1e-12)
    mean = float(sampled_cdc(np.random.default_rng(202), cls.signals, 10, 1000).mean())
    rel = abs(mean - predicted) / predicted
    elapsed = time.perf_counter() - start
    assert rel <= 0.02
    assert elapsed < 10.0
    print(
        f"criterion 2: MC mean {mean:.4f} vs prediction {predicted:.4f}, "
        f"relative gap {rel:.4%} (<=2%), {elapsed:.1f}s (<10s) -> PASS"
    )


def test_criterion_3_zero_penalty_solvers_recover_the_cost_free_optimum():
    start = time.perf_counter()
    worst_ratio = np.inf
    for seed in range(50):
        cls = generate_signal_class(10, 30, seed)
        opt = float(np.sort(np.linalg.eigvalsh(cls.signals.T @ cls.signals))[::-1][:10].sum())
        for pen in (Penalty.L0, Penalty.L1):
            spec = DesignSpec(N=30, M=10, gammas=0.0, penalty=pen)
            sol = design_sparse(cls.signals, spec)
            cdc, _ = cumulative_dc(sol.W, cls)
            worst_ratio = min(worst_ratio, cdc / opt)
    elapsed = time.perf_counter() - start
    assert worst_ratio >= 1.0 - 1e-6
    assert elapsed < 60.0
    print(
        f"criterion 3: worst cdc/opt ratio {worst_ratio:.9f} (>=1-1e-6) over "
        f"50 instances x 2 penalties, {elapsed:.1f}s (<60s) -> PASS"
    )


def test_criterion_4_tradeoff_curve_readoffs_land_in_the_required_windows():
    start = time.perf_counter()
    table = run_fig4(RunConfig(experiment="fig4"))
    s = table.summary
    checks = (
        ("l0_normalized_cdc_at_40pct_deactivation", 0.90, 1.00),
        ("l1_normalized_cdc_at_40pct_deactivation", 0.78, 0.88),
        ("l0_max_deactivation_pct_at_normalized_cdc_0.9", 48.0, 64.0),
        ("l1_max_deactivation_pct_at_normalized_cdc_0.9", 27.0, 43.0),
    )
    elapsed = time.perf_counter() - start
    for key, lo, hi in checks:
        assert lo <= s[key] <= hi, f"{key}={s[key]} outside [{lo}, {hi}]"
    assert elapsed < 900.0
    print(
        "criterion 4: "
        + ", ".join(f"{key}={s[key]:.4f} in [{lo}, {hi}]" for key, lo, hi in checks)
        + f", 50 seeds, {elapsed:.0f}s (<900s) -> PASS"
    )


def test_criterion_5_sparse_designs_beat_random_and_grow_with_row_count():
    cfg = RunConfig(experiment="fig2", m_values=(5, 10, 15, 20), seeds=tuple(range(20)))
    rows = run_fig2(cfg).rows
    for row in rows:
        assert row["cdc_l0"] > row["cdc_random"], f"M={row['M']}"
    for key in ("cdc_opt", "cdc_l0", "cdc_l1"):
        vals = [row[key] for row in rows]
        for a, b in zip(vals, vals[1:]):
            assert b >= a * (1.0 - 1e-9), f"{key} decreased: {a} -> {b}"
    summary = {row["M"]: (row["cdc_l0"], row["cdc_random"]) for row in rows}
    print(
        "criterion 5: mean cdc_l0 vs cdc_random "
        + ", ".join(f"M={m}: {l0:.1f} > {rnd:.1f}" for m, (l0, rnd) in summary.items())
        + "; opt/l0/l1 nondecreasing in M -> PASS"
    )


def test_criterion_6_universality_cost_is_free_then_decays_with_class_size():
    cfg = RunConfig(
        experiment="fig3", i_values=(2, 6, 10, 15, 20, 25, 30), seeds=tuple(range(20))
    )
    rows = run_fig3(cfg).rows
    for row in rows:
        if row["I"] <= 10:
            assert row["cu_opt"] == pytest.approx(1.0, abs=1e-9), f"I={row['I']}"
        assert row["cu_l0"] >= row["cu_l1"] - 1e-12, f"I={row['I']}"
    tail = [row for row in rows if row["I"] >= 10]
    for key in ("cu_opt", "cu_l0", "cu_l1"):
        vals = [row[key] for row in tail]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-12, f"{key} increased: {a} -> {b}"
    print(
        "criterion 6: cu_opt=1 for I<=10; 10->30 decay "
        + ", ".join(f"I={row['I']}: {row['cu_opt']:.4f}" for row in tail)
        + "; cu_l0 >= cu_l1 at each I -> PASS"
    )


def test_criterion_7_solver_traces_feasibility_and_gradients_are_sound():
    total_iterations = 0
    worst_residual = 0.0
    solves = 0
    for seed in range(8):
        cls = generate_signal_class(10, 30, seed)
        for pen in (Penalty.L0, Penalty.L1):
            for gamma in penalty_gamma_grid(cls.signals, pen, 25)[1:-1]:
                spec = DesignSpec(N=30, M=10, gammas=float(gamma), penalty=pen)
                state = solve_gpower(cls.signals, spec)
                assert_trace_monotone(state.objective_trace, slack=1e-12)
                worst_residual = max(worst_residual, state.stiefel_residual_max)
                total_iterations += state.iterations
                solves += 1
    assert total_iterations >= 10_000, total_iterations
    assert worst_residual <= 1e-8

    checked = 0
    attempt = 0
    h = 1e-6
    while checked < 100:
        attempt += 1
        assert attempt < 2000, "could not find boundary-free gradient instances"
        pen = (Penalty.L0, Penalty.L1)[attempt % 2]
        objective = objective_l0 if pen is Penalty.L0 else objective_l1
        gradient = gradient_l0 if pen is Penalty.L0 else gradient_l1
        rng = np.random.default_rng((818, attempt))
        a = rng.standard_normal((4, 6))
        u = random_orthonormal_rows(rng, 2, 4).T
        t = a.T @ u
        mid = float(np.median(np.abs(t)))
        gam = np.full(2, mid if pen is Penalty.L1 else mid**2)
        margin_kink = float(np.min(np.abs(t)))
        if pen is Penalty.L1:
            margin_clip = float(np.min(np.abs(np.abs(t) - gam[None, :])))
        else:
            margin_clip = float(np.min(np.abs(t**2 - gam[None, :])))
        if min(margin_kink, margin_clip) < 1e-4:
            continue
        checked += 1
        g = gradient(u, a, gam)
        fd = np.zeros_like(g)
        for r in range(4):
            for c in range(2):
                up, dn = u.copy(), u.copy()
                up[r, c] += h
                dn[r, c] -= h
                fd[r, c] = (objective(up, a, gam) - objective(dn, a, gam)) / (2 * h)
        assert np.abs(fd - g).max() <= 1e-5 * max(1.0, float(np.abs(g).max()))
    print(
        f"criterion 7: {total_iterations} monotone iterations over {solves} solves "
        f"(>=10000), max Stiefel residual {worst_residual:.2e} (<=1e-8), "
        f"100 finite-difference gradient checks -> PASS"
    )


def test_criterion_8_closed_form_and_monte_carlo_detection_agree():
    results = []
    sigmas = (0.5, 1.0, 2.0)
    pfas = (0.01, 0.05, 0.1, 0.2)
    for k in range(19):
        cls = generate_signal_class(4, 12, 100 + k)
        w = design_cost_free(cls, 3)
        results.append(
            simulate_detection(
                w,
                cls,
                k % 4,
                sigma=sigmas[k % 3],
                pfa=pfas[k % 4],
                trials=100_000,
                seed=(900, k),
            )
        )
    # Degenerate case: the probed signal is orthogonal to every design row,
    # so the statistic carries no signal and detection is a pfa-coin.
    w = np.eye(2, 6)
    cls = SignalClass(signals=np.array([[0.0, 0.0, 3.0, 0.0, 0.0, 0.0]]))
    coin = simulate_detection(w, cls, 0, sigma=1.0, pfa=0.1, trials=100_000, seed=(900, 99))
    results.append(coin)
    assert coin.deflection_root == 0.0
    assert coin.pd_closed_form == pytest.approx(0.1, abs=1e-12)
    worst = 0.0
    for res in results:
        gap = abs(res.pd_monte_carlo - res.pd_closed_form)
        assert gap <= 3.0 * res.ci_half_width
        worst = max(worst, gap / (3.0 * res.ci_half_width))
    print(
        f"criterion 8: 20 configurations including d=0, worst |pd_mc - pd_cf| at "
        f"{worst:.2f} of the 3x binomial CI budget -> PASS"
    )


def test_criterion_9_cli_runs_are_byte_identical(tmp_path):
    for verb, text in CONFIGS_C9.items():
        cfg = tmp_path / f"{verb}.cfg"
        cfg.write_text(text)
        out = tmp_path / f"{verb}_out"
        snapshots = []
        for _ in range(2):
            code = main([verb, "--config", str(cfg), "--out", str(out), "--quiet"])
            assert code == 0
            snapshots.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert snapshots[0] == snapshots[1], f"{verb} rerun differed"
        json.loads(snapshots[0][f"{verb}.metadata.json"] if verb != "design"
                   else snapshots[0]["design.metadata.json"])
    print(
        "criterion 9: design/fig2/fig3/fig4/detect re-runs byte-identical -> PASS"
    )
