"""Experiment runners: sweep mechanics, read-offs, and artifact contracts.

Numeric freezes below were computed by this code on small instances and are
locked at tight tolerance to catch regressions; they are deterministic
functions of the seeded generator streams.
"""
import numpy as np
import pytest

from collabdesign import (
    Penalty,
    RunConfig,
    SignalClass,
    cumulative_dc,
    generate_signal_class,
)
from collabdesign.experiments import (
    build_design,
    effective_row_target,
    max_deactivation_at,
    penalty_gamma_grid,
    read_at_deactivation,
    run_detect,
    run_fig2,
    run_fig3,
    run_fig4,
    run_single_design,
)


class TestEffectiveRowTarget:
    def test_padding_absorbs_part_of_the_quota(self):
        # 15 rows, 10 solvable: 5 padded rows supply 5N zeros of the 6N needed.
        assert effective_row_target(0.4, 15, 10) == pytest.approx(0.1)

    def test_padding_alone_overshoots(self):
        assert effective_row_target(0.4, 20, 10) == 0.0

    def test_no_padding_passes_through(self):
        assert effective_row_target(0.4, 10, 10) == pytest.approx(0.4)

    def test_large_target_with_padding(self):
        assert effective_row_target(0.9, 20, 10) == pytest.approx(0.8)


class TestCurveReadoffs:
    D = np.array([0.0, 20.0, 40.0, 60.0])
    V = np.array([1.0, 0.9, 0.8, 0.7])

    def test_exact_grid_point(self):
        assert read_at_deactivation(self.D, self.V, 40.0) == pytest.approx(0.8)

    def test_linear_interpolation(self):
        assert read_at_deactivation(self.D, self.V, 30.0) == pytest.approx(0.85)

    def test_clamps_to_ends(self):
        assert read_at_deactivation(self.D, self.V, -5.0) == pytest.approx(1.0)
        assert read_at_deactivation(self.D, self.V, 99.0) == pytest.approx(0.7)

    def test_unsorted_input(self):
        idx = [2, 0, 3, 1]
        assert read_at_deactivation(self.D[idx], self.V[idx], 30.0) == pytest.approx(0.85)

    def test_max_deactivation_at_floor(self):
        v = np.array([1.0, 0.95, 0.9, 0.2])
        assert max_deactivation_at(self.D, v, 0.9) == pytest.approx(40.0)
        assert max_deactivation_at(self.D, v, 0.99) == pytest.approx(0.0)
        assert max_deactivation_at(self.D, v, 1.5) == 0.0


class TestCumulativeDcOfRowSpans:
    def test_matches_projector_on_full_rank_rows(self, rng):
        w = rng.standard_normal((3, 6))
        cls = SignalClass(signals=rng.standard_normal((4, 6)))
        p = w.T @ np.linalg.solve(w @ w.T, w)
        want = float(np.sum((cls.signals @ p) ** 2))
        assert cumulative_dc(w, cls)[0] == pytest.approx(want, rel=1e-10)

    def test_ignores_dead_rows(self, rng):
        cls = SignalClass(signals=rng.standard_normal((4, 6)))
        w = rng.standard_normal((2, 6))
        padded = np.vstack([w, np.zeros((2, 6))])
        assert cumulative_dc(padded, cls)[0] == pytest.approx(
            cumulative_dc(w, cls)[0], rel=1e-12
        )

    def test_duplicate_rows_do_not_raise(self, rng):
        cls = SignalClass(signals=rng.standard_normal((3, 5)))
        row = rng.standard_normal(5)
        w = np.vstack([row, 2.0 * row])
        assert cumulative_dc(w, cls)[0] == pytest.approx(
            cumulative_dc(row[None, :], cls)[0], rel=1e-10
        )

    def test_all_zero_matrix(self):
        cls = SignalClass(signals=np.eye(3))
        cdc, per_signal = cumulative_dc(np.zeros((2, 3)), cls)
        assert cdc == 0.0
        assert np.array_equal(per_signal, np.zeros(3))


class TestGammaGrid:
    def test_endpoints_and_monotonicity(self, rng):
        s = rng.standard_normal((4, 7))
        cmax = float(np.linalg.norm(s, axis=0).max())
        for pen, top in ((Penalty.L0, cmax**2), (Penalty.L1, cmax)):
            grid = penalty_gamma_grid(s, pen, 9)
            assert grid[0] == 0.0
            assert grid[-1] == pytest.approx(top, rel=1e-12)
            assert np.all(np.diff(grid) > 0)

    def test_l0_grid_uniform_in_amplitude(self, rng):
        s = rng.standard_normal((3, 5))
        grid = penalty_gamma_grid(s, Penalty.L0, 6)
        amp = np.sqrt(grid)
        assert np.allclose(np.diff(amp), amp[1] - amp[0])


@pytest.fixture(scope="module")
def fig2_table():
    cfg = RunConfig(
        experiment="fig2", n=8, m=5, i=3, m_values=(2, 8), seeds=(0, 1, 2),
        random_draws=1,
    )
    return run_fig2(cfg)


@pytest.fixture(scope="module")
def fig3_table():
    cfg = RunConfig(
        experiment="fig3", n=8, m=4, i=8, i_values=(2, 4, 8), seeds=(0, 1, 2, 3)
    )
    return run_fig3(cfg)


@pytest.fixture(scope="module")
def fig4_table():
    cfg = RunConfig(experiment="fig4", n=8, m=3, i=3, grid_points=9, seeds=(0, 1))
    return run_fig4(cfg)


class TestFig2:
    def test_columns_and_summary(self, fig2_table):
        assert fig2_table.columns == (
            "M", "cdc_opt", "cdc_l0", "cdc_l1", "cdc_random", "cdc_random_prediction",
        )
        assert fig2_table.summary == {"target_deactivation": 0.4, "seed_count": 3}

    def test_full_dimension_row_is_lossless_for_every_method(self, fig2_table):
        row = fig2_table.rows[-1]
        energy = np.mean(
            [np.sum(generate_signal_class(3, 8, s).signals ** 2) for s in (0, 1, 2)]
        )
        assert row["M"] == 8
        for key in ("cdc_opt", "cdc_l0", "cdc_l1", "cdc_random", "cdc_random_prediction"):
            assert row[key] == pytest.approx(energy, rel=1e-9), key

    def test_small_row_frozen_values(self, fig2_table):
        row = fig2_table.rows[0]
        assert row["cdc_opt"] == pytest.approx(12.994332252268519, rel=1e-9)
        assert row["cdc_l0"] == pytest.approx(12.67755464745474, rel=1e-9)
        assert row["cdc_l1"] == pytest.approx(11.608319390479153, rel=1e-9)
        assert row["cdc_opt"] >= row["cdc_l0"] >= row["cdc_l1"]
        assert row["cdc_opt"] >= row["cdc_random"]


class TestFig3:
    def test_cost_free_region_is_exactly_one(self, fig3_table):
        assert fig3_table.rows[0]["cu_opt"] == pytest.approx(1.0, abs=1e-12)
        assert fig3_table.rows[1]["cu_opt"] == pytest.approx(1.0, abs=1e-12)

    def test_frozen_tail_value(self, fig3_table):
        assert fig3_table.rows[2]["cu_opt"] == pytest.approx(0.9227985409020949, rel=1e-9)

    def test_orderings(self, fig3_table):
        for row in fig3_table.rows:
            assert row["cu_l0"] >= row["cu_l1"] - 1e-12
            assert row["cu_opt"] >= row["cu_l0"] - 1e-12
        opt = [row["cu_opt"] for row in fig3_table.rows]
        assert all(a >= b - 1e-12 for a, b in zip(opt, opt[1:]))

    def test_values_are_fractions(self, fig3_table):
        for row in fig3_table.rows:
            for key in ("cu_opt", "cu_l0", "cu_l1"):
                assert 0.0 <= row[key] <= 1.0 + 1e-12


class TestFig4:
    def test_zero_gamma_rows_are_exact(self, fig4_table):
        for pen in ("l0", "l1"):
            row = next(
                r for r in fig4_table.rows if r["penalty"] == pen and r["grid_index"] == 0
            )
            assert row["gamma"] == 0.0
            assert row["deactivation_pct"] == 0.0
            assert row["normalized_cdc"] == pytest.approx(1.0, abs=1e-12)
            assert row["span_normalized_cdc"] == pytest.approx(1.0, abs=1e-12)

    def test_ranges_and_coverage(self, fig4_table):
        assert len(fig4_table.rows) == 18
        for row in fig4_table.rows:
            assert 0.0 <= row["deactivation_pct"] <= 100.0
            assert -1e-9 <= row["normalized_cdc"] <= 1.0 + 1e-9
            assert -1e-9 <= row["span_normalized_cdc"] <= 1.0 + 1e-9

    def test_summary_readoff_keys(self, fig4_table):
        for pen in ("l0", "l1"):
            assert f"{pen}_normalized_cdc_at_40pct_deactivation" in fig4_table.summary
            assert f"{pen}_max_deactivation_pct_at_normalized_cdc_0.9" in fig4_table.summary


class TestDesignArtifacts:
    def test_pca_design_artifacts(self):
        cfg = RunConfig(experiment="design", n=8, m=3, i=3, seeds=(0,))
        artifacts = run_single_design(cfg)
        w = artifacts["W"]
        assert w.shape == (3, 8)
        assert np.allclose(w @ w.T, np.eye(3), atol=1e-10)
        # m >= class rank, so the projector keeps every signal: bound attained.
        assert artifacts["metrics"]["cdc"] == pytest.approx(
            artifacts["metrics"]["cdc_upper_bound"], rel=1e-9
        )
        assert artifacts["detection_rows"] is None
        assert artifacts["summary"]["method"] == "pca"
        assert artifacts["summary"]["cost_of_collaboration"] == 0.0

    def test_detection_rows_when_requested(self):
        cfg = RunConfig(
            experiment="design", n=8, m=3, i=3, seeds=(0,), signal_index=1, trials=200
        )
        rows = run_single_design(cfg)["detection_rows"]
        assert len(rows) == 1
        assert rows[0]["seed"] == 0
        assert rows[0]["signal_index"] == 1

    def test_calibrated_sparse_summary_fields(self):
        cfg = RunConfig(
            experiment="design", n=8, m=3, i=3, seeds=(0,), method="l0",
            target_deactivation=0.4,
        )
        summary = run_single_design(cfg)["summary"]
        assert summary["method"] == "l0"
        assert "calibrated_gamma" in summary
        assert 0.0 <= summary["achieved_deactivation"] <= 1.0
        assert summary["solver_iterations"] >= 1
        w = run_single_design(cfg)["W"]
        zeros = int(np.count_nonzero(w == 0.0))
        assert summary["calibration_miss_links"] == pytest.approx(abs(zeros - 0.4 * w.size))
        assert summary["calibration_miss_links"] <= 1.0

    def test_calibration_miss_is_reported(self):
        # Class seed 3 at M=5 has no design within one link of 60 that the
        # calibration finds; the summary says how far off it is.
        cfg = RunConfig(
            experiment="design", n=30, m=5, i=10, seeds=(3,), method="l0",
            target_deactivation=0.4,
        )
        artifacts = run_single_design(cfg)
        zeros = int(np.count_nonzero(artifacts["W"] == 0.0))
        assert artifacts["summary"]["calibration_miss_links"] == abs(zeros - 60) == 2

    def test_fixed_gamma_sparse_summary_fields(self):
        cfg = RunConfig(
            experiment="design", n=8, m=3, i=3, seeds=(0,), method="l1", gamma=0.2
        )
        summary = run_single_design(cfg)["summary"]
        assert summary["gamma"] == 0.2
        assert isinstance(summary["dead_rows"], list)

    def test_diagonal_method_on_diagonal_second_moment(self):
        cls = SignalClass(signals=np.array([[2.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]))
        cfg = RunConfig(experiment="design", n=4, m=2, i=2, method="diagonal")
        w, spec, extras = build_design(cfg, cls, seed=0)
        assert extras["method"] == "diagonal"
        assert cumulative_dc(w, cls)[0] == pytest.approx(5.0, rel=1e-12)

    def test_random_method_is_seed_deterministic(self):
        cls = generate_signal_class(3, 8, 0)
        cfg = RunConfig(experiment="design", n=8, m=3, i=3, method="random")
        w1, _, _ = build_design(cfg, cls, seed=7)
        w2, _, _ = build_design(cfg, cls, seed=7)
        w3, _, _ = build_design(cfg, cls, seed=8)
        assert np.array_equal(np.asarray(w1.W), np.asarray(w2.W))
        assert not np.array_equal(np.asarray(w1.W), np.asarray(w3.W))


class TestDetectRunner:
    def test_one_row_per_seed_and_signal(self):
        cfg = RunConfig(experiment="detect", n=8, m=3, i=3, seeds=(0, 1), trials=200)
        table = run_detect(cfg)
        assert [(r["seed"], r["signal_index"]) for r in table.rows] == [
            (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
        ]

    def test_calibrated_design_reports_the_largest_miss(self):
        cfg = RunConfig(
            experiment="detect", n=30, m=5, i=10, seeds=(3, 6), trials=200, method="l0",
            target_deactivation=0.4,
        )
        misses = [
            build_design(cfg, generate_signal_class(10, 30, seed), seed)[2][
                "calibration_miss_links"
            ]
            for seed in cfg.seeds
        ]
        assert run_detect(cfg).summary["calibration_miss_links"] == max(misses) == 2.0

    def test_signal_index_filters(self):
        cfg = RunConfig(
            experiment="detect", n=8, m=3, i=3, seeds=(0,), trials=200, signal_index=2
        )
        table = run_detect(cfg)
        assert len(table.rows) == 1
        assert table.rows[0]["signal_index"] == 2
