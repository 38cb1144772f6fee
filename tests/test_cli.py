"""End-to-end CLI runs on small instances, exit codes, reproducibility."""
import json

import numpy as np
import pytest

from collabdesign import __version__
from collabdesign.cli import main
from conftest import CONFIGS_C9

TINY_DESIGN = """
experiment = design
n = 8
m = 3
i = 3
seeds = 0
"""

TINY_FIG2 = """
n = 8
m = 5
i = 3
m_values = 2,5
seeds = 0,1
random_draws = 1
"""

TINY_FIG3 = """
n = 8
m = 4
i = 8
i_values = 2,4,8
seeds = 0,1
"""

TINY_FIG4 = """
n = 8
m = 3
i = 3
grid_points = 5
seeds = 0,1
"""

TINY_DETECT = """
n = 8
m = 3
i = 3
trials = 200
seeds = 0,1
"""


def run_verb(tmp_path, verb, config_text, *extra):
    cfg = tmp_path / f"{verb}.cfg"
    cfg.write_text(config_text)
    out = tmp_path / f"{verb}_out"
    code = main([verb, "--config", str(cfg), "--out", str(out), "--quiet", *extra])
    return code, out


def dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


class TestVerbs:
    def test_design_writes_matrix_and_metrics(self, tmp_path):
        code, out = run_verb(tmp_path, "design", TINY_DESIGN)
        assert code == 0
        lines = (out / "design_w.csv").read_text().splitlines()
        assert lines[0] == "c0,c1,c2,c3,c4,c5,c6,c7"
        assert len(lines) == 4
        metrics = json.loads((out / "design_metrics.json").read_text())
        assert metrics["cdc"] > 0
        assert 0.0 <= metrics["active_link_ratio"] <= 1.0
        meta = json.loads((out / "design.metadata.json").read_text())
        assert meta["version"] == __version__
        assert meta["config"]["experiment"] == "design"
        assert not (out / "design_detection.csv").exists()

    def test_design_with_signal_index_adds_detection_table(self, tmp_path):
        code, out = run_verb(
            tmp_path, "design", TINY_DESIGN + "signal_index = 1\ntrials = 200\n"
        )
        assert code == 0
        lines = (out / "design_detection.csv").read_text().splitlines()
        assert lines[0].startswith("seed,signal_index,pfa")
        assert len(lines) == 2

    def test_design_with_signals_file(self, tmp_path):
        sig = tmp_path / "sig.csv"
        rows = np.random.default_rng(5).standard_normal((2, 8))
        sig.write_text(
            "\n".join(",".join(repr(float(v)) for v in row) for row in rows) + "\n"
        )
        code, out = run_verb(tmp_path, "design", TINY_DESIGN, "--signals", str(sig))
        assert code == 0
        meta = json.loads((out / "design.metadata.json").read_text())
        assert meta["config"]["signals"] == str(sig)

    def test_fig2_table(self, tmp_path):
        code, out = run_verb(tmp_path, "fig2", TINY_FIG2)
        assert code == 0
        lines = (out / "fig2.csv").read_text().splitlines()
        assert lines[0] == "M,cdc_opt,cdc_l0,cdc_l1,cdc_random,cdc_random_prediction"
        assert len(lines) == 3
        meta = json.loads((out / "fig2.metadata.json").read_text())
        assert meta["summary"]["seed_count"] == 2

    def test_fig3_table(self, tmp_path):
        code, out = run_verb(tmp_path, "fig3", TINY_FIG3)
        assert code == 0
        lines = (out / "fig3.csv").read_text().splitlines()
        assert lines[0] == "I,cu_opt,cu_l0,cu_l1"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[1]) == pytest.approx(1.0)

    def test_fig4_table(self, tmp_path):
        code, out = run_verb(tmp_path, "fig4", TINY_FIG4)
        assert code == 0
        lines = (out / "fig4.csv").read_text().splitlines()
        assert lines[0] == (
            "penalty,grid_index,gamma,deactivation_pct,normalized_cdc,span_normalized_cdc"
        )
        assert len(lines) == 11
        meta = json.loads((out / "fig4.metadata.json").read_text())
        for key in (
            "l0_normalized_cdc_at_40pct_deactivation",
            "l1_max_deactivation_pct_at_normalized_cdc_0.9",
        ):
            assert key in meta["summary"]

    def test_detect_table(self, tmp_path):
        code, out = run_verb(tmp_path, "detect", TINY_DETECT)
        assert code == 0
        lines = (out / "detect.csv").read_text().splitlines()
        assert lines[0] == (
            "seed,signal_index,pfa,deflection_root,pd_closed_form,pd_monte_carlo,"
            "trials,ci_half_width"
        )
        assert len(lines) == 7


class TestReproducibility:
    def test_reruns_are_byte_identical(self, tmp_path):
        for verb, text in (
            ("design", TINY_DESIGN),
            ("fig2", TINY_FIG2),
            ("fig3", TINY_FIG3),
            ("fig4", TINY_FIG4),
            ("detect", TINY_DETECT),
        ):
            cfg = tmp_path / f"{verb}.cfg"
            cfg.write_text(text)
            out = tmp_path / f"{verb}_out"
            snapshots = []
            for _ in range(2):
                assert main([verb, "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
                snapshots.append(dir_bytes(out))
            assert snapshots[0] == snapshots[1], f"{verb} rerun differed"


class TestOneFactorization:
    @pytest.mark.parametrize("verb", sorted(CONFIGS_C9))
    def test_no_eigendecomposition_runs(self, tmp_path, monkeypatch, verb):
        # every spectral quantity comes from a thin SVD of S or W
        def refuse(*args, **kwargs):
            raise AssertionError("eigendecomposition called")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        code, out = run_verb(tmp_path, verb, CONFIGS_C9[verb])
        assert code == 0
        assert any(out.iterdir())


class TestExitCodes:
    def test_missing_config_file_is_usage_error(self, tmp_path, capsys):
        code = main(["fig2", "--config", str(tmp_path / "nope.cfg"), "--quiet"])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert "message" in record

    def test_conflicting_flags_are_usage_error(self, tmp_path, capsys):
        code, _ = run_verb(
            tmp_path, "design", TINY_DESIGN, "--gamma", "0.1",
            "--target-deactivation", "0.4",
        )
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    def test_signals_dimension_mismatch_is_usage_error(self, tmp_path, capsys):
        sig = tmp_path / "sig.csv"
        sig.write_text("1.0,2.0\n")
        code, _ = run_verb(tmp_path, "design", TINY_DESIGN, "--signals", str(sig))
        assert code == 2
        capsys.readouterr()

    def test_bad_signals_content_is_domain_error(self, tmp_path, capsys):
        sig = tmp_path / "sig.csv"
        sig.write_text("1.0,zzz\n")
        code, _ = run_verb(tmp_path, "design", TINY_DESIGN, "--signals", str(sig))
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "ValueError"

    @pytest.mark.parametrize("gamma", ["nan", "inf"])
    def test_non_finite_gamma_is_usage_error(self, tmp_path, capsys, gamma):
        code, out = run_verb(
            tmp_path, "design", TINY_DESIGN, "--penalty", "l1", "--gamma", gamma
        )
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert not out.exists()

    def test_non_finite_sigma_in_config_is_usage_error(self, tmp_path, capsys):
        code, out = run_verb(tmp_path, "detect", TINY_DETECT + "sigma = nan\n")
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert not out.exists()

    @pytest.mark.parametrize(
        "verb, config_text, extra",
        [
            ("design", TINY_DESIGN + "signal_index = 99\n", ()),
            ("detect", TINY_DETECT + "signal_index = -1\n", ()),
            ("design", TINY_DESIGN + "method = random\n",
             ("--penalty", "l1", "--target-deactivation", "0.3")),
            ("detect", TINY_DETECT + "method = l0\n", ("--penalty", "l1")),
            ("detect", TINY_DETECT, ("--gamma", "0.4")),
            ("design", TINY_DESIGN + "method = diagonal\n", ("--target-deactivation", "0.3")),
            ("fig4", TINY_FIG4, ("--penalty", "l1", "--gamma", "0.3")),
            ("fig2", TINY_FIG2, ("--gamma", "0.3")),
            ("fig3", TINY_FIG3, ("--penalty", "l0")),
            ("fig4", TINY_FIG4 + "signal_index = 5\n", ()),
            ("fig2", TINY_FIG2 + "method = pca\n", ()),
            ("fig4", TINY_FIG4, ("--target-deactivation", "0.3")),
        ],
        ids=[
            "signal_index_past_the_class",
            "negative_signal_index",
            "random_method_with_l1_penalty",
            "l0_method_with_l1_penalty",
            "gamma_on_a_pca_design",
            "target_on_a_diagonal_design",
            "penalty_and_gamma_on_fig4",
            "gamma_on_fig2",
            "penalty_on_fig3",
            "signal_index_on_fig4",
            "method_on_fig2",
            "target_on_fig4",
        ],
    )
    def test_inputs_the_run_would_ignore_or_crash_on_are_usage_errors(
        self, tmp_path, capsys, verb, config_text, extra
    ):
        code, out = run_verb(tmp_path, verb, config_text, *extra)
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert not out.exists()

    def test_signal_index_past_the_signals_file_is_usage_error(self, tmp_path, capsys):
        sig = tmp_path / "sig.csv"
        rows = np.random.default_rng(5).standard_normal((2, 8))
        sig.write_text(
            "\n".join(",".join(repr(float(v)) for v in row) for row in rows) + "\n"
        )
        code, out = run_verb(
            tmp_path, "design", TINY_DESIGN + "signal_index = 2\n", "--signals", str(sig)
        )
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert not out.exists()

    def test_seed_and_seeds_together_are_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_verb(tmp_path, "design", TINY_DESIGN, "--seed", "3", "--seeds", "0,1")
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not (tmp_path / "design_out").exists()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert __version__ in capsys.readouterr().out
