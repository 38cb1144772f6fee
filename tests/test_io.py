"""Artifact serialization and the flat key=value config format."""
import numpy as np
import pytest

from collabdesign import (
    ConfigError,
    Penalty,
    RunConfig,
    SignalClass,
    build_config,
    parse_config_text,
    read_signals_csv,
    render_csv,
    render_json,
    write_csv,
    write_json,
    write_matrix_csv,
    write_signals_csv,
)
from collabdesign.persist import format_cell, metadata_record
from collabdesign.runconfig import _parse_int_list


class TestCells:
    def test_primitive_rendering(self):
        assert format_cell(True) == "true"
        assert format_cell(False) == "false"
        assert format_cell(7) == "7"
        assert format_cell(np.int64(7)) == "7"
        assert format_cell(0.5) == "0.5"
        assert format_cell(1.0 / 3.0) == "0.3333333333333333"
        assert format_cell(np.float64(2.0)) == "2.0"
        assert format_cell("l0") == "l0"

    def test_separator_collisions_rejected(self):
        with pytest.raises(ValueError):
            format_cell("a,b")
        with pytest.raises(ValueError):
            format_cell("a\nb")


class TestCsv:
    def test_golden_bytes(self):
        text = render_csv(
            ("M", "cdc"), [{"M": 2, "cdc": 0.5}, {"M": 3, "cdc": 1.0 / 3.0}]
        )
        assert text == "M,cdc\n2,0.5\n3,0.3333333333333333\n"

    def test_written_file_uses_lf_only(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ("a",), [{"a": 1}, {"a": 2}])
        raw = path.read_bytes()
        assert raw == b"a\n1\n2\n"
        assert b"\r" not in raw

    def test_matrix_header(self, tmp_path):
        path = write_matrix_csv(tmp_path / "w.csv", np.array([[1.0, 0.5], [0.0, 2.0]]))
        lines = path.read_text().splitlines()
        assert lines[0] == "c0,c1"
        assert lines[1] == "1.0,0.5"
        assert len(lines) == 3

    def test_creates_parent_directories(self, tmp_path):
        path = write_csv(tmp_path / "deep" / "dir" / "t.csv", ("a",), [{"a": 1}])
        assert path.exists()


class TestSignalsCsv:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        cls = SignalClass(signals=rng.standard_normal((4, 6)))
        path = tmp_path / "s.csv"
        write_signals_csv(path, cls)
        back = read_signals_csv(path)
        assert np.array_equal(back.signals, cls.signals)

    def test_no_header_row(self, tmp_path):
        cls = SignalClass(signals=np.array([[1.5, -2.0]]))
        path = write_signals_csv(tmp_path / "s.csv", cls)
        assert path.read_text() == "1.5,-2.0\n"

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n3.0\n")
        with pytest.raises(ValueError):
            read_signals_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("\n")
        with pytest.raises(ValueError):
            read_signals_csv(path)

    def test_non_numeric_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,x\n")
        with pytest.raises(ValueError):
            read_signals_csv(path)


class TestJson:
    def test_sorted_keys_golden(self):
        assert render_json({"b": 1, "a": np.float64(0.5)}) == (
            '{\n  "a": 0.5,\n  "b": 1\n}\n'
        )

    def test_numpy_values_become_plain(self, tmp_path):
        payload = {
            "arr": np.array([1.0, 2.0]),
            "flag": np.bool_(True),
            "n": np.int32(4),
            "nested": {"x": np.float32(1.0)},
        }
        path = write_json(tmp_path / "m.json", payload)
        text = path.read_text()
        assert '"flag": true' in text
        assert '"n": 4' in text

    def test_metadata_record_shape(self):
        record = metadata_record({"n": 4}, "0.1.0", {"cdc": 1.5})
        assert record == {"config": {"n": 4}, "version": "0.1.0", "summary": {"cdc": 1.5}}
        bare = metadata_record({"n": 4}, "0.1.0")
        assert "summary" not in bare


class TestConfigParsing:
    def test_typed_values_and_comments(self):
        values = parse_config_text(
            """
            # reproduction defaults
            experiment = fig4
            n = 30          # sensors
            penalty = l0
            seeds = 0..3
            target_deactivation = 0.4
            """
        )
        assert values["experiment"] == "fig4"
        assert values["n"] == 30
        assert values["penalty"] is Penalty.L0
        assert values["seeds"] == (0, 1, 2, 3)
        assert values["target_deactivation"] == 0.4

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("gamma_max = 2.0\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("n = 3\nn = 4\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("just a line\n")

    def test_bad_number_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("n = many\n")
        with pytest.raises(ConfigError):
            parse_config_text("pfa = tiny\n")
        with pytest.raises(ConfigError):
            parse_config_text("penalty = l2\n")

    def test_seed_lists(self):
        assert _parse_int_list("0,1,5", "seeds") == (0, 1, 5)
        assert _parse_int_list("3..6", "seeds") == (3, 4, 5, 6)
        with pytest.raises(ConfigError):
            _parse_int_list("5..3", "seeds")
        with pytest.raises(ConfigError):
            _parse_int_list("a,b", "seeds")

    def test_experiment_alias(self):
        values = parse_config_text("experiment = singledesign\n")
        assert values["experiment"] == "design"


class TestRunConfig:
    def test_figure_seed_default(self):
        assert RunConfig(experiment="fig2").seeds == tuple(range(50))
        assert RunConfig(experiment="design").seeds == (0,)

    def test_dimension_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(experiment="design", n=4, m=5)
        with pytest.raises(ConfigError):
            RunConfig(experiment="design", n=4, i=9)

    def test_gamma_and_target_exclusive(self):
        with pytest.raises(ConfigError):
            RunConfig(experiment="design", gamma=0.1, target_deactivation=0.4)

    def test_sparse_run_needs_enough_signals(self):
        with pytest.raises(ConfigError):
            RunConfig(experiment="design", method="l0", n=30, m=12, i=10)

    def test_probability_and_count_bounds(self):
        with pytest.raises(ConfigError):
            RunConfig(experiment="detect", pfa=1.0)
        with pytest.raises(ConfigError):
            RunConfig(experiment="detect", sigma=0.0)
        with pytest.raises(ConfigError):
            RunConfig(experiment="detect", trials=10)
        with pytest.raises(ConfigError):
            RunConfig(experiment="fig4", grid_points=1)
        with pytest.raises(ConfigError):
            RunConfig(experiment="fig2", m_values=(0, 3))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_gamma_and_sigma_rejected(self, value):
        with pytest.raises(ConfigError):
            RunConfig(experiment="design", method="l1", gamma=value)
        with pytest.raises(ConfigError):
            RunConfig(experiment="detect", sigma=value)

    def test_non_finite_sigma_in_a_config_file_rejected(self):
        values = parse_config_text("sigma = nan\n")
        with pytest.raises(ConfigError):
            build_config("detect", values)

    def test_unknown_experiment_and_method(self):
        with pytest.raises(ConfigError):
            RunConfig(experiment="fig9")
        with pytest.raises(ConfigError):
            RunConfig(experiment="design", method="svd")

    def test_signals_only_for_design_and_detect(self):
        with pytest.raises(ConfigError):
            RunConfig(experiment="fig2", signals="s.csv")

    def test_resolved_method_follows_penalty(self):
        assert RunConfig(experiment="design").resolved_method() == "pca"
        assert RunConfig(experiment="design", penalty=Penalty.L0).resolved_method() == "l0"
        assert (
            RunConfig(experiment="design", method="random").resolved_method() == "random"
        )

    def test_as_dict_is_json_friendly(self):
        cfg = RunConfig(experiment="fig4", penalty=Penalty.L1, seeds=(0, 1))
        d = cfg.as_dict()
        assert d["penalty"] == "l1"
        assert d["seeds"] == [0, 1]
        assert d["experiment"] == "fig4"


class TestBuildConfig:
    def test_cli_override_wins(self):
        cfg = build_config("fig4", {"n": 30, "seeds": (0,)}, seeds=(1, 2))
        assert cfg.seeds == (1, 2)
        assert cfg.n == 30

    def test_none_override_keeps_file_value(self):
        cfg = build_config("fig4", {"gamma": 0.3, "penalty": Penalty.L0}, gamma=None)
        assert cfg.gamma == 0.3

    def test_experiment_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            build_config("fig2", {"experiment": "fig3"})

    def test_matching_declaration_accepted(self):
        cfg = build_config("fig3", {"experiment": "fig3", "n": 12})
        assert cfg.experiment == "fig3"
        assert cfg.n == 12
