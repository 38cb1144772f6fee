"""Detection operating characteristics: closed form and Monte Carlo."""
import math

import numpy as np
import pytest

from collabdesign import (
    DetectionResult,
    SignalClass,
    design_cost_free,
    generate_signal_class,
    pd_closed_form,
    simulate_detection,
)

Q_INV_005 = 1.6448536269514722  # upper 5 percent point of the standard normal


def q_tail(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def one_row_design(n: int = 5) -> np.ndarray:
    w = np.zeros((1, n))
    w[0, 0] = 1.0
    return w


class TestClosedForm:
    def test_deflection_three_oracle(self):
        w = one_row_design()
        s = np.array([3.0, 0.0, 0.0, 0.0, 0.0])
        got = pd_closed_form(w, s, sigma=1.0, pfa=0.05)
        want = q_tail(Q_INV_005 - 3.0)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.9123, abs=5e-5)

    def test_orthogonal_signal_gives_pfa(self):
        w = one_row_design()
        s = np.array([0.0, 2.0, 0.0, 0.0, 0.0])
        for pfa in (0.01, 0.05, 0.2):
            assert pd_closed_form(w, s, 1.0, pfa) == pytest.approx(pfa, abs=1e-12)

    def test_vanishing_noise_saturates(self):
        w = one_row_design()
        s = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        assert pd_closed_form(w, s, sigma=1e-9, pfa=0.05) == pytest.approx(1.0, abs=1e-12)

    def test_parameter_validation(self):
        w = one_row_design()
        s = np.ones(5)
        for bad_pfa in (0.0, 1.0, -0.1, 1.3):
            with pytest.raises(ValueError):
                pd_closed_form(w, s, 1.0, bad_pfa)
        with pytest.raises(ValueError):
            pd_closed_form(w, s, 0.0, 0.05)

    def test_monotone_in_deflection(self):
        w = one_row_design()
        values = [
            pd_closed_form(w, np.array([d, 0.0, 0.0, 0.0, 0.0]), 1.0, 0.05)
            for d in np.linspace(0.0, 5.0, 21)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_monotone_in_pfa(self):
        w = one_row_design()
        s = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        values = [pd_closed_form(w, s, 1.0, p) for p in np.linspace(0.01, 0.5, 20)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_higher_deflection_dominates_at_every_pfa(self):
        w = one_row_design()
        s_strong = np.array([2.0, 0.0, 0.0, 0.0, 0.0])
        s_weak = np.array([1.0, 1.0, 0.0, 0.0, 0.0])  # projected part is weaker
        for pfa in np.linspace(0.01, 0.9, 15):
            assert pd_closed_form(w, s_strong, 1.0, pfa) >= pd_closed_form(
                w, s_weak, 1.0, pfa
            )


class TestSimulation:
    def test_matches_closed_form_at_deflection_three(self):
        cls = SignalClass(signals=np.array([[3.0, 0.0, 0.0, 0.0, 0.0]]))
        result = simulate_detection(one_row_design(), cls, 0, seed=0)
        # the result validates its own 3-sigma gate; check the numbers anyway
        assert result.trials == 100_000
        assert abs(result.pd_monte_carlo - result.pd_closed_form) <= 3 * result.ci_half_width
        assert result.deflection_root == pytest.approx(3.0, rel=1e-12)

    def test_degenerate_signal_behaves_like_coin(self):
        cls = SignalClass(signals=np.array([[0.0, 1.0, 0.0, 0.0, 0.0]]))
        result = simulate_detection(one_row_design(), cls, 0, pfa=0.1, seed=3)
        assert result.deflection_root == 0.0
        assert result.pd_closed_form == pytest.approx(0.1, abs=1e-12)
        assert abs(result.pd_monte_carlo - 0.1) <= 3 * result.ci_half_width

    def test_deterministic_per_seed(self):
        cls = generate_signal_class(3, 8, 0)
        w = design_cost_free(cls, 2)
        a = simulate_detection(w, cls, 1, seed=(4, 2), trials=20_000)
        b = simulate_detection(w, cls, 1, seed=(4, 2), trials=20_000)
        assert a == b
        c = simulate_detection(w, cls, 1, seed=(4, 3), trials=20_000)
        assert c.pd_monte_carlo != a.pd_monte_carlo

    def test_identity_and_pca_agree_when_class_is_covered(self):
        # with M >= I the PCA row space contains every signal, so both
        # designs give the same deflection and the same power
        cls = generate_signal_class(3, 10, 5)
        w_pca = design_cost_free(cls, 5)
        for idx in range(cls.count):
            full = simulate_detection(np.eye(10), cls, idx, seed=(idx, 0))
            proj = simulate_detection(w_pca, cls, idx, seed=(idx, 1))
            assert proj.pd_closed_form == pytest.approx(full.pd_closed_form, abs=1e-9)
            gap = abs(proj.pd_monte_carlo - full.pd_monte_carlo)
            assert gap <= 3 * (proj.ci_half_width + full.ci_half_width)

    def test_draws_grow_with_trials_not_sensors(self, monkeypatch):
        # T is drawn from its Gaussian law: no draw holds more than trials/2
        # values, where drawing the noise x would take trials/2 x N.
        trials, n_dim = 2000, 800
        cls = generate_signal_class(5, n_dim, 0)
        w = np.eye(3, n_dim)
        make = np.random.default_rng
        sizes = []

        class Recorded:
            def __init__(self, seed=None):
                self._rng = make(seed)

            def __getattr__(self, name):
                method = getattr(self._rng, name)

                def recorded(*args, **kwargs):
                    out = method(*args, **kwargs)
                    sizes.append(np.size(out))
                    return out

                return recorded

        monkeypatch.setattr(np.random, "default_rng", Recorded)
        result = simulate_detection(w, cls, 0, trials=trials, seed=1)
        assert abs(result.pd_monte_carlo - result.pd_closed_form) <= 3 * result.ci_half_width
        simulate_detection(np.zeros((3, n_dim)), cls, 0, trials=trials, seed=1)
        assert sizes and max(sizes) <= trials // 2

    def test_rejects_tiny_trial_counts(self):
        cls = SignalClass(signals=np.array([[1.0, 0.0]]))
        w = np.array([[1.0, 0.0]])
        with pytest.raises(ValueError):
            simulate_detection(w, cls, 0, trials=99)

    def test_sigma_scales_deflection(self):
        cls = SignalClass(signals=np.array([[2.0, 0.0, 0.0, 0.0, 0.0]]))
        low = simulate_detection(one_row_design(), cls, 0, sigma=0.5, seed=1)
        high = simulate_detection(one_row_design(), cls, 0, sigma=2.0, seed=1)
        assert low.deflection_root == pytest.approx(4.0)
        assert high.deflection_root == pytest.approx(1.0)
        assert low.pd_closed_form > high.pd_closed_form


class TestDetectionResult:
    def test_gate_rejects_inconsistent_numbers(self):
        with pytest.raises(ValueError):
            DetectionResult(
                pfa=0.05,
                pd_closed_form=0.9,
                pd_monte_carlo=0.5,
                trials=1000,
                ci_half_width=0.01,
                signal_index=0,
                deflection_root=1.0,
            )

    def test_as_dict_column_order(self):
        result = DetectionResult(
            pfa=0.05,
            pd_closed_form=0.9,
            pd_monte_carlo=0.9,
            trials=1000,
            ci_half_width=0.01,
            signal_index=2,
            deflection_root=1.5,
        )
        assert list(result.as_dict()) == [
            "signal_index",
            "pfa",
            "deflection_root",
            "pd_closed_form",
            "pd_monte_carlo",
            "trials",
            "ci_half_width",
        ]
