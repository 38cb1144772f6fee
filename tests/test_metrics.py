"""Performance and cost metrics: C-DC, C_u, C_c, link counting."""
import math

import numpy as np
import pytest

from collabdesign import (
    DesignSpec,
    Penalty,
    SignalClass,
    ZeroSignalClass,
    active_link_ratio,
    cost_of_collaboration,
    cost_of_universality,
    cumulative_dc,
    design_cost_free,
    metrics_report,
)
from conftest import random_orthonormal_rows


def two_signal_class():
    return SignalClass(signals=np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]))


class TestCumulativeDC:
    def test_identity_recovers_energy(self, rng):
        cls = SignalClass(signals=rng.standard_normal((4, 6)))
        cdc, per_signal = cumulative_dc(np.eye(6), cls)
        assert cdc == pytest.approx(cls.energy, rel=1e-12)
        assert np.allclose(per_signal, np.sum(cls.signals**2, axis=1))

    def test_axis_projector(self):
        cls = SignalClass(signals=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        cdc, per_signal = cumulative_dc(np.array([[1.0, 0.0, 0.0]]), cls)
        assert np.allclose(per_signal, [1.0, 0.0])
        assert cdc == pytest.approx(1.0)

    def test_top_eigenvector_hand_value(self):
        # Omega of {(1,0,0),(1,1,0)} has top eigenvalue (3+sqrt(5))/2
        cls = two_signal_class()
        w = design_cost_free(cls, 1)
        cdc, _ = cumulative_dc(w, cls)
        assert cdc == pytest.approx((3.0 + math.sqrt(5.0)) / 2.0, rel=1e-12)

    def test_cauchy_schwarz_bound(self, rng):
        cls = SignalClass(signals=rng.standard_normal((5, 8)))
        for _ in range(20):
            w = rng.standard_normal((3, 8))
            cdc, _ = cumulative_dc(w, cls)
            assert cdc <= cls.energy + 1e-9

    def test_scale_invariance(self, rng):
        cls = SignalClass(signals=rng.standard_normal((3, 7)))
        w = rng.standard_normal((2, 7))
        cdc1, _ = cumulative_dc(w, cls)
        cdc2, _ = cumulative_dc(-2.5 * w, cls)
        assert cdc1 == pytest.approx(cdc2, rel=1e-12)

    def test_row_augmentation_never_decreases(self, rng):
        cls = SignalClass(signals=rng.standard_normal((4, 9)))
        w = rng.standard_normal((2, 9))
        base, _ = cumulative_dc(w, cls)
        for _ in range(10):
            grown = np.vstack([w, rng.standard_normal((1, 9))])
            bigger, _ = cumulative_dc(grown, cls)
            assert bigger >= base - 1e-9


class TestCostOfUniversality:
    def test_signal_in_row_space(self):
        s = np.array([[3.0, 4.0, 0.0]])
        cls = SignalClass(signals=s)
        assert cost_of_universality(s / 5.0, cls) == pytest.approx(1.0, abs=1e-12)

    def test_cost_free_covers_small_class(self, rng):
        cls = SignalClass(signals=rng.standard_normal((4, 12)))
        w = design_cost_free(cls, 6)
        assert cost_of_universality(w, cls) == pytest.approx(1.0, abs=1e-9)

    def test_large_class_matches_eigenvalue_ratio(self, rng):
        signals = rng.standard_normal((20, 30))
        cls = SignalClass(signals=signals)
        omega = cls.signals.T @ cls.signals
        w = design_cost_free(cls, 10)
        lam = np.sort(np.linalg.eigvalsh(omega))[::-1]
        want = float(np.sum(lam[:10]) / np.trace(omega))
        got = cost_of_universality(w, cls)
        assert got < 1.0
        assert got == pytest.approx(want, rel=1e-9)

    def test_zero_class_rejected(self):
        with pytest.raises(ZeroSignalClass):
            cost_of_universality(np.eye(3), SignalClass(signals=np.zeros((2, 3))))


class TestCostOfCollaboration:
    def test_zero_gammas(self):
        assert cost_of_collaboration(DesignSpec(N=5, M=3)) == 0.0

    def test_uniform_tenth(self):
        spec = DesignSpec(N=30, M=10, gammas=0.1, penalty=Penalty.L1)
        assert cost_of_collaboration(spec) == pytest.approx(1.0)

    def test_mixed_weights(self):
        spec = DesignSpec(N=6, M=3, gammas=(0.2, 0.3, 0.5), penalty=Penalty.L0)
        assert cost_of_collaboration(spec) == pytest.approx(1.0)


class TestActiveLinkRatio:
    def test_all_zero(self):
        assert active_link_ratio(np.zeros((2, 5))) == 0.0

    def test_dense(self, rng):
        w = rng.standard_normal((4, 6))
        assert active_link_ratio(w) == 1.0

    def test_forty_percent_deactivated(self, rng):
        w = rng.standard_normal((10, 30))
        flat = w.reshape(-1)
        off = rng.choice(flat.size, size=120, replace=False)
        flat[off] = 0.0
        assert active_link_ratio(w) == pytest.approx(0.6)


class TestMetricsReport:
    def test_field_consistency(self, rng):
        cls = SignalClass(signals=rng.standard_normal((6, 10)))
        w = random_orthonormal_rows(rng, 4, 10)
        spec = DesignSpec(N=10, M=4, gammas=0.05, penalty=Penalty.L1)
        report = metrics_report(w, cls, spec)
        assert report.cdc == pytest.approx(np.sum(report.per_signal_dc), rel=1e-9)
        assert 0.0 <= report.cdc <= report.cdc_upper_bound + 1e-9
        assert report.cdc_upper_bound == pytest.approx(cls.energy, rel=1e-12)
        assert report.cost_universality == pytest.approx(
            report.cdc / report.cdc_upper_bound, rel=1e-12
        )
        assert report.cost_collaboration == pytest.approx(0.2)
        assert 0.0 <= report.normalized_cdc <= 1.0
        assert 0.0 <= report.active_link_ratio <= 1.0

    def test_as_dict_flat_record(self, rng):
        cls = SignalClass(signals=rng.standard_normal((3, 5)))
        report = metrics_report(np.eye(5), cls, DesignSpec(N=5, M=5))
        record = report.as_dict()
        for key in (
            "cdc",
            "cdc_upper_bound",
            "cost_universality",
            "cost_collaboration",
            "active_link_ratio",
            "normalized_cdc",
        ):
            assert key in record
            assert isinstance(record[key], float)
        assert all(f"dc_{i}" in record for i in range(3))
