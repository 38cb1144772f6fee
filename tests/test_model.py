"""Domain model: signal classes, their spectrum, design specs."""
import numpy as np
import pytest

from collabdesign import (
    DesignSpec,
    Penalty,
    SignalClass,
    generate_signal_class,
)


class TestSignalClass:
    def test_properties(self):
        cls = SignalClass(signals=np.array([[3.0, 4.0], [0.0, 1.0]]))
        assert cls.count == 2
        assert cls.dimension == 2
        assert cls.energy == pytest.approx(26.0)

    def test_vector_promotes_to_single_signal(self):
        cls = SignalClass(signals=np.array([1.0, 2.0]))
        assert cls.count == 1
        assert cls.dimension == 2

    def test_rejects_three_dimensional(self):
        with pytest.raises(ValueError):
            SignalClass(signals=np.zeros((2, 2, 2)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SignalClass(signals=np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError):
            SignalClass(signals=np.array([[np.inf, 0.0]]))


class TestBuildOmega:
    """SignalClass.spectrum against Omega = S^T S, built inline."""

    def test_single_signal_rank_one(self):
        cls = SignalClass(signals=np.array([[1.0, 0.0, 0.0]]))
        assert np.allclose(cls.spectrum, [1.0])

    def test_trace_equals_energy(self, rng):
        # the eigenvalues of S S^T sum to its trace, the class energy
        for _ in range(10):
            cls = SignalClass(signals=rng.standard_normal((4, 7)))
            assert np.sum(cls.spectrum) == pytest.approx(cls.energy, rel=1e-12)

    def test_rank_bounded_by_count_and_dimension(self, rng):
        for i_dim, n_dim in ((3, 8), (8, 3), (5, 5)):
            cls = SignalClass(signals=rng.standard_normal((i_dim, n_dim)))
            lam = cls.spectrum
            assert lam.size == i_dim
            assert int(np.sum(lam > 1e-10 * lam[0])) <= min(i_dim, n_dim)

    def test_spectrum_is_the_nonzero_spectrum_of_omega(self, rng):
        # S S^T (I x I) and Omega = S^T S (N x N) share their nonzero eigenvalues
        for i_dim, n_dim in ((3, 8), (8, 3), (5, 5)):
            cls = SignalClass(signals=rng.standard_normal((i_dim, n_dim)))
            lam = np.sort(np.linalg.eigvalsh(cls.signals.T @ cls.signals))[::-1]
            k = min(i_dim, n_dim)
            assert np.allclose(cls.spectrum[:k], lam[:k], rtol=1e-10, atol=1e-10)
            assert np.allclose(cls.spectrum[k:], 0.0, atol=1e-10)
            assert np.all(np.diff(cls.spectrum) <= 0.0)

    def test_eigenvalues_rotation_invariant(self, rng):
        # right-rotating every signal conjugates Omega, preserving its spectrum
        cls = SignalClass(signals=rng.standard_normal((4, 5)))
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        rotated = SignalClass(signals=cls.signals @ q)
        lam1 = np.linalg.eigvalsh(cls.signals.T @ cls.signals)
        lam2 = np.linalg.eigvalsh(rotated.signals.T @ rotated.signals)
        assert np.allclose(np.sort(lam1), np.sort(lam2), atol=1e-9)


class TestGenerateSignalClass:
    def test_deterministic_bitwise(self):
        a = generate_signal_class(10, 30, 7)
        b = generate_signal_class(10, 30, 7)
        assert np.array_equal(a.signals, b.signals)

    def test_distinct_seeds_differ(self):
        a = generate_signal_class(5, 12, 0)
        b = generate_signal_class(5, 12, 1)
        assert not np.array_equal(a.signals, b.signals)

    def test_standard_normal_energy_scale(self):
        # E||s||^2 = N = 30 per signal; the seed-7 sample mean sits well inside [20, 40]
        cls = generate_signal_class(10, 30, 7)
        mean_sq = cls.energy / cls.count
        assert 20.0 < mean_sq < 40.0

    def test_smaller_class_is_prefix(self):
        # row-major fill makes the I-signal class a prefix of the larger one
        small = generate_signal_class(4, 12, 3)
        large = generate_signal_class(9, 12, 3)
        assert np.array_equal(large.signals[:4], small.signals)


class TestDesignSpec:
    def test_defaults_broadcast(self):
        spec = DesignSpec(N=6, M=3)
        assert spec.penalty is Penalty.NONE
        assert np.allclose(spec.gammas, np.zeros(3))

    def test_scalar_gamma_broadcast(self):
        spec = DesignSpec(N=6, M=3, gammas=0.25, penalty=Penalty.L1)
        assert np.allclose(spec.gammas, [0.25, 0.25, 0.25])

    def test_m_bounds(self):
        with pytest.raises(ValueError):
            DesignSpec(N=4, M=5)
        with pytest.raises(ValueError):
            DesignSpec(N=4, M=0)

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            DesignSpec(N=4, M=2, gammas=(-0.1, 0.0), penalty=Penalty.L0)
        with pytest.raises(ValueError):
            DesignSpec(N=4, M=2, gammas=(float("nan"), 0.0), penalty=Penalty.L0)

    def test_penalty_enum_round_trip(self):
        assert Penalty("l0") is Penalty.L0
        assert Penalty("l1") is Penalty.L1
        assert Penalty("none") is Penalty.NONE
