"""Cost-free PCA design, diagonal shortcut, random baseline, embedding check."""
import numpy as np
import pytest

from collabdesign import (
    CollaborationMatrix,
    DesignSpec,
    NotDiagonal,
    Provenance,
    SignalClass,
    check_stable_embedding,
    cumulative_dc,
    design_cost_free,
    design_diagonal_shortcut,
    design_random,
    generate_signal_class,
    random_baseline_prediction,
)
from collabdesign.linalg import row_basis
from conftest import random_orthonormal_rows

# P(1/6 <= B <= 1/2) for B ~ Beta(5, 10): the exact fraction of unit vectors
# a uniformly random 10-dim subspace of R^30 embeds within delta = 0.5 after
# the (N/M) energy correction. Value from term-by-term rational integration
# of x^4 (1-x)^9 / B(5,10).
EMBED_WINDOW_PROB = 0.8412421383738714


def diag_class(entries):
    """A class whose Omega = S^T S is diag(entries)."""
    return SignalClass(np.diag(np.sqrt(np.asarray(entries, dtype=float))))


def omega_of(cls):
    return cls.signals.T @ cls.signals


# (signals, M) at the degenerate corners: more rows than signals, a
# duplicated signal (rank 2), more signals than sensors, and a coordinate
# vector e_0 inside the signal span, which the completion must not pick.
_DEGENERATE = {
    "m_above_i": (np.random.default_rng(11).standard_normal((3, 8)), 5),
    "coordinate_in_span": (np.array([[2.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0]]), 4),
    "duplicate_signal": (np.random.default_rng(12).standard_normal((2, 6))[[0, 1, 0]], 3),
    "i_above_n": (np.random.default_rng(13).standard_normal((8, 3)), 3),
}


class TestDesignCostFree:
    def test_diagonal_spectrum(self):
        cls = diag_class([3.0, 2.0, 1.0])
        w = design_cost_free(cls, 2)
        assert w.provenance is Provenance.PCA
        b = row_basis(w.W)
        assert np.allclose(b.T @ b, np.diag([1.0, 1.0, 0.0]), atol=1e-10)
        cdc, _ = cumulative_dc(w, cls)
        assert cdc == pytest.approx(5.0, rel=1e-12)

    def test_two_signal_eigen_oracle(self):
        cls = SignalClass(signals=np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]]))
        w = design_cost_free(cls, 1)
        cdc, _ = cumulative_dc(w, cls)
        assert cdc == pytest.approx((3.0 + np.sqrt(5.0)) / 2.0, rel=1e-12)

    def test_single_signal(self, rng):
        s = rng.standard_normal(7)
        cls = SignalClass(signals=s[None, :])
        w = design_cost_free(cls, 1)
        assert np.allclose(np.abs(w.W[0]), np.abs(s) / np.linalg.norm(s), atol=1e-12)
        cdc, _ = cumulative_dc(w, cls)
        assert cdc == pytest.approx(float(s @ s), rel=1e-12)

    def test_achieves_eigenvalue_sum(self, rng):
        for _ in range(10):
            cls = SignalClass(signals=rng.standard_normal((5, 9)))
            lam = np.sort(np.linalg.eigvalsh(omega_of(cls)))[::-1]
            for m in (1, 3, 5):
                w = design_cost_free(cls, m)
                cdc, _ = cumulative_dc(w, cls)
                want = float(np.sum(lam[:m]))
                assert cdc == pytest.approx(want, rel=1e-8)

    def test_never_beaten_by_sampled_stiefel(self, rng):
        cls = SignalClass(signals=rng.standard_normal((4, 8)))
        w = design_cost_free(cls, 2)
        best, _ = cumulative_dc(w, cls)
        for _ in range(300):
            cand = random_orthonormal_rows(rng, 2, 8)
            cdc, _ = cumulative_dc(cand, cls)
            assert cdc <= best + 1e-9

    def test_monotone_in_m_with_eigenvalue_steps(self, rng):
        cls = SignalClass(signals=rng.standard_normal((6, 10)))
        lam = np.sort(np.linalg.eigvalsh(omega_of(cls)))[::-1]
        prev = 0.0
        for m in range(1, 8):
            cdc, _ = cumulative_dc(design_cost_free(cls, m), cls)
            step = cdc - prev
            want = float(lam[m - 1]) if m - 1 < lam.size else 0.0
            assert step == pytest.approx(want, rel=1e-8, abs=1e-8)
            assert cdc >= prev - 1e-9
            prev = cdc

    def test_orthonormal_rows_enforced(self):
        spec = DesignSpec(N=3, M=2)
        with pytest.raises(ValueError):
            CollaborationMatrix(
                W=np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
                provenance=Provenance.PCA,
                spec=spec,
            )

    @pytest.mark.parametrize("case", sorted(_DEGENERATE))
    def test_degenerate_classes(self, case):
        signals, m = _DEGENERATE[case]
        cls = SignalClass(signals)
        w = design_cost_free(cls, m).W
        assert np.abs(w @ w.T - np.eye(m)).max() <= 1e-12
        lam = np.sort(np.linalg.eigvalsh(omega_of(cls)))[::-1]
        cdc, _ = cumulative_dc(w, cls)
        assert cdc == pytest.approx(float(np.sum(lam[:m])), rel=1e-10)
        for row in w:
            first = np.flatnonzero(np.abs(row) > 1e-12 * max(1.0, np.abs(row).max()))[0]
            assert row[first] > 0.0
        assert design_cost_free(cls, m).W.tobytes() == w.tobytes()

    def test_shape_must_match_spec(self):
        with pytest.raises(ValueError):
            CollaborationMatrix(
                W=np.eye(3), provenance=Provenance.RANDOM, spec=DesignSpec(N=4, M=3)
            )


class TestDiagonalShortcut:
    def test_single_row_picks_largest(self):
        w = design_diagonal_shortcut(diag_class([5.0, 0.0, 0.0, 2.0]), 1)
        assert np.allclose(w.W, [[1.0, 0.0, 0.0, 0.0]])

    def test_two_rows_and_free_block(self):
        cls = diag_class([5.0, 0.0, 0.0, 2.0])
        omega = omega_of(cls)
        w = design_diagonal_shortcut(cls, 2)
        assert np.allclose(sorted(np.argmax(np.abs(w.W), axis=1)), [0, 3])
        cdc = np.trace(w.W @ omega @ w.W.T)
        assert cdc == pytest.approx(7.0)
        # entries over the zero-diagonal support do not change the objective
        perturbed = w.W.copy()
        perturbed[:, 1:3] = 0.37
        assert np.trace(perturbed @ omega @ perturbed.T) == pytest.approx(7.0)

    def test_degenerate_spectrum(self):
        w = design_diagonal_shortcut(diag_class([1.0, 1.0]), 2)
        cdc = np.trace(w.W @ np.eye(2) @ w.W.T)
        assert cdc == pytest.approx(2.0)

    def test_rejects_off_diagonal_mass(self):
        # S^T S = [[1, 0.5], [0.5, 1]]
        cls = SignalClass(np.array([[1.0, 0.5], [0.0, np.sqrt(0.75)]]))
        with pytest.raises(NotDiagonal):
            design_diagonal_shortcut(cls, 1)

    def test_matches_cost_free_on_diagonal(self, rng):
        for _ in range(5):
            d = np.sort(rng.random(6))[::-1] + 0.1
            cls = diag_class(d)
            omega = omega_of(cls)
            m = int(rng.integers(1, 5))
            a = design_diagonal_shortcut(cls, m)
            b = design_cost_free(cls, m)
            cdc_a = np.trace(a.W @ omega @ a.W.T)
            cdc_b = np.trace(b.W @ omega @ b.W.T)
            assert cdc_a == pytest.approx(cdc_b, rel=1e-9)


class TestDesignRandom:
    def test_deterministic(self):
        spec = DesignSpec(N=30, M=10)
        a = design_random(spec, seed=1)
        b = design_random(spec, seed=1)
        assert np.array_equal(a.W, b.W)
        assert a.W.shape == (10, 30)
        assert a.provenance is Provenance.RANDOM

    def test_distinct_seeds(self):
        spec = DesignSpec(N=12, M=4)
        assert not np.array_equal(design_random(spec, 0).W, design_random(spec, 1).W)

    def test_square_full_rank_is_lossless(self, rng):
        spec = DesignSpec(N=5, M=5)
        w = design_random(spec, seed=3)
        b = row_basis(w.W)
        assert np.linalg.norm(b.T @ b - np.eye(5)) <= 1e-8
        cls = SignalClass(signals=rng.standard_normal((4, 5)))
        cdc, _ = cumulative_dc(w, cls)
        assert cdc == pytest.approx(cls.energy, rel=1e-9)


class TestRandomBaselinePrediction:
    def test_formula(self):
        cls = generate_signal_class(10, 30, 0)
        assert random_baseline_prediction(cls, 10) == pytest.approx(cls.energy / 3.0)

    def test_full_dimension_exact(self, rng):
        cls = SignalClass(signals=rng.standard_normal((6, 14)))
        assert random_baseline_prediction(cls, 14) == pytest.approx(cls.energy)

    def test_monte_carlo_agreement(self):
        # 1000 Gaussian draws; P_w of each from the QR basis of W^T
        cls = generate_signal_class(10, 30, 5)
        rng = np.random.default_rng(42)
        g = rng.standard_normal((1000, 30, 10))
        q, _ = np.linalg.qr(g)
        proj = np.einsum("in,bnm->bim", cls.signals, q)
        mean_cdc = float(np.mean(np.sum(proj * proj, axis=(1, 2))))
        want = random_baseline_prediction(cls, 10)
        assert abs(mean_cdc - want) <= 0.02 * want


class TestStableEmbedding:
    def test_identity_embeds_exactly(self, rng):
        cls = SignalClass(signals=rng.standard_normal((5, 6)))
        flags = check_stable_embedding(np.eye(6), cls, delta=0.01)
        assert flags.shape == (5,)
        assert flags.all()

    def test_annihilated_signal_fails(self):
        cls = SignalClass(signals=np.array([[0.0, 1.0, 0.0]]))
        flags = check_stable_embedding(np.array([[1.0, 0.0, 0.0]]), cls, delta=0.5)
        assert not flags.any()

    def test_delta_range_validated(self, rng):
        cls = SignalClass(signals=rng.standard_normal((2, 4)))
        with pytest.raises(ValueError):
            check_stable_embedding(np.eye(4), cls, delta=0.0)
        with pytest.raises(ValueError):
            check_stable_embedding(np.eye(4), cls, delta=1.0)

    def test_gaussian_rate_matches_beta_window(self):
        # ||P s||^2 / ||s||^2 of a random 10-dim subspace is Beta(5, 10);
        # the pass rate converges to the mass of [1/6, 1/2], about 84 percent.
        # The 10 signals of one seed share a W, so the sample is clustered
        # and the window must absorb that extra variance.
        hits = 0
        total = 0
        for seed in range(100):
            cls = generate_signal_class(10, 30, (2024, seed))
            w = design_random(DesignSpec(N=30, M=10), seed=(seed, 1))
            flags = check_stable_embedding(w, cls, delta=0.5)
            hits += int(np.sum(flags))
            total += flags.size
        rate = hits / total
        assert abs(rate - EMBED_WINDOW_PROB) < 0.05

    def test_beta_window_against_independent_subspaces(self):
        # sharper check of the same constant with fully independent draws
        rng = np.random.default_rng(7)
        g = rng.standard_normal((5000, 30, 10))
        q, _ = np.linalg.qr(g)
        s = rng.standard_normal((5000, 30))
        proj = np.einsum("bn,bnm->bm", s, q)
        ratio = np.sum(proj**2, axis=1) / np.sum(s**2, axis=1)
        rate = float(np.mean((ratio >= 1.0 / 6.0) & (ratio <= 0.5)))
        assert abs(rate - EMBED_WINDOW_PROB) < 0.015
