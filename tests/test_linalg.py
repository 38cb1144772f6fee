"""Numeric kernels: eigendecomposition, polar factor, row basis."""
import math
import warnings

import numpy as np
import pytest

from collabdesign import (
    NotSymmetric,
    RankDeficient,
    polar_factor,
    row_basis,
    sym_eig,
)
from conftest import random_orthonormal_rows, random_symmetric

GOLDEN = (3.0 + math.sqrt(5.0)) / 2.0  # top eigenvalue of [[2,1],[1,1]]


class TestSymEig:
    def test_two_by_two_hand_values(self):
        pairs = sym_eig(np.array([[2.0, 1.0], [1.0, 1.0]]))
        assert pairs.values[0] == pytest.approx(GOLDEN, rel=1e-14)
        assert pairs.values[1] == pytest.approx((3.0 - math.sqrt(5.0)) / 2.0, rel=1e-14)

    def test_diagonal_descending(self):
        pairs = sym_eig(np.diag([3.0, 2.0, 1.0]))
        assert np.allclose(pairs.values, [3.0, 2.0, 1.0])
        # canonical sign: first nonzero coordinate of each vector positive
        assert np.allclose(np.abs(pairs.vectors), np.eye(3))
        for k in range(3):
            col = pairs.vectors[:, k]
            lead = col[np.nonzero(np.abs(col) > 1e-12)[0][0]]
            assert lead > 0

    def test_identity_ties_are_deterministic(self):
        a = sym_eig(np.eye(4))
        b = sym_eig(np.eye(4))
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)
        assert np.allclose(a.values, np.ones(4))
        assert np.allclose(a.vectors @ a.vectors.T, np.eye(4), atol=1e-12)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(NotSymmetric):
            sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(NotSymmetric):
            sym_eig(np.zeros((2, 3)))

    def test_reconstruction_and_trace(self, rng):
        for k in range(25):
            n = int(rng.integers(2, 9))
            omega = random_symmetric(rng, n)
            pairs = sym_eig(omega)
            rebuilt = pairs.vectors @ np.diag(pairs.values) @ pairs.vectors.T
            assert np.linalg.norm(rebuilt - omega) <= 1e-8 * max(
                1.0, np.linalg.norm(omega)
            )
            assert np.sum(pairs.values) == pytest.approx(np.trace(omega), rel=1e-9, abs=1e-9)
            assert np.all(np.diff(pairs.values) <= 1e-12)

    def test_top_slices_leading_vectors(self):
        pairs = sym_eig(np.diag([5.0, 4.0, 1.0]))
        top = pairs.top(2)
        assert top.shape == (3, 2)
        assert np.allclose(np.abs(top), np.eye(3)[:, :2], atol=1e-12)


class TestPolarFactor:
    def test_axis_scaling_example(self):
        g = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
        u = polar_factor(g)
        assert np.allclose(u, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], atol=1e-12)

    def test_orthonormal_fixed_point(self, rng):
        for _ in range(10):
            q = random_orthonormal_rows(rng, 3, 6).T  # 6x3, orthonormal columns
            assert np.allclose(polar_factor(q), q, atol=1e-10)

    def test_positive_scalar_invariance(self, rng):
        g = rng.standard_normal((5, 2))
        assert np.allclose(polar_factor(g), polar_factor(2.75 * g), atol=1e-10)

    def test_orthonormal_columns(self, rng):
        for _ in range(20):
            g = rng.standard_normal((6, 3))
            u = polar_factor(g)
            assert np.linalg.norm(u.T @ u - np.eye(3)) <= 1e-10

    def test_maximizes_trace_coupling(self, rng):
        # polar factor solves max_U trace(U^T G) over orthonormal-column U
        for _ in range(5):
            g = rng.standard_normal((6, 3))
            u = polar_factor(g)
            best = np.trace(u.T @ g)
            for _ in range(1000):
                cand = random_orthonormal_rows(rng, 3, 6).T
                assert np.trace(cand.T @ g) <= best + 1e-9

    def test_rank_deficient_raises(self):
        with pytest.raises(RankDeficient):
            polar_factor(np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(RankDeficient):
            polar_factor(np.zeros((4, 2)))


def projector(w):
    """P_w = B^T B from the orthonormal row basis B."""
    b = row_basis(w)
    return b.T @ b


class TestRowBasis:
    def test_identity_rows(self):
        b = row_basis(np.eye(4))
        assert b.shape == (4, 4)
        assert np.allclose(b.T @ b, np.eye(4), atol=1e-12)

    def test_single_unit_row(self):
        b = row_basis(np.array([[1.0, 0.0, 0.0]]))
        assert b.shape == (1, 3)
        assert np.allclose(b.T @ b, np.diag([1.0, 0.0, 0.0]), atol=1e-12)

    def test_hand_projector(self):
        p = projector(np.array([[1.0, 1.0, 0.0]]))
        want = np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 0.0]])
        assert np.allclose(p, want, atol=1e-12)

    def test_idempotent_symmetric_trace(self, rng):
        for _ in range(20):
            m, n = int(rng.integers(1, 5)), int(rng.integers(5, 9))
            w = rng.standard_normal((m, n))
            b = row_basis(w)
            assert b.shape == (m, n)
            assert np.allclose(b @ b.T, np.eye(m), atol=1e-10)
            p = b.T @ b
            assert np.allclose(p, p.T, atol=1e-10)
            assert np.allclose(p @ p, p, atol=1e-9)
            assert np.trace(p) == pytest.approx(m, abs=1e-8)

    def test_zero_rows_dropped_silently(self):
        w = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b = row_basis(w)
        assert b.shape == (1, 3)
        assert np.allclose(b.T @ b, np.diag([1.0, 0.0, 0.0]), atol=1e-12)

    def test_all_zero_matrix(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b = row_basis(np.zeros((2, 3)))
        assert b.shape == (0, 3)
        assert np.allclose(b.T @ b, np.zeros((3, 3)))

    def test_dependent_rows_have_rank_one(self):
        b = row_basis(np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]]))
        assert b.shape == (1, 3)
        u = np.array([1.0, 2.0, 0.0]) / np.sqrt(5.0)
        assert np.allclose(b.T @ b, np.outer(u, u), atol=1e-12)

    def test_row_mixing_invariance(self, rng):
        # P depends only on the row space: invariant to invertible row mixing
        for _ in range(10):
            w = rng.standard_normal((3, 7))
            mix = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
            assert np.linalg.norm(projector(w) - projector(mix @ w)) <= 1e-8

    def test_apply_matches_matrix(self, rng):
        # B^T (B s) is the full-rank projector W^T (W W^T)^{-1} W applied to s
        w = rng.standard_normal((2, 5))
        b = row_basis(w)
        s = rng.standard_normal(5)
        want = w.T @ np.linalg.solve(w @ w.T, w @ s)
        assert np.allclose(b.T @ (b @ s), want, atol=1e-12)

