"""Numeric kernels: polar factor, row basis, leading right singular vectors."""
import warnings

import numpy as np
import pytest

from collabdesign import (
    RankDeficient,
    leading_rows,
    polar_factor,
    row_basis,
)
from collabdesign.sparse import initial_u
from conftest import random_orthonormal_rows


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


def assert_canonical_signs(rows):
    for row in rows:
        first = np.flatnonzero(np.abs(row) > 1e-12 * max(1.0, np.abs(row).max()))[0]
        assert row[first] > 0.0


class TestLeadingRows:
    def test_pca_start_holds_the_leading_eigenpairs_of_the_gram(self, rng):
        # A A^T U = U diag(sigma^2): the columns of U are the leading
        # eigenvectors of the I x I Gram, although no Gram is formed
        for i_dim, n_dim, m in ((3, 8, 2), (5, 5, 5), (10, 30, 10), (4, 200, 3)):
            a = rng.standard_normal((i_dim, n_dim))
            u = initial_u(a, m)
            assert u.shape == (i_dim, m)
            sv = np.linalg.svd(a, compute_uv=False)[:m]
            residual = a @ (a.T @ u) - u * (sv * sv)
            assert np.abs(residual).max() <= 1e-12 * sv[0] ** 2
            assert np.abs(u.T @ u - np.eye(m)).max() <= 1e-12

    def test_rows_have_canonical_signs(self, rng):
        for _ in range(10):
            x = rng.standard_normal((4, 9))
            rows = leading_rows(x, 4)
            assert_canonical_signs(rows)
            assert_canonical_signs(initial_u(x, 3).T)
            # the signs do not depend on the signs of the input
            assert np.allclose(leading_rows(-x, 4), rows, rtol=0.0, atol=1e-12)

    def test_duplicate_signals_are_completed_past_the_rank(self):
        # rank 2 with I = 3: the third direction comes from the completion
        s = np.array([[1.0, 2.0, 0.0, 1.0], [1.0, 2.0, 0.0, 1.0], [0.0, 1.0, 3.0, 0.0]])
        u = initial_u(s, 3)
        assert np.abs(u.T @ u - np.eye(3)).max() <= 1e-12
        # the completed column is orthogonal to the column span of S
        assert np.abs(u[:, 2] @ s).max() <= 1e-12
        assert_canonical_signs(u.T)
        rows = leading_rows(s, 4)
        assert np.abs(rows @ rows.T - np.eye(4)).max() <= 1e-12
        assert np.abs(s @ rows[2:].T).max() <= 1e-12

    def test_zero_matrix_gives_coordinate_rows(self):
        assert np.array_equal(leading_rows(np.zeros((2, 3)), 3), np.eye(3))

    def test_two_calls_are_byte_equal(self, rng):
        x = rng.standard_normal((6, 11))
        assert leading_rows(x, 5).tobytes() == leading_rows(x, 5).tobytes()
        dup = np.vstack([x[:2], x[:2]])
        assert initial_u(dup, 4).tobytes() == initial_u(dup, 4).tobytes()
