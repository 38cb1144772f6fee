"""Shared helpers for the test suite.

Everything here is deterministic: tests draw randomness only through
numpy Generators seeded inline, so a failure always reproduces.
"""
import numpy as np
import pytest

# One small config per CLI verb: criterion 9 reruns them, and
# test_frozen_outputs compares their outputs with tests/frozen/.
CONFIGS_C9 = {
    "design": "n = 8\nm = 3\ni = 3\nseeds = 0\nsignal_index = 0\ntrials = 500\n",
    "fig2": "n = 8\nm = 5\ni = 3\nm_values = 2,5\nseeds = 0,1\n",
    "fig3": "n = 8\nm = 4\ni = 8\ni_values = 2,4,8\nseeds = 0,1\n",
    "fig4": "n = 8\nm = 3\ni = 3\ngrid_points = 5\nseeds = 0,1\n",
    "detect": "n = 8\nm = 3\ni = 3\ntrials = 500\nseeds = 0,1\n",
}


def random_orthonormal_rows(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """An m x n matrix with orthonormal rows, uniform over the Stiefel manifold."""
    g = rng.standard_normal((n, m))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.where(np.diag(r) == 0, 1.0, np.diag(r)))
    return q.T


def random_symmetric(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n))
    return (g + g.T) / 2.0


def assert_trace_monotone(trace, slack: float = 1e-12) -> None:
    """Objective traces must never decrease beyond the stated absolute slack."""
    t = np.asarray(trace, dtype=float)
    if t.size < 2:
        return
    drops = np.diff(t)
    worst = float(drops.min())
    assert worst >= -slack, f"objective decreased by {-worst:.3e}"


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
