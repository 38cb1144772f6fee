"""Penalized sparse design: objectives, gradients, power iteration, recovery,
and the gamma calibration sweep."""
import numpy as np
import pytest

from collabdesign import (
    AllRowsDead,
    CollaborationMatrix,
    DesignSpec,
    Penalty,
    Provenance,
    SignalClass,
    Unachievable,
    calibrate_gamma,
    cumulative_dc,
    design_sparse,
    generate_signal_class,
    gradient_l0,
    gradient_l1,
    objective_l0,
    objective_l1,
    metrics_report,
    recover_w,
    simulate_detection,
    solve_gpower,
)
from collabdesign import sparse
from collabdesign.experiments import penalty_gamma_grid
from collabdesign.sparse import _batch_size, gamma_ceiling, initial_u, solve_path
from conftest import assert_trace_monotone, random_orthonormal_rows


def top_eigensum(signals: np.ndarray, m: int) -> float:
    lam = np.sort(np.linalg.eigvalsh(signals.T @ signals))[::-1]
    return float(np.sum(lam[:m]))


class TestObjectives:
    def test_l1_hand_value(self):
        u = np.array([[1.0], [0.0]])
        a = np.eye(2)
        assert objective_l1(u, a, [0.5], [1.0]) == pytest.approx(0.25)

    def test_l0_hand_value(self):
        u = np.array([[1.0], [0.0]])
        a = np.eye(2)
        assert objective_l0(u, a, [0.5], [1.0]) == pytest.approx(0.5)

    def test_scalar_gamma_broadcasts(self):
        u = np.array([[1.0], [0.0]])
        a = np.eye(2)
        assert objective_l1(u, a, 0.5, 1.0) == pytest.approx(0.25)
        assert objective_l0(u, a, 0.5, 1.0) == pytest.approx(0.5)

    def test_full_truncation_gives_zero(self, rng):
        a = rng.standard_normal((3, 6))
        u = random_orthonormal_rows(rng, 2, 3).T
        big = 10.0 * gamma_ceiling(a, Penalty.L1)
        assert objective_l1(u, a, [big, big], [1.0, 1.0]) == 0.0
        assert objective_l0(u, a, [big**2, big**2], [1.0, 1.0]) == 0.0

    def test_gamma_zero_trace_identity(self, rng):
        for _ in range(5):
            a = rng.standard_normal((4, 7))
            u = random_orthonormal_rows(rng, 2, 4).T
            want = float(np.trace(u.T @ (a @ a.T) @ u))
            assert objective_l1(u, a, [0.0, 0.0], [1.0, 1.0]) == pytest.approx(want, rel=1e-12)
            assert objective_l0(u, a, [0.0, 0.0], [1.0, 1.0]) == pytest.approx(want, rel=1e-12)


class TestGradients:
    def test_gamma_zero_quadratic_form(self, rng):
        a = rng.standard_normal((4, 6))
        u = random_orthonormal_rows(rng, 2, 4).T
        want = 2.0 * (a @ a.T) @ u
        assert np.allclose(gradient_l1(u, a, [0.0, 0.0], [1.0, 1.0]), want, atol=1e-10)
        assert np.allclose(gradient_l0(u, a, [0.0, 0.0], [1.0, 1.0]), want, atol=1e-10)

    def test_clipped_gradient_vanishes(self, rng):
        a = rng.standard_normal((3, 5))
        u = random_orthonormal_rows(rng, 2, 3).T
        big = 10.0 * gamma_ceiling(a, Penalty.L1)
        assert np.all(gradient_l1(u, a, [big] * 2, [1.0] * 2) == 0.0)
        assert np.all(gradient_l0(u, a, [big**2] * 2, [1.0] * 2) == 0.0)

    @pytest.mark.parametrize("penalty", [Penalty.L0, Penalty.L1])
    def test_matches_central_differences(self, penalty):
        objective = objective_l0 if penalty is Penalty.L0 else objective_l1
        gradient = gradient_l0 if penalty is Penalty.L0 else gradient_l1
        h = 1e-6
        accepted = 0
        attempt = 0
        while accepted < 10:
            attempt += 1
            assert attempt < 200, "could not find boundary-free instances"
            rng = np.random.default_rng((515, attempt))
            i_dim, m_dim, n_dim = 4, 2, 6
            a = rng.standard_normal((i_dim, n_dim))
            u = random_orthonormal_rows(rng, m_dim, i_dim).T
            t = a.T @ u
            mid = float(np.median(np.abs(t)))
            gam = np.full(m_dim, mid if penalty is Penalty.L1 else mid**2)
            # skip instances with a score at a kink or truncation boundary
            margin_kink = float(np.min(np.abs(t)))
            if penalty is Penalty.L1:
                margin_clip = float(np.min(np.abs(np.abs(t) - gam[None, :])))
            else:
                margin_clip = float(np.min(np.abs(t**2 - gam[None, :])))
            if min(margin_kink, margin_clip) < 1e-4:
                continue
            accepted += 1
            y = np.ones(m_dim)
            g = gradient(u, a, gam, y)
            fd = np.zeros_like(g)
            for r in range(i_dim):
                for c in range(m_dim):
                    up = u.copy()
                    dn = u.copy()
                    up[r, c] += h
                    dn[r, c] -= h
                    fd[r, c] = (objective(up, a, gam, y) - objective(dn, a, gam, y)) / (2 * h)
            scale = max(1.0, float(np.abs(g).max()))
            assert np.abs(fd - g).max() <= 1e-5 * scale


class TestSolveGpower:
    def test_gamma_zero_reaches_eigenvalue_sum(self):
        for seed in range(5):
            cls = generate_signal_class(6, 12, seed)
            want = top_eigensum(cls.signals, 3)
            for pen in (Penalty.L0, Penalty.L1):
                spec = DesignSpec(N=12, M=3, penalty=pen)
                state = solve_gpower(cls.signals, spec)
                assert state.converged
                assert state.objective == pytest.approx(want, rel=1e-6)

    def test_scalar_stiefel(self):
        a = np.array([[2.0, -1.0, 0.5]])
        spec = DesignSpec(N=3, M=1, gammas=0.1, penalty=Penalty.L0)
        state = solve_gpower(a, spec)
        assert state.U.shape == (1, 1)
        assert state.U[0, 0] == pytest.approx(1.0)

    def test_monotone_trace_and_feasibility(self, rng):
        for k in range(8):
            i_dim = int(rng.integers(3, 9))
            m_dim = int(rng.integers(1, i_dim + 1))
            n_dim = int(rng.integers(i_dim, 14))
            cls = generate_signal_class(i_dim, n_dim, (77, k))
            pen = Penalty.L0 if k % 2 else Penalty.L1
            ceiling = gamma_ceiling(cls.signals, pen)
            spec = DesignSpec(N=n_dim, M=m_dim, gammas=0.3 * ceiling, penalty=pen)
            state = solve_gpower(cls.signals, spec)
            assert_trace_monotone(state.objective_trace)
            assert state.stiefel_residual_max <= 1e-8

    def test_degenerate_when_everything_clips(self):
        cls = generate_signal_class(4, 8, 0)
        big = 10.0 * gamma_ceiling(cls.signals, Penalty.L0)
        spec = DesignSpec(N=8, M=2, gammas=big, penalty=Penalty.L0)
        state = solve_gpower(cls.signals, spec)
        assert state.degenerate
        assert not state.converged

    def test_preconditions(self):
        cls = generate_signal_class(3, 8, 0)
        with pytest.raises(ValueError):
            solve_gpower(cls.signals, DesignSpec(N=8, M=4, gammas=0.1, penalty=Penalty.L1))
        with pytest.raises(ValueError):
            solve_gpower(cls.signals, DesignSpec(N=9, M=2, gammas=0.1, penalty=Penalty.L1))
        with pytest.raises(ValueError):
            solve_gpower(cls.signals, DesignSpec(N=8, M=2))
        with pytest.raises(ValueError):
            solve_gpower(
                cls.signals, DesignSpec(N=8, M=2, gammas=0.1, penalty=Penalty.L1), tol=0.0
            )

    def test_init_strategies(self):
        cls = generate_signal_class(4, 9, 1)
        u = initial_u(cls.signals, 2)
        assert np.allclose(u.T @ u, np.eye(2), atol=1e-10)
        v = initial_u(cls.signals, 2, init="random", seed=5)
        assert np.allclose(v.T @ v, np.eye(2), atol=1e-10)
        assert not np.allclose(u, v)
        with pytest.raises(ValueError):
            initial_u(cls.signals, 2, init="warmest")

    def test_random_init_reaches_same_gamma_zero_objective(self):
        cls = generate_signal_class(5, 10, 2)
        want = top_eigensum(cls.signals, 2)
        spec = DesignSpec(N=10, M=2, penalty=Penalty.L1)
        state = solve_gpower(cls.signals, spec, init="random", init_seed=11)
        assert state.objective == pytest.approx(want, rel=1e-6)


def count_calls(monkeypatch, module, name, counter, size=lambda *a, **k: 1):
    """Wrap module.name so that every call adds size(args) to counter[name]."""
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counter[name] = counter.get(name, 0) + size(*args, **kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def assert_same_state(got, want):
    assert got.U.tobytes() == want.U.tobytes()
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert got.degenerate == want.degenerate
    assert np.array(got.objective_trace).tobytes() == np.array(want.objective_trace).tobytes()


class TestSolvePath:
    @pytest.mark.parametrize("penalty", [Penalty.L0, Penalty.L1])
    @pytest.mark.parametrize("i_dim,n_dim,seed", [(10, 30, 0), (6, 14, 3)])
    def test_matches_per_gamma_solves_bitwise(self, monkeypatch, penalty, i_dim, n_dim, seed):
        cls = generate_signal_class(i_dim, n_dim, seed)
        spec = DesignSpec(N=n_dim, M=i_dim, penalty=penalty)
        grid = penalty_gamma_grid(cls.signals, penalty, 25)
        path = solve_path(cls.signals, spec, grid)
        objective = objective_l0 if penalty is Penalty.L0 else objective_l1
        counter: dict = {}
        count_calls(monkeypatch, np.linalg, "svd", counter)
        shifted = 0
        for gamma, state in zip(grid, path):
            counter["svd"] = 0
            alone = solve_gpower(
                cls.signals, DesignSpec(N=n_dim, M=i_dim, gammas=gamma, penalty=penalty)
            )
            # one SVD per step, plus one per step that takes the mu U shift
            shifted += counter["svd"] > alone.iterations + alone.degenerate
            assert_same_state(state, alone)
            assert state.objective == objective(state.U, cls.signals, gamma, spec.y_diag)
        assert shifted > 0
        assert path[-1].degenerate
        assert sum(s.converged for s in path) > 10

    def test_per_row_gammas_match_design_spec(self):
        cls = generate_signal_class(5, 12, 4)
        rows = np.array([[0.0, 0.1, 0.2], [0.3, 0.0, 0.6], [0.5, 0.5, 0.5]])
        path = solve_path(cls.signals, DesignSpec(N=12, M=3, penalty=Penalty.L1), rows)
        for gammas, state in zip(rows, path):
            spec = DesignSpec(N=12, M=3, gammas=gammas, penalty=Penalty.L1)
            assert_same_state(state, solve_gpower(cls.signals, spec))

    def test_escalated_shift_matches_per_gamma_solves(self, monkeypatch):
        # Without the small mu U shift, a gradient with dead columns stays
        # rank-deficient and every such step takes the escalated shift.
        monkeypatch.setattr(sparse, "_SHIFT_SCALE", 0.0)
        counter: dict = {}
        count_calls(monkeypatch, sparse, "polar_factor", counter)
        cls = generate_signal_class(6, 14, 3)
        spec = DesignSpec(N=14, M=6, penalty=Penalty.L0)
        grid = penalty_gamma_grid(cls.signals, Penalty.L0, 25)
        path = solve_path(cls.signals, spec, grid)
        escalations = counter.get("polar_factor", 0)
        assert escalations > 0
        for gamma, state in zip(grid, path):
            assert_trace_monotone(state.objective_trace)
            alone = solve_gpower(
                cls.signals, DesignSpec(N=14, M=6, gammas=gamma, penalty=Penalty.L0)
            )
            assert_same_state(state, alone)

    def test_rejects_malformed_gammas(self):
        cls = generate_signal_class(4, 9, 0)
        spec = DesignSpec(N=9, M=2, penalty=Penalty.L0)
        with pytest.raises(ValueError):
            solve_path(cls.signals, spec, [[0.1, 0.2, 0.3]])
        with pytest.raises(ValueError):
            solve_path(cls.signals, spec, [0.1, -0.2])
        assert solve_path(cls.signals, spec, []) == []

    def test_array_start_matches_the_named_start(self):
        cls = generate_signal_class(6, 14, 3)
        spec = DesignSpec(N=14, M=3, penalty=Penalty.L1)
        grid = penalty_gamma_grid(cls.signals, Penalty.L1, 10)
        start = initial_u(cls.signals, 3)
        for named, given in zip(
            solve_path(cls.signals, spec, grid), solve_path(cls.signals, spec, grid, init=start)
        ):
            assert_same_state(given, named)

    def test_rejects_malformed_start(self):
        cls = generate_signal_class(6, 14, 3)
        spec = DesignSpec(N=14, M=3, gammas=0.1, penalty=Penalty.L0)
        start = initial_u(cls.signals, 3)
        for bad in (start.T, start[:, :2], 2.0 * start, np.full((6, 3), np.nan)):
            with pytest.raises(ValueError):
                design_sparse(cls.signals, spec, init=bad)

    @pytest.mark.parametrize("i_dim,n_dim", [(10, 30), (5, 800)])
    def test_working_set_is_bounded(self, monkeypatch, i_dim, n_dim):
        # A 200-point path never stacks more than one batch of solves.
        bound = _batch_size(n_dim, i_dim)
        svd = np.linalg.svd
        stacks = []

        def bounded_svd(a, *args, **kwargs):
            depth = int(np.prod(np.shape(a)[:-2]))
            if depth > bound:
                raise AssertionError(f"svd of a stack of {depth} > {bound}")
            stacks.append(depth)
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", bounded_svd)
        cls = generate_signal_class(i_dim, n_dim, 0)
        spec = DesignSpec(N=n_dim, M=i_dim, penalty=Penalty.L0)
        path = solve_path(cls.signals, spec, penalty_gamma_grid(cls.signals, Penalty.L0, 200))
        assert len(path) == 200
        assert max(stacks) == bound


class TestRecovery:
    def test_l1_hand_instance(self):
        sol = recover_w(np.array([[1.0]]), np.array([[3.0, 1.0]]), 1.0, 1.0, Penalty.L1)
        assert np.allclose(sol.raw_scores, [[2.0, 0.0]])
        assert np.allclose(sol.W.W, [[1.0, 0.0]])
        assert sol.dead_rows == ()

    def test_l0_hand_instance(self):
        sol = recover_w(np.array([[1.0]]), np.array([[3.0, 1.0]]), 2.0, 1.0, Penalty.L0)
        assert np.allclose(sol.raw_scores, [[3.0, 0.0]])
        assert np.allclose(sol.W.W, [[1.0, 0.0]])

    def test_dead_row_reported(self):
        # second row couples only to the weak sensor, so gamma kills it
        a = np.array([[3.0, 0.0], [0.0, 0.1]])
        sol = recover_w(np.eye(2), a, 1.0, 1.0, Penalty.L1)
        assert sol.dead_rows == (1,)
        assert np.allclose(sol.W.W[1], 0.0)
        assert np.linalg.norm(sol.W.W[0]) == pytest.approx(1.0)

    def test_all_rows_dead_raises(self):
        with pytest.raises(AllRowsDead):
            recover_w(np.array([[1.0]]), np.array([[3.0, 1.0]]), 5.0, 1.0, Penalty.L1)

    def test_unit_rows_and_dead_rows_zero(self, rng):
        cls = generate_signal_class(5, 11, 9)
        ceiling = gamma_ceiling(cls.signals, Penalty.L1)
        spec = DesignSpec(N=11, M=3, gammas=0.5 * ceiling, penalty=Penalty.L1)
        sol = design_sparse(cls.signals, spec, allow_all_dead=True)
        for i in range(3):
            norm = np.linalg.norm(sol.W.W[i])
            if i in sol.dead_rows:
                assert norm == 0.0
            else:
                assert norm == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("penalty", [Penalty.L0, Penalty.L1])
    def test_gamma_zero_matches_pca_cdc(self, penalty):
        for seed in range(5):
            cls = generate_signal_class(6, 13, seed)
            spec = DesignSpec(N=13, M=3, penalty=penalty)
            sol = design_sparse(cls.signals, spec)
            cdc, _ = cumulative_dc(sol.W, cls)
            assert cdc == pytest.approx(top_eigensum(cls.signals, 3), rel=1e-6)

    def test_inner_objective_consistency_l1(self):
        cls = generate_signal_class(5, 10, 3)
        gamma = 0.4 * gamma_ceiling(cls.signals, Penalty.L1)
        spec = DesignSpec(N=10, M=3, gammas=gamma, penalty=Penalty.L1)
        sol = design_sparse(cls.signals, spec, allow_all_dead=True)
        t = cls.signals.T @ sol.U.U
        for i in range(3):
            if i in sol.dead_rows:
                continue
            w_i = sol.W.W[i]
            attained = float(t[:, i] @ w_i) - gamma * float(np.sum(np.abs(w_i)))
            term = float(np.sum(np.maximum(np.abs(t[:, i]) - gamma, 0.0) ** 2))
            assert attained == pytest.approx(np.sqrt(term), abs=1e-9)

    def test_inner_objective_consistency_l0(self):
        cls = generate_signal_class(5, 10, 4)
        gamma = (0.4 * gamma_ceiling(cls.signals, Penalty.L1)) ** 2
        spec = DesignSpec(N=10, M=3, gammas=gamma, penalty=Penalty.L0)
        sol = design_sparse(cls.signals, spec, allow_all_dead=True)
        t = cls.signals.T @ sol.U.U
        for i in range(3):
            if i in sol.dead_rows:
                continue
            w_i = sol.W.W[i]
            attained = float(t[:, i] @ w_i) ** 2 - gamma * float(np.count_nonzero(w_i))
            term = float(np.sum(np.maximum(t[:, i] ** 2 - gamma, 0.0)))
            assert attained == pytest.approx(term, abs=1e-9)

    @pytest.mark.parametrize("penalty", [Penalty.L0, Penalty.L1])
    def test_fixed_u_active_count_nonincreasing_in_gamma(self, penalty, rng):
        cls = generate_signal_class(5, 12, 6)
        u = random_orthonormal_rows(rng, 3, 5).T
        ceiling = gamma_ceiling(cls.signals, penalty)
        counts = []
        for gamma in np.linspace(0.0, ceiling, 25):
            try:
                sol = recover_w(u, cls.signals, float(gamma), 1.0, penalty)
                counts.append(int(np.count_nonzero(sol.W.W)))
            except AllRowsDead:
                counts.append(0)
        assert all(b <= a for a, b in zip(counts, counts[1:]))


class TestCalibrateGamma:
    def test_target_zero_returns_dense(self):
        cls = generate_signal_class(4, 9, 0)
        spec = DesignSpec(N=9, M=2, penalty=Penalty.L1)
        gamma, sol = calibrate_gamma(cls.signals, spec, 0.0)
        assert gamma == 0.0
        assert sol.deactivated_ratio == 0.0

    @pytest.mark.parametrize("penalty", [Penalty.L0, Penalty.L1])
    def test_forty_percent_within_one_link(self, penalty):
        # 40 percent of a 10 x 30 design is 120 links; quantization allows +-1
        for seed in range(6):
            cls = generate_signal_class(10, 30, seed)
            spec = DesignSpec(N=30, M=10, penalty=penalty)
            gamma, sol = calibrate_gamma(cls.signals, spec, 0.4)
            dead_links = 300 - int(np.count_nonzero(sol.W.W))
            assert abs(dead_links - 120) <= 1, f"seed {seed}: {dead_links} links"
            assert gamma > 0.0
            assert sol.U.converged

    def test_full_deactivation_flagged(self):
        cls = generate_signal_class(4, 9, 1)
        spec = DesignSpec(N=9, M=2, penalty=Penalty.L0)
        gamma, sol = calibrate_gamma(cls.signals, spec, 1.0)
        assert sol.deactivated_ratio == pytest.approx(1.0)
        assert len(sol.dead_rows) == 2

    def test_target_outside_unit_interval(self):
        cls = generate_signal_class(4, 9, 1)
        spec = DesignSpec(N=9, M=2, penalty=Penalty.L0)
        with pytest.raises(Unachievable):
            calibrate_gamma(cls.signals, spec, -0.05)
        with pytest.raises(Unachievable):
            calibrate_gamma(cls.signals, spec, 1.2)

    def test_penalty_required(self):
        cls = generate_signal_class(4, 9, 1)
        with pytest.raises(ValueError):
            calibrate_gamma(cls.signals, DesignSpec(N=9, M=2), 0.3)

    def test_l0_converges_quickly_at_operating_point(self):
        # the calibrated hard-threshold solve stays well under 500 iterations
        for seed in range(3):
            cls = generate_signal_class(10, 30, seed)
            spec = DesignSpec(N=30, M=10, penalty=Penalty.L0)
            _, sol = calibrate_gamma(cls.signals, spec, 0.4)
            assert sol.U.converged
            assert sol.U.iterations < 500

    def test_dominance_at_matched_sparsity(self):
        # hard threshold retains more C-DC than soft at the same 40 percent
        ratios = {Penalty.L0: [], Penalty.L1: []}
        for seed in range(3):
            cls = generate_signal_class(10, 30, seed)
            opt = top_eigensum(cls.signals, 10)
            for pen in ratios:
                spec = DesignSpec(N=30, M=10, penalty=pen)
                _, sol = calibrate_gamma(cls.signals, spec, 0.4)
                cdc, _ = cumulative_dc(sol.W, cls)
                ratios[pen].append(cdc / opt)
        assert np.mean(ratios[Penalty.L0]) >= np.mean(ratios[Penalty.L1])


def record_calibration(monkeypatch, a, spec, target):
    """calibrate_gamma with its bisection solves and its solve count recorded.

    Returns (gamma, solution, designs, solves): designs holds the
    (init, solution) of each design_sparse call in order, and solves counts
    every gamma solved through solve_path, the scan's batches included.
    """
    designs, counter = [], {}
    design = sparse.design_sparse

    def recorded(*args, **kwargs):
        sol = design(*args, **kwargs)
        designs.append((kwargs["init"], sol))
        return sol

    monkeypatch.setattr(sparse, "design_sparse", recorded)
    count_calls(monkeypatch, sparse, "solve_path", counter,
                size=lambda a, s, gammas, **k: len(gammas))
    gamma, sol = calibrate_gamma(a, spec, target)
    return gamma, sol, designs, counter["solve_path"]


# (class seed, M, penalty, target) at N=30, I=10. Seed 3 at M=5 scans its
# whole 200-point grid and still misses by 2 links; seed 6 at M=5 accepts
# the 24th point of its scan; the others close by bisection.
CALIBRATIONS = [
    (0, 10, Penalty.L0, 0.4),
    (1, 10, Penalty.L1, 0.4),
    (2, 10, Penalty.L1, 0.34),
    (3, 5, Penalty.L0, 0.4),
    (6, 5, Penalty.L0, 0.4),
]


class TestWarmStartedCalibration:
    @pytest.mark.parametrize("seed,m,penalty,target", CALIBRATIONS)
    def test_bisection_starts_from_the_lower_end(self, monkeypatch, seed, m, penalty, target):
        cls = generate_signal_class(10, 30, seed)
        spec = DesignSpec(N=30, M=m, penalty=penalty)
        _, _, designs, _ = record_calibration(monkeypatch, cls.signals, spec, target)
        assert designs[0][0] == "pca"
        low, moved = designs[0][1], 0
        for init, sol in designs[1:]:
            assert init.tobytes() == low.U.U.tobytes()
            if sol.deactivated_ratio < target:
                low, moved = sol, moved + 1
        assert moved > 0

    @pytest.mark.parametrize("seed,m,penalty,target", CALIBRATIONS)
    def test_solve_count_within_the_stated_bound(self, monkeypatch, seed, m, penalty, target):
        # calibrate_gamma states at most 2 + B + 200 solves, with
        # B = min(200, ceil(log2(1e10 gamma_max))) bisection steps.
        cls = generate_signal_class(10, 30, seed)
        spec = DesignSpec(N=30, M=m, penalty=penalty)
        _, sol, designs, solves = record_calibration(monkeypatch, cls.signals, spec, target)
        steps = min(200, int(np.ceil(np.log2(1e10 * gamma_ceiling(cls.signals, penalty)))))
        assert solves <= 2 + steps + 200
        # when nothing lands within a link, the closest design found is returned
        assert sol.link_miss(target) <= min(d.link_miss(target) for _, d in designs)

    def test_worst_case_is_reached(self, monkeypatch):
        # bisection runs out of steps and the scan solves its whole grid
        cls = generate_signal_class(10, 30, 3)
        spec = DesignSpec(N=30, M=5, penalty=Penalty.L0)
        _, sol, designs, solves = record_calibration(monkeypatch, cls.signals, spec, 0.4)
        steps = int(np.ceil(np.log2(1e10 * gamma_ceiling(cls.signals, Penalty.L0))))
        assert (len(designs), solves) == (2 + steps, 2 + steps + 200)
        assert sol.link_miss(0.4) == 2.0

    def test_link_miss_forgives_the_rounding_of_the_target(self):
        # 0.34 * 300 rounds to 102.00000000000001: a one-link miss below the
        # target must count as one link, as a miss above does.
        assert 0.34 * 300 != 102
        spec = DesignSpec(N=30, M=10)
        for zeros, miss in [(101, 1.0), (102, 0.0), (103, 1.0), (100, 2.0)]:
            w = np.zeros((10, 30))
            w.flat[: 300 - zeros] = 1.0
            sol = sparse.SparseSolution(
                W=CollaborationMatrix(W=w, provenance=Provenance.SPARSE_L0, spec=spec),
                U=None, objective=0.0,
            )
            assert sol.link_miss(0.34) == miss


class TestWorksFromS:
    def test_no_eigendecomposition_larger_than_i_by_i(self, monkeypatch):
        # Calibrated sparse designs, their metrics and detection need only
        # the I x I Gram S S^T and thin factorizations of S and W; an N x N
        # eigendecomposition would cost O(N^3) before every solve.
        i_dim, n_dim = 5, 400
        eigh = np.linalg.eigh

        def small_eigh(a, *args, **kwargs):
            if np.shape(a)[-1] > i_dim:
                raise AssertionError(f"eigh of a {np.shape(a)} matrix")
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", small_eigh)
        cls = generate_signal_class(i_dim, n_dim, 0)
        for penalty in (Penalty.L0, Penalty.L1):
            spec = DesignSpec(N=n_dim, M=i_dim, penalty=penalty)
            _, sol = calibrate_gamma(cls.signals, spec, 0.4)
            report = metrics_report(sol.W, cls, sol.W.spec)
            assert 0.0 < report.normalized_cdc <= 1.0
            result = simulate_detection(sol.W, cls, 0, trials=1000, seed=(0, 0))
            assert result.deflection_root > 0.0
