"""Cost-penalized design via generalized power iteration on the Stiefel manifold.

Both penalized problems reduce to maximizing a convex function of an
I x M orthonormal-column matrix U:

    l1:  F(U) = sum_ij [ y_i |a_j^T u_i| - gamma_i ]_+^2
    l0:  F(U) = sum_ij [ (y_i a_j^T u_i)^2 - gamma_i ]_+

where a_j are the columns of the I x N signal matrix A. Convexity makes the
iteration U <- polar_factor(grad F(U)) a monotone ascent. The sparse
combining matrix W is recovered row-wise from the optimal U by soft (l1) or
hard (l0) thresholding of the scores A^T U, then unit-normalizing rows.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .design import CollaborationMatrix, Provenance
from .errors import AllRowsDead, RankDeficient, Unachievable
from .linalg import polar_factor, sym_eig
from .model import DesignSpec, Penalty

# Relative singular-value floor below which the gradient gets a mu*U shift
# before the polar step. The shift preserves both fixed points and monotone
# ascent (trace(U+^T U) <= M for any Stiefel U+), and keeps the polar factor
# well defined when thresholding zeroes out whole gradient directions.
_SHIFT_TRIGGER = 1e-10
_SHIFT_SCALE = 1e-6


@dataclass(frozen=True)
class SolverState:
    """Final Stiefel variable and the ascent history that produced it."""

    U: np.ndarray
    objective_trace: list[float]
    iterations: int
    converged: bool
    degenerate: bool = False
    stiefel_residual_max: float = 0.0

    @property
    def objective(self) -> float:
        return self.objective_trace[-1]


@dataclass(frozen=True)
class SparseSolution:
    """Recovered sparse design with its provenance and diagnostics."""

    W: CollaborationMatrix
    U: SolverState
    objective: float
    dead_rows: tuple[int, ...] = field(default=())
    raw_scores: np.ndarray | None = None

    @property
    def deactivated_ratio(self) -> float:
        return self.W.deactivated_ratio


def _scores(U: np.ndarray, A: np.ndarray) -> np.ndarray:
    """T = A^T U, the N x M matrix of per-sensor, per-row couplings."""
    return A.T @ U


def _per_row(values, m: int) -> np.ndarray:
    """Broadcast a scalar to one value per row of W (column of U)."""
    arr = np.asarray(values, dtype=float)
    return arr * np.ones(m) if arr.ndim == 0 else arr


def objective_l1(U: np.ndarray, A: np.ndarray, gammas, y_diag) -> float:
    """sum_ij max(0, y_i |a_j^T u_i| - gamma_i)^2."""
    Uf = np.asarray(U, dtype=float)
    t = _scores(Uf, np.asarray(A, dtype=float))
    y = _per_row(y_diag, Uf.shape[1])
    gam = _per_row(gammas, Uf.shape[1])
    r = np.maximum(y[None, :] * np.abs(t) - gam[None, :], 0.0)
    return float(np.sum(r * r))


def objective_l0(U: np.ndarray, A: np.ndarray, gammas, y_diag) -> float:
    """sum_ij max(0, (y_i a_j^T u_i)^2 - gamma_i)."""
    Uf = np.asarray(U, dtype=float)
    t = _scores(Uf, np.asarray(A, dtype=float))
    y = _per_row(y_diag, Uf.shape[1])
    gam = _per_row(gammas, Uf.shape[1])
    return float(np.sum(np.maximum((y[None, :] * t) ** 2 - gam[None, :], 0.0)))


def gradient_l1(U: np.ndarray, A: np.ndarray, gammas, y_diag) -> np.ndarray:
    """Column i: sum_j 2 max(0, y_i|a_j^T u_i| - gamma_i) y_i sign(a_j^T u_i) a_j.

    At the kink a_j^T u_i = 0 the subgradient 0 is used; the clipped term
    vanishes there whenever gamma_i > 0.
    """
    Uf = np.asarray(U, dtype=float)
    Af = np.asarray(A, dtype=float)
    y = _per_row(y_diag, Uf.shape[1])
    t = _scores(Uf, Af)
    r = np.maximum(y[None, :] * np.abs(t) - _per_row(gammas, Uf.shape[1])[None, :], 0.0)
    return Af @ (2.0 * y[None, :] * r * np.sign(t))


def gradient_l0(U: np.ndarray, A: np.ndarray, gammas, y_diag) -> np.ndarray:
    """Column i: sum_j 2 y_i^2 (a_j^T u_i) a_j over j with (y_i a_j^T u_i)^2 > gamma_i."""
    Uf = np.asarray(U, dtype=float)
    Af = np.asarray(A, dtype=float)
    y = _per_row(y_diag, Uf.shape[1])
    t = _scores(Uf, Af)
    mask = (y[None, :] * t) ** 2 > _per_row(gammas, Uf.shape[1])[None, :]
    return Af @ (2.0 * (y[None, :] ** 2) * t * mask)


_OBJECTIVES = {Penalty.L1: objective_l1, Penalty.L0: objective_l0}
_GRADIENTS = {Penalty.L1: gradient_l1, Penalty.L0: gradient_l0}


def _pca_init(A: np.ndarray, M: int) -> np.ndarray:
    """Warm start at the cost-free optimum: the M leading eigenvectors of A A^T.

    With A = P Sigma Q^T and V0 the M leading eigenvectors of
    Omega = A^T A, A V0 = P_M Sigma_M, so the polar factor of A V0 is P_M:
    the leading eigenvectors of the I x I matrix A A^T, up to column signs.
    At gamma = 0 this U is already a fixed point of the iteration, and no
    N x N matrix is formed.
    """
    return sym_eig(A @ A.T).top(M)


def initial_u(A: np.ndarray, M: int, init: str = "pca", seed=None) -> np.ndarray:
    """Build a feasible starting point with orthonormal columns."""
    if init == "pca":
        return _pca_init(np.asarray(A, dtype=float), M)
    if init == "random":
        rng = np.random.default_rng(seed)
        return polar_factor(rng.standard_normal((np.asarray(A).shape[0], M)))
    raise ValueError(f"unknown init strategy {init!r}")


def solve_gpower(
    A: np.ndarray,
    spec: DesignSpec,
    init: str = "pca",
    tol: float = 1e-8,
    max_iter: int = 10_000,
    init_seed=None,
) -> SolverState:
    """Maximize the penalized objective over U with orthonormal columns.

    Iterates U <- polar_factor(grad F(U)) until the relative objective
    increase drops below tol or max_iter is reached. The objective trace is
    monotone nondecreasing; Stiefel feasibility is tracked every iteration.
    A zero gradient (every term clipped, gamma too large) yields a state
    flagged degenerate instead of iterating.

    Requires spec.M <= I <= N for the I x N signal matrix A.
    """
    Af = np.asarray(A, dtype=float)
    I, N = Af.shape
    M = spec.M
    if not (M <= I <= N):
        raise ValueError(f"need M <= I <= N, got M={M}, I={I}, N={N}")
    if spec.N != N:
        raise ValueError(f"spec.N={spec.N} does not match A with N={N}")
    if spec.penalty is Penalty.NONE:
        raise ValueError("solve_gpower needs an l0 or l1 penalty")
    if not (tol > 0):
        raise ValueError("tol must be positive")
    objective = _OBJECTIVES[spec.penalty]
    gradient = _GRADIENTS[spec.penalty]
    gammas, y = spec.gammas, spec.y_diag

    U = initial_u(Af, M, init=init, seed=init_seed)
    f = objective(U, Af, gammas, y)
    trace = [f]
    residual = float(np.linalg.norm(U.T @ U - np.eye(M)))
    for it in range(1, max_iter + 1):
        g = gradient(U, Af, gammas, y)
        sv = np.linalg.svd(g, compute_uv=False)
        if sv[0] == 0.0:
            return SolverState(
                U=U, objective_trace=trace, iterations=it - 1,
                converged=False, degenerate=True, stiefel_residual_max=residual,
            )
        if sv[-1] < _SHIFT_TRIGGER * sv[0]:
            g = g + (_SHIFT_SCALE * sv[0]) * U
        try:
            U = polar_factor(g)
        except RankDeficient:
            # Escalate the shift; any multiple of U keeps the ascent valid.
            U = polar_factor(g + sv[0] * U)
        residual = max(residual, float(np.linalg.norm(U.T @ U - np.eye(M))))
        f_new = objective(U, Af, gammas, y)
        trace.append(f_new)
        if f_new - f <= tol * max(abs(f), 1e-300):
            return SolverState(
                U=U, objective_trace=trace, iterations=it,
                converged=True, stiefel_residual_max=residual,
            )
        f = f_new
    return SolverState(
        U=U, objective_trace=trace, iterations=max_iter,
        converged=False, stiefel_residual_max=residual,
    )


def _threshold_scores(t: np.ndarray, gammas, y_diag, penalty: Penalty) -> np.ndarray:
    """Raw (unnormalized) recovered scores Z, one column per row of W."""
    y = np.asarray(y_diag, dtype=float)[None, :]
    g = np.asarray(gammas, dtype=float)[None, :]
    if penalty is Penalty.L1:
        return np.sign(t) * np.maximum(y * np.abs(t) - g, 0.0)
    if penalty is Penalty.L0:
        return t * ((y * t) ** 2 > g)
    raise ValueError("recovery needs an l0 or l1 penalty")


def _build_solution(
    state: SolverState,
    A: np.ndarray,
    spec: DesignSpec,
    allow_all_dead: bool = False,
) -> SparseSolution:
    t = _scores(state.U, np.asarray(A, dtype=float))
    z = _threshold_scores(t, spec.gammas, spec.y_diag, spec.penalty)
    norms = np.linalg.norm(z, axis=0)
    dead = tuple(int(i) for i in np.nonzero(norms == 0.0)[0])
    if len(dead) == spec.M and not allow_all_dead:
        raise AllRowsDead("every row of W was thresholded to zero")
    w = np.zeros((spec.M, spec.N))
    for i in range(spec.M):
        if norms[i] > 0.0:
            w[i] = z[:, i] / norms[i]
    provenance = Provenance.SPARSE_L1 if spec.penalty is Penalty.L1 else Provenance.SPARSE_L0
    objective = _OBJECTIVES[spec.penalty](state.U, A, spec.gammas, spec.y_diag)
    return SparseSolution(
        W=CollaborationMatrix(W=w, provenance=provenance, spec=spec),
        U=state,
        objective=objective,
        dead_rows=dead,
        raw_scores=z.T,
    )


def recover_w(U, A: np.ndarray, gammas, y_diag, penalty: Penalty) -> SparseSolution:
    """Closed-form inner maximizer: threshold the scores, then unit rows.

    l1 soft-thresholds, z_ij = sign(a_j^T u_i) max(0, y_i |a_j^T u_i| - gamma_i);
    l0 hard-thresholds, z_ij = (a_j^T u_i) when (y_i a_j^T u_i)^2 exceeds
    gamma_i, else 0 (strict inequality, so boundary ties deactivate the
    link). Each nonzero row is scaled to unit norm; rows that vanish
    entirely are dead.
    """
    state = U if isinstance(U, SolverState) else SolverState(
        U=np.asarray(U, dtype=float), objective_trace=[0.0], iterations=0, converged=True
    )
    m = state.U.shape[1]
    spec = DesignSpec(
        N=np.asarray(A).shape[1], M=m, gammas=np.asarray(gammas, dtype=float) * np.ones(m),
        penalty=penalty, y_diag=np.asarray(y_diag, dtype=float) * np.ones(m),
    )
    return _build_solution(state, A, spec)


def design_sparse(
    A: np.ndarray,
    spec: DesignSpec,
    init: str = "pca",
    tol: float = 1e-8,
    max_iter: int = 10_000,
    allow_all_dead: bool = False,
) -> SparseSolution:
    """Solve for U and recover W in one call."""
    state = solve_gpower(A, spec, init=init, tol=tol, max_iter=max_iter)
    return _build_solution(state, A, spec, allow_all_dead=allow_all_dead)


def gamma_ceiling(A: np.ndarray, penalty: Penalty, y_diag=1.0) -> float:
    """A gamma at which every link of every row is provably deactivated."""
    col_norm_max = float(np.linalg.norm(np.asarray(A, dtype=float), axis=0).max())
    y_max = float(np.max(np.asarray(y_diag)))
    bound = y_max * col_norm_max
    return bound if penalty is Penalty.L1 else bound * bound


def calibrate_gamma(
    A: np.ndarray,
    spec: DesignSpec,
    target_deactivation: float,
    penalty: Penalty | None = None,
    tol: float = 1e-8,
    max_iter: int = 10_000,
) -> tuple[float, SparseSolution]:
    """Find a uniform gamma whose design deactivates the target link fraction.

    Bisection over gamma in [0, gamma_max], accepting when the achieved
    deactivation is within 1/(M N) of the target or the bracket width falls
    below 1e-10 relative. Because U re-optimizes at every gamma the response
    can be locally non-monotone; a 200-point grid scan backstops bisection
    and the closest achievable point is returned.
    """
    penalty = spec.penalty if penalty is None else penalty
    if penalty is Penalty.NONE:
        raise ValueError("calibration needs an l0 or l1 penalty")
    if not (0.0 <= target_deactivation <= 1.0):
        raise Unachievable(f"target {target_deactivation} outside [0, 1]")
    m, n = spec.M, spec.N

    def at(gamma: float) -> SparseSolution:
        trial = DesignSpec(
            N=n, M=m, gammas=np.full(m, gamma), penalty=penalty, y_diag=spec.y_diag
        )
        return design_sparse(A, trial, tol=tol, max_iter=max_iter, allow_all_dead=True)

    slack = 1.0 / (m * n)
    ceiling = gamma_ceiling(A, penalty, spec.y_diag)
    lo, hi = 0.0, ceiling
    best_gamma, best_sol = 0.0, at(0.0)
    best_err = abs(best_sol.deactivated_ratio - target_deactivation)
    if best_err <= slack:
        return best_gamma, best_sol
    mid = 0.0
    for _ in range(200):
        if hi - lo <= 1e-10 * max(hi, 1.0):
            break
        mid = 0.5 * (lo + hi)
        sol = at(mid)
        err = abs(sol.deactivated_ratio - target_deactivation)
        if err < best_err:
            best_gamma, best_sol, best_err = mid, sol, err
        if best_err <= slack:
            return best_gamma, best_sol
        if sol.deactivated_ratio < target_deactivation:
            lo = mid
        else:
            hi = mid
    if best_err > slack:
        # Achieved deactivation is quantized and not exactly monotone in
        # gamma (U re-optimizes), so alternatives that land closer to the
        # target cluster in a neighborhood of the bisection crossing.
        if mid > 0.0:
            scan_lo, scan_hi = 0.7 * mid, min(ceiling, 1.5 * mid)
        else:
            scan_lo, scan_hi = 0.0, ceiling
        for gamma in np.linspace(scan_lo, scan_hi, 200):
            sol = at(float(gamma))
            err = abs(sol.deactivated_ratio - target_deactivation)
            if err < best_err:
                best_gamma, best_sol, best_err = float(gamma), sol, err
            if best_err <= slack:
                break
    return best_gamma, best_sol
