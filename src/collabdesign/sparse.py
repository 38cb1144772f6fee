"""Cost-penalized design via generalized power iteration on the Stiefel manifold.

Both penalized problems reduce to maximizing a convex function of an
I x M orthonormal-column matrix U:

    l1:  F(U) = sum_ij [ y_i |a_j^T u_i| - gamma_i ]_+^2
    l0:  F(U) = sum_ij [ (y_i a_j^T u_i)^2 - gamma_i ]_+

where a_j are the columns of the I x N signal matrix A. Convexity makes the
iteration U <- polar_factor(grad F(U)) a monotone ascent. The sparse
combining matrix W is recovered row-wise from the optimal U by soft (l1) or
hard (l0) thresholding of the scores A^T U, then unit-normalizing rows.

Every solve runs through one kernel, solve_path, which iterates G
independent solves (one per gamma) in lockstep on a G x I x M stack and
retires each member once it converges or degenerates. A step takes one
score product T = A^T U, which gives the objective, the gradient
coefficients and the l0 support, and one stacked SVD of the gradients,
which gives the singular values for the zero and shift tests and the polar
factor. Only members whose gradient is near rank-deficient take a second
SVD, of the shifted gradient g + mu U. A batch holds at most
max(1, _BATCH_ELEMENTS // (N M)) members, so the G x N x M temporaries of
a step stay within a few tens of kilobytes. solve_gpower is the G = 1
call; sweeps and the calibration scan solve their gamma grids as stacked
batches through design_path. The stacked products and SVDs give each
member the same bits as a solve on its own.

Every solve starts from the PCA point unless its caller passes an I x M
orthonormal start. Gamma calibration does: each bisection solve starts from
the U solved at the lower end of its bracket, as regularization-path
solvers warm-start from the neighbouring penalty. The ascent is monotone
from any Stiefel start, and a start near the answer takes far fewer steps.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .design import CollaborationMatrix, Provenance
from .errors import AllRowsDead, Unachievable
from .linalg import polar_factor, sym_eig
from .model import DesignSpec, Penalty

# Relative singular-value floor below which the gradient gets a mu*U shift
# before the polar step. The shift preserves both fixed points and monotone
# ascent (trace(U+^T U) <= M for any Stiefel U+), and keeps the polar factor
# well defined when thresholding zeroes out whole gradient directions.
_SHIFT_TRIGGER = 1e-10
_SHIFT_SCALE = 1e-6

# Elements of one G x N x M stack in a lockstep batch; a batch holds
# max(1, _BATCH_ELEMENTS // (N M)) solves (27 at N=30, M=10; 1 at N=800).
_BATCH_ELEMENTS = 8192


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

    def link_miss(self, target: float) -> float:
        """Distance of the count of zero links from target M N, in links.

        Rounded to 1e-9 links, so that the rounding of target M N
        (0.34 * 10 * 30 = 102.00000000000001) does not count as a miss.
        """
        w = self.W.W
        return round(abs(w.size - np.count_nonzero(w) - target * w.size), 9)


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


def _batch_size(n: int, m: int) -> int:
    """Members of one lockstep batch for an N-sensor, M-row problem."""
    return max(1, _BATCH_ELEMENTS // (n * m))


def _score_terms(t: np.ndarray, gam: np.ndarray, y: np.ndarray, l1: bool):
    """Objective of each member and the coefficients C with grad F(U) = A C.

    t is the G x N x M stack of scores A^T U, overwritten here, and gam the
    G x 1 x M stack of penalties. Every product and sum is the one
    objective_l* and gradient_l* take, so each member gets their values
    bit for bit.
    """
    if l1:
        r = np.abs(t)
        r *= y
        r -= gam
        np.maximum(r, 0.0, out=r)
        coef = 2.0 * y * r
        coef *= np.sign(t, out=t)
        r *= r
        return np.sum(r, axis=(1, 2)), coef
    coef = 2.0 * y**2 * t
    np.multiply(t, y, out=t)
    np.square(t, out=t)
    coef *= t > gam
    t -= gam
    np.maximum(t, 0.0, out=t)
    return np.sum(t, axis=(1, 2)), coef


def _lockstep(
    A: np.ndarray,
    U0: np.ndarray,
    gammas: np.ndarray,
    y: np.ndarray,
    l1: bool,
    tol: float,
    max_iter: int,
) -> list[SolverState]:
    """One batch of solves from the common start U0, one per row of gammas.

    The arrays hold the active members only: a member leaves them, as a
    finished SolverState, once it converges, degenerates or runs out of
    iterations.
    """
    count, m = gammas.shape
    eye = np.eye(m)
    states: list = [None] * count
    live = np.arange(count)
    gam = gammas[:, None, :]
    U = np.repeat(U0[None], count, axis=0)
    f, coef = _score_terms(A.T @ U, gam, y, l1)
    traces = [[v] for v in f.tolist()]
    residual = np.full(count, float(np.linalg.norm(U0.T @ U0 - eye)))

    def retire(done, iterations, converged=False, degenerate=False):
        for j in np.flatnonzero(done):
            states[live[j]] = SolverState(
                U=U[j].copy(), objective_trace=traces[live[j]], iterations=iterations,
                converged=converged, degenerate=degenerate,
                stiefel_residual_max=float(residual[j]),
            )
        return ~done

    for it in range(1, max_iter + 1):
        g = A @ coef
        p, sv, qt = np.linalg.svd(g, full_matrices=False)
        zero = sv[:, 0] == 0.0
        if zero.any():
            # Every term clipped: a zero gradient has no polar factor.
            keep = retire(zero, it - 1, degenerate=True)
            live, U, g, p, sv, qt, f, gam, residual = (
                x[keep] for x in (live, U, g, p, sv, qt, f, gam, residual)
            )
            if live.size == 0:
                break
        top = sv[:, 0]
        U_next = p @ qt
        shifted = np.flatnonzero(sv[:, -1] < _SHIFT_TRIGGER * top)
        if shifted.size:
            gs = g[shifted] + (_SHIFT_SCALE * top[shifted])[:, None, None] * U[shifted]
            ps, ss, qts = np.linalg.svd(gs, full_matrices=False)
            U_next[shifted] = ps @ qts
            for j in np.flatnonzero((ss[:, 0] == 0.0) | (ss[:, -1] < 1e-12 * ss[:, 0])):
                # Escalate the shift; any multiple of U keeps the ascent valid.
                k = shifted[j]
                U_next[k] = polar_factor(gs[j] + top[k] * U[k])
        U = U_next
        gram = np.swapaxes(U, 1, 2) @ U
        gram -= eye
        np.maximum(residual, np.linalg.norm(gram, axis=(1, 2)), out=residual)
        f_new, coef = _score_terms(A.T @ U, gam, y, l1)
        for k, value in zip(live.tolist(), f_new.tolist()):
            traces[k].append(value)
        done = f_new - f <= tol * np.maximum(np.abs(f), 1e-300)
        f = f_new
        if done.any():
            keep = retire(done, it, converged=True)
            live, U, coef, f, gam, residual = (
                x[keep] for x in (live, U, coef, f, gam, residual)
            )
            if live.size == 0:
                break
    else:
        retire(np.ones(live.size, dtype=bool), max_iter)
    return states


def solve_path(
    A: np.ndarray,
    spec: DesignSpec,
    gammas,
    init: str | np.ndarray = "pca",
    tol: float = 1e-8,
    max_iter: int = 10_000,
    init_seed=None,
) -> list[SolverState]:
    """Maximize the penalized objective over U once per gamma, in lockstep.

    gammas holds G entries, each a uniform penalty or a length-M vector of
    per-row penalties; spec gives N, M, the penalty and y_diag, and its own
    gammas are not read. Every solve starts from the same initial U, built
    by initial_u when init names a strategy, or given as an I x M array with
    orthonormal columns, and iterates U <- polar_factor(grad F(U)) until
    the relative objective increase drops below tol or max_iter is reached.
    The solves run in batches of at most max(1, _BATCH_ELEMENTS // (N M))
    members; state k is the solve at gammas[k], and equals that solve on
    its own bit for bit.

    Each objective trace is monotone nondecreasing and Stiefel feasibility
    is tracked every iteration. A gradient with a singular value below
    _SHIFT_TRIGGER of its largest is shifted by _SHIFT_SCALE times that
    largest value times U before the polar step, and by the full value if
    the shifted gradient is still rank-deficient. A zero gradient (every
    term clipped, gamma too large) yields a state flagged degenerate.

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
        raise ValueError("the solver needs an l0 or l1 penalty")
    if not (tol > 0):
        raise ValueError("tol must be positive")
    gam = np.asarray(gammas, dtype=float)
    if gam.ndim == 1:
        gam = gam[:, None] * np.ones(M)
    if gam.ndim != 2 or gam.shape[1] != M:
        raise ValueError(f"gammas must hold scalars or length-M={M} vectors")
    if (gam < 0).any():
        raise ValueError("penalties must be nonnegative")
    if isinstance(init, str):
        U0 = initial_u(Af, M, init=init, seed=init_seed)
    else:
        U0 = np.asarray(init, dtype=float)
        if U0.shape != (I, M):
            raise ValueError(f"init must be an I x M = {I} x {M} array, got {U0.shape}")
        if not np.linalg.norm(U0.T @ U0 - np.eye(M)) <= 1e-8:
            raise ValueError("init must have orthonormal columns")
    l1 = spec.penalty is Penalty.L1
    size = _batch_size(N, M)
    states: list[SolverState] = []
    for start in range(0, gam.shape[0], size):
        batch = gam[start:start + size]
        states.extend(_lockstep(Af, U0, batch, spec.y_diag, l1, tol, max_iter))
    return states


def solve_gpower(
    A: np.ndarray,
    spec: DesignSpec,
    init: str | np.ndarray = "pca",
    tol: float = 1e-8,
    max_iter: int = 10_000,
    init_seed=None,
) -> SolverState:
    """Maximize the penalized objective over U at spec.gammas.

    The G = 1 call of the lockstep kernel solve_path, whose batches of
    gamma grids give each member exactly this result. Each step takes one
    score product A^T U and one SVD of the gradient. A gradient whose
    smallest singular value is below _SHIFT_TRIGGER times its largest,
    sigma_0, gets the shift + _SHIFT_SCALE sigma_0 U and a second SVD; if
    that is still rank-deficient, + sigma_0 U more. Iteration stops on a
    relative objective increase below tol or after max_iter steps, and a
    zero gradient is flagged degenerate.

    Requires spec.M <= I <= N for the I x N signal matrix A.
    """
    return solve_path(
        A, spec, spec.gammas[None, :], init=init, tol=tol, max_iter=max_iter,
        init_seed=init_seed,
    )[0]


def _threshold_scores(t: np.ndarray, gammas, y_diag, penalty: Penalty) -> np.ndarray:
    """Raw (unnormalized) recovered scores Z, one column per row of W."""
    y = np.asarray(y_diag, dtype=float)[None, :]
    g = np.asarray(gammas, dtype=float)[None, :]
    if penalty is Penalty.L1:
        return np.sign(t) * np.maximum(y * np.abs(t) - g, 0.0)
    return t * ((y * t) ** 2 > g)


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
    return SparseSolution(
        W=CollaborationMatrix(W=w, provenance=provenance, spec=spec),
        U=state,
        objective=state.objective,
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
    if penalty not in _OBJECTIVES:
        raise ValueError("recovery needs an l0 or l1 penalty")
    if isinstance(U, SolverState):
        state = U
    else:
        Uf = np.asarray(U, dtype=float)
        objective = _OBJECTIVES[penalty](Uf, A, gammas, y_diag)
        state = SolverState(U=Uf, objective_trace=[objective], iterations=0, converged=True)
    m = state.U.shape[1]
    spec = DesignSpec(
        N=np.asarray(A).shape[1], M=m, gammas=np.asarray(gammas, dtype=float) * np.ones(m),
        penalty=penalty, y_diag=np.asarray(y_diag, dtype=float) * np.ones(m),
    )
    return _build_solution(state, A, spec)


def design_sparse(
    A: np.ndarray,
    spec: DesignSpec,
    init: str | np.ndarray = "pca",
    tol: float = 1e-8,
    max_iter: int = 10_000,
    allow_all_dead: bool = False,
) -> SparseSolution:
    """Solve for U from init (a strategy name or an I x M start) and recover W."""
    state = solve_gpower(A, spec, init=init, tol=tol, max_iter=max_iter)
    return _build_solution(state, A, spec, allow_all_dead=allow_all_dead)


def design_path(
    A: np.ndarray,
    spec: DesignSpec,
    gammas,
    tol: float = 1e-8,
    max_iter: int = 10_000,
) -> Iterator[SparseSolution]:
    """Yield the design of spec at each of gammas, in order.

    The solves run through solve_path one lockstep batch at a time, so at
    most one batch of solver states is held, and a caller that stops early
    leaves at most one batch minus one solve unused. Designs whose rows are
    all dead are kept.
    """
    Af = np.asarray(A, dtype=float)
    gammas = np.asarray(gammas, dtype=float)
    size = _batch_size(spec.N, spec.M)
    for start in range(0, len(gammas), size):
        batch = gammas[start:start + size]
        states = solve_path(Af, spec, batch, tol=tol, max_iter=max_iter)
        for gamma, state in zip(batch, states):
            trial = DesignSpec(
                N=spec.N, M=spec.M, gammas=gamma, penalty=spec.penalty, y_diag=spec.y_diag
            )
            yield _build_solution(state, Af, trial, allow_all_dead=True)


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

    A design is accepted when its count of zero links is within one link of
    target M N (SparseSolution.link_miss). Both ends of the bracket
    [0, gamma_max] are solved first, gamma_max = gamma_ceiling, so targets
    0 and 1 return their exact designs. Bisection then halves the bracket
    until a design is accepted or the bracket is narrower than 1e-10
    relative. Each bisection solve starts from the U of the lower end: the
    last solved gamma whose design deactivates fewer links than the target,
    at first the gamma = 0 solution, which is the PCA start. If bisection
    accepts nothing (the achieved count is quantized and not exactly
    monotone in gamma, because U re-optimizes at every gamma), a 200-point
    grid around the last midpoint is solved from the PCA start in lockstep
    batches through design_path and read in gamma order, stopping at the
    first accepted point. When no design within one link exists among those
    solved, the closest one found is returned; its miss is
    link_miss(target_deactivation).

    Work: at most 2 + B + 200 solves of at most max_iter steps each, where
    B = min(200, ceil(log2(1e10 gamma_max))) bounds the bisection steps
    (38 at gamma_max = 20).
    """
    penalty = spec.penalty if penalty is None else penalty
    if penalty is Penalty.NONE:
        raise ValueError("calibration needs an l0 or l1 penalty")
    if not (0.0 <= target_deactivation <= 1.0):
        raise Unachievable(f"target {target_deactivation} outside [0, 1]")
    m, n = spec.M, spec.N

    def at(gamma: float, init) -> SparseSolution:
        trial = DesignSpec(
            N=n, M=m, gammas=np.full(m, gamma), penalty=penalty, y_diag=spec.y_diag
        )
        return design_sparse(
            A, trial, init=init, tol=tol, max_iter=max_iter, allow_all_dead=True
        )

    best_gamma, best, best_miss = 0.0, None, np.inf

    def accepted(gamma: float, sol: SparseSolution) -> bool:
        """Keep sol if it is the closest so far; True once one is within a link."""
        nonlocal best_gamma, best, best_miss
        miss = sol.link_miss(target_deactivation)
        if miss < best_miss:
            best_gamma, best, best_miss = gamma, sol, miss
        return best_miss <= 1.0

    ceiling = gamma_ceiling(A, penalty, spec.y_diag)
    low = at(0.0, "pca")
    if accepted(0.0, low) or accepted(ceiling, at(ceiling, low.U.U)):
        return best_gamma, best
    lo, hi = 0.0, ceiling
    mid = 0.0
    for _ in range(200):
        if hi - lo <= 1e-10 * max(hi, 1.0):
            break
        mid = 0.5 * (lo + hi)
        sol = at(mid, low.U.U)
        if accepted(mid, sol):
            return best_gamma, best
        if sol.deactivated_ratio < target_deactivation:
            lo, low = mid, sol
        else:
            hi = mid
    # Alternatives that land closer to the target cluster in a
    # neighbourhood of the bisection crossing.
    if mid > 0.0:
        scan_lo, scan_hi = 0.7 * mid, min(ceiling, 1.5 * mid)
    else:
        scan_lo, scan_hi = 0.0, ceiling
    grid = np.linspace(scan_lo, scan_hi, 200)
    path = DesignSpec(N=n, M=m, penalty=penalty, y_diag=spec.y_diag)
    for gamma, sol in zip(grid, design_path(A, path, grid, tol=tol, max_iter=max_iter)):
        if accepted(float(gamma), sol):
            break
    return best_gamma, best
