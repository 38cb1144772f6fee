"""Cost-penalized design via generalized power iteration on the Stiefel manifold.

Both penalized problems reduce to maximizing a convex function of an
I x M orthonormal-column matrix U:

    l1:  F(U) = sum_ij [ |a_j^T u_i| - gamma_i ]_+^2
    l0:  F(U) = sum_ij [ (a_j^T u_i)^2 - gamma_i ]_+

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

Every solve stops once the relative objective increase drops below _TOL,
or after _MAX_ITER steps. It starts from the PCA point unless its caller
passes an I x M orthonormal start. Gamma calibration does: each bisection
solve starts from the U solved at the lower end of its bracket, as
regularization-path solvers warm-start from the neighbouring penalty. The
ascent is monotone from any Stiefel start, and a start near the answer
takes far fewer steps.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .design import CollaborationMatrix
from .errors import Unachievable
from .linalg import leading_rows, polar_factor
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

# Stopping rule of every solve: a relative objective increase below _TOL,
# or _MAX_ITER steps.
_TOL = 1e-8
_MAX_ITER = 10_000


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
    """Recovered sparse design with its solver state and diagnostics."""

    W: CollaborationMatrix
    U: SolverState
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


def objective_l1(U: np.ndarray, A: np.ndarray, gammas) -> float:
    """sum_ij max(0, |a_j^T u_i| - gamma_i)^2."""
    Uf = np.asarray(U, dtype=float)
    t = _scores(Uf, np.asarray(A, dtype=float))
    r = np.maximum(np.abs(t) - _per_row(gammas, Uf.shape[1])[None, :], 0.0)
    return float(np.sum(r * r))


def objective_l0(U: np.ndarray, A: np.ndarray, gammas) -> float:
    """sum_ij max(0, (a_j^T u_i)^2 - gamma_i)."""
    Uf = np.asarray(U, dtype=float)
    t = _scores(Uf, np.asarray(A, dtype=float))
    return float(np.sum(np.maximum(t**2 - _per_row(gammas, Uf.shape[1])[None, :], 0.0)))


def gradient_l1(U: np.ndarray, A: np.ndarray, gammas) -> np.ndarray:
    """Column i: sum_j 2 max(0, |a_j^T u_i| - gamma_i) sign(a_j^T u_i) a_j.

    At the kink a_j^T u_i = 0 the subgradient 0 is used; the clipped term
    vanishes there whenever gamma_i > 0.
    """
    Uf = np.asarray(U, dtype=float)
    Af = np.asarray(A, dtype=float)
    t = _scores(Uf, Af)
    r = np.maximum(np.abs(t) - _per_row(gammas, Uf.shape[1])[None, :], 0.0)
    return Af @ (2.0 * r * np.sign(t))


def gradient_l0(U: np.ndarray, A: np.ndarray, gammas) -> np.ndarray:
    """Column i: sum_j 2 (a_j^T u_i) a_j over j with (a_j^T u_i)^2 > gamma_i."""
    Uf = np.asarray(U, dtype=float)
    Af = np.asarray(A, dtype=float)
    t = _scores(Uf, Af)
    mask = t**2 > _per_row(gammas, Uf.shape[1])[None, :]
    return Af @ (2.0 * t * mask)


_OBJECTIVES = {Penalty.L1: objective_l1, Penalty.L0: objective_l0}


def initial_u(A: np.ndarray, M: int) -> np.ndarray:
    """The PCA start: the M leading left singular vectors of A, as columns.

    With the thin SVD A = P Sigma Q^T and V0 the leading M columns of Q,
    A V0 = P_M Sigma_M, so the polar factor of A V0 is P_M: the leading M
    columns of P, here taken as linalg.leading_rows(A^T, M)^T: each
    column's first nonzero coordinate is positive, and columns past the
    rank of A are completed from coordinate vectors. At gamma = 0 this U is
    already a fixed point of the iteration, and no N x N matrix is formed.
    """
    return leading_rows(np.asarray(A, dtype=float).T, M).T


def _batch_size(n: int, m: int) -> int:
    """Members of one lockstep batch for an N-sensor, M-row problem."""
    return max(1, _BATCH_ELEMENTS // (n * m))


def _score_terms(t: np.ndarray, gam: np.ndarray, l1: bool):
    """Objective of each member and the coefficients C with grad F(U) = A C.

    t is the G x N x M stack of scores A^T U, overwritten here, and gam the
    G x 1 x M stack of penalties. Every product and sum is the one
    objective_l* and gradient_l* take, so each member gets their values
    bit for bit.
    """
    if l1:
        r = np.abs(t)
        r -= gam
        np.maximum(r, 0.0, out=r)
        coef = 2.0 * r
        coef *= np.sign(t, out=t)
        r *= r
        return np.sum(r, axis=(1, 2)), coef
    coef = 2.0 * t
    np.square(t, out=t)
    coef *= t > gam
    t -= gam
    np.maximum(t, 0.0, out=t)
    return np.sum(t, axis=(1, 2)), coef


def _lockstep(A: np.ndarray, U0: np.ndarray, gammas: np.ndarray, l1: bool) -> list[SolverState]:
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
    f, coef = _score_terms(A.T @ U, gam, l1)
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

    for it in range(1, _MAX_ITER + 1):
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
        f_new, coef = _score_terms(A.T @ U, gam, l1)
        for k, value in zip(live.tolist(), f_new.tolist()):
            traces[k].append(value)
        done = f_new - f <= _TOL * np.maximum(np.abs(f), 1e-300)
        f = f_new
        if done.any():
            keep = retire(done, it, converged=True)
            live, U, coef, f, gam, residual = (
                x[keep] for x in (live, U, coef, f, gam, residual)
            )
            if live.size == 0:
                break
    else:
        retire(np.ones(live.size, dtype=bool), _MAX_ITER)
    return states


def solve_path(
    A: np.ndarray, spec: DesignSpec, gammas, init: np.ndarray | None = None
) -> list[SolverState]:
    """Maximize the penalized objective over U once per gamma, in lockstep.

    gammas holds G entries, each a uniform penalty or a length-M vector of
    per-row penalties; spec gives N, M and the penalty, and its own gammas
    are not read. Every solve starts from the same initial U: the PCA start
    initial_u when init is None, else init, an I x M array with
    orthonormal columns. It iterates U <- polar_factor(grad F(U)) until the
    relative objective increase drops below _TOL or _MAX_ITER steps are
    taken. The solves run in batches of at most
    max(1, _BATCH_ELEMENTS // (N M)) members; state k is the solve at
    gammas[k], and equals that solve on its own bit for bit.

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
    gam = np.asarray(gammas, dtype=float)
    if gam.ndim == 1:
        gam = gam[:, None] * np.ones(M)
    if gam.ndim != 2 or gam.shape[1] != M:
        raise ValueError(f"gammas must hold scalars or length-M={M} vectors")
    if not (gam >= 0).all():
        raise ValueError("penalties must be nonnegative")
    if init is None:
        U0 = initial_u(Af, M)
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
        states.extend(_lockstep(Af, U0, gam[start:start + size], l1))
    return states


def solve_gpower(A: np.ndarray, spec: DesignSpec, init: np.ndarray | None = None) -> SolverState:
    """Maximize the penalized objective over U at spec.gammas.

    The G = 1 call of the lockstep kernel solve_path, whose batches of
    gamma grids give each member exactly this result. Each step takes one
    score product A^T U and one SVD of the gradient. A gradient whose
    smallest singular value is below _SHIFT_TRIGGER times its largest,
    sigma_0, gets the shift + _SHIFT_SCALE sigma_0 U and a second SVD; if
    that is still rank-deficient, + sigma_0 U more. Iteration stops on a
    relative objective increase below _TOL or after _MAX_ITER steps, and a
    zero gradient is flagged degenerate.

    Requires spec.M <= I <= N for the I x N signal matrix A.
    """
    return solve_path(A, spec, spec.gammas[None, :], init=init)[0]


def _threshold_scores(t: np.ndarray, gammas, penalty: Penalty) -> np.ndarray:
    """Raw (unnormalized) recovered scores Z, one column per row of W."""
    g = np.asarray(gammas, dtype=float)[None, :]
    if penalty is Penalty.L1:
        return np.sign(t) * np.maximum(np.abs(t) - g, 0.0)
    return t * (t**2 > g)


def _build_solution(state: SolverState, A: np.ndarray, spec: DesignSpec) -> SparseSolution:
    t = _scores(state.U, np.asarray(A, dtype=float))
    z = _threshold_scores(t, spec.gammas, spec.penalty)
    norms = np.linalg.norm(z, axis=0)
    dead = tuple(int(i) for i in np.nonzero(norms == 0.0)[0])
    w = np.zeros((spec.M, spec.N))
    for i in range(spec.M):
        if norms[i] > 0.0:
            w[i] = z[:, i] / norms[i]
    return SparseSolution(
        W=CollaborationMatrix(W=w, spec=spec),
        U=state,
        dead_rows=dead,
        raw_scores=z.T,
    )


def recover_w(U, A: np.ndarray, gammas, penalty: Penalty) -> SparseSolution:
    """Closed-form inner maximizer: threshold the scores, then unit rows.

    l1 soft-thresholds, z_ij = sign(a_j^T u_i) max(0, |a_j^T u_i| - gamma_i);
    l0 hard-thresholds, z_ij = (a_j^T u_i) when (a_j^T u_i)^2 exceeds
    gamma_i, else 0 (strict inequality, so boundary ties deactivate the
    link). Each nonzero row is scaled to unit norm; rows that vanish
    entirely are dead, and W is zero when every row is.
    """
    if penalty not in _OBJECTIVES:
        raise ValueError("recovery needs an l0 or l1 penalty")
    Uf = np.asarray(U, dtype=float)
    objective = _OBJECTIVES[penalty](Uf, A, gammas)
    state = SolverState(U=Uf, objective_trace=[objective], iterations=0, converged=True)
    spec = DesignSpec(N=np.asarray(A).shape[1], M=Uf.shape[1], gammas=gammas, penalty=penalty)
    return _build_solution(state, A, spec)


def design_sparse(
    A: np.ndarray, spec: DesignSpec, init: np.ndarray | None = None
) -> SparseSolution:
    """Solve for U from init (None for the PCA start) and recover W."""
    return _build_solution(solve_gpower(A, spec, init=init), A, spec)


def design_path(A: np.ndarray, spec: DesignSpec, gammas) -> Iterator[SparseSolution]:
    """Yield the design of spec at each of gammas, in order.

    The solves run through solve_path one lockstep batch at a time, so at
    most one batch of solver states is held, and a caller that stops early
    leaves at most one batch minus one solve unused.
    """
    Af = np.asarray(A, dtype=float)
    gammas = np.asarray(gammas, dtype=float)
    size = _batch_size(spec.N, spec.M)
    for start in range(0, len(gammas), size):
        batch = gammas[start:start + size]
        for gamma, state in zip(batch, solve_path(Af, spec, batch)):
            trial = DesignSpec(N=spec.N, M=spec.M, gammas=gamma, penalty=spec.penalty)
            yield _build_solution(state, Af, trial)


def gamma_ceiling(A: np.ndarray, penalty: Penalty) -> float:
    """A gamma at which every link of every row is provably deactivated."""
    bound = float(np.linalg.norm(np.asarray(A, dtype=float), axis=0).max())
    return bound if penalty is Penalty.L1 else bound * bound


def calibrate_gamma(
    A: np.ndarray, spec: DesignSpec, target_deactivation: float
) -> tuple[float, SparseSolution]:
    """Find a uniform gamma whose design deactivates the target link fraction.

    The penalty is spec.penalty, and spec.gammas is not read. A design is
    accepted when its count of zero links is within one link of target
    M N (SparseSolution.link_miss). Both ends of the bracket
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

    When M equals the rank of A (M = I for a generic class), U is a square
    orthogonal matrix, and at gamma = 0 every orthogonal U is optimal,
    because ||A^T U||_F^2 = ||A||_F^2. At small gamma the objective is
    nearly flat in U, so the ascent crawls there and the scan's solves are
    the slowest.

    Work: at most 2 + B + 200 solves of at most _MAX_ITER = 10_000 steps
    each, where B = min(200, ceil(log2(1e10 gamma_max))) bounds the
    bisection steps (38 at gamma_max = 20).
    """
    penalty = spec.penalty
    if penalty is Penalty.NONE:
        raise ValueError("calibration needs an l0 or l1 penalty")
    if not (0.0 <= target_deactivation <= 1.0):
        raise Unachievable(f"target {target_deactivation} outside [0, 1]")
    m, n = spec.M, spec.N

    def at(gamma: float, init) -> SparseSolution:
        trial = DesignSpec(N=n, M=m, gammas=np.full(m, gamma), penalty=penalty)
        return design_sparse(A, trial, init=init)

    best_gamma, best, best_miss = 0.0, None, np.inf

    def accepted(gamma: float, sol: SparseSolution) -> bool:
        """Keep sol if it is the closest so far; True once one is within a link."""
        nonlocal best_gamma, best, best_miss
        miss = sol.link_miss(target_deactivation)
        if miss < best_miss:
            best_gamma, best, best_miss = gamma, sol, miss
        return best_miss <= 1.0

    ceiling = gamma_ceiling(A, penalty)
    low = at(0.0, None)
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
    path = DesignSpec(N=n, M=m, penalty=penalty)
    for gamma, sol in zip(grid, design_path(A, path, grid)):
        if accepted(float(gamma), sol):
            break
    return best_gamma, best
